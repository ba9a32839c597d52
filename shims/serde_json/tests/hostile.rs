//! Hostile input for the typed reader. The daemon reads untrusted lines
//! straight into derived types, so the reader must refuse what the
//! untyped parser refuses, with the same error, and convert what it
//! accepts exactly as the `Value` path does.

use serde::{Deserialize, Serialize, Value};
use serde_json::{from_str, parse_value_str, to_string, Error};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Job {
    id: u32,
    label: String,
    weight: f64,
    #[serde(default)]
    tags: Vec<String>,
    kind: Kind,
    parent: Option<u8>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Kind {
    Map,
    Reduce { fan_in: u16 },
    Chain(Vec<u32>),
}

fn job() -> Job {
    Job {
        id: 7,
        label: "a \"quoted\" \\ label\n\u{1}é🦀".to_string(),
        weight: 0.1 + 0.2,
        tags: vec!["x".to_string(), String::new()],
        kind: Kind::Reduce { fan_in: 3 },
        parent: None,
    }
}

fn syntax(e: Error) -> (String, usize) {
    match e {
        Error::Syntax { message, offset } => (message, offset),
        other => panic!("expected a syntax error, got {other}"),
    }
}

fn data(e: Error) -> String {
    match e {
        Error::Data(e) => e.message().to_string(),
        other => panic!("expected a data error, got {other}"),
    }
}

/// The typed reader agrees with reading the text into a `Value` and
/// converting that: syntax errors are the untyped parser's, data errors
/// the conversion's.
fn agrees_with_the_tree(text: &str) {
    let typed = from_str::<Job>(text).map_err(|e| e.to_string());
    let via_tree = parse_value_str(text)
        .and_then(|v| Job::from_value(&v).map_err(Error::Data))
        .map_err(|e| e.to_string());
    assert_eq!(typed, via_tree, "on {text:?}");
}

#[test]
fn a_document_round_trips_and_matches_the_tree_writer() {
    let text = to_string(&job()).unwrap();
    assert_eq!(from_str::<Job>(&text).unwrap(), job());
    assert_eq!(to_string(&parse_value_str(&text).unwrap()).unwrap(), text);
    assert_eq!(to_string(&job().to_value()).unwrap(), text);
}

#[test]
fn nesting_deeper_than_128_is_refused() {
    // 127 arrays around a scalar, or 128 empty ones, are the deepest.
    let ok = format!("{}1{}", "[".repeat(127), "]".repeat(127));
    assert!(parse_value_str(&ok).is_ok());
    let ok = format!("{}{}", "[".repeat(128), "]".repeat(128));
    assert!(parse_value_str(&ok).is_ok());
    let deep = format!("{}1{}", "[".repeat(128), "]".repeat(128));
    assert_eq!(
        syntax(parse_value_str(&deep).unwrap_err()),
        ("JSON nesting too deep".to_string(), 128)
    );
    // Hidden in an unknown key, in a typed field, and far past the
    // guard: the same refusal, and no stack overflow.
    for inner in [128, 100_000] {
        let nest = format!("{}{}", "[".repeat(inner), "]".repeat(inner));
        let unknown = format!(r#"{{"id":1,"zzz":{nest}}}"#);
        let (message, _) = syntax(from_str::<Job>(&unknown).unwrap_err());
        assert_eq!(message, "JSON nesting too deep");
        agrees_with_the_tree(&unknown);
        let field = format!(r#"{{"kind":{{"Chain":{nest}}}}}"#);
        assert_eq!(
            syntax(from_str::<Job>(&field).unwrap_err()).0,
            "JSON nesting too deep"
        );
        agrees_with_the_tree(&field);
    }
}

#[test]
fn truncated_documents_and_trailing_garbage_are_syntax_errors() {
    let text = to_string(&job()).unwrap();
    for cut in 0..text.len() {
        if !text.is_char_boundary(cut) {
            continue;
        }
        let prefix = &text[..cut];
        assert!(
            matches!(from_str::<Job>(prefix), Err(Error::Syntax { .. })),
            "prefix {prefix:?} was not a syntax error"
        );
        agrees_with_the_tree(prefix);
    }
    for tail in [" x", "}", ",", " {}", "\u{0}", "1"] {
        let garbage = format!("{text}{tail}");
        assert_eq!(
            syntax(from_str::<Job>(&garbage).unwrap_err()),
            (
                "trailing characters after JSON document".to_string(),
                text.len() + usize::from(tail.starts_with(' '))
            )
        );
    }
    // Whitespace around the document is fine.
    assert_eq!(from_str::<Job>(&format!(" \n\t{text}\r\n")).unwrap(), job());
}

#[test]
fn unpaired_surrogates_are_refused() {
    let cases = [
        (r#""\ud800""#, "unpaired high surrogate", 7),
        (r#""\ud800x""#, "unpaired high surrogate", 7),
        (r#""\udc00""#, "unpaired low surrogate", 7),
        (r#""\ud800\u0041""#, "invalid low surrogate", 13),
        (r#""\ud800\ud800""#, "invalid low surrogate", 13),
        (r#""🦀""#, "", 0),
    ];
    for (text, message, offset) in cases {
        let result = from_str::<String>(text);
        if message.is_empty() {
            assert_eq!(result.unwrap(), "🦀");
        } else {
            assert_eq!(syntax(result.unwrap_err()), (message.to_string(), offset));
        }
    }
    // In a key, in a typed field and in a skipped value alike.
    for text in [
        r#"{"\udc00":1}"#,
        r#"{"label":"\ud800"}"#,
        r#"{"id":1,"zzz":["\udc00"]}"#,
    ] {
        assert!(matches!(from_str::<Job>(text), Err(Error::Syntax { .. })));
        agrees_with_the_tree(text);
    }
}

#[test]
fn out_of_range_integers_are_refused_with_the_conversion_message() {
    assert_eq!(
        data(from_str::<u8>("256").unwrap_err()),
        "integer 256 out of range for u8"
    );
    assert_eq!(
        data(from_str::<u32>("-1").unwrap_err()),
        "expected unsigned integer while deserializing integer"
    );
    assert_eq!(
        data(from_str::<u32>("1.5").unwrap_err()),
        "expected unsigned integer while deserializing float"
    );
    assert_eq!(
        data(from_str::<i64>("9223372036854775808").unwrap_err()),
        "integer 9223372036854775808 out of i64 range"
    );
    assert_eq!(
        data(from_str::<i8>("-129").unwrap_err()),
        "integer -129 out of range for i8"
    );
    // The coercions: a whole float, `-0` and an exponent are integers.
    assert_eq!(from_str::<u32>("3.0").unwrap(), 3);
    assert_eq!(from_str::<u32>("-0").unwrap(), 0);
    assert_eq!(from_str::<u64>("1e3").unwrap(), 1000);
    assert_eq!(from_str::<i32>("-2e1").unwrap(), -20);
    assert_eq!(from_str::<f64>("7").unwrap(), 7.0);
    // Past u64, a float reader takes an integer's nearest float.
    assert_eq!(
        from_str::<f64>("18446744073709551616").unwrap(),
        2f64.powi(64)
    );
    // An integer reader refuses it, and every whole number its type
    // cannot hold, instead of saturating to the float's cast: 2⁶⁴, a text
    // that rounds down to 2⁶⁴, one below i64::MIN that rounds up to it, and
    // a whole float at 2⁶⁴.
    for (result, ty) in [
        (from_str::<u64>("18446744073709551616").map(|_| ()), "u64"),
        (from_str::<u64>("18446744073709553000").map(|_| ()), "u64"),
        (from_str::<i64>("-9223372036854775809").map(|_| ()), "i64"),
        (from_str::<u64>("1.8446744073709552e19").map(|_| ()), "u64"),
        (
            from_str::<i64>("9.223372036854775808e18").map(|_| ()),
            "i64",
        ),
        (
            from_str::<u32>("99999999999999999999999").map(|_| ()),
            "u32",
        ),
    ] {
        assert_eq!(
            data(result.unwrap_err()),
            format!("integer out of range for {ty}")
        );
    }
    // Just inside the ranges, the same texts still read.
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    assert_eq!(
        from_str::<i64>("-9.223372036854775808e18").unwrap(),
        i64::MIN
    );
    assert_eq!(
        data(from_str::<u64>("-18446744073709551616").unwrap_err()),
        "expected unsigned integer while deserializing float"
    );
    for text in [
        r#"{"id":18446744073709551616}"#,
        r#"{"id":4294967296}"#,
        r#"{"id":-1}"#,
        r#"{"parent":300}"#,
        r#"{"kind":{"Reduce":{"fan_in":70000}}}"#,
    ] {
        assert!(matches!(from_str::<Job>(text), Err(Error::Data(_))));
        agrees_with_the_tree(text);
    }
}

#[test]
fn the_first_of_duplicate_keys_wins() {
    let base = to_string(&job()).unwrap();
    // A later duplicate, even an ill-typed one, is skipped.
    let twice = format!(
        r#"{},"id":"not a number","id":9}}"#,
        &base[..base.len() - 1]
    );
    assert_eq!(from_str::<Job>(&twice).unwrap(), job());
    agrees_with_the_tree(&twice);
    // An ill-typed first occurrence is the error, whatever follows.
    let bad_first = format!(r#"{{"id":"x",{}"#, &base[1..]);
    assert_eq!(
        data(from_str::<Job>(&bad_first).unwrap_err()),
        "expected unsigned integer while deserializing string"
    );
    agrees_with_the_tree(&bad_first);
    // But a malformed duplicate is still malformed JSON.
    let malformed = format!(r#"{},"id":[1,]}}"#, &base[..base.len() - 1]);
    assert!(matches!(
        from_str::<Job>(&malformed),
        Err(Error::Syntax { .. })
    ));
    agrees_with_the_tree(&malformed);
}

#[test]
fn unknown_keys_are_checked_and_skipped() {
    let base = to_string(&job()).unwrap();
    let extra = format!(
        r#"{{"zzz":{{"deep":[1,-2.5e3,{{"x":null}},"é",true]}},{}"#,
        &base[1..]
    );
    assert_eq!(from_str::<Job>(&extra).unwrap(), job());
    agrees_with_the_tree(&extra);
    for bad in [
        r#"{"zzz":[1,],"id":1}"#,
        r#"{"zzz":tru,"id":1}"#,
        r#"{"zzz":"\q","id":1}"#,
        r#"{"zzz":01.e,"id":1}"#,
        r#"{"zzz":{"a" 1},"id":1}"#,
        r#"{"id":"wrong type","zzz":[1,}"#,
    ] {
        assert!(
            matches!(from_str::<Job>(bad), Err(Error::Syntax { .. })),
            "{bad} was not a syntax error"
        );
        agrees_with_the_tree(bad);
    }
}

#[test]
fn missing_fields_without_a_default_are_named() {
    assert_eq!(
        data(from_str::<Job>("{}").unwrap_err()),
        "missing field 'id' of Job"
    );
    let no_kind = r#"{"id":1,"label":"","weight":1,"parent":null}"#;
    assert_eq!(
        data(from_str::<Job>(no_kind).unwrap_err()),
        "missing field 'kind' of Job"
    );
    // `#[serde(default)]` fills `tags`; `Option` is not optional.
    let no_tags = r#"{"id":1,"label":"","weight":1,"kind":"Map","parent":2}"#;
    assert_eq!(from_str::<Job>(no_tags).unwrap().tags, Vec::<String>::new());
    let no_parent = r#"{"id":1,"label":"","weight":1,"kind":"Map"}"#;
    assert_eq!(
        data(from_str::<Job>(no_parent).unwrap_err()),
        "missing field 'parent' of Job"
    );
    assert_eq!(
        data(from_str::<Job>(r#"{"kind":{"Reduce":{}}}"#).unwrap_err()),
        "missing field 'id' of Job"
    );
    assert_eq!(
        data(from_str::<Kind>(r#"{"Reduce":{}}"#).unwrap_err()),
        "missing field 'fan_in' of Kind::Reduce"
    );
}

#[test]
fn the_first_declared_bad_field_is_reported_whatever_the_text_order() {
    for text in [
        r#"{"kind":"Nope","id":"x"}"#,
        r#"{"id":"x","kind":"Nope"}"#,
        r#"{"kind":"Nope"}"#,
        r#"{"weight":"heavy","label":7}"#,
    ] {
        agrees_with_the_tree(text);
    }
    assert_eq!(
        data(from_str::<Job>(r#"{"kind":"Nope","id":"x"}"#).unwrap_err()),
        "expected unsigned integer while deserializing string"
    );
}

#[test]
fn enum_shapes_report_what_the_tree_conversion_reports() {
    let cases = [
        (r#""Nope""#, "unknown unit variant 'Nope' of Kind"),
        (r#""Reduce""#, "unknown unit variant 'Reduce' of Kind"),
        (r#"{"Map":null}"#, "unknown variant 'Map' of Kind"),
        (r#"{}"#, "expected enum Kind while deserializing object"),
        (
            r#"{"Chain":[],"Map":1}"#,
            "expected enum Kind while deserializing object",
        ),
        (
            r#"{"Nope":1,"Map":1}"#,
            "expected enum Kind while deserializing object",
        ),
        (
            r#"{"Chain":"x","Map":1}"#,
            "expected enum Kind while deserializing object",
        ),
        (
            r#"{"Chain":"x"}"#,
            "expected array while deserializing string",
        ),
        (
            r#"{"Reduce":[]}"#,
            "expected object while deserializing Kind::Reduce",
        ),
        (r#"[1]"#, "expected enum Kind while deserializing array"),
        (r#"2.5"#, "expected enum Kind while deserializing float"),
    ];
    for (text, message) in cases {
        assert_eq!(data(from_str::<Kind>(text).unwrap_err()), message, "{text}");
        let tree = parse_value_str(text).unwrap();
        assert_eq!(Kind::from_value(&tree).unwrap_err().message(), message);
    }
    assert_eq!(
        from_str::<Kind>(r#"{"Chain":[1,2]}"#).unwrap(),
        Kind::Chain(vec![1, 2])
    );
    assert_eq!(from_str::<Kind>(r#" "Map" "#).unwrap(), Kind::Map);
}

#[test]
fn values_read_and_write_as_before() {
    let text = r#"{"a":[1,-2,3.5,1e300,"s\n",null,true,{}],"a":{"b":[]}}"#;
    let tree = parse_value_str(text).unwrap();
    let Value::Object(entries) = &tree else {
        panic!("an object")
    };
    assert_eq!(entries.len(), 2, "a tree keeps duplicate keys");
    let Value::Array(items) = &entries[0].1 else {
        panic!("an array")
    };
    assert_eq!(items[0], Value::UInt(1));
    assert_eq!(items[1], Value::Int(-2));
    assert_eq!(items[3], Value::Float(1e300));
    assert_eq!(
        to_string(&tree).unwrap(),
        format!(
            r#"{{"a":[1,-2,3.5,1{},"s\n",null,true,{{}}],"a":{{"b":[]}}}}"#,
            "0".repeat(300)
        )
    );
    assert_eq!(f64::from_value(&Value::UInt(3)).unwrap(), 3.0);
    assert_eq!(u32::from_value(&Value::Float(4.0)).unwrap(), 4);
}
