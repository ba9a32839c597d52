//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` over
//! the sibling `serde` shim's JSON codec, by hand-parsing the item's token
//! stream (no `syn`/`quote` available offline). A derived `Serialize`
//! writes its JSON straight into a `String`; a derived `Deserialize` pulls
//! itself from the codec's borrowed lexer, taking an object's fields in
//! any order, keeping the first of duplicate keys, checking and skipping
//! unknown keys and applying `#[serde(default)]`. Neither builds a
//! `Value` tree. Supported container shapes — the ones this workspace
//! uses:
//!
//! * named-field structs (with `#[serde(default)]` on fields),
//! * tuple structs with one field (newtype semantics, so
//!   `#[serde(transparent)]` is honoured and also the default),
//! * enums with unit, newtype and struct variants, using serde's
//!   externally-tagged JSON convention.
//!
//! Generics, tuple variants of other arities and unsupported
//! `#[serde(...)]` attributes (`rename`, `skip`, …) are compile errors
//! rather than silent misbehaviour.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl must parse")
}

/// Derives `serde::Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl must parse")
}

// ---------------------------------------------------------------- model

struct Field {
    name: String,
    default: bool,
}

enum VariantShape {
    Unit,
    /// A one-field tuple variant; other arities are rejected at parse
    /// time.
    Newtype,
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum Body {
    NamedStruct(Vec<Field>),
    /// A single-field tuple struct (newtype); other arities are rejected
    /// at parse time.
    TupleStruct,
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    body: Body,
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;

    // Container attributes: skip, but validate any #[serde(...)].
    skip_attrs(&tokens, &mut pos, &mut Vec::new());
    skip_visibility(&tokens, &mut pos);

    let keyword = expect_ident(&tokens, &mut pos);
    let name = expect_ident(&tokens, &mut pos);
    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }

    let body = match keyword.as_str() {
        "struct" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                if n != 1 {
                    panic!(
                        "serde shim derive: tuple struct `{name}` has {n} fields; \
                         only single-field newtypes are supported"
                    );
                }
                Body::TupleStruct
            }
            other => panic!("serde shim derive: unsupported struct body for `{name}`: {other:?}"),
        },
        "enum" => match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde shim derive: malformed enum `{name}`: {other:?}"),
        },
        other => panic!("serde shim derive: expected struct or enum, found `{other}`"),
    };
    Item { name, body }
}

/// Skips attributes starting at `*pos`, collecting recognized `serde`
/// attribute words (`default`, `transparent`) into `serde_words`.
fn skip_attrs(tokens: &[TokenTree], pos: &mut usize, serde_words: &mut Vec<String>) {
    loop {
        match (tokens.get(*pos), tokens.get(*pos + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                collect_serde_words(g.stream(), serde_words);
                *pos += 2;
            }
            _ => return,
        }
    }
}

/// If the bracket group is `serde(...)`, records its comma-separated words
/// and rejects unsupported ones.
fn collect_serde_words(attr: TokenStream, out: &mut Vec<String>) {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    match (tokens.first(), tokens.get(1)) {
        (Some(TokenTree::Ident(name)), Some(TokenTree::Group(args)))
            if name.to_string() == "serde" && args.delimiter() == Delimiter::Parenthesis =>
        {
            for tok in args.stream() {
                match tok {
                    TokenTree::Ident(word) => {
                        let word = word.to_string();
                        match word.as_str() {
                            "default" | "transparent" => out.push(word),
                            other => panic!(
                                "serde shim derive: unsupported serde attribute `{other}` \
                                 (only `default` and `transparent` are implemented)"
                            ),
                        }
                    }
                    TokenTree::Punct(p) if p.as_char() == ',' => {}
                    other => {
                        panic!("serde shim derive: unsupported serde attribute syntax `{other}`")
                    }
                }
            }
        }
        _ => {} // doc comments, #[non_exhaustive], #[default], ...
    }
}

fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(tokens.get(*pos), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *pos += 1;
        if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

fn expect_ident(tokens: &[TokenTree], pos: &mut usize) -> String {
    match tokens.get(*pos) {
        Some(TokenTree::Ident(id)) => {
            *pos += 1;
            id.to_string()
        }
        other => panic!("serde shim derive: expected identifier, found {other:?}"),
    }
}

/// Parses `name: Type, ...` named-field lists (types are skipped with
/// angle-bracket awareness, so `Vec<(A, B)>` does not split a field).
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();
    while pos < tokens.len() {
        let mut words = Vec::new();
        skip_attrs(&tokens, &mut pos, &mut words);
        if pos >= tokens.len() {
            break;
        }
        skip_visibility(&tokens, &mut pos);
        let name = expect_ident(&tokens, &mut pos);
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => {
                panic!("serde shim derive: expected ':' after field `{name}`, found {other:?}")
            }
        }
        skip_type(&tokens, &mut pos);
        fields.push(Field {
            name,
            default: words.iter().any(|w| w == "default"),
        });
    }
    fields
}

/// Consumes a type up to (and including) the next top-level comma.
fn skip_type(tokens: &[TokenTree], pos: &mut usize) {
    let mut angle_depth = 0i32;
    while let Some(tok) = tokens.get(*pos) {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    *pos += 1;
                    return;
                }
                _ => {}
            }
        }
        *pos += 1;
    }
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut pos = 0;
    let mut count = 0;
    while pos < tokens.len() {
        skip_attrs(&tokens, &mut pos, &mut Vec::new());
        skip_visibility(&tokens, &mut pos);
        skip_type(&tokens, &mut pos);
        count += 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut variants = Vec::new();
    while pos < tokens.len() {
        skip_attrs(&tokens, &mut pos, &mut Vec::new());
        if pos >= tokens.len() {
            break;
        }
        let name = expect_ident(&tokens, &mut pos);
        let shape = match tokens.get(pos) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                pos += 1;
                VariantShape::Struct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                pos += 1;
                let n = count_tuple_fields(g.stream());
                if n != 1 {
                    panic!(
                        "serde shim derive: tuple variant `{name}` has {n} fields; \
                         only single-field variants are supported"
                    );
                }
                VariantShape::Newtype
            }
            _ => VariantShape::Unit,
        };
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => pos += 1,
            None => {}
            other => panic!(
                "serde shim derive: expected ',' after variant `{name}` \
                 (discriminants are unsupported), found {other:?}"
            ),
        }
        variants.push(Variant { name, shape });
    }
    variants
}

// ---------------------------------------------------------------- codegen

/// A Rust string literal for `text`.
fn lit(text: &str) -> String {
    format!("{text:?}")
}

/// Statements writing `{"a":<a>,"b":<b>}` for fields bound to the
/// expressions `access(field)`; `open` is pushed before the brace (a
/// variant's tag) and `close` after it.
fn write_fields(
    fields: &[Field],
    open: &str,
    close: &str,
    access: impl Fn(&str) -> String,
) -> String {
    let mut stmts = Vec::new();
    let mut pending = format!("{open}{{");
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            pending.push(',');
        }
        pending.push_str(&format!("\"{}\":", f.name));
        stmts.push(format!("__out.push_str({});", lit(&pending)));
        stmts.push(format!(
            "::serde::Serialize::write_json({}, __out);",
            access(&f.name)
        ));
        pending.clear();
    }
    pending.push_str(&format!("}}{close}"));
    stmts.push(format!("__out.push_str({});", lit(&pending)));
    stmts.join("\n")
}

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::TupleStruct => "::serde::Serialize::write_json(&self.0, __out);".to_string(),
        Body::NamedStruct(fields) => write_fields(fields, "", "", |f| format!("&self.{f}")),
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.shape {
                        VariantShape::Unit => format!(
                            "{name}::{vname} => __out.push_str({}),",
                            lit(&format!("\"{vname}\""))
                        ),
                        VariantShape::Newtype => format!(
                            "{name}::{vname}(__f0) => {{\n\
                                 __out.push_str({});\n\
                                 ::serde::Serialize::write_json(__f0, __out);\n\
                                 __out.push('}}');\n\
                             }}",
                            lit(&format!("{{\"{vname}\":"))
                        ),
                        VariantShape::Struct(fields) => {
                            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            format!(
                                "{name}::{vname} {{ {} }} => {{\n{}\n}}",
                                binds.join(", "),
                                write_fields(fields, &format!("{{\"{vname}\":"), "}", |f| {
                                    f.to_string()
                                })
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join("\n"))
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn write_json(&self, __out: &mut ::std::string::String) {{ {body} }}\n\
         }}"
    )
}

/// Statements reading a named-field object into `ctor { .. }` and
/// returning it: one slot per field filled in text order, resolved in
/// declaration order. `context` names the type in errors.
fn read_fields(context: &str, ctor: &str, fields: &[Field]) -> String {
    let slots: Vec<String> = (0..fields.len())
        .map(|i| format!("let mut __s{i} = ::serde::codec::Slot::default();"))
        .collect();
    let arms: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| format!("{} => __lex.fill(&mut __s{i})?,", lit(&f.name)))
        .collect();
    let inits: Vec<String> = fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            if f.default {
                format!("{}: __s{i}.or_default()?", f.name)
            } else {
                format!(
                    "{}: __s{i}.required({}, {})?",
                    f.name,
                    lit(&f.name),
                    lit(context)
                )
            }
        })
        .collect();
    format!(
        "{}\n\
         __lex.open_object({})?;\n\
         let mut __more = false;\n\
         while let ::std::option::Option::Some(__key) = __lex.next_key(&mut __more)? {{\n\
             match &*__key {{\n\
                 {}\n\
                 _ => __lex.skip_value()?,\n\
             }}\n\
         }}\n\
         ::std::result::Result::Ok({ctor} {{ {} }})",
        slots.join("\n"),
        lit(context),
        arms.join("\n"),
        inits.join(", ")
    )
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::TupleStruct => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::read_json(__lex)?))")
        }
        Body::NamedStruct(fields) => read_fields(name, name, fields),
        Body::Enum(variants) => gen_enum_deserialize(name, variants),
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn read_json(__lex: &mut ::serde::codec::Lexer<'_>) \
                 -> ::std::result::Result<Self, ::serde::codec::ReadError> {{ {body} }}\n\
         }}"
    )
}

/// An externally tagged enum: a unit variant is its name as a string, a
/// data variant a one-key object. A data variant's value is read with
/// its data error held back until the object is known to close after
/// it, so "not a one-key object" is reported first.
fn gen_enum_deserialize(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = Vec::new();
    let mut data_arms = Vec::new();
    for v in variants {
        let vname = &v.name;
        match &v.shape {
            VariantShape::Unit => unit_arms.push(format!(
                "{} => ::std::result::Result::Ok({name}::{vname}),",
                lit(vname)
            )),
            VariantShape::Newtype => data_arms.push(format!(
                "{} => __lex.read_or_skip()?.map({name}::{vname}),",
                lit(vname)
            )),
            VariantShape::Struct(fields) => data_arms.push(format!(
                "{} => __lex.read_or_skip_with(|__lex| {{ {} }})?,",
                lit(vname),
                read_fields(
                    &format!("{name}::{vname}"),
                    &format!("{name}::{vname}"),
                    fields
                )
            )),
        }
    }
    format!(
        "match __lex.open_enum({})? {{\n\
             ::serde::codec::Tag::Unit(__tag) => match &*__tag {{\n\
                 {}\n\
                 __other => ::std::result::Result::Err(::serde::DeError::custom(\
                     ::std::format!(\"unknown unit variant '{{__other}}' of {name}\")).into()),\n\
             }},\n\
             ::serde::codec::Tag::Data(__tag) => {{\n\
                 let __read: ::std::result::Result<Self, ::serde::DeError> = match &*__tag {{\n\
                     {}\n\
                     __other => {{\n\
                         __lex.skip_value()?;\n\
                         ::std::result::Result::Err(::serde::DeError::custom(\
                             ::std::format!(\"unknown variant '{{__other}}' of {name}\")))\n\
                     }}\n\
                 }};\n\
                 __lex.close_enum({})?;\n\
                 __read.map_err(::std::convert::From::from)\n\
             }}\n\
         }}",
        lit(name),
        unit_arms.join("\n"),
        data_arms.join("\n"),
        lit(name)
    )
}
