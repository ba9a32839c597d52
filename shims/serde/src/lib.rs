//! Offline stand-in for [`serde`](https://crates.io/crates/serde).
//!
//! The build environment has no crates.io access, so this crate provides
//! the serialization model the workspace needs: [`Serialize`] writes a
//! type's JSON straight into a `String` and [`Deserialize`] pulls it back
//! from a borrowed [`codec::Lexer`], with no tree in between. The
//! [`codec`] module is the one JSON writer and lexer; `serde_json` (the
//! sibling shim) is a thin front end over it. The derive macros
//! (`#[derive(Serialize, Deserialize)]`, re-exported from the
//! `serde_derive` shim) understand the container shapes used in this
//! repository: named structs, unit and data-carrying enum variants,
//! `#[serde(transparent)]` newtypes and `#[serde(default)]` fields.
//!
//! [`Value`] is one more type over that codec, for code that handles
//! untyped JSON; [`Serialize::to_value`] and [`Deserialize::from_value`]
//! are conveniences for such code and no derived type's own path goes
//! through them.
//!
//! The external representation matches real serde's JSON conventions so
//! traces written by one are readable by the other:
//! unit variants as `"Name"`, data variants as `{"Name": ...}`, `Option`
//! as `null`/value, transparent newtypes as their inner value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

pub mod codec;

use std::collections::BTreeMap;
use std::fmt;

use codec::{Lexer, ReadError, Token};

/// A self-describing JSON value, for code that handles untyped JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A non-negative integer (canonical form for all unsigned values).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered sequence.
    Array(Vec<Value>),
    /// An ordered map (insertion order preserved — field order matters for
    /// byte-stable output).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The entries if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short name for the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        self.token().kind()
    }

    /// The value as the codec's first token (containers as their opening
    /// bracket), so scalars convert the same way from a tree as from text.
    fn token(&self) -> Token<'_> {
        match self {
            Value::Null => Token::Null,
            Value::Bool(b) => Token::Bool(*b),
            Value::UInt(u) => Token::UInt(*u),
            Value::Int(i) => Token::Int(*i),
            Value::Float(f) => Token::Float(*f),
            Value::Str(s) => Token::Str(std::borrow::Cow::Borrowed(s)),
            Value::Array(_) => Token::ArrayStart,
            Value::Object(_) => Token::ObjectStart,
        }
    }
}

/// Looks up the first entry with `key` in an object's entry list (for
/// code that handles untyped JSON).
#[doc(hidden)]
pub fn __get<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// An error with a custom message.
    pub fn custom(message: impl Into<String>) -> Self {
        DeError {
            message: message.into(),
        }
    }

    /// "expected X while deserializing Y".
    pub fn expected(what: &str, context: &str) -> Self {
        DeError {
            message: format!("expected {what} while deserializing {context}"),
        }
    }

    /// "missing field X of Y".
    pub fn missing(field: &str, context: &str) -> Self {
        DeError {
            message: format!("missing field '{field}' of {context}"),
        }
    }

    /// The error text.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeError {}

/// Types that write themselves as JSON.
pub trait Serialize {
    /// Appends `self`'s JSON to `out`.
    fn write_json(&self, out: &mut String);

    /// `self` as an untyped [`Value`] (a convenience for untyped code:
    /// the tree is read back from [`write_json`](Self::write_json)'s
    /// text).
    fn to_value(&self) -> Value {
        let mut text = String::new();
        self.write_json(&mut text);
        Lexer::read_document(&text).expect("written JSON reads back")
    }
}

/// Types that read themselves from JSON.
pub trait Deserialize: Sized {
    /// Reads `Self` from the value at the lexer's position (whitespace
    /// already skipped), following the [`codec`] module's rules.
    ///
    /// # Errors
    ///
    /// A syntax error for malformed text, a data error for JSON of the
    /// wrong shape.
    fn read_json(lex: &mut Lexer<'_>) -> Result<Self, ReadError>;

    /// Rebuilds `Self` from an untyped [`Value`] (a convenience for
    /// untyped code: the value is written out and read back, so a tree
    /// converts as its JSON text would).
    ///
    /// # Errors
    ///
    /// The data error reading the value's text gives.
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let mut text = String::new();
        value.write_json(&mut text);
        Lexer::read_document(&text).map_err(|e| match e {
            ReadError::Data(e) => e,
            ReadError::Syntax { message, .. } => DeError::custom(message),
        })
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out)
    }
}

/// Implements both traits for a scalar type from a writer and a
/// conversion out of the codec's first [`Token`], which the text and the
/// tree paths share.
macro_rules! impl_scalar {
    ($t:ty, |$s:ident, $out:ident| $write:expr, |$tok:ident| $convert:expr) => {
        impl Serialize for $t {
            fn write_json(&self, $out: &mut String) {
                let $s = self;
                $write
            }
        }
        impl Deserialize for $t {
            fn read_json(lex: &mut Lexer<'_>) -> Result<Self, ReadError> {
                let $tok = lex.token()?;
                Ok($convert?)
            }
            fn from_value(value: &Value) -> Result<Self, DeError> {
                let $tok = value.token();
                $convert
            }
        }
    };
}

/// 2⁶⁴ and 2⁶³, exactly: `u64::MAX as f64` and `i64::MAX as f64` round up
/// to them, so a whole float is in range only strictly below.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// A whole number, as an integer text or a whole float, that `name`
/// cannot hold. The message names no digits: a [`Value`] keeps such a
/// number as its nearest float, so the text and the tree would differ.
fn out_of_range(name: &str) -> DeError {
    DeError::custom(format!("integer out of range for {name}"))
}

/// An unsigned integer for a reader of `name`. Whole floats coerce.
fn to_u64(token: Token<'_>, name: &str) -> Result<u64, DeError> {
    match token {
        Token::UInt(u) => Ok(u),
        Token::Int(i) if i >= 0 => Ok(i as u64),
        Token::Float(f) if f >= 0.0 && f.fract() == 0.0 => (f < TWO_POW_64)
            .then_some(f as u64)
            .ok_or_else(|| out_of_range(name)),
        Token::BigInt(text) if !text.starts_with('-') => Err(out_of_range(name)),
        other => Err(DeError::expected("unsigned integer", other.kind())),
    }
}

/// A signed integer for a reader of `name`. Whole floats coerce.
fn to_i64(token: Token<'_>, name: &str) -> Result<i64, DeError> {
    match token {
        Token::UInt(u) => {
            i64::try_from(u).map_err(|_| DeError::custom(format!("integer {u} out of i64 range")))
        }
        Token::Int(i) => Ok(i),
        Token::Float(f) if f.fract() == 0.0 => (-TWO_POW_63..TWO_POW_63)
            .contains(&f)
            .then_some(f as i64)
            .ok_or_else(|| out_of_range(name)),
        Token::BigInt(_) => Err(out_of_range(name)),
        other => Err(DeError::expected("integer", other.kind())),
    }
}

fn narrow<W: Copy + fmt::Display, T: TryFrom<W>>(raw: W, name: &str) -> Result<T, DeError> {
    T::try_from(raw).map_err(|_| DeError::custom(format!("integer {raw} out of range for {name}")))
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl_scalar!($t, |v, out| codec::write_u64(out, *v as u64),
            |token| to_u64(token, stringify!($t)).and_then(|raw| narrow(raw, stringify!($t))));
    )*};
}

impl_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl_scalar!($t, |v, out| codec::write_i64(out, *v as i64),
            |token| to_i64(token, stringify!($t)).and_then(|raw| narrow(raw, stringify!($t))));
    )*};
}

impl_int!(i8, i16, i32, i64, isize);

/// The nearest float to an integer text (infinite past `f64`'s range).
fn big_float(text: &str) -> f64 {
    text.parse().expect("an integer text parses as a float")
}

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl_scalar!($t, |v, out| codec::write_f64(out, *v as f64), |token| match token {
            Token::Float(f) => Ok(f as $t),
            Token::BigInt(text) => Ok(big_float(text) as $t),
            Token::UInt(u) => Ok(u as $t),
            Token::Int(i) => Ok(i as $t),
            other => Err(DeError::expected("number", other.kind())),
        });
    )*};
}

impl_float!(f32, f64);

impl_scalar!(
    bool,
    |v, out| out.push_str(if *v { "true" } else { "false" }),
    |token| {
        match token {
            Token::Bool(b) => Ok(b),
            other => Err(DeError::expected("bool", other.kind())),
        }
    }
);

impl_scalar!(
    String,
    |v, out| codec::write_str(out, v),
    |token| match token {
        Token::Str(s) => Ok(s.into_owned()),
        other => Err(DeError::expected("string", other.kind())),
    }
);

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        codec::write_str(out, self)
    }
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::UInt(u) => codec::write_u64(out, *u),
            Value::Int(i) => codec::write_i64(out, *i),
            Value::Float(x) => codec::write_f64(out, *x),
            Value::Str(s) => codec::write_str(out, s),
            Value::Array(items) => items.write_json(out),
            Value::Object(entries) => {
                write_object(out, entries.iter().map(|(k, v)| (k.as_str(), v)))
            }
        }
    }

    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn read_json(lex: &mut Lexer<'_>) -> Result<Self, ReadError> {
        let mut more = false;
        Ok(match lex.token()? {
            Token::Null => Value::Null,
            Token::Bool(b) => Value::Bool(b),
            Token::UInt(u) => Value::UInt(u),
            Token::Int(i) => Value::Int(i),
            Token::Float(f) => Value::Float(f),
            Token::BigInt(text) => Value::Float(big_float(text)),
            Token::Str(s) => Value::Str(s.into_owned()),
            Token::ArrayStart => {
                let mut items = Vec::new();
                while lex.next_element(&mut more)? {
                    items.push(Value::read_json(lex)?);
                }
                Value::Array(items)
            }
            Token::ObjectStart => {
                let mut entries = Vec::new();
                while let Some(key) = lex.next_key(&mut more)? {
                    let value = Value::read_json(lex)?;
                    entries.push((key.into_owned(), value));
                }
                Value::Object(entries)
            }
        })
    }

    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}

fn write_object<'v, V: Serialize + 'v>(
    out: &mut String,
    entries: impl Iterator<Item = (&'v str, &'v V)>,
) {
    out.push('{');
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        codec::write_str(out, key);
        out.push(':');
        value.write_json(out);
    }
    out.push('}');
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(v) => v.write_json(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(lex: &mut Lexer<'_>) -> Result<Self, ReadError> {
        if lex.peek() == Some(b'n') {
            // `null` or a syntax error (the nesting guard included).
            lex.token()?;
            return Ok(None);
        }
        T::read_json(lex).map(Some)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(lex: &mut Lexer<'_>) -> Result<Self, ReadError> {
        lex.open_array()?;
        let mut items = Vec::new();
        let mut more = false;
        while lex.next_element(&mut more)? {
            items.push(T::read_json(lex)?);
        }
        Ok(items)
    }
}

/// An exactly sized sequence: the same JSON array as a `Vec`.
impl<T: Serialize> Serialize for Box<[T]> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out)
    }
}

/// Read as a `Vec`, then trimmed to its length, so a long-lived value keeps
/// no growth slack.
impl<T: Deserialize> Deserialize for Box<[T]> {
    fn read_json(lex: &mut Lexer<'_>) -> Result<Self, ReadError> {
        Vec::read_json(lex).map(Vec::into_boxed_slice)
    }
}

impl<K: Serialize + Ord + ToString, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, out: &mut String) {
        let keys: Vec<String> = self.keys().map(ToString::to_string).collect();
        write_object(out, keys.iter().map(String::as_str).zip(self.values()));
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.write_json(out);
                )+
                out.push(']');
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn read_json(lex: &mut Lexer<'_>) -> Result<Self, ReadError> {
                lex.open_array()?;
                let mut more = false;
                let tuple = ($({
                    if !lex.next_element(&mut more)? {
                        return Err(DeError::custom(format!(
                            "tuple too short: {} elements",
                            $idx
                        ))
                        .into());
                    }
                    $name::read_json(lex)?
                },)+);
                // Extra elements are ignored, but must be well-formed.
                while lex.next_element(&mut more)? {
                    lex.skip_value()?;
                }
                Ok(tuple)
            }
        }
    )*};
}

impl_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::from_value(&42u32.to_value()), Ok(42));
        assert_eq!(i64::from_value(&(-7i64).to_value()), Ok(-7));
        assert_eq!(f64::from_value(&1.5f64.to_value()), Ok(1.5));
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()),
            Ok("hi".to_string())
        );
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_value(&v.to_value()), Ok(v));
        let o: Option<u8> = None;
        assert_eq!(Option::<u8>::from_value(&o.to_value()), Ok(None));
        assert_eq!(Option::<u8>::from_value(&Some(9u8).to_value()), Ok(Some(9)));
        let t = (1u8, "x".to_string());
        assert_eq!(<(u8, String)>::from_value(&t.to_value()), Ok(t));
    }

    #[test]
    fn out_of_range_integers_error() {
        assert!(u8::from_value(&Value::UInt(300)).is_err());
        assert!(u32::from_value(&Value::Int(-1)).is_err());
        assert!(u64::from_value(&Value::Float(0.5)).is_err());
    }

    #[test]
    fn type_mismatches_error() {
        assert!(bool::from_value(&Value::UInt(1)).is_err());
        assert!(String::from_value(&Value::Null).is_err());
        assert!(Vec::<u8>::from_value(&Value::Str("no".into())).is_err());
    }
}
