//! Offline stand-in for [`serde_json`](https://crates.io/crates/serde_json).
//!
//! A thin front end over the `serde` shim's [`codec`](serde::codec):
//! [`to_string`] has a [`Serialize`] type write its compact JSON
//! directly, [`from_str`] has a [`Deserialize`] type pull itself from the
//! text, and [`parse_value_str`] reads untyped JSON into a [`Value`].
//! Floats are written with Rust's shortest-roundtrip formatting and parsed
//! with [`str::parse`], so every finite `f64` round-trips bit-exactly — a
//! property the campaign result cache relies on for byte-identical
//! warm-cache reruns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::Write as IoWrite;

use serde::codec::{Lexer, ReadError};
use serde::{DeError, Deserialize, Serialize, Value};

/// A serialization or deserialization failure.
#[derive(Debug)]
pub enum Error {
    /// Malformed JSON at a byte offset.
    Syntax {
        /// What went wrong.
        message: String,
        /// Byte offset into the input.
        offset: usize,
    },
    /// Structurally valid JSON that doesn't match the target type.
    Data(DeError),
    /// An I/O failure while writing.
    Io(std::io::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { message, offset } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            Error::Data(e) => write!(f, "JSON data error: {e}"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::Data(e)
    }
}

impl From<ReadError> for Error {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Syntax { message, offset } => Error::Syntax { message, offset },
            ReadError::Data(e) => Error::Data(e),
        }
    }
}

/// Serializes `value` to a compact JSON string.
///
/// # Errors
///
/// Infallible in practice for the shim model; the `Result` mirrors the
/// upstream signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

/// Serializes `value` as compact JSON into `writer`.
///
/// # Errors
///
/// Returns [`Error::Io`] if the writer fails.
pub fn to_writer<W: IoWrite, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<(), Error> {
    let text = to_string(value)?;
    writer.write_all(text.as_bytes()).map_err(Error::Io)
}

/// Parses a JSON string into any deserializable type.
///
/// # Errors
///
/// Returns [`Error::Syntax`] for malformed JSON (anywhere in the text,
/// even after a data mismatch) and [`Error::Data`] when the JSON does not
/// match `T`'s shape.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    Lexer::read_document(input).map_err(Error::from)
}

/// Parses a JSON string into a raw [`Value`] tree.
///
/// # Errors
///
/// Returns [`Error::Syntax`] for malformed JSON.
pub fn parse_value_str(input: &str) -> Result<Value, Error> {
    from_str(input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(to_string(&-3i32).unwrap(), "-3");
        assert_eq!(from_str::<i32>("-3").unwrap(), -3);
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(from_str::<Option<u8>>("null").unwrap(), None);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [
            0.1f64,
            1.0 / 3.0,
            1e-300,
            123456789.123456,
            f64::MIN_POSITIVE,
        ] {
            let json = to_string(&x).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {json}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{08}\u{0C}\u{1F}é中🦀".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        // Literal \u escapes, including a surrogate pair.
        assert_eq!(from_str::<String>(r#""é🦀""#).unwrap(), "é🦀");
    }

    #[test]
    fn collections_roundtrip() {
        let v = vec![1.5f64, 2.0, -3.25];
        let json = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<f64>>(&json).unwrap(), v);
    }

    #[test]
    fn malformed_input_errors() {
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<u32>("{").is_err());
        assert!(from_str::<u32>("1 2").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<Vec<u8>>("[1,]").is_err());
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse_value_str(&deep).is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v: Vec<u32> = from_str(" [ 1 , 2 ,\n\t3 ] ").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }
}
