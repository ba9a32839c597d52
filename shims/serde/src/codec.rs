//! The JSON codec under both shims: a writer into a `String` and a pull
//! lexer over borrowed text.
//!
//! Derived [`Serialize`] impls write their JSON straight into a `String`
//! with the helpers here; derived [`Deserialize`] impls pull tokens from
//! a [`Lexer`]. No intermediate tree is built on either path: [`Value`]
//! is just one more type read and written through this codec, for code
//! that handles untyped JSON.
//!
//! The rules every reader follows, so that a typed read reports exactly
//! what a parse-then-convert would:
//!
//! * a reader is called at the first byte of its value (whitespace
//!   already skipped) and starts with [`Lexer::token`], which applies
//!   the 128-level nesting guard;
//! * a syntax error ([`ReadError::Syntax`]) ends the read at once;
//! * a data error ([`ReadError::Data`]) may leave the lexer mid-value.
//!   Whoever catches it rewinds to the value's start and skips the value
//!   ([`Lexer::read_or_skip`]), so a syntax error later in the text
//!   still wins over it;
//! * an object's fields are resolved in declaration order once the
//!   object is closed ([`Slot`]), so the first *declared* bad or missing
//!   field is the one reported, whatever order the text gives them in.
//!
//! [`Serialize`]: crate::Serialize
//! [`Value`]: crate::Value

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use crate::{DeError, Deserialize};

/// Containers nested deeper than this are a syntax error, so hostile
/// input cannot exhaust the stack.
pub const MAX_DEPTH: usize = 128;

/// Why a read failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadError {
    /// Malformed JSON.
    Syntax {
        /// What went wrong.
        message: String,
        /// Byte offset into the input.
        offset: usize,
    },
    /// Well-formed JSON that does not match the target type.
    Data(DeError),
}

impl From<DeError> for ReadError {
    fn from(e: DeError) -> Self {
        ReadError::Data(e)
    }
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Syntax { message, offset } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            ReadError::Data(e) => write!(f, "JSON data error: {e}"),
        }
    }
}

/// The first token of a JSON value.
///
/// Scalars arrive whole. For an array or an object only the opening
/// bracket has been consumed: the reader goes on with
/// [`Lexer::next_element`] or [`Lexer::next_key`].
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A number with a fraction or an exponent.
    Float(f64),
    /// An integer text outside both 64-bit ranges, as written. Integer
    /// readers refuse it as out of range; float readers and [`Value`]
    /// take its nearest float.
    ///
    /// [`Value`]: crate::Value
    BigInt(&'a str),
    /// A string, borrowed from the input unless it held escapes.
    Str(Cow<'a, str>),
    /// `[` was consumed.
    ArrayStart,
    /// `{` was consumed.
    ObjectStart,
}

impl Token<'_> {
    /// A short name for the value's kind, for error messages (the same
    /// names as [`Value::kind`](crate::Value::kind)).
    pub fn kind(&self) -> &'static str {
        match self {
            Token::Null => "null",
            Token::Bool(_) => "bool",
            Token::UInt(_) | Token::Int(_) => "integer",
            // A `Value` holds it as a float.
            Token::Float(_) | Token::BigInt(_) => "float",
            Token::Str(_) => "string",
            Token::ArrayStart => "array",
            Token::ObjectStart => "object",
        }
    }
}

/// How an externally tagged enum value starts.
#[derive(Debug, Clone, PartialEq)]
pub enum Tag<'a> {
    /// A string: a unit variant's name.
    Unit(Cow<'a, str>),
    /// An object's first key: a data variant's name. The lexer sits at
    /// the variant's value; [`Lexer::close_enum`] follows it.
    Data(Cow<'a, str>),
}

/// One field of an object being read: empty until its first occurrence,
/// then that occurrence's outcome. Later duplicates are skipped.
#[derive(Debug)]
pub struct Slot<T>(Option<Result<T, DeError>>);

impl<T> Default for Slot<T> {
    /// An empty slot.
    fn default() -> Self {
        Slot(None)
    }
}

impl<T> Slot<T> {
    /// The field's value; a data error it had, or "missing field" when
    /// the object did not carry it.
    ///
    /// # Errors
    ///
    /// [`ReadError::Data`] as described.
    pub fn required(self, field: &str, context: &str) -> Result<T, ReadError> {
        match self.0 {
            Some(Ok(v)) => Ok(v),
            Some(Err(e)) => Err(ReadError::Data(e)),
            None => Err(ReadError::Data(DeError::missing(field, context))),
        }
    }

    /// The field's value, or `T::default()` when the object did not
    /// carry it (`#[serde(default)]`).
    ///
    /// # Errors
    ///
    /// The data error the field's value had.
    pub fn or_default(self) -> Result<T, ReadError>
    where
        T: Default,
    {
        match self.0 {
            Some(Ok(v)) => Ok(v),
            Some(Err(e)) => Err(ReadError::Data(e)),
            None => Ok(T::default()),
        }
    }

    /// `None` if the field was absent, else its outcome.
    pub fn into_inner(self) -> Option<Result<T, DeError>> {
        self.0
    }
}

/// A pull lexer over borrowed JSON text. A read starts at
/// [`read_document`](Self::read_document) or
/// [`read_document_with`](Self::read_document_with).
#[derive(Debug)]
pub struct Lexer<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Lexer<'a> {
    fn new(text: &'a str) -> Self {
        Lexer {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn syntax(&self, message: impl Into<String>) -> ReadError {
        ReadError::Syntax {
            message: message.into(),
            offset: self.pos,
        }
    }

    /// The next byte, if any.
    pub fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Reads one whole document as a `T`: leading and trailing
    /// whitespace allowed, nothing else after the value. On a data error
    /// the whole text is checked for syntax first, so malformed JSON is
    /// always reported as such.
    ///
    /// # Errors
    ///
    /// The first syntax error in the text, else `T`'s data error.
    pub fn read_document<T: Deserialize>(text: &'a str) -> Result<T, ReadError> {
        Lexer::read_document_with(text, T::read_json)
    }

    /// [`read_document`](Self::read_document) with a reader of its own
    /// for the document's value.
    ///
    /// # Errors
    ///
    /// The first syntax error in the text, else `read`'s data error.
    pub fn read_document_with<T>(
        text: &'a str,
        read: impl FnOnce(&mut Self) -> Result<T, ReadError>,
    ) -> Result<T, ReadError> {
        match Lexer::new(text).document(read) {
            Err(ReadError::Data(e)) => {
                Lexer::new(text).document(Lexer::skip_value)?;
                Err(ReadError::Data(e))
            }
            other => other,
        }
    }

    fn document<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, ReadError>,
    ) -> Result<T, ReadError> {
        self.skip_ws();
        let value = read(self)?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.syntax("trailing characters after JSON document"));
        }
        Ok(value)
    }

    /// Reads the first token of the value at the current position,
    /// applying the nesting guard.
    ///
    /// # Errors
    ///
    /// A syntax error for anything that does not start a JSON value, a
    /// malformed scalar, or nesting beyond [`MAX_DEPTH`].
    pub fn token(&mut self) -> Result<Token<'a>, ReadError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.syntax("JSON nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.keyword("null", Token::Null),
            Some(b't') => self.keyword("true", Token::Bool(true)),
            Some(b'f') => self.keyword("false", Token::Bool(false)),
            Some(b'"') => Ok(Token::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                self.depth += 1;
                Ok(Token::ArrayStart)
            }
            Some(b'{') => {
                self.pos += 1;
                self.depth += 1;
                Ok(Token::ObjectStart)
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.syntax(format!("unexpected character '{}'", c as char))),
            None => Err(self.syntax("unexpected end of input")),
        }
    }

    /// Opens a value that must be an object (a struct named `context`).
    ///
    /// # Errors
    ///
    /// A syntax error from [`token`](Self::token), or "expected object"
    /// as a data error.
    pub fn open_object(&mut self, context: &str) -> Result<(), ReadError> {
        match self.token()? {
            Token::ObjectStart => Ok(()),
            _ => Err(DeError::expected("object", context).into()),
        }
    }

    /// Opens a value that must be an array.
    ///
    /// # Errors
    ///
    /// A syntax error from [`token`](Self::token), or "expected array"
    /// as a data error.
    pub fn open_array(&mut self) -> Result<(), ReadError> {
        match self.token()? {
            Token::ArrayStart => Ok(()),
            other => Err(DeError::expected("array", other.kind()).into()),
        }
    }

    /// Advances to an array's next element: `false` (and the array
    /// closed) at `]`. `more` starts `false` and tracks whether an
    /// element was read already.
    ///
    /// # Errors
    ///
    /// A syntax error if neither `,` nor `]` follows an element.
    pub fn next_element(&mut self, more: &mut bool) -> Result<bool, ReadError> {
        self.skip_ws();
        if *more {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(false);
                }
                _ => return Err(self.syntax("expected ',' or ']' in array")),
            }
        } else if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        *more = true;
        Ok(true)
    }

    /// Advances to an object's next key and past its `:`: `None` (and
    /// the object closed) at `}`. `more` as in
    /// [`next_element`](Self::next_element).
    ///
    /// # Errors
    ///
    /// A syntax error for a malformed separator or key.
    pub fn next_key(&mut self, more: &mut bool) -> Result<Option<Cow<'a, str>>, ReadError> {
        self.skip_ws();
        if *more {
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(None);
                }
                _ => return Err(self.syntax("expected ',' or '}' in object")),
            }
        } else if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(None);
        }
        *more = true;
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(Some(key))
    }

    /// Opens an externally tagged enum value of the enum `name`.
    ///
    /// # Errors
    ///
    /// A syntax error from the lexer, or "expected enum" as a data error
    /// for a value that is neither a string nor a non-empty object.
    pub fn open_enum(&mut self, name: &str) -> Result<Tag<'a>, ReadError> {
        let kind = match self.token()? {
            Token::Str(s) => return Ok(Tag::Unit(s)),
            Token::ObjectStart => match self.next_key(&mut false)? {
                Some(tag) => return Ok(Tag::Data(tag)),
                None => "object",
            },
            other => other.kind(),
        };
        Err(DeError::expected(&format!("enum {name}"), kind).into())
    }

    /// Closes a data variant's object after its value.
    ///
    /// # Errors
    ///
    /// "expected enum" as a data error if the object has a second key; a
    /// syntax error if neither `,` nor `}` follows.
    pub fn close_enum(&mut self, name: &str) -> Result<(), ReadError> {
        self.skip_ws();
        match self.peek() {
            Some(b'}') => {
                self.pos += 1;
                self.depth -= 1;
                Ok(())
            }
            Some(b',') => Err(DeError::expected(&format!("enum {name}"), "object").into()),
            _ => Err(self.syntax("expected ',' or '}' in object")),
        }
    }

    /// Runs `read` at the current value; if it fails with a data error,
    /// rewinds to the value's start and skips the value, so the caller
    /// can go on and a later syntax error still surfaces.
    ///
    /// # Errors
    ///
    /// Only syntax errors; the data error is the inner `Err`.
    pub fn read_or_skip_with<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, ReadError>,
    ) -> Result<Result<T, DeError>, ReadError> {
        let (pos, depth) = (self.pos, self.depth);
        match read(self) {
            Ok(v) => Ok(Ok(v)),
            Err(ReadError::Data(e)) => {
                self.pos = pos;
                self.depth = depth;
                self.skip_value()?;
                Ok(Err(e))
            }
            Err(syntax) => Err(syntax),
        }
    }

    /// [`read_or_skip_with`](Self::read_or_skip_with) for a
    /// [`Deserialize`] type.
    ///
    /// # Errors
    ///
    /// Only syntax errors.
    pub fn read_or_skip<T: Deserialize>(&mut self) -> Result<Result<T, DeError>, ReadError> {
        self.read_or_skip_with(T::read_json)
    }

    /// Reads a field's value into `slot` at its first occurrence and
    /// skips it at any later one.
    ///
    /// # Errors
    ///
    /// Only syntax errors.
    pub fn fill<T: Deserialize>(&mut self, slot: &mut Slot<T>) -> Result<(), ReadError> {
        if slot.0.is_some() {
            return self.skip_value();
        }
        slot.0 = Some(self.read_or_skip()?);
        Ok(())
    }

    /// Checks and skips one value.
    ///
    /// # Errors
    ///
    /// The value's first syntax error.
    pub fn skip_value(&mut self) -> Result<(), ReadError> {
        let mut more = false;
        match self.token()? {
            Token::ArrayStart => {
                while self.next_element(&mut more)? {
                    self.skip_value()?;
                }
            }
            Token::ObjectStart => {
                while self.next_key(&mut more)?.is_some() {
                    self.skip_value()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    fn expect(&mut self, byte: u8) -> Result<(), ReadError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(format!("expected '{}'", byte as char)))
        }
    }

    fn keyword(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, ReadError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.syntax(format!("expected '{word}'")))
        }
    }

    /// Advances over plain string bytes (no quote, backslash or control
    /// character).
    fn plain_run(&mut self) {
        let bytes = self.bytes();
        while let Some(&c) = bytes.get(self.pos) {
            if c == b'"' || c == b'\\' || c < 0x20 {
                break;
            }
            self.pos += 1;
        }
    }

    fn string(&mut self) -> Result<Cow<'a, str>, ReadError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.plain_run();
        // The run stops at an ASCII byte, so both ends are char
        // boundaries of the (already valid UTF-8) input.
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.syntax("control character in string")),
                None => return Err(self.syntax("unterminated string")),
            }
            let start = self.pos;
            self.plain_run();
            out.push_str(&self.text[start..self.pos]);
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), ReadError> {
        let c = self
            .peek()
            .ok_or_else(|| self.syntax("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require a \uXXXX low surrogate.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.syntax("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.syntax("unpaired high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.syntax("unpaired low surrogate"));
                } else {
                    hi
                };
                out.push(
                    char::from_u32(code).ok_or_else(|| self.syntax("invalid unicode escape"))?,
                );
            }
            other => return Err(self.syntax(format!("invalid escape '\\{}'", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, ReadError> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.syntax("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes()[self.pos..end])
            .map_err(|_| self.syntax("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.syntax("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Token<'a>, ReadError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Token::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Token::Int(i));
            }
            // Digits that fit neither type: too large, not malformed.
            if text.len() > usize::from(text.starts_with('-')) {
                return Ok(Token::BigInt(text));
            }
        }
        text.parse::<f64>()
            .map(Token::Float)
            .map_err(|_| self.syntax(format!("invalid number '{text}'")))
    }
}

// ---------------------------------------------------------------- writer

/// Writes `s` as a quoted JSON string: `"` and `\` escaped, the usual
/// short escapes for control characters and `\u00XX` for the rest.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0..=0x1F => "",
            _ => continue,
        };
        // Every byte escaped is ASCII, so the slices end on char
        // boundaries.
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Writes an unsigned integer.
pub fn write_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &buf[i..] {
        out.push(d as char);
    }
}

/// Writes a signed integer.
pub fn write_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Writes a float with Rust's shortest round-trip `Display`, so reading
/// it back restores the same bits; non-finite values become `null`, as
/// JSON has no NaN or infinity.
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}
