//! A small JSON value type with a strict parser and writer.
//!
//! The workspace serializes metric snapshots and decision journals, and
//! `rota-cli` parses check specs; both need JSON but the offline build
//! cannot pull `serde`. This module covers the whole of RFC 8259 except
//! that numbers are held as `f64` (integers above 2^53 lose precision —
//! irrelevant for metrics and specs).
//!
//! Objects preserve insertion order and permit duplicate keys at the
//! value level; [`Json::get`] returns the first match, and spec-level
//! validation can reject duplicates by iterating the pairs.
//!
//! Building and parsing a document costs mostly allocations, and an
//! object's keys are most of them: a resource term has five or six. A
//! [`Key`] holds a short key inline, so neither an encoder nor the
//! parser allocates for one.

use std::cmp::Ordering;
use std::fmt::{self, Write as _};
use std::ops::Deref;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(Key, Json)>),
}

/// The longest key held inline, in bytes. Every key the workspace's own
/// documents use fits; so does a `Key` in the 24 bytes of a `String`.
const INLINE_KEY: usize = 22;

/// An object key. A literal key (`"kind".into()`) is borrowed; a key
/// read from text is copied inline when it has up to 22 bytes and boxed
/// when longer. Reads as a `&str` through `Deref`, and compares with
/// `str` by content.
#[derive(Clone)]
pub struct Key(KeyText);

#[derive(Clone)]
enum KeyText {
    Static(&'static str),
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Boxed(Box<str>),
}

impl Key {
    /// A key holding a copy of `text`.
    pub fn new(text: &str) -> Key {
        if text.len() > INLINE_KEY {
            return Key(KeyText::Boxed(text.into()));
        }
        let mut bytes = [0; INLINE_KEY];
        bytes[..text.len()].copy_from_slice(text.as_bytes());
        Key(KeyText::Inline {
            // At most `INLINE_KEY`, so it fits.
            len: text.len() as u8,
            bytes,
        })
    }

    /// The key's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            KeyText::Static(text) => text,
            // PANIC-OK: inline bytes are always a whole `str` copied in
            // by `Key::new`, so they are valid UTF-8.
            KeyText::Inline { .. } => std::str::from_utf8(self.as_bytes())
                .expect("an inline key holds the bytes of a whole `str`"),
            KeyText::Boxed(text) => text,
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyText::Static(text) => text.as_bytes(),
            KeyText::Inline { len, bytes } => &bytes[..usize::from(*len)],
            KeyText::Boxed(text) => text.as_bytes(),
        }
    }
}

impl From<&'static str> for Key {
    fn from(text: &'static str) -> Key {
        Key(KeyText::Static(text))
    }
}

impl From<String> for Key {
    fn from(text: String) -> Key {
        if text.len() > INLINE_KEY {
            Key(KeyText::Boxed(text.into_boxed_str()))
        } else {
            Key::new(&text)
        }
    }
}

impl Deref for Key {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Key {}

impl PartialEq<str> for Key {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Key {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

/// The order of the keys' text.
impl Ord for Key {
    fn cmp(&self, other: &Key) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A parse failure with its byte offset in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses `input` as a single JSON document (trailing content is an
    /// error).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser::new(input);
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// The value under `key`, when this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload as a non-negative integer, when this is a number
    /// that is one and at most 2^53 − 1. Past that bound a parsed
    /// number may already have been rounded to a neighbouring `f64`
    /// (`9007199254740993` reads as …992), so it is refused rather than
    /// returned wrong.
    pub fn as_u64(&self) -> Option<u64> {
        const MAX_EXACT: f64 = 9_007_199_254_740_991.0;
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, when this is an object.
    pub fn as_object(&self) -> Option<&[(Key, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Appends the compact serialization (what `to_string()` returns)
    /// to `out`, so a caller can frame it without a second buffer.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Pretty serialization with two-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => write_integer(out, *n as i64),
            // Formatting into a `String` cannot fail.
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, key.as_str());
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

/// Compact serialization (no whitespace); `to_string()` round-trips
/// through [`Json::parse`].
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..depth * step {
            out.push(' ');
        }
    }
}

/// Appends `n` in decimal, the text `{n}` formats, without the
/// formatting machinery.
fn write_integer(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    let mut digits = [0u8; 20];
    let mut first = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        first -= 1;
        digits[first] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend(digits[first..].iter().map(|&digit| char::from(digit)));
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Copy each run of bytes that need no escape in one step. Every
    // escaped byte is ASCII, so each run ends on a character boundary.
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0x00..=0x1f) {
            continue;
        }
        out.push_str(&s[plain..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        plain = i + 1;
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The elements of the arrays still open, innermost last. An array
    /// moves its own elements off the top into an exactly sized `Vec`
    /// when it closes, so no array or object grows by reallocation.
    items: Vec<Json>,
    /// The same for the members of the objects still open.
    members: Vec<(Key, Json)>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            items: Vec::new(),
            members: Vec::new(),
        }
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(Vec::new()));
        }
        let open = self.items.len();
        loop {
            self.skip_ws();
            let item = self.value()?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(self.items.split_off(open)));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        let open = self.members.len();
        loop {
            self.skip_ws();
            let key = self.key()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            self.members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(self.members.split_off(open)));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    /// Consumes the run of plain bytes up to the next quote, backslash
    /// or control byte (or the end of input) and returns it. Those stop
    /// bytes are ASCII and the run starts after one, so it is already
    /// valid text: slicing the input costs nothing per byte.
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        let rest = &self.bytes[start..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
        &self.text[start..self.pos]
    }

    /// An object key, read like a string but built without an
    /// allocation when it is short and has no escapes.
    fn key(&mut self) -> Result<Key, JsonError> {
        let start = self.pos;
        self.expect(b'"')?;
        let run = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Key::new(run));
        }
        self.pos = start;
        self.string().map(Key::from)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let run = self.plain_run();
        if self.peek() == Some(b'"') {
            // No escapes: the text is copied once, into its own string.
            self.pos += 1;
            return Ok(run.to_owned());
        }
        let mut out = String::from(run);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = if self.peek() == Some(b'u') {
                        self.unicode_escape()?
                    } else {
                        let c = match self.peek() {
                            Some(b'"') => '"',
                            Some(b'\\') => '\\',
                            Some(b'/') => '/',
                            Some(b'b') => '\u{8}',
                            Some(b'f') => '\u{c}',
                            Some(b'n') => '\n',
                            Some(b'r') => '\r',
                            Some(b't') => '\t',
                            _ => return Err(self.err("invalid escape sequence")),
                        };
                        self.pos += 1;
                        c
                    };
                    out.push(c);
                }
                // The run stopped short of a quote or backslash, so
                // this is a byte below 0x20.
                Some(_) => return Err(self.err("raw control character in string")),
            }
            out.push_str(self.plain_run());
        }
    }

    /// Reads a `uXXXX` escape, with `pos` at the `u`; a high surrogate
    /// must be followed by the escape of its low half.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        self.pos += 1;
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        // `from_str_radix` also takes a leading `+`, so `\u+0e9` reads
        // as U+00E9; the differential tests hold the parser to that.
        let value = self
            .text
            .get(self.pos..self.pos + 4)
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero-led digit run, whose
        // value is kept while it is read.
        let digits = self.pos;
        let mut whole: u64 = 0;
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(digit @ b'0'..=b'9') = self.peek() {
                    whole = whole.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.pos - digits <= 15 && !matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            // Below 10^15 < 2^53 an integer is an exact `f64`: the
            // value parsing its text rounds to, `-0` included.
            let magnitude = whole as f64;
            return Ok(Json::Num(if negative { -magnitude } else { magnitude }));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-12.5e2").unwrap(), Json::Num(-1250.0));
        assert_eq!(Json::parse("0").unwrap(), Json::Num(0.0));
        assert_eq!(
            Json::parse("\"hi\\n\\\"there\\\"\"").unwrap(),
            Json::Str("hi\n\"there\"".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#"{"resources": [{"kind": "cpu", "capacity": 4}], "ok": true}"#;
        let value = Json::parse(doc).unwrap();
        let resources = value.get("resources").unwrap().as_array().unwrap();
        assert_eq!(resources.len(), 1);
        assert_eq!(resources[0].get("kind").unwrap().as_str(), Some("cpu"));
        assert_eq!(resources[0].get("capacity").unwrap().as_u64(), Some(4));
        assert_eq!(value.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("missing"), None);
    }

    #[test]
    fn parses_unicode_escapes() {
        assert_eq!(Json::parse(r#""é😀""#).unwrap(), Json::Str("é😀".into()));
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "[1] extra",
            "{'a': 1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn error_carries_offset() {
        let err = Json::parse("[1, x]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let doc = r#"{"a":[1,2.5,null],"b":{"c":"x\ty"},"d":[]}"#;
        let value = Json::parse(doc).unwrap();
        assert_eq!(value.to_string(), doc);
        let pretty = value.pretty();
        assert!(pretty.contains("\n  \"a\": ["));
        assert_eq!(Json::parse(&pretty).unwrap(), value);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(5.0).to_string(), "5");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn as_u64_reads_only_integers_f64_holds_exactly() {
        let read = |text: &str| Json::parse(text).unwrap().as_u64();
        assert_eq!(read("0"), Some(0));
        assert_eq!(read("9007199254740991"), Some(9_007_199_254_740_991));
        // 2^53 is exact, but so is the rounding of 2^53 + 1 onto it.
        assert_eq!(read("9007199254740992"), None);
        assert_eq!(read("9007199254740993"), None);
        assert_eq!(read("18446744073709551616"), None);
        assert_eq!(read("-1"), None);
        assert_eq!(read("1.5"), None);
    }

    #[test]
    fn duplicate_keys_first_wins_in_get() {
        let value = Json::parse(r#"{"k": 1, "k": 2}"#).unwrap();
        assert_eq!(value.get("k").unwrap().as_u64(), Some(1));
        assert_eq!(value.as_object().unwrap().len(), 2);
    }

    /// Every control character (and the named-escape quintet) must
    /// survive encode → parse unchanged, and the encoded form must be
    /// legal JSON with no raw control bytes — a frame containing an
    /// embedded `\n` would otherwise split in two on the wire.
    #[test]
    fn control_characters_round_trip_escaped() {
        let mut hostile = String::from("plain \"quoted\" back\\slash é😀");
        for code in 0u32..0x20 {
            hostile.push(char::from_u32(code).expect("control char"));
        }
        let value = Json::Str(hostile.clone());
        let encoded = value.to_string();
        assert!(
            encoded.bytes().all(|b| b >= 0x20),
            "raw control byte leaked into encoding: {encoded:?}"
        );
        assert_eq!(Json::parse(&encoded).unwrap(), value);
        // Same guarantee when the hostile text sits in an object key.
        let keyed = Json::Obj(vec![(hostile.into(), Json::Null)]);
        assert_eq!(Json::parse(&keyed.to_string()).unwrap(), keyed);
    }

    #[test]
    fn named_escapes_are_used_for_common_controls() {
        let encoded = Json::Str("\n\r\t\u{8}\u{c}".into()).to_string();
        assert_eq!(encoded, r#""\n\r\t\b\f""#);
        let encoded = Json::Str("\u{1}\u{1f}".into()).to_string();
        assert_eq!(encoded, r#""\u0001\u001f""#);
    }

    #[test]
    fn parser_rejects_raw_control_bytes_in_strings() {
        assert!(Json::parse("\"a\nb\"").is_err());
        assert!(Json::parse("\"a\u{1}b\"").is_err());
        // …but accepts the escaped forms of the same text.
        assert_eq!(
            Json::parse(r#""a\nb\u0001c""#).unwrap(),
            Json::Str("a\nb\u{1}c".into())
        );
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let value = Json::Str("𝄞 clef and 🜚 gold".into());
        assert_eq!(Json::parse(&value.to_string()).unwrap(), value);
        assert_eq!(Json::parse(r#""𝄞""#).unwrap(), Json::Str("𝄞".into()));
    }

    /// Differential test of the string scanner: `Json::parse` against a
    /// copy of the character-at-a-time `string()` it replaced, which
    /// re-validated the rest of the input for every character. Both
    /// must return the same value, or fail at the same offset with the
    /// same message.
    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// The replaced scanner, kept verbatim as the oracle.
        fn reference_string(p: &mut Parser<'_>) -> Result<String, JsonError> {
            p.expect(b'"')?;
            let mut out = String::new();
            loop {
                match p.peek() {
                    None => return Err(p.err("unterminated string")),
                    Some(b'"') => {
                        p.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        p.pos += 1;
                        match p.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                p.pos += 1;
                                let high = p.hex4()?;
                                let c = if (0xD800..0xDC00).contains(&high) {
                                    if !p.bytes[p.pos..].starts_with(b"\\u") {
                                        return Err(p.err("unpaired surrogate"));
                                    }
                                    p.pos += 2;
                                    let low = p.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(p.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    char::from_u32(high)
                                };
                                match c {
                                    Some(c) => out.push(c),
                                    None => return Err(p.err("invalid unicode escape")),
                                }
                                continue;
                            }
                            _ => return Err(p.err("invalid escape sequence")),
                        }
                        p.pos += 1;
                    }
                    Some(b) if b < 0x20 => return Err(p.err("raw control character in string")),
                    Some(_) => {
                        let rest = std::str::from_utf8(&p.bytes[p.pos..])
                            .map_err(|_| p.err("invalid utf-8"))?;
                        let c = rest.chars().next().expect("peek saw a byte");
                        out.push(c);
                        p.pos += c.len_utf8();
                    }
                }
            }
        }

        /// `Json::parse` for a document that opens with a string,
        /// decoded by the oracle.
        fn reference_parse(input: &str) -> Result<Json, JsonError> {
            let mut parser = Parser::new(input);
            let value = reference_string(&mut parser)?;
            parser.skip_ws();
            if parser.pos != parser.bytes.len() {
                return Err(parser.err("trailing characters after document"));
            }
            Ok(Json::Str(value))
        }

        fn fixed(pieces: &'static [&'static str]) -> BoxedStrategy<String> {
            (0..pieces.len())
                .prop_map(move |i| pieces[i].to_string())
                .boxed()
        }

        /// A code point of the given UTF-8 width.
        fn wide(lo: u32, hi: u32) -> BoxedStrategy<String> {
            (lo..hi)
                .prop_filter("not a surrogate", |c| char::from_u32(*c).is_some())
                .prop_map(|c| char::from_u32(c).expect("filtered").to_string())
                .boxed()
        }

        /// One fragment of string content: plain and multi-byte text,
        /// quotes, every escape form (good and bad), and raw control
        /// bytes.
        fn piece() -> impl Strategy<Value = String> {
            prop_oneof![
                (b'a'..=b'z').prop_map(|b| (b as char).to_string()),
                fixed(&["plain text", " ", "~", "\u{7f}", "'"]),
                wide(0x80, 0x800),
                wide(0x800, 0x1_0000),
                wide(0x1_0000, 0x11_0000),
                fixed(&["é", "€", "😀", "𝄞", "\u{fffd}"]),
                fixed(&["\"", "\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"]),
                fixed(&["\\", "\\x", "\\0", "\\U0041", "\\é"]),
                fixed(&["\\u0041", "\\u00e9", "\\u20AC", "\\uffff", "\\u0000", "\\u001f"]),
                fixed(&["\\ud83d\\ude00", "\\uD834\\uDD1E", "\\ud83d", "\\ude00"]),
                fixed(&["\\ud83d\\u0041", "\\ud83dx", "\\ud83d\\", "\\ud83d\\ude0"]),
                fixed(&["\\u12", "\\u", "\\uzzzz", "\\u+123", "\\u12é", "\\u€"]),
                (0u32..0x20).prop_map(|c| char::from_u32(c).expect("ascii").to_string()),
            ]
        }

        /// A document opening with a quote: the pieces, then usually a
        /// closing quote, then sometimes trailing content.
        fn document() -> impl Strategy<Value = String> {
            (
                proptest::collection::vec(piece(), 0..24),
                0u8..4,
                prop_oneof![fixed(&["", " ", " \n", "x", "\"", ", 1"]), piece().boxed()],
            )
                .prop_map(|(pieces, close, tail)| {
                    let mut doc = String::from("\"");
                    for piece in &pieces {
                        doc.push_str(piece);
                    }
                    if close > 0 {
                        doc.push('"');
                        if close > 1 {
                            doc.push_str(&tail);
                        }
                    }
                    doc
                })
        }

        /// The character-at-a-time escaper the run-copying writer
        /// replaced, kept as the oracle for its bytes.
        fn reference_escaped(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    '\u{8}' => out.push_str("\\b"),
                    '\u{c}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4_000))]
            #[test]
            fn string_scanner_matches_reference(doc in document()) {
                prop_assert_eq!(Json::parse(&doc), reference_parse(&doc), "document {:?}", doc);
            }

            /// The same fragments, taken as text to encode: the writer
            /// emits exactly the old bytes, and they decode back.
            #[test]
            fn string_writer_matches_reference(pieces in proptest::collection::vec(piece(), 0..24)) {
                let text = pieces.concat();
                let encoded = Json::Str(text.clone()).to_string();
                prop_assert_eq!(&encoded, &reference_escaped(&text));
                prop_assert_eq!(Json::parse(&encoded), Ok(Json::Str(text)));
            }
        }

        /// The generator reaches every outcome the comparison is meant
        /// to cover, so a passing run is not a vacuous one.
        #[test]
        fn generator_covers_values_and_each_error() {
            let mut rng = proptest::test_runner::TestRng::from_seed(11);
            let strategy = document();
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..4_000 {
                let doc = strategy.new_value(&mut rng);
                seen.insert(match reference_parse(&doc) {
                    Ok(_) => "ok".to_string(),
                    Err(e) => e.message,
                });
            }
            for outcome in [
                "ok",
                "unterminated string",
                "invalid escape sequence",
                "raw control character in string",
                "unpaired surrogate",
                "invalid low surrogate",
                "invalid unicode escape",
                "truncated unicode escape",
                "trailing characters after document",
            ] {
                assert!(
                    seen.contains(outcome),
                    "never produced {outcome:?}: {seen:?}"
                );
            }
        }
    }
}
