//! A small JSON value type with a strict parser and writer.
//!
//! The workspace serializes metric snapshots and decision events, and
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
//!
//! [`Reader`] is the one lexer. [`Json::parse`] builds a tree with it,
//! and the wire's typed decoders read a frame with it straight into
//! their own types, with no tree; [`write_string`] and [`write_number`]
//! are the writers both [`Json`] and those types' encoders use.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
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
        let mut reader = Reader::new(input);
        let value = reader.tree()?;
        reader.finish()?;
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
        match self {
            Json::Num(n) => exact_u64(*n),
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
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
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
                    write_string(out, key.as_str());
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

/// `n` as an integer, when it is one and at most 2^53 − 1 (see
/// [`Json::as_u64`]).
fn exact_u64(n: f64) -> Option<u64> {
    const MAX_EXACT: f64 = 9_007_199_254_740_991.0;
    (n >= 0.0 && n.fract() == 0.0 && n <= MAX_EXACT).then_some(n as u64)
}

/// Appends the text [`Json::Num`] of `n` is written as: an integer
/// below 10^15 in magnitude without a fraction, any other number as
/// `{n}` formats it.
pub fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        write_integer(out, n as i64);
    } else {
        // Formatting into a `String` cannot fail.
        let _ = write!(out, "{n}");
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

/// Appends `s` as a JSON string: quoted, with `"`, `\\` and every
/// control character escaped, so the text holds no raw line break.
pub fn write_string(out: &mut String, s: &str) {
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

/// The kind of value a [`Reader`] stands at, told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` or `false`
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// One value as [`Reader::scalar`] reads it: a scalar with its payload,
/// or the kind of a container, which is skipped.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string, borrowed from the document when it has no escapes.
    Str(Cow<'a, str>),
    /// An array, skipped.
    Arr,
    /// An object, skipped.
    Obj,
}

impl Scalar<'_> {
    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The payload as a non-negative integer, read as [`Json::as_u64`]
    /// reads it.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Num(n) => exact_u64(*n),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Where [`Object`] notes a key that did not appear.
const ABSENT: usize = usize::MAX;

/// What a strict decoder needs of one object once [`Reader::members`]
/// has read it: where each key of its table first appeared, the scalar
/// under each such key that the caller did not read itself, the first
/// key that repeats an earlier one and the first key outside the
/// table, each in document order.
#[derive(Debug)]
pub struct Object<'a, const N: usize> {
    at: [usize; N],
    scalars: [Option<Scalar<'a>>; N],
    repeated: Option<Cow<'a, str>>,
    unknown: Option<(usize, Cow<'a, str>)>,
}

impl<'a, const N: usize> Object<'a, N> {
    /// The scalar under the table's key `i`: `None` when the key is
    /// absent or the caller read its value.
    pub fn scalar(&self, i: usize) -> Option<&Scalar<'a>> {
        self.scalars[i].as_ref()
    }

    /// The first key that repeats an earlier one.
    pub fn repeated(&self) -> Option<&str> {
        self.repeated.as_deref()
    }

    /// The first key outside the table the object was read with.
    pub fn unknown(&self) -> Option<&str> {
        self.unknown.as_ref().map(|(_, key)| key.as_ref())
    }

    /// The first key, in document order, that `allowed` does not name:
    /// a key outside `keys`, the table the object was read with, or one
    /// of the table's keys that `allowed` leaves out.
    pub fn first_outside<'s>(&'s self, keys: &'s [&str; N], allowed: &[&str]) -> Option<&'s str> {
        let mut first = self.unknown.as_ref().map(|(at, key)| (*at, key.as_ref()));
        for (key, &at) in keys.iter().zip(&self.at) {
            if at < first.map_or(ABSENT, |(earliest, _)| earliest) && !allowed.contains(key) {
                first = Some((at, key));
            }
        }
        first.map(|(_, key)| key)
    }
}

/// Where [`Reader::scan`] hands the tokens of a value: nothing when
/// skipping, the compact text when transcribing, and the length of the
/// compact text when checking whether the value already is it.
trait Sink {
    /// Punctuation and literals.
    fn raw(&mut self, text: &str);
    /// A string or key, and whether its source had escapes.
    fn string(&mut self, text: &str, escaped: bool);
    /// A number and its source text.
    fn number(&mut self, n: f64, source: &str);
}

impl Sink for () {
    fn raw(&mut self, _: &str) {}
    fn string(&mut self, _: &str, _: bool) {}
    fn number(&mut self, _: f64, _: &str) {}
}

impl Sink for String {
    fn raw(&mut self, text: &str) {
        self.push_str(text);
    }
    fn string(&mut self, text: &str, _: bool) {
        write_string(self, text);
    }
    fn number(&mut self, n: f64, _: &str) {
        write_number(self, n);
    }
}

/// Whether a value's source is already its compact text: every token
/// is written as it came (strings without escapes, integers of at most
/// 15 digits other than `-0`), and the tokens' lengths add up to the
/// source's, so no whitespace lies between them.
struct Canonical {
    length: usize,
    exact: bool,
}

impl Sink for Canonical {
    fn raw(&mut self, text: &str) {
        self.length += text.len();
    }
    fn string(&mut self, text: &str, escaped: bool) {
        self.exact &= !escaped;
        self.length += text.len() + 2;
    }
    fn number(&mut self, _: f64, source: &str) {
        let digits = source.strip_prefix('-').unwrap_or(source);
        self.exact &=
            digits.len() <= 15 && digits.bytes().all(|b| b.is_ascii_digit()) && source != "-0";
        self.length += source.len();
    }
}

/// The deepest nesting of arrays and objects a [`Reader`] reads in one
/// value: a container deeper than this is refused. No document the
/// workspace writes nests more than about 6 deep; the bound keeps the
/// tree parser's recursion, and the drop of a parsed tree, far inside
/// a thread's stack.
pub const MAX_DEPTH: usize = 128;

/// The containers a scan has open, innermost last: a bit each, set for
/// an object.
#[derive(Default)]
struct Open {
    depth: usize,
    bits: u128,
}

impl Open {
    /// Opens a container; at most [`MAX_DEPTH`] are open.
    fn push(&mut self, object: bool) {
        self.bits = (self.bits & !(1 << self.depth)) | (u128::from(object) << self.depth);
        self.depth += 1;
    }

    /// Whether the innermost container is an object; `None` when none
    /// is open.
    fn last(&self) -> Option<bool> {
        let top = self.depth.checked_sub(1)?;
        Some((self.bits >> top) & 1 == 1)
    }

    fn pop(&mut self) {
        self.depth -= 1;
    }
}

/// A pull reader over one JSON document: the strict lexer both
/// [`Json::parse`] and the typed decoders of the wire frames read with.
/// A typed decoder asks for the value it expects and reads it straight
/// into its own types; the reader checks the syntax of every byte it
/// passes, and fails with the offset and message `Json::parse` gives
/// for the same document.
///
/// Values are read where the reader stands: after [`Reader::new`],
/// after a key ([`Reader::object`], [`Reader::next_key`]) and where
/// [`Reader::array`] or [`Reader::next_item`] says an element follows.
/// [`Reader::finish`] then checks that only whitespace is left.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// The containers open around the reader's position, counted from
    /// the document's root whoever opened them, so a value read on its
    /// own ([`Reader::skip`], [`Reader::tree`]) is held to
    /// [`MAX_DEPTH`] as `Json::parse` holds the whole document.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    /// Refuses a container at the reader's position when it would
    /// exceed [`MAX_DEPTH`].
    fn enter(&self) -> Result<(), JsonError> {
        if self.depth < MAX_DEPTH {
            Ok(())
        } else {
            Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")))
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    /// The kind of the next value, whitespace before it skipped.
    ///
    /// # Errors
    ///
    /// Where no value can start.
    #[inline]
    pub fn kind(&mut self) -> Result<Kind, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            Some(other) => Err(self.err(format!("unexpected character `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads `null`.
    ///
    /// # Errors
    ///
    /// When the next value is not `null`.
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.literal("null")
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// When the next value is not a boolean.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        if self.peek() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// Consumes the run of plain bytes up to the next quote, backslash
    /// or control byte (or the end of input) and returns it. Those stop
    /// bytes are ASCII and the run starts after one, so it is already
    /// valid text: slicing the input costs nothing per byte.
    #[inline]
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        let rest = &self.bytes[start..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
        &self.text[start..self.pos]
    }

    /// Reads a string: borrowed from the document when it has no
    /// escapes, so most strings cost no copy until the caller keeps
    /// one.
    ///
    /// # Errors
    ///
    /// When the next value is not a well-formed string.
    #[inline]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let run = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        self.escaped(run).map(Cow::Owned)
    }

    /// The rest of a string whose first escape, control byte or end of
    /// input follows `run`: the slow path of [`Reader::string`], kept
    /// out of line so the plain one inlines where it is called.
    #[cold]
    fn escaped(&mut self, run: &str) -> Result<String, JsonError> {
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

    /// Reads a number as the `f64` its text rounds to.
    ///
    /// # Errors
    ///
    /// When the next value is not a well-formed number.
    pub fn number(&mut self) -> Result<f64, JsonError> {
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
            return Ok(if negative { -magnitude } else { magnitude });
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
            .map_err(|_| self.err("number out of range"))
    }

    /// Reads any value: a scalar with its payload, an array or an
    /// object skipped.
    ///
    /// # Errors
    ///
    /// Where the value is malformed.
    pub fn scalar(&mut self) -> Result<Scalar<'a>, JsonError> {
        Ok(match self.kind()? {
            Kind::Null => {
                self.null()?;
                Scalar::Null
            }
            Kind::Bool => Scalar::Bool(self.bool()?),
            Kind::Num => Scalar::Num(self.number()?),
            Kind::Str => Scalar::Str(self.string()?),
            Kind::Arr => {
                self.skip()?;
                Scalar::Arr
            }
            Kind::Obj => {
                self.skip()?;
                Scalar::Obj
            }
        })
    }

    /// Opens an object: its first key, with the reader at that key's
    /// value, or `None` for `{}`.
    ///
    /// # Errors
    ///
    /// When the next value does not open an object with a well-formed
    /// first member.
    #[inline]
    pub fn object(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(None);
        }
        self.depth += 1;
        self.member_key().map(Some)
    }

    /// After a member's value: the next key, with the reader at its
    /// value, or `None` where the object closes.
    ///
    /// # Errors
    ///
    /// When neither a well-formed member nor the object's end follows.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.member_key().map(Some)
            }
            Some(b'}') => {
                self.pos += 1;
                self.depth -= 1;
                Ok(None)
            }
            _ => Err(self.err("expected `,` or `}` in object")),
        }
    }

    #[inline]
    fn member_key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// Opens an array: whether an element follows, with the reader at
    /// it.
    ///
    /// # Errors
    ///
    /// When the next value is not an array.
    #[inline]
    pub fn array(&mut self) -> Result<bool, JsonError> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(false);
        }
        self.depth += 1;
        Ok(true)
    }

    /// After an element: whether another follows, with the reader at
    /// it, or the array closes.
    ///
    /// # Errors
    ///
    /// When neither a comma nor the array's end follows.
    #[inline]
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            Some(b']') => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.err("expected `,` or `]` in array")),
        }
    }

    /// Reads one object member by member. The first member under each
    /// of `keys` is handed to `read` with its key's index, and `read`
    /// says whether it read the value; a value it left is read as a
    /// [`Scalar`]. Every other member's value is skipped. `None`, with
    /// the value skipped, when the value is not an object.
    ///
    /// Finding a repeated key costs O(log k) per key outside the table,
    /// for an object of `k` keys.
    ///
    /// # Errors
    ///
    /// Where the value, or a value `read` reads, is malformed.
    pub fn members<const N: usize>(
        &mut self,
        keys: &[&str; N],
        mut read: impl FnMut(&mut Reader<'a>, usize) -> Result<bool, JsonError>,
    ) -> Result<Option<Object<'a, N>>, JsonError> {
        if self.kind()? != Kind::Obj {
            self.skip()?;
            return Ok(None);
        }
        let mut object = Object {
            at: [ABSENT; N],
            scalars: std::array::from_fn(|_| None),
            repeated: None,
            unknown: None,
        };
        // The keys outside the table, kept to find a repeat among them.
        let mut others = BTreeSet::new();
        let mut next = self.object()?;
        let mut index = 0;
        while let Some(key) = next {
            match keys.iter().position(|k| *k == key) {
                Some(i) if object.at[i] == ABSENT => {
                    object.at[i] = index;
                    if !read(self, i)? {
                        object.scalars[i] = Some(self.scalar()?);
                    }
                }
                Some(_) => {
                    object.repeated.get_or_insert(key);
                    self.skip()?;
                }
                None => {
                    if object.repeated.is_none() {
                        if others.contains(&key) {
                            object.repeated = Some(key);
                        } else {
                            if object.unknown.is_none() {
                                object.unknown = Some((index, key.clone()));
                            }
                            others.insert(key);
                        }
                    }
                    self.skip()?;
                }
            }
            index += 1;
            next = self.next_key()?;
        }
        Ok(Some(object))
    }

    /// Skips one value, checking its syntax.
    ///
    /// # Errors
    ///
    /// Where the value is malformed.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        self.scan(&mut ())
    }

    /// Reads one value and appends the compact text
    /// [`Json::write_compact`] writes for it to `out`, without building
    /// it. A value already in that form, as every value this module
    /// writes is, is copied as it stands.
    ///
    /// # Errors
    ///
    /// Where the value is malformed.
    pub fn compact(&mut self, out: &mut String) -> Result<(), JsonError> {
        self.skip_ws();
        let start = self.pos;
        let mut canonical = Canonical {
            length: 0,
            exact: true,
        };
        self.scan(&mut canonical)?;
        if canonical.exact && canonical.length == self.pos - start {
            out.push_str(&self.text[start..self.pos]);
        } else {
            self.pos = start;
            self.scan(out)?;
        }
        Ok(())
    }

    /// One value, handed to `sink` token by token. Nesting costs a bit
    /// per level, not a stack frame.
    fn scan(&mut self, sink: &mut impl Sink) -> Result<(), JsonError> {
        let mut open = Open::default();
        loop {
            let kind = self.kind()?;
            if matches!(kind, Kind::Arr | Kind::Obj) {
                self.enter()?;
            }
            match kind {
                Kind::Null => {
                    self.null()?;
                    sink.raw("null");
                }
                Kind::Bool => sink.raw(if self.bool()? { "true" } else { "false" }),
                Kind::Num => {
                    let start = self.pos;
                    let n = self.number()?;
                    sink.number(n, &self.text[start..self.pos]);
                }
                Kind::Str => {
                    let text = self.string()?;
                    sink.string(&text, matches!(text, Cow::Owned(_)));
                }
                Kind::Arr => {
                    if self.array()? {
                        sink.raw("[");
                        open.push(false);
                        continue;
                    }
                    sink.raw("[]");
                }
                Kind::Obj => match self.object()? {
                    Some(key) => {
                        sink.raw("{");
                        sink.string(&key, matches!(key, Cow::Owned(_)));
                        sink.raw(":");
                        open.push(true);
                        continue;
                    }
                    None => sink.raw("{}"),
                },
            }
            // A value ended: close every container it was the last of.
            loop {
                match open.last() {
                    None => return Ok(()),
                    Some(true) => match self.next_key()? {
                        Some(key) => {
                            sink.raw(",");
                            sink.string(&key, matches!(key, Cow::Owned(_)));
                            sink.raw(":");
                            break;
                        }
                        None => {
                            sink.raw("}");
                            open.pop();
                        }
                    },
                    Some(false) => {
                        if self.next_item()? {
                            sink.raw(",");
                            break;
                        }
                        sink.raw("]");
                        open.pop();
                    }
                }
            }
        }
    }

    /// Reads one value as a tree.
    ///
    /// # Errors
    ///
    /// Where the value is malformed.
    pub fn tree(&mut self) -> Result<Json, JsonError> {
        Parser {
            reader: self,
            items: Vec::new(),
            members: Vec::new(),
        }
        .value()
    }

    /// The byte offset of the reader's position in the text: where the
    /// value it stands at starts, once [`Reader::kind`] has passed the
    /// whitespace before it.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Checks that only whitespace follows the document.
    ///
    /// # Errors
    ///
    /// When anything else does.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }
}

/// Builds a tree from a [`Reader`].
struct Parser<'r, 'a> {
    /// Each container open in the reader costs a stack frame here, so
    /// [`MAX_DEPTH`] bounds them.
    reader: &'r mut Reader<'a>,
    /// The elements of the arrays still open, innermost last. An array
    /// moves its own elements off the top into an exactly sized `Vec`
    /// when it closes, so no array or object grows by reallocation.
    items: Vec<Json>,
    /// The same for the members of the objects still open.
    members: Vec<(Key, Json)>,
}

impl Parser<'_, '_> {
    fn value(&mut self) -> Result<Json, JsonError> {
        Ok(match self.reader.kind()? {
            Kind::Null => {
                self.reader.null()?;
                Json::Null
            }
            Kind::Bool => Json::Bool(self.reader.bool()?),
            Kind::Num => Json::Num(self.reader.number()?),
            Kind::Str => Json::Str(self.reader.string()?.into_owned()),
            Kind::Arr => {
                self.reader.enter()?;
                let open = self.items.len();
                let mut more = self.reader.array()?;
                while more {
                    let item = self.value()?;
                    self.items.push(item);
                    more = self.reader.next_item()?;
                }
                Json::Arr(self.items.split_off(open))
            }
            Kind::Obj => {
                self.reader.enter()?;
                let open = self.members.len();
                let mut next = self.reader.object()?;
                while let Some(key) = next {
                    let key = match key {
                        Cow::Borrowed(text) => Key::new(text),
                        Cow::Owned(text) => Key::from(text),
                    };
                    let value = self.value()?;
                    self.members.push((key, value));
                    next = self.reader.next_key()?;
                }
                Json::Obj(self.members.split_off(open))
            }
        })
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
    fn nesting_is_read_to_max_depth_and_refused_past_it() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let deepest = nested(open, close, MAX_DEPTH);
            assert!(Json::parse(&deepest).is_ok(), "{open}: depth {MAX_DEPTH}");
            assert!(Reader::new(&deepest).skip().is_ok());
            let too_deep = nested(open, close, MAX_DEPTH + 1);
            let err = Json::parse(&too_deep).unwrap_err();
            assert_eq!(err.message, "nesting deeper than 128 levels");
            assert_eq!(err.offset, MAX_DEPTH * open.len());
            assert_eq!(Reader::new(&too_deep).skip().unwrap_err(), err);
            let mut out = String::new();
            assert_eq!(Reader::new(&too_deep).compact(&mut out).unwrap_err(), err);
        }
        // An empty container past the bound is refused too, and so is a
        // frame-sized run of brackets, without exhausting the stack.
        let empty = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&empty(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&empty(MAX_DEPTH + 1)).is_err());
        assert_eq!(Json::parse(&empty(100_000)).unwrap_err().offset, MAX_DEPTH);
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
        fn reference_string(p: &mut Reader<'_>) -> Result<String, JsonError> {
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
            let mut parser = Reader::new(input);
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
