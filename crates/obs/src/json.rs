//! The workspace's one JSON module: the writer behind every document
//! the crates emit and the parser behind every document they read.
//!
//! The workspace has no serde. What bytes a JSON document is — string
//! escaping, number formatting, where commas go, what a non-finite
//! float becomes — is decided here and nowhere else (`benchmark/` is a
//! separate workspace with its own `src/json.rs`).
//!
//! # Writer
//!
//! [`JsonWriter`] produces compact output (no whitespace) with keys in
//! the order the caller writes them. Integers and floats go through
//! `Display`, which for `f64` is the shortest decimal that round-trips
//! — identical across platforms, so equal values always serialize to
//! equal bytes. Strings are always escaped. A non-finite float is
//! written as `null`: the lifecycle's drift ratio is `f64::INFINITY` by
//! design when a grouping's baseline cost is zero, so "never written"
//! is not available and `null` is the only policy that makes writing
//! total. Nesting is balanced by construction ([`JsonWriter::object`]
//! and [`JsonWriter::array`] take the body as a closure); giving each
//! object member its [`JsonWriter::key`] is the caller's part.
//!
//! # Parser
//!
//! [`parse`] reads RFC 8259 JSON — everything the writer can emit —
//! into a [`JsonValue`], nesting at most [`MAX_DEPTH`] containers, and
//! reports the first offending byte as a [`JsonError`]. It never
//! panics and its stack use is bounded by `MAX_DEPTH`, whatever the
//! input.
//!
//! ```
//! use ecg_obs::json::{parse, JsonValue, JsonWriter};
//!
//! let mut w = JsonWriter::new();
//! w.object(|w| {
//!     w.key("name").str("a\u{1}b");
//!     w.key("drift").f64(f64::INFINITY);
//!     w.key("ids").array(|w| {
//!         w.u64(1).u64(2);
//!     });
//! });
//! let text = w.finish();
//! assert_eq!(text, r#"{"name":"a\u0001b","drift":null,"ids":[1,2]}"#);
//!
//! let doc = parse(&text)?;
//! assert_eq!(doc.get("name").and_then(JsonValue::as_str), Some("a\u{1}b"));
//! assert!(doc.get("drift").is_some_and(JsonValue::is_null));
//! # Ok::<(), ecg_obs::json::JsonError>(())
//! ```

use std::fmt;
use std::fmt::Write as _;

/// Builds one JSON document into a `String`.
#[derive(Debug, Clone, Default)]
pub struct JsonWriter {
    out: String,
}

impl JsonWriter {
    /// An empty document.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// The finished document (no trailing newline).
    pub fn finish(self) -> String {
        self.out
    }

    /// The one comma rule: everything except the first element of a
    /// container, the value after a key, and the document's first byte
    /// is preceded by a comma. No value ends in `{`, `[` or `:` (strings
    /// end in their closing quote), so the last byte written decides.
    fn separate(&mut self) {
        if !matches!(self.out.as_bytes().last(), None | Some(b'{' | b'[' | b':')) {
            self.out.push(',');
        }
    }

    fn container(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.separate();
        self.out.push(open);
        body(self);
        self.out.push(close);
        self
    }

    /// Writes an object; `body` writes its members, each a
    /// [`JsonWriter::key`] followed by one value.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('{', '}', body)
    }

    /// Writes an array; `body` writes its elements.
    pub fn array(&mut self, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container('[', ']', body)
    }

    /// Writes an object member's key; the next write is its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.str(key);
        self.out.push(':');
        self
    }

    /// Writes a string, escaping `"`, `\` and every control character.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.separate();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self
    }

    fn display(&mut self, v: impl fmt::Display) -> &mut Self {
        self.separate();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.display(v)
    }

    /// Writes a count or index.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.display(v)
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.display(v)
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.display("null")
    }

    /// Writes a float in its shortest round-trip form; NaN and ±∞,
    /// which JSON cannot express, are written as `null`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.display(v)
        } else {
            self.null()
        }
    }

    /// Writes `Some(v)` as [`JsonWriter::f64`] does and `None` as `null`.
    pub fn opt_f64(&mut self, v: Option<f64>) -> &mut Self {
        match v {
            Some(v) => self.f64(v),
            None => self.null(),
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, read as the nearest `f64` (a literal beyond the
    /// `f64` range reads as ±∞; typed readers reject it there).
    Num(f64),
    /// A string, escapes resolved.
    Str(String),
    /// An array of values.
    Arr(Vec<JsonValue>),
    /// An object, keeping members in the order written, duplicates
    /// included.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object (the first match wins when a key is
    /// repeated; `None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True if this is JSON `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// deepest document the workspace writes (`results/ablation_churn.json`)
/// nests 8 levels.
pub const MAX_DEPTH: usize = 128;

/// What [`parse`] found wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The input ended inside a value.
    UnexpectedEnd,
    /// A byte that cannot appear at this point of the grammar.
    UnexpectedByte(u8),
    /// A number that is not `-? int frac? exp?` (a leading `+`, a bare
    /// `.`, a `-` with no digits, a leading zero).
    InvalidNumber,
    /// A backslash followed by anything but `" \ / b f n r t` or `u` and
    /// four hex digits.
    InvalidEscape,
    /// A `\uD800`–`\uDFFF` escape that is not the first or second half
    /// of a well-ordered surrogate pair.
    LoneSurrogate,
    /// A raw byte below `0x20` inside a string.
    ControlCharacter,
    /// Arrays and objects nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Anything but whitespace after the document's value.
    TrailingCharacters,
}

/// Why and where [`parse`] rejected its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// What was wrong.
    pub kind: JsonErrorKind,
    /// Byte offset of the offending byte in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            JsonErrorKind::UnexpectedEnd => write!(out, "unexpected end of input"),
            JsonErrorKind::UnexpectedByte(b) => {
                write!(out, "unexpected byte '{}'", char::from(b).escape_default())
            }
            JsonErrorKind::InvalidNumber => write!(out, "invalid number"),
            JsonErrorKind::InvalidEscape => write!(out, "invalid escape"),
            JsonErrorKind::LoneSurrogate => write!(out, "unpaired surrogate escape"),
            JsonErrorKind::ControlCharacter => write!(out, "raw control character in string"),
            JsonErrorKind::TooDeep => write!(out, "nested deeper than {MAX_DEPTH} levels"),
            JsonErrorKind::TrailingCharacters => write!(out, "trailing characters"),
        }?;
        write!(out, " at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (surrounding whitespace allowed,
/// anything else after the value is an error).
///
/// # Errors
///
/// A [`JsonError`] naming the first byte that is not JSON, or that
/// opens a container more than [`MAX_DEPTH`] levels deep.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        text: input,
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.error(JsonErrorKind::TrailingCharacters));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, kind: JsonErrorKind) -> JsonError {
        error_at(kind, self.pos)
    }

    /// The error for "the byte here (or the end of input) is not what
    /// the grammar needs".
    fn unexpected(&self) -> JsonError {
        self.error(match self.peek() {
            Some(b) => JsonErrorKind::UnexpectedByte(b),
            None => JsonErrorKind::UnexpectedEnd,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected())
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .container(b'}', |p, fields: &mut Vec<_>| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    fields.push((key, p.value()?));
                    Ok(())
                })
                .map(JsonValue::Obj),
            Some(b'[') => self
                .container(b']', |p, items: &mut Vec<_>| {
                    items.push(p.value()?);
                    Ok(())
                })
                .map(JsonValue::Arr),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.unexpected()),
        }
    }

    /// Reads `open (element (',' element)*)? close` with the cursor on
    /// `open`, one nesting level down.
    fn container<T>(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self, &mut Vec<T>) -> Result<(), JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(JsonErrorKind::TooDeep));
        }
        self.depth += 1;
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                element(self, &mut items)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b) if b == close => break,
                    _ => return Err(self.unexpected()),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(items)
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        for &b in word.as_bytes() {
            self.expect(b)?;
        }
        Ok(value)
    }

    /// Skips a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.error(JsonErrorKind::InvalidNumber)),
        }
        if let Some(b'0'..=b'9') = self.peek() {
            return Err(self.error(JsonErrorKind::InvalidNumber)); // a leading zero
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.error(JsonErrorKind::InvalidNumber));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error(JsonErrorKind::InvalidNumber));
            }
        }
        self.text[start..self.pos]
            .parse()
            .map(JsonValue::Num)
            .map_err(|_| self.error(JsonErrorKind::InvalidNumber))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Runs between quotes, backslashes and control bytes are
            // copied whole; all three are ASCII, so the cuts fall on
            // character boundaries.
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => out.push(self.escape()?),
                Some(_) => return Err(self.error(JsonErrorKind::ControlCharacter)),
                None => return Err(self.error(JsonErrorKind::UnexpectedEnd)),
            }
        }
    }

    /// Reads one escape sequence with the cursor on its backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let start = self.pos;
        self.pos += 1;
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => return self.unicode_escape(start),
            Some(_) => return Err(error_at(JsonErrorKind::InvalidEscape, start)),
            None => return Err(self.error(JsonErrorKind::UnexpectedEnd)),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Reads `uXXXX`, and `\uXXXX` again when the first is a high
    /// surrogate, with the cursor on the `u` of the escape at `start`.
    fn unicode_escape(&mut self, start: usize) -> Result<char, JsonError> {
        let lone = error_at(JsonErrorKind::LoneSurrogate, start);
        let first = self.hex4(start)?;
        let code = match first {
            0xD800..=0xDBFF => {
                let second = self.pos;
                if !self.text[second..].starts_with("\\u") {
                    return Err(lone);
                }
                self.pos += 1;
                match self.hex4(second)? {
                    low @ 0xDC00..=0xDFFF => 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00),
                    _ => return Err(lone),
                }
            }
            0xDC00..=0xDFFF => return Err(lone),
            _ => first,
        };
        char::from_u32(code).ok_or(lone)
    }

    /// Reads the four hex digits after the `u` under the cursor; `escape`
    /// is where their backslash is.
    fn hex4(&mut self, escape: usize) -> Result<u32, JsonError> {
        let mut value = 0;
        for _ in 0..4 {
            self.pos += 1;
            let digit = self.peek().and_then(|b| char::from(b).to_digit(16));
            value = value * 16 + digit.ok_or(error_at(JsonErrorKind::InvalidEscape, escape))?;
        }
        self.pos += 1;
        Ok(value)
    }
}

fn error_at(kind: JsonErrorKind, offset: usize) -> JsonError {
    JsonError { kind, offset }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind_at(input: &str) -> (JsonErrorKind, usize) {
        let e = parse(input).expect_err(input);
        (e.kind, e.offset)
    }

    #[test]
    fn writer_places_commas_and_keeps_key_order() {
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.key("z").u64(1).key("a").array(|w| {
                w.array(|_| {}).object(|_| {}).null().bool(true);
            });
            w.key("s").str("x").key("n").usize(7);
        });
        assert_eq!(w.finish(), r#"{"z":1,"a":[[],{},null,true],"s":"x","n":7}"#);
    }

    #[test]
    fn strings_are_escaped_and_read_back() {
        let mut w = JsonWriter::new();
        w.str("a\"b\\c\nd\u{1}\r\t/é\u{1f600}");
        let text = w.finish();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\\r\\t/é\u{1f600}\"");
        assert_eq!(
            parse(&text).expect("parses").as_str(),
            Some("a\"b\\c\nd\u{1}\r\t/é\u{1f600}")
        );
    }

    #[test]
    fn floats_are_shortest_round_trip_and_non_finite_is_null() {
        let mut w = JsonWriter::new();
        w.array(|w| {
            w.f64(0.1).f64(3.0).f64(-0.0).f64(f64::NAN);
            w.f64(f64::INFINITY).opt_f64(None).opt_f64(Some(2.5));
        });
        assert_eq!(w.finish(), "[0.1,3,-0,null,null,null,2.5]");
        for v in [0.1, 3.0, 10_000.0, 1.0 / 3.0, f64::MAX, 5e-324, -0.0] {
            let mut w = JsonWriter::new();
            w.f64(v);
            let parsed = parse(&w.finish()).expect("number parses").as_f64();
            assert_eq!(parsed.map(f64::to_bits), Some(v.to_bits()), "{v}");
        }
    }

    #[test]
    fn parses_every_value_kind() {
        let v =
            parse(r#" {"a":1.5,"b":[null,true,"x\ny"],"c":{"d":-2e3},"a":2} "#).expect("parses");
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(1.5));
        let arr = v.get("b").and_then(JsonValue::as_arr).expect("array");
        assert!(arr[0].is_null());
        assert_eq!(arr[1], JsonValue::Bool(true));
        assert_eq!(arr[2].as_str(), Some("x\ny"));
        let d = v.get("c").and_then(|c| c.get("d"));
        assert_eq!(d.and_then(JsonValue::as_f64), Some(-2000.0));
        assert_eq!(
            parse("1e999").expect("parses").as_f64(),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn every_escape_is_read() {
        let v = parse(r#""\"\\\/\b\f\n\r\tAé😀""#).expect("parses");
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\tAé\u{1f600}"));
    }

    #[test]
    fn bad_escapes_and_control_bytes_are_typed_errors() {
        use JsonErrorKind::*;
        assert_eq!(kind_at(r#""\q""#), (InvalidEscape, 1));
        assert_eq!(kind_at(r#""ab\u12""#), (InvalidEscape, 3));
        assert_eq!(kind_at(r#""\u12g4""#), (InvalidEscape, 1));
        assert_eq!(kind_at(r#""\ud83d""#), (LoneSurrogate, 1));
        assert_eq!(kind_at(r#""\ud83dx""#), (LoneSurrogate, 1));
        assert_eq!(kind_at(r#""\ude00\ud83d""#), (LoneSurrogate, 1));
        assert_eq!(kind_at(r#""\ud83dA""#), (LoneSurrogate, 1));
        assert_eq!(kind_at("\"a\u{1}b\""), (ControlCharacter, 2));
        assert_eq!(kind_at("\"a\nb\""), (ControlCharacter, 2));
        assert_eq!(kind_at("\"abc"), (UnexpectedEnd, 4));
        assert_eq!(kind_at("\"abc\\"), (UnexpectedEnd, 5));
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        use JsonErrorKind::*;
        for good in ["0", "-0", "12", "1.5", "-1.5e-3", "2E+7", "0.0"] {
            assert!(parse(good).is_ok(), "{good}");
        }
        assert_eq!(kind_at("+1"), (UnexpectedByte(b'+'), 0));
        assert_eq!(kind_at(".5"), (UnexpectedByte(b'.'), 0));
        assert_eq!(kind_at("-"), (InvalidNumber, 1));
        assert_eq!(kind_at("[-,1]"), (InvalidNumber, 2));
        assert_eq!(kind_at("-.5"), (InvalidNumber, 1));
        assert_eq!(kind_at("1."), (InvalidNumber, 2));
        assert_eq!(kind_at("1.e3"), (InvalidNumber, 2));
        assert_eq!(kind_at("1e"), (InvalidNumber, 2));
        assert_eq!(kind_at("1e+"), (InvalidNumber, 3));
        assert_eq!(kind_at("01"), (InvalidNumber, 1));
        assert_eq!(kind_at("1-2"), (TrailingCharacters, 1));
        assert_eq!(kind_at("[1.2.3]"), (UnexpectedByte(b'.'), 4));
    }

    #[test]
    fn malformed_documents_name_the_offending_byte() {
        use JsonErrorKind::*;
        assert_eq!(kind_at(""), (UnexpectedEnd, 0));
        assert_eq!(kind_at("{"), (UnexpectedEnd, 1));
        assert_eq!(kind_at("[1,]"), (UnexpectedByte(b']'), 3));
        assert_eq!(kind_at("{\"a\" 1}"), (UnexpectedByte(b'1'), 5));
        assert_eq!(kind_at("{\"a\":}"), (UnexpectedByte(b'}'), 5));
        assert_eq!(kind_at("{1:2}"), (UnexpectedByte(b'1'), 1));
        assert_eq!(kind_at("tru"), (UnexpectedEnd, 3));
        assert_eq!(kind_at("trux"), (UnexpectedByte(b'x'), 3));
        assert_eq!(kind_at("1 2"), (TrailingCharacters, 2));
        assert_eq!(kind_at("{} x"), (TrailingCharacters, 3));
        assert!(parse("{}  ").is_ok());
        let message = parse("[1,]").expect_err("rejected").to_string();
        assert_eq!(message, "unexpected byte ']' at byte 3");
    }

    #[test]
    fn nesting_is_bounded_not_recursed_into() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH),
            "}".repeat(MAX_DEPTH)
        ))
        .is_ok());
        assert_eq!(
            kind_at(&nested("[", "]", MAX_DEPTH + 1)),
            (JsonErrorKind::TooDeep, MAX_DEPTH)
        );
        // Either of these overflowed the stack of the recursive reader
        // this one replaces.
        assert_eq!(
            kind_at(&"[".repeat(100_000)),
            (JsonErrorKind::TooDeep, MAX_DEPTH)
        );
        assert_eq!(
            kind_at(&"{\"a\":".repeat(100_000)),
            (JsonErrorKind::TooDeep, 5 * MAX_DEPTH)
        );
    }
}
