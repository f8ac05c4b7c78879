//! The **flat JSON** codec — the shape every trace event and every
//! `chase-server` protocol message uses: one object per line,
//! string/integer/boolean values, no nesting.
//!
//! Both directions live here, so every producer and consumer agrees on
//! one grammar. [`Object`] is the only encoder: [`Event::write_json`],
//! the server's replies, `chasectl`'s reports and [`encode_line`] all
//! build their lines with it, and [`escape_json`] is its string
//! escaper. [`parse_line`] is the decoder, shared by `chasectl stats`
//! (trace aggregation) and the wire protocol. A malformed line is a
//! hard error naming the offending byte, so the parser doubles as a
//! validator.
//!
//! [`Event::write_json`]: crate::event::Event::write_json

use std::borrow::BorrowMut;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One scalar value of a flat JSON object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scalar {
    /// A JSON string (unescaped).
    Str(String),
    /// A non-negative JSON integer.
    Num(u64),
    /// A JSON boolean.
    Bool(bool),
}

impl Scalar {
    /// The string payload, if this is a [`Scalar::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a [`Scalar::Num`].
    pub fn as_num(&self) -> Option<u64> {
        match self {
            Scalar::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a [`Scalar::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Builder for one flat JSON object: `{`, one `"key":value` field per
/// call in call order, then `}` from [`Object::finish`]. Keys and string
/// values are escaped with [`escape_json`]. The object is written into
/// a `String` the builder owns ([`Object::new`]) or at the end of a
/// caller's buffer ([`Object::open`]), so a sink can reuse one buffer
/// for every line; no field allocates.
#[derive(Debug)]
#[must_use = "an object is closed by `finish`"]
pub struct Object<S: BorrowMut<String> = String> {
    out: S,
}

impl Object {
    /// An empty object in a fresh `String`.
    pub fn new() -> Self {
        Object::open(String::with_capacity(64))
    }
}

impl Default for Object {
    fn default() -> Self {
        Object::new()
    }
}

impl<S: BorrowMut<String>> Object<S> {
    /// Opens an object at the end of `out`.
    pub fn open(mut out: S) -> Self {
        out.borrow_mut().push('{');
        Object { out }
    }

    fn key(&mut self, key: &str) -> &mut String {
        let out = self.out.borrow_mut();
        // No field ends in `{`, so only an empty object does.
        if !out.ends_with('{') {
            out.push(',');
        }
        out.push('"');
        escape_json(out, key);
        out.push_str("\":");
        out
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        let out = self.key(key);
        out.push('"');
        escape_json(out, value);
        out.push('"');
        self
    }

    /// Appends an integer field.
    pub fn num(mut self, key: &str, value: u64) -> Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object and returns its buffer.
    pub fn finish(mut self) -> S {
        self.out.borrow_mut().push('}');
        self.out
    }
}

/// Encodes a parsed line back into flat JSON, keys in map order; the
/// inverse of [`parse_line`].
pub fn encode_line(map: &BTreeMap<String, Scalar>) -> String {
    let mut obj = Object::new();
    for (key, value) in map {
        obj = match value {
            Scalar::Str(s) => obj.str(key, s),
            Scalar::Num(n) => obj.num(key, *n),
            Scalar::Bool(b) => obj.bool(key, *b),
        };
    }
    obj.finish()
}

/// Escapes `value` per RFC 8259 into `out` (quotes not included):
/// `"`, `\` and control characters; everything else is copied as is.
pub fn escape_json(out: &mut String, value: &str) {
    let mut clean = 0;
    for (i, byte) in value.bytes().enumerate() {
        let escaped = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&value[clean..i]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escaped);
        }
        clean = i + 1;
    }
    out.push_str(&value[clean..]);
}

/// Parses one line: a flat JSON object with scalar values. Duplicate
/// keys, nesting, trailing content and raw control characters are all
/// rejected.
pub fn parse_line(line: &str) -> Result<BTreeMap<String, Scalar>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.scalar()?;
            if out.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key \"{key}\""));
            }
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                Some(c) => return Err(format!("expected ',' or '}}', found '{}'", c as char)),
                None => return Err("unterminated object".into()),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content after object at byte {}", p.pos));
    }
    Ok(out)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(format!(
                "expected '{}', found '{}' at byte {}",
                want as char,
                b as char,
                self.pos - 1
            )),
            None => Err(format!("expected '{}', found end of line", want as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => out.push(self.unicode_escape()?),
                    Some(c) => return Err(format!("bad escape '\\{}'", c as char)),
                    None => return Err("unterminated string".into()),
                },
                Some(b) if b < 0x20 => return Err("raw control character in string".into()),
                Some(b) => {
                    // Multi-byte UTF-8 passes through byte-wise: the
                    // input was a &str, so the bytes are valid UTF-8.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        out.push_str(
                            std::str::from_utf8(&self.bytes[start..end])
                                .map_err(|_| "invalid UTF-8")?,
                        );
                        self.pos = end;
                    }
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    /// The four hex digits after `\u`.
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = self
                .next()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or("bad \\u escape")?;
            code = code * 16 + d;
        }
        Ok(code)
    }

    /// The character of a `\uXXXX` escape whose `\u` was consumed. A
    /// high surrogate must be followed by a `\u` low surrogate, and the
    /// pair is one character; a lone or reversed surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        const HIGH: std::ops::Range<u32> = 0xD800..0xDC00;
        const LOW: std::ops::Range<u32> = 0xDC00..0xE000;
        let code = self.hex4()?;
        if LOW.contains(&code) {
            return Err("bad \\u code point: unpaired low surrogate".into());
        }
        if !HIGH.contains(&code) {
            return Ok(char::from_u32(code).expect("not a surrogate"));
        }
        let low = if self.bytes[self.pos..].starts_with(b"\\u") {
            self.pos += 2;
            self.hex4()?
        } else {
            0
        };
        if !LOW.contains(&low) {
            return Err("bad \\u code point: unpaired high surrogate".into());
        }
        let pair = 0x10000 + ((code - HIGH.start) << 10) + (low - LOW.start);
        Ok(char::from_u32(pair).expect("a surrogate pair is a scalar value"))
    }

    fn scalar(&mut self) -> Result<Scalar, String> {
        match self.peek() {
            Some(b'"') => Ok(Scalar::Str(self.string()?)),
            Some(b't') => self.literal("true").map(|()| Scalar::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Scalar::Bool(false)),
            Some(b'0'..=b'9') => {
                let start = self.pos;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                text.parse::<u64>()
                    .map(Scalar::Num)
                    .map_err(|e| format!("bad integer '{text}': {e}"))
            }
            Some(c) => Err(format!("unsupported value starting with '{}'", c as char)),
            None => Err("expected a value, found end of line".into()),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected '{word}'"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let parsed = parse_line("{\"a\":1,\"b\":\"x\",\"c\":true,\"d\":false}").unwrap();
        assert_eq!(parsed.get("a").and_then(Scalar::as_num), Some(1));
        assert_eq!(parsed.get("b").and_then(Scalar::as_str), Some("x"));
        assert_eq!(parsed.get("c").and_then(Scalar::as_bool), Some(true));
        assert_eq!(parsed.get("d").and_then(Scalar::as_bool), Some(false));
        assert!(parse_line("{}").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_line("").is_err());
        assert!(parse_line("{").is_err());
        assert!(parse_line("{\"a\":1,}").is_err());
        assert!(parse_line("{\"a\":1} trailing").is_err());
        assert!(parse_line("{\"a\":[1]}").is_err()); // nesting unsupported
        assert!(parse_line("{\"a\":1,\"a\":2}").is_err()); // duplicate key
        assert!(parse_line("[1,2]").is_err());
    }

    #[test]
    fn unescapes_strings() {
        let parsed = parse_line("{\"s\":\"a\\\"b\\\\c\\nd\\u0041\"}").unwrap();
        assert_eq!(
            parsed.get("s").and_then(Scalar::as_str),
            Some("a\"b\\c\nd\u{41}")
        );
    }

    #[test]
    fn round_trips_the_event_encoder() {
        let mut line = String::new();
        crate::event::Event::PhaseExited {
            phase: "chase",
            nanos: 42,
        }
        .write_json(&mut line);
        let parsed = parse_line(&line).unwrap();
        assert_eq!(
            parsed.get("event").and_then(Scalar::as_str),
            Some("phase_exited")
        );
        assert_eq!(parsed.get("nanos").and_then(Scalar::as_num), Some(42));
    }

    #[test]
    fn round_trips_escaped_payloads() {
        let mut value = String::from("{\"rules\":\"");
        escape_json(&mut value, "R(a,b).\nR(x,y) -> \"S\"(x).\t\\end");
        value.push_str("\"}");
        let parsed = parse_line(&value).unwrap();
        assert_eq!(
            parsed.get("rules").and_then(Scalar::as_str),
            Some("R(a,b).\nR(x,y) -> \"S\"(x).\t\\end")
        );
    }

    #[test]
    fn decodes_surrogate_pairs() {
        let parsed = parse_line(r#"{"s":"x\ud83d\ude00y","t":"\u00e9"}"#).unwrap();
        assert_eq!(
            parsed.get("s").and_then(Scalar::as_str),
            Some("x\u{1F600}y")
        );
        assert_eq!(parsed.get("t").and_then(Scalar::as_str), Some("\u{e9}"));
    }

    #[test]
    fn rejects_a_lone_high_surrogate() {
        for line in [
            r#"{"s":"\ud83d"}"#,
            r#"{"s":"\ud83dx"}"#,
            r#"{"s":"\ud83d\n"}"#,
            r#"{"s":"\ud83d\ud83d"}"#,
            r#"{"s":"\ud83d\u0041"}"#,
        ] {
            let err = parse_line(line).unwrap_err();
            assert_eq!(err, "bad \\u code point: unpaired high surrogate", "{line}");
        }
    }

    #[test]
    fn rejects_a_lone_low_surrogate() {
        for line in [r#"{"s":"\ude00"}"#, r#"{"s":"\ude00\ud83d"}"#] {
            let err = parse_line(line).unwrap_err();
            assert_eq!(err, "bad \\u code point: unpaired low surrogate", "{line}");
        }
    }

    #[test]
    fn object_builder_writes_fields_in_call_order() {
        let line = Object::new()
            .str("type", "result")
            .str("id", "s\"1")
            .num("steps", 42)
            .num("max", u64::MAX)
            .bool("cached", false)
            .finish();
        assert_eq!(
            line,
            r#"{"type":"result","id":"s\"1","steps":42,"max":18446744073709551615,"cached":false}"#
        );
        assert_eq!(Object::new().finish(), "{}");
        assert_eq!(Object::new().num("zero", 0).finish(), r#"{"zero":0}"#);
    }

    #[test]
    fn object_builder_appends_to_a_callers_buffer() {
        let mut buf = String::from("prefix ");
        Object::open(&mut buf)
            .str("a", "x")
            .bool("b", true)
            .finish();
        assert_eq!(buf, r#"prefix {"a":"x","b":true}"#);
    }

    #[test]
    fn encode_line_is_the_inverse_of_parse_line() {
        let line = r#"{"a\"k":"v\\\n\u0001","n":7,"t":true}"#;
        let map = parse_line(line).unwrap();
        assert_eq!(encode_line(&map), line);
        assert_eq!(parse_line(&encode_line(&map)).unwrap(), map);
    }

    #[test]
    fn escape_handles_controls_and_quotes() {
        let mut out = String::new();
        escape_json(&mut out, "a\"b\\c\nd\u{1}\u{1f}\r\t\u{e9}\u{1F600}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001\\u001f\\r\\t\u{e9}\u{1F600}");
    }
}
