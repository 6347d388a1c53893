//! A hand-rolled JSON value type, writer, and parser.
//!
//! The build environment is offline (no registry), so the telemetry layer
//! cannot depend on `serde`. This module provides the small subset the
//! stats documents need: a [`Json`] tree with deterministic object key
//! order (insertion order, so emitted documents are byte-stable across
//! runs), a compact and a pretty writer, and a strict recursive-descent
//! parser used by the round-trip tests and the CI trace validator.
//!
//! Numbers are kept in three lexical classes — `U64`, `I64`, `F64` — so
//! that 64-bit counters round-trip exactly (a plain `f64` representation
//! would silently lose precision above 2^53, and cycle counters and
//! digests get there).
//!
//! # Example
//!
//! ```
//! use spt_util::Json;
//! let doc = Json::obj([("cycles", Json::U64(1234)), ("ipc", Json::F64(2.5))]);
//! let text = doc.to_string();
//! assert_eq!(text, r#"{"cycles":1234,"ipc":2.5}"#);
//! assert_eq!(Json::parse(&text).unwrap(), doc);
//! ```

use std::fmt;

/// A JSON document tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (u64-exact).
    U64(u64),
    /// A negative integer (i64-exact; non-negative values parse as `U64`).
    I64(i64),
    /// A floating-point number. Non-finite values serialize as `null`
    /// (JSON has no representation for them).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved when writing.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Appends a field to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value)),
            other => panic!("Json::push on non-object {other:?}"),
        }
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` counter, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `i64` (unsigned values narrow when in range), if
    /// integral.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::I64(v) => Some(v),
            Json::U64(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as a `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    #[allow(clippy::inherent_to_string_shadow_display)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation (for files meant to be read).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let mut buf = [0u8; 20];
                out.push_str(fmt_u64(*v, &mut buf));
            }
            Json::I64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    // Rust's shortest-roundtrip float formatting; force a
                    // fractional part so the value re-parses as F64.
                    let s = v.to_string();
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline_indent(out, indent, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input,
    /// including trailing garbage after the top-level value.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string())
    }
}

fn fmt_u64(v: u64, buf: &mut [u8; 20]) -> &str {
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[i..]).expect("digits are ASCII")
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure with the byte offset where it occurred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
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
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: expect a low surrogate.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                            continue; // hex4 already advanced
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\`. Both are ASCII,
                    // so the run ends on a character boundary of `text`.
                    let start = self.pos;
                    let run = self.bytes[start..].iter().position(|&b| b == b'"' || b == b'\\');
                    self.pos = run.map_or(self.bytes.len(), |n| start + n);
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        if !float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonError { offset: start, message: format!("invalid number `{text}`") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for doc in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::U64(0),
            Json::U64(u64::MAX),
            Json::I64(-42),
            Json::F64(2.5),
            Json::F64(-1.0e-3),
            Json::str("hello \"quoted\" \\ \n\t world"),
        ] {
            let text = doc.to_string();
            assert_eq!(Json::parse(&text).unwrap(), doc, "text: {text}");
        }
    }

    #[test]
    fn u64_counters_are_exact() {
        // 2^53 + 1 is not representable in f64; the writer/parser must keep
        // it exact (digests and cycle counters live up here).
        let v = (1u64 << 53) + 1;
        let text = Json::U64(v).to_string();
        assert_eq!(text, "9007199254740993");
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(v));
    }

    #[test]
    fn nested_structure_roundtrips() {
        let doc = Json::obj([
            ("schema", Json::str("spt-stats-v1")),
            ("counts", Json::arr([Json::U64(1), Json::U64(2), Json::U64(3)])),
            (
                "nested",
                Json::obj([("empty_arr", Json::arr([])), ("empty_obj", Json::obj::<&str>([]))]),
            ),
            ("neg", Json::I64(-7)),
        ]);
        for text in [doc.to_string(), doc.to_string_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), doc, "text: {text}");
        }
    }

    #[test]
    fn object_key_order_is_preserved() {
        let doc = Json::obj([("z", Json::U64(1)), ("a", Json::U64(2))]);
        assert_eq!(doc.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::str("Aé"));
        // Surrogate pair for U+1F600.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::str("\u{1F600}"));
    }

    #[test]
    fn multi_megabyte_string_roundtrips() {
        // Long unescaped runs between escapes and multi-byte characters. A
        // parser that rescans the rest of the input per character takes
        // minutes here.
        let chunk = "plain text, ünïcödé 😀, \"quoted\" \\ and a newline\n";
        let big = chunk.repeat((4 << 20) / chunk.len());
        let doc = Json::obj([("blob", Json::str(big)), ("n", Json::U64(7))]);
        let text = doc.to_string();
        assert!(text.len() > 4 << 20);
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn float_without_fraction_reparses_as_float() {
        let text = Json::F64(3.0).to_string();
        assert_eq!(text, "3.0");
        assert_eq!(Json::parse(&text).unwrap(), Json::F64(3.0));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn malformed_inputs_error_with_offset() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2", "01x"] {
            assert!(Json::parse(bad).is_err(), "should reject: {bad}");
        }
        let e = Json::parse("[1, @]").unwrap_err();
        assert_eq!(e.offset, 4);
    }

    #[test]
    fn getters() {
        let doc = Json::parse(r#"{"a": 1, "b": [true, "x"], "c": 1.5}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("b").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(doc.get("c").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("missing"), None);
    }
}
