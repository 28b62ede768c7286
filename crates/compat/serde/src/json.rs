//! The JSON data model: a [`Value`] tree, a strict parser and a writer.
//!
//! The parser is hand-rolled recursive descent with a depth cap (a hostile
//! `[[[[...` payload must exhaust the cap, not the stack) and is strict
//! about trailing garbage. The writer escapes control characters and
//! emits numbers via Rust's shortest-roundtrip float formatting.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth the parser accepts.
const MAX_DEPTH: usize = 64;

/// A JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, like `serde_json`'s lossy mode).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (sorted keys, so output is deterministic).
    Object(BTreeMap<String, Value>),
}

/// Error from parsing or from typed extraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// An error carrying `message`.
    pub fn new(message: impl Into<String>) -> JsonError {
        JsonError { message: message.into() }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// The numeric payload, or a typed error.
    pub fn as_number(&self) -> Result<f64, JsonError> {
        match self {
            Value::Number(n) => Ok(*n),
            other => Err(JsonError::new(format!("expected a number, got {}", other.kind()))),
        }
    }

    /// Object field lookup (`Null` and missing are both `None`).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key).filter(|v| !matches!(v, Value::Null)),
            _ => None,
        }
    }

    /// Serialises to compact JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => {
                if n.is_finite() {
                    // Negative zero must keep its sign: `-0.0 as i64` is 0,
                    // and "0" parses back to +0.0 — a bit-level round-trip
                    // failure the integer fast path would silently cause.
                    let negative_zero = *n == 0.0 && n.is_sign_negative();
                    if n.fract() == 0.0 && n.abs() < 9.0e15 && !negative_zero {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    // JSON has no NaN/inf; mirror serde_json's `null`.
                    out.push_str("null");
                }
            }
            Value::String(s) => write_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(v)
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!("expected '{}' at byte {}", b as char, self.pos)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::new("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(JsonError::new(format!(
                "unexpected character '{}' at byte {}",
                c as char, self.pos
            ))),
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(JsonError::new(format!("expected ',' or ']' at byte {}", self.pos)))
                }
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError::new("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::new("bad \\u escape"))?;
                            // Surrogates are replaced, not paired — the wire
                            // types never emit them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::new("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape.
                    // Both are ASCII, so they never split a multi-byte
                    // character of the `&str` input.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| JsonError::new(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_writes_documents() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"c": null, "d": true}, "s": "x\n\"y\""}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Value::Array(vec![Value::Number(1.0), Value::Number(2.5), Value::Number(-3.0)])
        );
        assert!(v.get("b").unwrap().get("c").is_none(), "null fields read as missing");
        // Roundtrip through the writer.
        let round = Value::parse(&v.to_json()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated", "{'a': 1}"] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_cap_holds() {
        let bomb = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Value::parse(&bomb).is_err());
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // Multi-byte characters next to escapes, repeated into a string far
        // longer than any wire message: a parser that rescans the rest of
        // the input per character would take minutes here.
        let unit = "h\u{e9}llo \"w\u{f6}rld\" \u{2713} \\ ";
        let text = unit.repeat(1 << 14);
        let doc = format!("{{\"s\": {}}}", Value::String(text.clone()).to_json());
        let parsed = Value::parse(&doc).unwrap();
        assert_eq!(parsed.get("s"), Some(&Value::String(text)));
    }

    #[test]
    fn unicode_escapes() {
        let v = Value::parse(r#""Aé""#).unwrap();
        assert_eq!(v, Value::String("Aé".to_string()));
    }

    /// The writer and the parser must agree at the edges of the numeric
    /// domain — the container format's canonical metadata JSON depends on
    /// write→parse being a bit-level identity for every finite f64.
    #[test]
    fn number_roundtrips_at_the_edges() {
        let edges = [
            0.0f64,
            -0.0, // must print "-0", not collapse to "0"
            1.0,
            -1.0,
            i64::MIN as f64,
            i64::MAX as f64,
            9.0e15, // first value past the integer fast path
            8.999999999999998e15,
            1e-7,
            -1e-7,
            1e300,
            -1e300,
            1e-300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            0.1,
            1.5,
            -2.5e-10,
        ];
        for v in edges {
            let text = Value::Number(v).to_json();
            let back = Value::parse(&text).unwrap().as_number().unwrap();
            assert_eq!(
                back.to_bits(),
                v.to_bits(),
                "{v:?} -> {text:?} -> {back:?} is not a bit-level identity"
            );
        }
    }

    #[test]
    fn negative_zero_keeps_its_sign_on_the_wire() {
        assert_eq!(Value::Number(-0.0).to_json(), "-0");
        assert_eq!(Value::Number(0.0).to_json(), "0");
        let back = Value::parse("-0").unwrap().as_number().unwrap();
        assert!(back == 0.0 && back.is_sign_negative(), "parsed {back:?}");
    }

    #[test]
    fn integer_fast_path_still_prints_integers() {
        // The -0.0 carve-out must not disturb ordinary integers, which
        // sorted-key writers print without a trailing ".0".
        assert_eq!(Value::Number(42.0).to_json(), "42");
        assert_eq!(Value::Number(-7.0).to_json(), "-7");
        assert_eq!(Value::Number(2.5).to_json(), "2.5");
    }
}
