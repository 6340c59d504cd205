//! # koala-json
//!
//! Tiny JSON value model, pretty-printer, and parser shared by the koala-rs
//! workspace.
//!
//! The build environment cannot fetch `serde`/`serde_json`; this hand-rolled
//! pair covers the workspace's needs: the emitter writes escaped strings,
//! finite numbers (non-finite values serialise as `null`, matching
//! serde_json), arrays, and insertion-ordered objects; the parser
//! ([`JsonValue::parse`]) reads the same dialect back. Two consumers exist:
//!
//! * `koala-bench` emits every figure/benchmark file through it and
//!   `check_bench` parses the committed `BENCH_gemm.json` baselines,
//! * `koala-cluster` parses the same committed benchmark file to calibrate
//!   its distributed cost model (`CostModel::from_bench`).
//!
//! It lives in its own crate (rather than inside `koala-bench`) precisely so
//! the cluster crate can read the calibration file without depending on the
//! benchmark harness that *writes* it.

#![warn(missing_docs)]

use std::fmt::Write as _;

/// A JSON document fragment.
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// Boolean literal.
    Bool(bool),
    /// Finite double-precision number.
    Num(f64),
    /// String (escaped on output).
    Str(String),
    /// Ordered array.
    Array(Vec<JsonValue>),
    /// Insertion-ordered object.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Number helper (accepts anything convertible to `f64`).
    pub fn num(x: impl Into<f64>) -> JsonValue {
        JsonValue::Num(x.into())
    }

    /// String helper.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// Object helper from `(key, value)` pairs.
    pub fn object<'a>(pairs: impl IntoIterator<Item = (&'a str, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parse a JSON document. Covers the full value grammar the emitter
    /// produces (and standard JSON escapes); numbers parse as `f64`. Arrays
    /// and objects may nest 64 deep.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (None for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value of this fragment, if it is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String value of this fragment, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items of this fragment, if it is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::Num(x) => {
                if x.is_finite() {
                    if *x == x.trunc() && x.abs() < 1e15 {
                        let _ = write!(out, "{:.1}", x);
                    } else {
                        let _ = write!(out, "{}", x);
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Recursive-descent JSON parser over the raw bytes (JSON's structural
/// characters are all ASCII; string content is re-validated as UTF-8 when
/// sliced back out).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

/// Deepest nesting [`JsonValue::parse`] accepts. The parser recurses once per
/// open array or object, so the input must not get to choose the stack depth;
/// nothing the workspace writes or serves nests beyond a handful of levels.
const MAX_DEPTH: usize = 64;

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            // Surrogate pairs are not emitted by the writer;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy a run of plain bytes, re-validating UTF-8.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(run);
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::JsonValue;

    #[test]
    fn renders_nested_structures() {
        let v = JsonValue::object([
            ("name", JsonValue::str("a\"b")),
            ("pi", JsonValue::num(3.25)),
            ("whole", JsonValue::num(4.0)),
            ("bad", JsonValue::Num(f64::NAN)),
            ("items", JsonValue::Array(vec![JsonValue::Bool(true), JsonValue::Null])),
            ("empty", JsonValue::Array(vec![])),
        ]);
        let text = v.pretty();
        assert!(text.contains("\"a\\\"b\""));
        assert!(text.contains("3.25"));
        assert!(text.contains("4.0"));
        assert!(text.contains("\"bad\": null"));
        assert!(text.contains("[]"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn parse_roundtrips_emitter_output() {
        let v = JsonValue::object([
            ("name", JsonValue::str("a\"b\\c\nd")),
            ("pi", JsonValue::num(3.25)),
            ("whole", JsonValue::num(4.0)),
            ("neg", JsonValue::num(-1.5e-3)),
            ("flag", JsonValue::Bool(false)),
            ("nothing", JsonValue::Null),
            (
                "items",
                JsonValue::Array(vec![
                    JsonValue::num(1.0),
                    JsonValue::object([("k", JsonValue::str("v"))]),
                    JsonValue::Array(vec![]),
                ]),
            ),
        ]);
        let text = v.pretty();
        let parsed = JsonValue::parse(&text).expect("roundtrip parse failed");
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(parsed.get("pi").unwrap().as_num(), Some(3.25));
        assert_eq!(parsed.get("whole").unwrap().as_num(), Some(4.0));
        assert_eq!(parsed.get("neg").unwrap().as_num(), Some(-1.5e-3));
        assert!(matches!(parsed.get("flag"), Some(JsonValue::Bool(false))));
        assert!(matches!(parsed.get("nothing"), Some(JsonValue::Null)));
        let items = parsed.get("items").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[1].get("k").unwrap().as_str(), Some("v"));
        // Malformed documents are rejected, not mis-parsed.
        assert!(JsonValue::parse("{\"a\": }").is_err());
        assert!(JsonValue::parse("[1, 2").is_err());
        assert!(JsonValue::parse("123 45").is_err());
        // Nesting is bounded, so a hostile line cannot overflow the stack.
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(64)).is_ok());
        assert!(JsonValue::parse(&nested(65)).is_err());
        assert!(JsonValue::parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }
}
