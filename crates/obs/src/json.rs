//! The workspace's one JSON module: a minimal tree, two renderers and a
//! strict, total parser.
//!
//! The observability sinks must emit valid JSON and the CI stream checker
//! must *validate* it, all without external dependencies — so this module
//! owns both directions, for every JSON file the workspace reads or
//! writes: obs JSONL, BENCH documents, FaultPlan files and
//! `hetero-check`'s baseline and report. Objects preserve insertion order
//! (writers control ordering for deterministic output). [`Value::render`]
//! is compact (no whitespace) and [`Value::render_pretty`] indents by two
//! spaces; both render non-finite numbers as `null` since JSON has no
//! representation for them. [`parse`] returns an error, never panics,
//! on any input, including nesting deeper than 128 levels.

use std::fmt::Write as _;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (JSON numbers are parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload, if it is an integer in `0..=u32::MAX`: the
    /// one integer rule for untrusted JSON. A fraction, a negative or a
    /// larger number is `None`, never rounded or saturated.
    pub fn as_u32(&self) -> Option<u32> {
        let x = self.as_f64()?;
        // hetero-check: allow(float-eq) — fract() == 0.0 is the exact integrality test; any tolerance would admit non-integers
        let integral = x.fract() == 0.0;
        (integral && (0.0..=f64::from(u32::MAX)).contains(&x)).then_some(x as u32)
    }

    /// Compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// JSON text with one element per line, indented two spaces per
    /// level, and `": "` between key and value; empty arrays and objects
    /// stay `[]` and `{}`.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Writes the value; `indent` is its nesting level when pretty-printing
    /// and `None` for compact text.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|level| level + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => {
                if x.is_finite() {
                    // Rust's shortest-roundtrip Display never produces
                    // exponent notation, so the text is valid JSON.
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => render_string(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    v.write(out, inner);
                }
                if !items.is_empty() {
                    newline(out, indent);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    render_string(k, out);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                if !pairs.is_empty() {
                    newline(out, indent);
                }
                out.push('}');
            }
        }
    }
}

/// A line break indented to `level`; nothing in compact mode.
fn newline(out: &mut String, level: Option<usize>) {
    if let Some(level) = level {
        out.push('\n');
        out.push_str(&"  ".repeat(level));
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// The deepest nesting of arrays and objects [`parse`] accepts. Every
/// committed document stays within depth 4; the bound keeps the
/// recursive descent within the stack on hostile input.
const MAX_DEPTH: usize = 128;

/// Parses one complete JSON document, rejecting trailing garbage and
/// nesting deeper than 128 arrays and objects.
pub fn parse(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses an array or object one nesting level deeper.
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(pairs)),
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.hex4()?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: a second \uXXXX must follow.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err("lone high surrogate".into());
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".into());
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(c) => out.push(c),
                            None => return Err(format!("invalid code point {code:#x}")),
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", self.pos)),
                },
                Some(b) if b < 0x20 => return Err("raw control character in string".into()),
                Some(b) => {
                    // Re-assemble UTF-8 continuation bytes verbatim.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .and_then(|s| std::str::from_utf8(s).ok());
                    match chunk {
                        Some(s) => {
                            out.push_str(s);
                            self.pos = end;
                        }
                        None => return Err("invalid UTF-8 in string".into()),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err("bad \\u escape".into()),
            };
            v = (v << 4) | d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| "non-UTF-8 number".to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

fn utf8_width(lead: u8) -> usize {
    match lead {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_structures() {
        let v = Value::Obj(vec![
            ("event".into(), Value::Str("counter".into())),
            ("name".into(), Value::Str("xengine.replace".into())),
            ("value".into(), Value::Num(42.0)),
            (
                "nested".into(),
                Value::Arr(vec![Value::Bool(true), Value::Null, Value::Num(-1.5)]),
            ),
        ]);
        let text = v.render();
        assert_eq!(
            text,
            r#"{"event":"counter","name":"xengine.replace","value":42,"nested":[true,null,-1.5]}"#
        );
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::Str("a\"b\\c\nd\te\u{1}µ→".into());
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn surrogate_pairs_parse() {
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn numbers_parse_with_exponents() {
        assert_eq!(parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(parse("-2.5E-1").unwrap().as_f64(), Some(-0.25));
    }

    #[test]
    fn as_u32_takes_exact_integers_only() {
        let u = |src: &str| parse(src).unwrap().as_u32();
        assert_eq!(u("0"), Some(0));
        assert_eq!(u("-0"), Some(0));
        assert_eq!(u("8"), Some(8));
        assert_eq!(u("4294967295"), Some(u32::MAX));
        for bad in ["8.7", "1.9", "-1", "4294967296", "1e10", "\"8\"", "null"] {
            assert_eq!(u(bad), None, "{bad}");
        }
    }

    #[test]
    fn nonfinite_renders_null() {
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn rejects_trailing_garbage_and_malformed_input() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn roundtrip() {
        // hetero-check's baseline shape, through the indented writer.
        let src = r#"{"version": 1, "entries": [{"lint": "unwrap", "line": 3}], "empty": [{}]}"#;
        let v = parse(src).expect("parses");
        let rendered = v.render_pretty();
        assert_eq!(
            rendered,
            "{\n  \"version\": 1,\n  \"entries\": [\n    {\n      \"lint\": \"unwrap\",\n      \
             \"line\": 3\n    }\n  ],\n  \"empty\": [\n    {}\n  ]\n}"
        );
        assert_eq!(parse(&rendered).expect("reparses"), v);
    }

    #[test]
    fn escapes() {
        let v = Value::Str("a\"b\\c\nd".into());
        assert_eq!(v.render(), r#""a\"b\\c\nd""#);
        assert_eq!(v.render_pretty(), v.render());
        let v = parse(r#""a\"b\\c\nd\u0041""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[[1]").is_err());
        // Far deeper than the default test thread's stack could recurse.
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(err, "nesting deeper than 128 at byte 128");
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        let objects = parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert!(objects.starts_with("nesting deeper than 128"), "{objects}");
    }

    #[test]
    fn get_navigates_objects() {
        let v = parse(r#"{"a":{"b":7}}"#).unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.get("b")).and_then(Value::as_f64),
            Some(7.0)
        );
        assert!(v.get("missing").is_none());
    }
}
