//! A minimal JSON value model, emitter and parser — enough to write and
//! re-validate the committed bench trajectories (`BENCH_*.json`) without
//! pulling a serialization crate into the offline workspace.
//!
//! The dialect is deliberately small: objects, arrays, strings (with the
//! standard escapes), finite numbers, booleans and `null`. That covers
//! everything the bench emitters produce; anything outside it is a parse
//! error, which is exactly what the CI structure check wants.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed or to-be-emitted JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Emission is exact: `parse(emit(x))` returns `x`
    /// bit for bit (Rust's shortest-roundtrip `f64` formatting, with
    /// integral values up to 2^53 written without a decimal point and
    /// `-0.0` keeping its sign). Construct from floats via `TryFrom<f64>`,
    /// which rejects NaN and infinities — JSON cannot represent them.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. Keys are sorted (BTreeMap), so emission is canonical.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn object(pairs: Vec<(&str, Value)>) -> Self {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key`, when `self` is an object holding it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, when `self` is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, when it is one exactly.
    #[must_use]
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, when `self` is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, when `self` is an array.
    #[must_use]
    pub(crate) fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    /// Panics above 2^53, where `v as f64` would round silently to a number
    /// `Value::as_u64` refuses to read back: a harness bug, not a value to
    /// serialize (64-bit digests are strings, see `schema::hex_digest`).
    fn from(v: u64) -> Self {
        assert!(
            v <= 1 << 53,
            "{v} is above 2^53: a JSON number cannot hold it exactly"
        );
        Value::Number(v as f64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::from(v as u64)
    }
}

/// Error for a float that JSON cannot represent: NaN or an infinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonFiniteNumber;

impl fmt::Display for NonFiniteNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON cannot represent a non-finite number (NaN or infinity)"
        )
    }
}

impl std::error::Error for NonFiniteNumber {}

impl TryFrom<f64> for Value {
    type Error = NonFiniteNumber;

    fn try_from(v: f64) -> Result<Self, NonFiniteNumber> {
        if v.is_finite() {
            Ok(Value::Number(v))
        } else {
            Err(NonFiniteNumber)
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

fn write_indented(f: &mut fmt::Formatter<'_>, v: &Value, indent: usize) -> fmt::Result {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    match v {
        Value::Null => write!(f, "null"),
        Value::Bool(b) => write!(f, "{b}"),
        Value::Number(n) => {
            if !n.is_finite() {
                // `TryFrom<f64>` refuses these; a hand-built non-finite
                // Number fails emission rather than writing invalid JSON.
                return Err(fmt::Error);
            }
            if *n == 0.0 && n.is_sign_negative() {
                // The integral fast path below would go through i64 and
                // strip the sign; "-0" parses back to -0.0 exactly.
                write!(f, "-0")
            } else if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                write!(f, "{}", *n as i64)
            } else {
                write!(f, "{n}")
            }
        }
        Value::String(s) => write_escaped(f, s),
        Value::Array(items) if items.is_empty() => write!(f, "[]"),
        Value::Array(items) => {
            writeln!(f, "[")?;
            for (i, item) in items.iter().enumerate() {
                write!(f, "{inner}")?;
                write_indented(f, item, indent + 1)?;
                writeln!(f, "{}", if i + 1 < items.len() { "," } else { "" })?;
            }
            write!(f, "{pad}]")
        }
        Value::Object(m) if m.is_empty() => write!(f, "{{}}"),
        Value::Object(m) => {
            writeln!(f, "{{")?;
            for (i, (k, val)) in m.iter().enumerate() {
                write!(f, "{inner}")?;
                write_escaped(f, k)?;
                write!(f, ": ")?;
                write_indented(f, val, indent + 1)?;
                writeln!(f, "{}", if i + 1 < m.len() { "," } else { "" })?;
            }
            write!(f, "{pad}}}")
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_indented(f, self, 0)
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// A human-readable message naming the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Value::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    let n: f64 = text
        .parse()
        .map_err(|_| format!("bad number '{text}' at byte {start}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number at byte {start}"));
    }
    Ok(Value::Number(n))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape".to_string())?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through untouched.
                let len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = b
                    .get(*pos..*pos + len)
                    .ok_or("truncated UTF-8 sequence".to_string())?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += len;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        map.insert(key, parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_documents() {
        let v = Value::object(vec![
            ("name", "shard_scaling".into()),
            ("count", 4u64.into()),
            ("ratio", Value::Number(2.5)),
            (
                "points",
                Value::Array(vec![Value::object(vec![("shards", 1u64.into())])]),
            ),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_escapes_and_rejects_garbage() {
        let v = parse(r#"{"s": "a\"b\nA"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\"b\nA");
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("[1] x").is_err());
        assert!(parse("1e999").is_err(), "infinite numbers are rejected");
    }

    #[test]
    fn integers_emit_without_decimal_point() {
        assert_eq!(Value::from(12u64).to_string(), "12");
        assert_eq!(Value::Number(0.5).to_string(), "0.5");
    }

    #[test]
    fn integers_above_2_pow_53_are_refused_loudly() {
        let limit = 1u64 << 53;
        assert_eq!(Value::from(limit).as_u64(), Some(limit));
        assert_eq!(
            parse(&Value::from(limit).to_string()).unwrap().as_u64(),
            Some(limit)
        );
        assert!(std::panic::catch_unwind(|| Value::from(limit + 1)).is_err());
        assert!(std::panic::catch_unwind(|| Value::from(usize::MAX)).is_err());
    }

    #[test]
    fn non_finite_floats_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::try_from(bad), Err(NonFiniteNumber));
        }
        assert!(Value::try_from(0.0).is_ok());
        assert!(Value::try_from(f64::MAX).is_ok());
        // A hand-built non-finite Number fails emission instead of writing
        // invalid JSON.
        use std::fmt::Write;
        let mut out = String::new();
        assert!(write!(out, "{}", Value::Number(f64::NAN)).is_err());
        assert!(write!(out, "{}", Value::Number(f64::INFINITY)).is_err());
        // And the parser refuses the textual spellings.
        assert!(parse("NaN").is_err());
        assert!(parse("Infinity").is_err());
        assert!(parse("-Infinity").is_err());
    }

    /// Property: every finite `f64` round-trips **exactly** through the
    /// emitter and parser — `to_bits` equality, which is stricter than
    /// `==` (it distinguishes `-0.0` from `0.0`). Runs a fixed list of
    /// awkward values plus a deterministic xorshift sweep over raw bit
    /// patterns.
    #[test]
    fn float_numbers_roundtrip_exactly() {
        let mut cases: Vec<f64> = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -0.1,
            core::f64::consts::PI,
            f64::MIN,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,             // smallest subnormal
            9007199254740992.0, // 2^53: last exactly-integral fast-path value
            -9007199254740992.0,
            9007199254740993.0, // 2^53 + 1 (rounds to 2^53; still a value)
            1e300,
            1e-300,
            -2.5,
            1234567890.123456,
        ];
        // Deterministic xorshift64 over raw bit patterns: exercises
        // subnormals, extreme exponents and full-precision mantissas.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..1000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = f64::from_bits(state);
            if x.is_finite() {
                cases.push(x);
            }
        }
        for &x in &cases {
            let v = Value::try_from(x).expect("finite");
            let text = v.to_string();
            let y = parse(&text)
                .unwrap_or_else(|e| panic!("emitted {text} does not parse: {e}"))
                .as_f64()
                .expect("number");
            assert_eq!(
                y.to_bits(),
                x.to_bits(),
                "{x:?} emitted as {text} parsed back as {y:?}"
            );
            // Same inside a document, where numbers sit between structure.
            let doc = Value::object(vec![
                ("x", Value::Number(x)),
                ("a", Value::Array(vec![Value::Number(x)])),
            ]);
            let back = parse(&doc.to_string()).expect("document parses");
            for key in ["x", "a"] {
                let got = match key {
                    "x" => back.get("x").unwrap().as_f64().unwrap(),
                    _ => back.get("a").unwrap().as_array().unwrap()[0]
                        .as_f64()
                        .unwrap(),
                };
                assert_eq!(got.to_bits(), x.to_bits(), "key {key} for {x:?}");
            }
        }
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n": 3, "s": "x", "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
    }
}
