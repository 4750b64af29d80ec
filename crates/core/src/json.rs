//! Minimal JSON tree, serializer, and parser.
//!
//! The offline build environment rules out serde, but the machine-read
//! outputs still need a stable format: the `campaign/v1` summary, the
//! telemetry snapshots and the benchmark's reports are written with this
//! module (and read back by their round-trip tests). The subset is
//! exactly RFC 8259 JSON with integers kept exact up to `i128` range;
//! floats use Rust's shortest-roundtrip formatting.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part, kept exact.
    Int(i128),
    /// A fractional or exponent-form number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; key order is preserved as inserted.
    Object(Vec<(String, Json)>),
}

/// Error from [`Json::parse`] or typed accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Shorthand for an unsigned integer value.
    pub fn uint(v: u64) -> Json {
        Json::Int(v as i128)
    }

    /// Field lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required-field lookup, as an error rather than an Option.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field {key:?}")))
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, got {other:?}")),
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool, JsonError> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => err(format!("expected bool, got {other:?}")),
        }
    }

    /// The value as a u64 (must be an exact non-negative integer).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Int(i) if *i >= 0 && *i <= u64::MAX as i128 => Ok(*i as u64),
            other => err(format!("expected u64, got {other:?}")),
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Array(items) => Ok(items),
            other => err(format!("expected array, got {other:?}")),
        }
    }

    /// Serialize compactly (no whitespace).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    let s = format!("{f}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (must consume the whole input).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        err(format!("expected {lit:?} at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => err("unexpected end of input"),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs: Vec<(String, Json)> = Vec::new();
            let mut seen: BTreeMap<String, ()> = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                if seen.insert(key.clone(), ()).is_some() {
                    return err(format!("duplicate key {key:?}"));
                }
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(pairs));
                    }
                    _ => return err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return err("unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        // Surrogate pair?
                        if (0xd800..0xdc00).contains(&code)
                            && bytes.get(*pos + 1) == Some(&b'\\')
                            && bytes.get(*pos + 2) == Some(&b'u')
                        {
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if (0xdc00..0xe000).contains(&low) {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return err("bad escape"),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a str, so this is safe
                // to do by finding the next char boundary).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| JsonError("invalid utf-8".into()))?;
                let c = rest.chars().next().unwrap();
                if (c as u32) < 0x20 {
                    return err("unescaped control character in string");
                }
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    if at + 4 > bytes.len() {
        return err("truncated \\u escape");
    }
    let s = std::str::from_utf8(&bytes[at..at + 4]).map_err(|_| JsonError("bad hex".into()))?;
    u32::from_str_radix(s, 16).map_err(|_| JsonError(format!("bad \\u escape {s:?}")))
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap();
    if text.is_empty() || text == "-" {
        return err(format!("expected value at byte {start}"));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| JsonError(format!("bad number {text:?}")))
    } else {
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| JsonError(format!("bad number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for doc in [
            "null", "true", "false", "0", "-17", "3.5", "\"hi\"", "[]", "{}",
        ] {
            let v = Json::parse(doc).unwrap();
            assert_eq!(Json::parse(&v.to_json_string()).unwrap(), v, "{doc}");
        }
    }

    #[test]
    fn object_roundtrip_preserves_values() {
        let v = Json::obj(vec![
            ("name", Json::str("a.sim")),
            ("day", Json::uint(12)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("list", Json::Array(vec![Json::Int(1), Json::Int(2)])),
        ]);
        let text = v.to_json_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.field("day").unwrap().as_u64().unwrap(), 12);
        assert_eq!(back.field("name").unwrap().as_str().unwrap(), "a.sim");
        assert!(back.field("missing").is_err());
    }

    #[test]
    fn string_escapes() {
        let v = Json::Str("a\"b\\c\nd\té\u{1}".into());
        let text = v.to_json_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(
            Json::parse("\"\\u00e9 \\ud83d\\ude00\"").unwrap(),
            Json::Str("é 😀".into())
        );
    }

    #[test]
    fn rejects_garbage() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,\"a\":2}",
            "01x",
            "\"\\q\"",
            "nulls",
        ] {
            assert!(Json::parse(doc).is_err(), "{doc:?} should fail");
        }
    }

    #[test]
    fn big_integers_stay_exact() {
        let v = Json::Int(u64::MAX as i128);
        let back = Json::parse(&v.to_json_string()).unwrap();
        assert_eq!(back.as_u64().unwrap(), u64::MAX);
    }
}
