//! Minimal JSON support: escaping, a value tree, a serializer and a
//! recursive-descent parser.
//!
//! The trace sink writes JSONL by hand-building strings (no intermediate
//! tree), so the writer side here is just [`escape_into`]. The [`Value`]
//! tree plus [`parse`] exist so tests — and downstream tooling — can check
//! that every emitted line parses back, and so the benchmark suite can
//! assemble machine-readable reports without an external serializer.

use std::collections::BTreeMap;
use std::fmt;

/// Appends `s` to `out` as a quoted JSON string with full escaping.
pub fn escape_into(out: &mut String, s: &str) {
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

/// Appends a finite `f64` to `out`; non-finite values become `null`.
pub fn number_into(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys sorted for deterministic serialization.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value under `key` if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Self::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string content if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric content if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Null => f.write_str("null"),
            Self::Bool(b) => write!(f, "{b}"),
            Self::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    f.write_str("null")
                }
            }
            Self::Str(s) => {
                let mut out = String::with_capacity(s.len() + 2);
                escape_into(&mut out, s);
                f.write_str(&out)
            }
            Self::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Self::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::with_capacity(k.len() + 2);
                    escape_into(&mut key, k);
                    write!(f, "{key}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse failure with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// The deepest array and object nesting [`parse`] accepts. The parser
/// recurses once per level, so the limit bounds its stack use on untrusted
/// input; the documents this workspace writes nest a few levels deep.
pub const MAX_DEPTH: usize = 64;

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns [`JsonError`] with the failing byte offset on malformed input,
/// or on arrays and objects nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError {
            offset: pos,
            message: "trailing characters after document",
        });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(
    bytes: &[u8],
    pos: &mut usize,
    token: &'static [u8],
    message: &'static str,
) -> Result<(), JsonError> {
    if bytes.len() - *pos >= token.len() && &bytes[*pos..*pos + token.len()] == token {
        *pos += token.len();
        Ok(())
    } else {
        Err(JsonError {
            offset: *pos,
            message,
        })
    }
}

/// Parses one value; `depth` more levels of arrays and objects may open.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    skip_ws(bytes, pos);
    let opens = matches!(bytes.get(*pos), Some(b'[' | b'{'));
    if opens && depth == 0 {
        return Err(JsonError {
            offset: *pos,
            message: "arrays and objects nested too deeply",
        });
    }
    match bytes.get(*pos) {
        None => Err(JsonError {
            offset: *pos,
            message: "unexpected end of input",
        }),
        Some(b'n') => {
            expect(bytes, pos, b"null", "expected `null`")?;
            Ok(Value::Null)
        }
        Some(b't') => {
            expect(bytes, pos, b"true", "expected `true`")?;
            Ok(Value::Bool(true))
        }
        Some(b'f') => {
            expect(bytes, pos, b"false", "expected `false`")?;
            Ok(Value::Bool(false))
        }
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => {
                        return Err(JsonError {
                            offset: *pos,
                            message: "expected `,` or `]` in array",
                        })
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b":", "expected `:` after object key")?;
                let value = parse_value(bytes, pos, depth - 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => {
                        return Err(JsonError {
                            offset: *pos,
                            message: "expected `,` or `}` in object",
                        })
                    }
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError {
            offset: *pos,
            message: "expected `\"`",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(JsonError {
                    offset: *pos,
                    message: "unterminated string",
                })
            }
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
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or(JsonError {
                            offset: *pos,
                            message: "truncated \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| JsonError {
                            offset: *pos,
                            message: "non-ASCII \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                            offset: *pos,
                            message: "bad \\u escape",
                        })?;
                        // Surrogates are not produced by our writer; map
                        // them to the replacement character on read.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => {
                        return Err(JsonError {
                            offset: *pos,
                            message: "unknown escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so byte
                // boundaries are valid).
                let rest = &bytes[*pos..];
                let s = utf8_prefix(rest);
                out.push_str(s);
                *pos += s.len();
            }
        }
    }
}

/// The longest prefix of `rest` before a quote or backslash, as UTF-8.
fn utf8_prefix(rest: &[u8]) -> &str {
    let end = rest
        .iter()
        .position(|&b| b == b'"' || b == b'\\')
        .unwrap_or(rest.len());
    std::str::from_utf8(&rest[..end]).expect("input is a str")
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII slice");
    text.parse::<f64>().map(Value::Num).map_err(|_| JsonError {
        offset: start,
        message: "malformed number",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let text = r#"{"a":[1,2.5,null,true],"b":{"c":"x\"y\n"},"d":-3}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.get("d").and_then(Value::as_f64), Some(-3.0));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str),
            Some("x\"y\n")
        );
        // Serialize and parse again: fixed point.
        let again = parse(&v.to_string()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn escaping_covers_controls_and_quotes() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\n\t\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
        assert_eq!(parse(&out).unwrap(), Value::Str("a\"b\\c\n\t\u{1}".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"abc").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        let err = parse("[1, x]").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert_eq!(err.message, "arrays and objects nested too deeply");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&objects).unwrap_err().offset, 5 * MAX_DEPTH);
        // Far past the limit, the parser stops at the limit instead of
        // recursing once per level.
        let err = parse(&nested(1_000_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
    }

    #[test]
    fn numbers_parse_in_all_forms() {
        assert_eq!(parse("0").unwrap(), Value::Num(0.0));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Num(-1500.0));
        assert_eq!(parse("1e-2").unwrap(), Value::Num(0.01));
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        let mut s = String::new();
        number_into(&mut s, f64::NAN);
        assert_eq!(s, "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
    }
}
