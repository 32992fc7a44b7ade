//! A minimal, dependency-free, offline drop-in for the subset of
//! `serde_json` this workspace uses: `to_string[_pretty]`, `from_str`,
//! `to_value`, `from_value` and the [`Value`] tree (shared with the serde
//! shim).

#![warn(missing_docs)]

pub use serde::value::{Map, Number, Value};

use serde::{DeError, Deserialize, Serialize};
use std::fmt;

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Self::new(e.to_string())
    }
}

/// Convenience alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value into its JSON value tree.
///
/// # Errors
///
/// Infallible in this shim (signature kept for compatibility).
pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    Ok(value.to_value())
}

/// Rebuilds a typed value from a JSON value tree.
///
/// # Errors
///
/// Returns [`Error`] if the tree's shape does not match `T`.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    T::from_value(&value).map_err(Error::from)
}

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Infallible in this shim (signature kept for compatibility).
pub fn to_string<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value to human-indented JSON text.
///
/// # Errors
///
/// Infallible in this shim (signature kept for compatibility).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some("  "), 0);
    Ok(out)
}

/// Parses JSON text into a typed value.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse(s)?;
    T::from_value(&value).map_err(Error::from)
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

fn write_value(v: &Value, out: &mut String, indent: Option<&str>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(pad) = indent {
                    out.push('\n');
                    out.push_str(&pad.repeat(depth + 1));
                }
                write_value(item, out, indent, depth + 1);
            }
            if let Some(pad) = indent {
                out.push('\n');
                out.push_str(&pad.repeat(depth));
            }
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(pad) = indent {
                    out.push('\n');
                    out.push_str(&pad.repeat(depth + 1));
                }
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            if let Some(pad) = indent {
                out.push('\n');
                out.push_str(&pad.repeat(depth));
            }
            out.push('}');
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse(s: &str) -> Result<Value> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| Error::new("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(Error::new("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this shim's
                            // writer; accept BMP scalars only.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u scalar"))?,
                            );
                        }
                        other => {
                            return Err(Error::new(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: re-decode from the byte slice.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    let c = s.chars().next().ok_or_else(|| Error::new("bad string"))?;
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        let number = if is_float {
            Number::Float(
                text.parse::<f64>()
                    .map_err(|_| Error::new(format!("invalid number `{text}`")))?,
            )
        } else if let Some(stripped) = text.strip_prefix('-') {
            let _ = stripped;
            Number::NegInt(
                text.parse::<i64>()
                    .map_err(|_| Error::new(format!("invalid number `{text}`")))?,
            )
        } else {
            match text.parse::<u64>() {
                Ok(n) => Number::PosInt(n),
                Err(_) => Number::Float(
                    text.parse::<f64>()
                        .map_err(|_| Error::new(format!("invalid number `{text}`")))?,
                ),
            }
        };
        Ok(Value::Number(number))
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::new(format!("bad array at offset {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut map = Map::new();
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
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(Error::new(format!("bad object at offset {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars() {
        for text in ["null", "true", "false", "42", "-17", "0.001", "\"hi\""] {
            let v: Value = from_str(text).unwrap();
            let back = to_string(&v).unwrap();
            let v2: Value = from_str(&back).unwrap();
            assert_eq!(v, v2, "{text}");
        }
    }

    #[test]
    fn float_precision_survives() {
        let xs = vec![1e-3, 2.5e9, 0.1 + 0.2, f64::MIN_POSITIVE, 1.0, -0.25];
        let text = to_string(&xs).unwrap();
        let back: Vec<f64> = from_str(&text).unwrap();
        assert_eq!(xs, back);
    }

    #[test]
    fn nested_structures() {
        let text = r#"{"a":[1,2,{"b":null}],"c":{"d":true},"e":"x\n\"y\""}"#;
        let v: Value = from_str(text).unwrap();
        let compact = to_string(&v).unwrap();
        let v2: Value = from_str(&compact).unwrap();
        assert_eq!(v, v2);
        let pretty = to_string_pretty(&v).unwrap();
        let v3: Value = from_str(&pretty).unwrap();
        assert_eq!(v, v3);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("").is_err());
    }

    #[test]
    fn typed_roundtrip() {
        let v: Vec<(u64, f64)> = vec![(1, 0.5), (2, 1.5)];
        let text = to_string(&v).unwrap();
        let back: Vec<(u64, f64)> = from_str(&text).unwrap();
        assert_eq!(v, back);
    }
}
