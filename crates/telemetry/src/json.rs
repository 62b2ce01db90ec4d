//! A minimal JSON value type with a writer and a recursive-descent
//! parser.
//!
//! The build environment is fully offline (no serde), and the telemetry
//! artifacts only need flat objects, arrays, strings and numbers — a
//! few hundred lines of well-tested JSON beats a vendored dependency.
//! Numbers are carried as `f64`, which is lossless for integers up to
//! 2⁵³; fields that may exceed that (seeds, fingerprints) are written
//! as decimal strings by their owners.

use std::fmt;

/// A parsed or buildable JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null` (also produced when serializing a non-finite number).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// A numeric value from a `u64` (exact up to 2⁵³; callers holding
    /// full-range integers should serialize them as strings instead).
    pub fn u64(v: u64) -> JsonValue {
        JsonValue::Num(v as f64)
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input or trailing garbage.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError { pos, reason: "trailing characters" });
        }
        Ok(value)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Num(n) => {
                if n.is_finite() {
                    write!(f, "{n}")
                } else {
                    // JSON has no NaN/Infinity; degrade to null rather
                    // than emit an unparseable document.
                    f.write_str("null")
                }
            }
            JsonValue::Str(s) => write_escaped(f, s),
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a quoted JSON string, one `write_str` per run of
/// characters that need no escape. Every escaped character is ASCII and
/// no byte of a multi-byte UTF-8 sequence is, so byte indices at escapes
/// are always character boundaries.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[run_start..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        run_start = i + 1;
    }
    f.write_str(&s[run_start..])?;
    f.write_str("\"")
}

/// A parse failure: byte offset and a static reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What the parser expected.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.reason)
    }
}

impl std::error::Error for JsonError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &'static str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError { pos: *pos, reason: "unexpected token" })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError { pos: *pos, reason: "unexpected end of input" }),
        Some(b'n') => expect(bytes, pos, "null").map(|()| JsonValue::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| JsonValue::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(_) => Err(JsonError { pos: *pos, reason: "unexpected character" }),
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError { pos: start, reason: "invalid number" })?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| JsonError { pos: start, reason: "invalid number" })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(JsonError { pos: *pos, reason: "unterminated string" });
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(JsonError { pos: *pos, reason: "unterminated escape" });
                };
                *pos += 1;
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
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or(JsonError { pos: *pos, reason: "bad \\u escape" })?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError { pos: *pos, reason: "bad \\u escape" })?;
                        *pos += 4;
                        // Surrogate pairs are not needed for our ASCII
                        // artifacts; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(JsonError { pos: *pos - 1, reason: "unknown escape" }),
                }
            }
            _ => {
                // Copy the whole run up to the next quote or backslash.
                // Validating only the run keeps parsing linear; both
                // delimiters are ASCII, so the run ends on a char
                // boundary and multi-byte sequences pass through intact.
                let start = *pos;
                while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| JsonError { pos: start, reason: "invalid UTF-8" })?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(JsonError { pos: *pos, reason: "expected ',' or ']'" }),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(JsonError { pos: *pos, reason: "expected object key" });
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(JsonError { pos: *pos, reason: "expected ':'" });
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            _ => return Err(JsonError { pos: *pos, reason: "expected ',' or '}'" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "false", "0", "-1.5", "1e3", "\"hi\""] {
            let v = JsonValue::parse(text).unwrap();
            let back = JsonValue::parse(&v.to_string()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn round_trips_nested_structure() {
        let v = JsonValue::obj(vec![
            ("name", JsonValue::str("fault\"sweep\n")),
            ("at", JsonValue::u64(123_456)),
            ("betas", JsonValue::Arr(vec![JsonValue::Num(0.25), JsonValue::Num(0.75)])),
            ("nested", JsonValue::obj(vec![("ok", JsonValue::Bool(true))])),
            ("nothing", JsonValue::Null),
        ]);
        let text = v.to_string();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn accessors_extract_typed_fields() {
        let v = JsonValue::parse(r#"{"a": 3, "b": "x", "c": [1, 2]}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("a").unwrap().as_f64(), Some(3.0));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().as_arr().unwrap().len(), 2);
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn fractional_numbers_are_not_u64() {
        assert_eq!(JsonValue::Num(1.5).as_u64(), None);
        assert_eq!(JsonValue::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(JsonValue::Num(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn control_characters_escape_and_parse() {
        let v = JsonValue::str("\u{1}tab\there");
        let text = v.to_string();
        assert!(text.contains("\\u0001"));
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    /// The original one-call-per-character escaper, kept as the oracle
    /// the run-based writer must match byte for byte.
    fn reference_escaped(s: &str) -> String {
        use std::fmt::Write;
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn run_based_escaping_matches_the_per_character_reference() {
        let chars: Vec<char> =
            (0u8..0x80).map(char::from).chain(['é', '中', '😀', '\u{2028}']).collect();
        for &c in &chars {
            let run: String = std::iter::repeat_n(c, 3).collect();
            for s in [
                c.to_string(),
                format!("{c}abc"),
                format!("ab{c}cd"),
                format!("abc{c}"),
                run.clone(),
                format!("x{run}y{run}"),
                format!("{c}\"{c}\n{c}"),
            ] {
                let text = JsonValue::str(s.as_str()).to_string();
                assert_eq!(text, reference_escaped(&s), "{s:?}");
                assert_eq!(JsonValue::parse(&text).unwrap(), JsonValue::str(s.as_str()), "{s:?}");
            }
        }
        let all: String = chars.iter().collect();
        assert_eq!(JsonValue::str(all.as_str()).to_string(), reference_escaped(&all));
        assert_eq!(JsonValue::str("").to_string(), reference_escaped(""));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "1 2", "{\"a\":}", ""] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn error_carries_position() {
        let err = JsonValue::parse("[1, @]").unwrap_err();
        assert_eq!(err.pos, 4);
    }
}
