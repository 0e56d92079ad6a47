//! Minimal JSON support: escaped string/number writers for the fixed
//! schemas this workspace emits, and one [`Value`] tree parser that
//! reads them back. [`validate`] runs the same parser, so tests and CI
//! can check emitted files without external tooling.

/// Appends `s` as a JSON string literal (with quotes) to `out`.
pub fn write_string(out: &mut String, s: &str) {
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

/// Appends `v` as a JSON number. Non-finite values (which JSON cannot
/// represent) are written as `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` round-trips f64 exactly and always includes a decimal
        // point or exponent, which keeps the output unambiguous.
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

/// Validates that `s` is a single well-formed JSON value (with optional
/// surrounding whitespace) — exactly what [`Value::parse`] accepts,
/// nesting bound included.
///
/// # Errors
///
/// Returns a byte-offset-tagged message on the first syntax error.
pub fn validate(s: &str) -> Result<(), String> {
    Value::parse(s).map(|_| ())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                match b.get(*pos + 1) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                    Some(b'u') => {
                        let hex = b.get(*pos + 2..*pos + 6).ok_or_else(|| {
                            format!("truncated \\u escape at byte {pos}", pos = *pos)
                        })?;
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err(format!("bad \\u escape at byte {pos}", pos = *pos));
                        }
                        *pos += 6;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
            }
            c if c < 0x20 => {
                return Err(format!("raw control byte in string at {pos}", pos = *pos));
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("expected digits at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("expected fraction digits at byte {pos}", pos = *pos));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("expected exponent digits at byte {pos}", pos = *pos));
        }
    }
    Ok(())
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.get(*pos..*pos + lit.len()) == Some(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

/// A parsed JSON value.
///
/// Numbers keep their source text so integer consumers can parse them
/// exactly — routing a `u64` count through `f64` would silently lose
/// precision past 2^53.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its (already validated) source text.
    Number(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's key/value pairs, in document order.
    Object(Vec<(String, Value)>),
}

/// Nesting bound for [`Value::parse`], so hostile inputs cannot blow the
/// recursive-descent stack.
const MAX_DEPTH: u32 = 128;

impl Value {
    /// Parses one JSON value (with optional surrounding whitespace).
    ///
    /// # Errors
    ///
    /// Returns a byte-offset-tagged message on the first syntax error.
    pub fn parse(s: &str) -> Result<Value, String> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = parse_value_tree(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array's elements, `None` for non-arrays.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string's contents, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an exact `u64`: digits only (no sign, fraction or
    /// exponent) and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(text) if text.bytes().all(|b| b.is_ascii_digit()) => text.parse().ok(),
            _ => None,
        }
    }
}

fn parse_value_tree(b: &[u8], pos: &mut usize, depth: u32) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}", pos = *pos));
    }
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b'"') {
                    return Err(format!("expected object key at byte {pos}", pos = *pos));
                }
                let key = parse_string_tree(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                skip_ws(b, pos);
                entries.push((key, parse_value_tree(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                skip_ws(b, pos);
                items.push(parse_value_tree(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'"') => parse_string_tree(b, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, b"true").map(|()| Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, b"false").map(|()| Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, b"null").map(|()| Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            parse_number(b, pos)?;
            let text = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| format!("non-UTF-8 number at byte {start}"))?;
            Ok(Value::Number(text.to_string()))
        }
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}", pos = *pos)),
        None => Err(format!("unexpected end of input at byte {pos}", pos = *pos)),
    }
}

fn parse_string_tree(b: &[u8], pos: &mut usize) -> Result<String, String> {
    let start = *pos;
    parse_string(b, pos)?; // validates structure and finds the end
    let inner = &b[start + 1..*pos - 1];
    let text =
        std::str::from_utf8(inner).map_err(|_| format!("non-UTF-8 string at byte {start}"))?;
    if !text.contains('\\') {
        return Ok(text.to_string());
    }
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|_| format!("bad \\u escape in string at byte {start}"))?;
                let c = char::from_u32(code)
                    .ok_or_else(|| format!("\\u escape is not a scalar value at byte {start}"))?;
                out.push(c);
            }
            _ => return Err(format!("bad escape in string at byte {start}")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        let mut out = String::new();
        write_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn writes_numbers() {
        let mut out = String::new();
        write_f64(&mut out, 1.5);
        out.push(' ');
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "1.5 null");
    }

    #[test]
    fn validates_good_json() {
        for good in [
            "{}",
            "[]",
            "null",
            " { \"a\" : [1, -2.5e3, true, \"x\\n\\u00e9\"] , \"b\": {} } ",
            "[[[]]]",
            "0.5",
        ] {
            validate(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
    }

    #[test]
    fn rejects_bad_json() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1.", "\"\\x\"", "{} {}", "[1 2]"] {
            assert!(validate(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn round_trips_written_strings() {
        let mut out = String::new();
        write_string(&mut out, "weird \u{7f} \" \\ \t chars é");
        validate(&out).expect("writer output parses");
    }

    #[test]
    fn value_parses_objects_exactly() {
        let v = Value::parse(
            " { \"a\" : [1, -2.5e3, true, null], \"big\": 18446744073709551615, \"s\": \"x\\n\\u00e9\" } ",
        )
        .expect("parses");
        assert_eq!(v.get("a").and_then(Value::as_array).map(<[Value]>::len), Some(4));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_u64(), None);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1],
            Value::Number("-2.5e3".to_string())
        );
        assert_eq!(v.get("big").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\né"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn value_round_trips_written_strings() {
        let original = "weird \u{7f} \" \\ \t chars é\nnew";
        let mut out = String::new();
        write_string(&mut out, original);
        assert_eq!(Value::parse(&out).expect("parses").as_str(), Some(original));
    }

    #[test]
    fn value_rejects_what_validate_rejects() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1.", "\"\\x\"", "{} {}", "[1 2]"] {
            assert!(Value::parse(bad).is_err(), "{bad} should fail");
        }
        // Nesting past the recursion bound is an error, not a crash.
        let deep = format!("{}1{}", "[".repeat(4000), "]".repeat(4000));
        assert!(Value::parse(&deep).is_err());
        assert!(validate(&deep).is_err());
    }
}
