//! Minimal JSON support: one [`Value`] tree that is both the writer
//! (its [`Display`](fmt::Display) impl) and the reader ([`Value::parse`])
//! for every artifact this workspace emits. The writer is
//! deterministic and compact, and `Value::parse` reads its output back
//! to an equal value.

use std::fmt::{self, Write as _};

/// Writes `s` as a JSON string literal (with quotes).
fn write_string(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
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
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b
                        .get(*pos + 2..*pos + 6)
                        .ok_or_else(|| format!("truncated \\u escape at byte {pos}", pos = *pos))?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err(format!("bad \\u escape at byte {pos}", pos = *pos));
                    }
                    *pos += 6;
                }
                _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
            },
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
            return Err(format!(
                "expected fraction digits at byte {pos}",
                pos = *pos
            ));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!(
                "expected exponent digits at byte {pos}",
                pos = *pos
            ));
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
    /// A number, as JSON number text: the parsed source text, or what
    /// a `From` conversion wrote.
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

    /// An object of `entries`, keys in the given order.
    pub fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
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

/// Compact, deterministic JSON text: no whitespace, object keys in
/// insertion order. [`Value::parse`] reads it back to an equal value.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(text) => f.write_str(text),
            Value::Str(s) => write_string(f, s),
            Value::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Value::Object(entries) => {
                f.write_char('{')?;
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Number(v.to_string())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Number(v.to_string())
    }
}

impl From<f64> for Value {
    /// Non-finite values, which JSON cannot represent, become `null`.
    fn from(v: f64) -> Value {
        if v.is_finite() {
            // `{:?}` round-trips f64 exactly and always includes a
            // decimal point or exponent.
            Value::Number(format!("{v:?}"))
        } else {
            Value::Null
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Collects values into an array.
impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Array(items.into_iter().collect())
    }
}

fn parse_value_tree(b: &[u8], pos: &mut usize, depth: u32) -> Result<Value, String> {
    if depth > MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        ));
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
    use proptest::prelude::*;

    #[test]
    fn escapes_strings() {
        assert_eq!(
            Value::from("a\"b\\c\nd\u{1}").to_string(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn writes_numbers() {
        let v: Value = [1.5, f64::NAN, f64::INFINITY]
            .into_iter()
            .map(Value::from)
            .collect();
        assert_eq!(v.to_string(), "[1.5,null,null]");
        assert_eq!(Value::from(u64::MAX).as_u64(), Some(u64::MAX));
        assert_eq!(Value::from(i64::MIN).to_string(), "-9223372036854775808");
    }

    #[test]
    fn writes_objects_compactly_in_key_order() {
        let v = Value::object([
            ("z", 1u64.into()),
            ("a", true.into()),
            ("m", Value::Array(vec![Value::Null])),
        ]);
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":true,\"m\":[null]}");
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
            Value::parse(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
    }

    #[test]
    fn rejects_bad_json() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "tru", "1.", "\"\\x\"", "{} {}", "[1 2]",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn round_trips_written_strings() {
        let text = Value::from("weird \u{7f} \" \\ \t chars é").to_string();
        Value::parse(&text).expect("writer output parses");
    }

    #[test]
    fn value_parses_objects_exactly() {
        let v = Value::parse(
            " { \"a\" : [1, -2.5e3, true, null], \"big\": 18446744073709551615, \"s\": \"x\\n\\u00e9\" } ",
        )
        .expect("parses");
        assert_eq!(
            v.get("a").and_then(Value::as_array).map(<[Value]>::len),
            Some(4)
        );
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
        let text = Value::from(original).to_string();
        assert_eq!(
            Value::parse(&text).expect("parses").as_str(),
            Some(original)
        );
    }

    #[test]
    fn value_rejects_what_validate_rejects() {
        // Nesting past the recursion bound is an error, not a crash...
        let deep = format!("{}1{}", "[".repeat(4000), "]".repeat(4000));
        assert!(Value::parse(&deep).is_err());
        // ...while the deepest value the bound admits round-trips.
        let mut v = Value::from(1u64);
        for _ in 0..MAX_DEPTH {
            v = [v].into_iter().collect();
        }
        assert_eq!(Value::parse(&v.to_string()), Ok(v.clone()));
        let v: Value = [v].into_iter().collect();
        assert!(Value::parse(&v.to_string()).is_err());
    }

    /// Characters the string writer must escape or pass through intact:
    /// every control character, the quote, the backslash, DEL, and
    /// multi-byte and astral text.
    fn tricky_char(word: u64) -> char {
        const OTHERS: &[char] = &['"', '\\', '/', '\u{7f}', 'é', '中', '\u{2028}', '\u{1F600}'];
        let pick = (word >> 8) as usize;
        match word % 4 {
            0 => char::from_u32((pick % 0x20) as u32).expect("control char"),
            1 => OTHERS[pick % OTHERS.len()],
            2 => char::from_u32((pick % 0x11_0000) as u32).unwrap_or('\u{fffd}'),
            _ => char::from(b' ' + (pick % 0x5f) as u8),
        }
    }

    /// A value built from a word stream: every leaf kind, numbers from
    /// the integer extremes and arbitrary `f64` bit patterns, and arrays
    /// and objects nested at most `depth` deep.
    fn value_from(words: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
        let Some(word) = words.next() else {
            return Value::Null;
        };
        let kinds = if depth == 0 { 8 } else { 10 };
        let items = |words: &mut _| -> Vec<Value> {
            let len = word.rotate_right(8) % 4;
            (0..len).map(|_| value_from(words, depth - 1)).collect()
        };
        match word % kinds {
            0 => Value::Null,
            1 => Value::from(word & 0x100 != 0),
            2 => Value::from([u64::MAX, 0, word][(word >> 8) as usize % 3]),
            3 => Value::from([i64::MIN, -1, word as i64][(word >> 8) as usize % 3]),
            4 | 5 => Value::from(f64::from_bits(words.next().unwrap_or(word))),
            6 | 7 => {
                let len = (word >> 8) % 12;
                Value::from(
                    (0..len)
                        .map(|_| tricky_char(words.next().unwrap_or(word)))
                        .collect::<String>(),
                )
            }
            8 => Value::Array(items(words)),
            _ => Value::object(
                items(words)
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (format!("k{i}{}", tricky_char(word >> i)), v)),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever the writer prints, the reader reads back equal.
        #[test]
        fn writer_output_parses_back_equal(
            words in prop::collection::vec(any::<u64>(), 1..64),
            depth in 0u32..6,
        ) {
            let v = value_from(&mut words.into_iter(), depth);
            let text = v.to_string();
            prop_assert_eq!(Value::parse(&text), Ok(v), "{}", text);
        }

        /// Non-finite floats become `null`; finite ones keep their exact
        /// bits through the text.
        #[test]
        fn floats_round_trip_exactly(bits in any::<u64>()) {
            let f = f64::from_bits(bits);
            match Value::from(f) {
                Value::Number(text) => {
                    prop_assert!(f.is_finite());
                    prop_assert_eq!(text.parse::<f64>().map(f64::to_bits), Ok(bits));
                }
                other => prop_assert_eq!((other, f.is_finite()), (Value::Null, false)),
            }
        }
    }
}
