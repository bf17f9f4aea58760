//! A small JSON value model with a deterministic writer and a strict
//! recursive-descent parser. Object members preserve insertion order so
//! serialization is byte-stable across runs.

use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer (always < 0; non-negative parses as [`Value::U64`]).
    I64(i64),
    /// Finite float. Non-finite floats serialize as `null`.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a u64 (accepts integral, in-range numbers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            Value::I64(n) => u64::try_from(*n).ok(),
            Value::F64(f) if f.fract() == 0.0 && *f >= 0.0 && *f <= u64::MAX as f64 => {
                Some(*f as u64)
            }
            _ => None,
        }
    }

    /// The value as an i64 (accepts integral, in-range numbers).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(n) => Some(*n),
            Value::U64(n) => i64::try_from(*n).ok(),
            Value::F64(f) if f.fract() == 0.0 && *f >= i64::MIN as f64 && *f <= i64::MAX as f64 => {
                Some(*f as i64)
            }
            _ => None,
        }
    }

    /// The value as an f64 (any number variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(f) => Some(*f),
            Value::U64(n) => Some(*n as f64),
            Value::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object pairs, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Writes the value as compact JSON into `out`.
    pub fn write(&self, out: &mut String) {
        // INVARIANT: `fmt::Write` for `String` never returns an error,
        // and `write_to` raises none of its own.
        self.write_to(out).expect("writing to a String cannot fail");
    }

    /// Writes the value as compact JSON into any formatter sink; the
    /// one writer [`Value::write`] and `Display` share.
    ///
    /// # Errors
    ///
    /// Only those of the sink.
    pub fn write_to<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Value::Null => out.write_str("null"),
            Value::Bool(true) => out.write_str("true"),
            Value::Bool(false) => out.write_str("false"),
            Value::U64(n) => write_json_u64(*n, out),
            Value::I64(n) => write!(out, "{n}"),
            Value::F64(f) => write_json_f64(*f, out),
            Value::Str(s) => write_json_string(s, out),
            Value::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write_to(out)?;
                }
                out.write_char(']')
            }
            Value::Obj(pairs) => {
                out.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_json_string(k, out)?;
                    out.write_char(':')?;
                    v.write_to(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// Writes `n` in decimal, the way [`Value::U64`] serializes.
///
/// # Errors
///
/// Only those of the sink.
pub fn write_json_u64<W: fmt::Write>(mut n: u64, out: &mut W) -> fmt::Result {
    if n < 10 {
        // Row and process ids, flags: most integers in a trace.
        return out.write_char(char::from(b'0' + n as u8));
    }
    // u64::MAX has 20 digits; fill the buffer from its end.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    // INVARIANT: every byte written above is `b'0'..=b'9'`, so the
    // slice is ASCII and valid UTF-8.
    out.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
}

/// Writes `f` the way [`Value::F64`] serializes: integral values of
/// magnitude below 1e15 with one forced decimal (`2.0`, `-0.0`) so they
/// re-parse as floats, everything else finite in Rust's shortest
/// round-trip form, non-finite values as `null`.
///
/// # Errors
///
/// Only those of the sink.
pub fn write_json_f64<W: fmt::Write>(f: f64, out: &mut W) -> fmt::Result {
    if !f.is_finite() {
        out.write_str("null")
    } else if f.fract() == 0.0 && f.abs() < 1e15 {
        // What `{f:.1}` prints, without the exact-precision float
        // formatter: below 2^53 every integral f64 is its own u64.
        if f.is_sign_negative() {
            out.write_char('-')?;
        }
        write_json_u64(f.abs() as u64, out)?;
        out.write_str(".0")
    } else {
        write!(out, "{f}")
    }
}

/// Writes `s` as a quoted JSON string, escaping `"`, `\` and control
/// characters below U+0020 and copying everything between them as is.
///
/// # Errors
///
/// Only those of the sink.
pub fn write_json_string<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    // Every byte that needs an escape is ASCII, so the runs between
    // them are whole characters.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.write_str(&s[run..i])?;
        run = i + 1;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// Error from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, trailing garbage, or
/// arrays and objects nested more than 128 deep.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut items = Vec::new();
    let scalar = parse_array_elements(input, |item| items.push(item))?;
    Ok(scalar.unwrap_or(Value::Arr(items)))
}

/// Parses a complete JSON document whose top level is expected to be an
/// array, handing each element to `each` as soon as it is parsed instead
/// of collecting them: `Ok(None)` after the closing `]`, and
/// `Ok(Some(value))` — without calling `each` — when the document is
/// valid JSON but not an array.
///
/// # Errors
///
/// The same [`ParseError`]s, at the same offsets, as [`parse`]; elements
/// before the error have already been handed over.
pub fn parse_array_elements(
    input: &str,
    each: impl FnMut(Value),
) -> Result<Option<Value>, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let scalar = if bytes.get(pos) == Some(&b'[') {
        parse_elements(bytes, &mut pos, 1, each)?;
        None
    } else {
        Some(parse_value(bytes, &mut pos, 0)?)
    };
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(scalar)
}

fn err(offset: usize, message: &str) -> ParseError {
    ParseError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, "unexpected token"))
    }
}

/// How deep arrays and objects may nest: each level is a frame of the
/// recursive descent, and a document of a few hundred kilobytes of `[`
/// would otherwise overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parses the value at `pos`, itself inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(err(*pos, "nesting too deep"));
    }
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Value::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Value::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            let mut items = Vec::new();
            parse_elements(bytes, pos, depth + 1, |item| items.push(item))?;
            Ok(Value::Arr(items))
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected ':'"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

/// Parses the array whose `[` is at `pos`, element by element; the
/// elements are inside `depth` arrays and objects.
fn parse_elements(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    mut each: impl FnMut(Value),
) -> Result<(), ParseError> {
    *pos += 1;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        each(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                let chunk = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| err(start, "invalid utf-8"))?;
                out.push_str(chunk);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
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
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad number"))?;
    if text.is_empty() || text == "-" {
        return Err(err(start, "expected value"));
    }
    if !is_float {
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::U64(n));
        }
        if let Ok(n) = text.parse::<i64>() {
            // `-0` is zero, which the model holds as a `U64`.
            return Ok(u64::try_from(n).map_or(Value::I64(n), Value::U64));
        }
    }
    text.parse::<f64>()
        .map(Value::F64)
        .map_err(|_| err(start, "bad number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compound_values() {
        let v = Value::Obj(vec![
            ("a".into(), Value::F64(1.5)),
            ("b".into(), Value::Arr(vec![Value::U64(1), Value::Null])),
            ("s".into(), Value::Str("x\"\n".into())),
            ("neg".into(), Value::I64(-3)),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(Value::F64(2.0).to_string(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Value::F64(2.0));
    }

    /// `Display`, `write` and the public scalar writers are one
    /// definition of the dialect: escapes, integral floats with their
    /// forced decimal, the 1e15 switch to shortest form, the sign of
    /// zero, `null` for what JSON cannot say.
    #[test]
    fn writers_agree_on_every_branch() {
        let floats = [
            2.0,
            -0.0,
            0.0,
            -3.0,
            2.5,
            999_999_999_999_999.0,
            1e15,
            -1e15,
        ];
        let non_finite = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let text = "q\"b\\n\nr\rt\tc\u{1}\u{1f}d\u{7f}\u{e9}\u{1f680}";
        let mut items = vec![Value::Str(text.into()), Value::I64(i64::MIN)];
        items.extend(floats.iter().chain(&non_finite).map(|f| Value::F64(*f)));
        let v = Value::Obj(vec![(text.into(), Value::Arr(items))]);

        let expected = "{\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001fd\u{7f}\u{e9}\u{1f680}\":\
            [\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001fd\u{7f}\u{e9}\u{1f680}\",-9223372036854775808,\
            2.0,-0.0,0.0,-3.0,2.5,999999999999999.0,1000000000000000,-1000000000000000,\
            null,null,null]}";
        assert_eq!(v.to_string(), expected);
        let mut written = String::new();
        v.write(&mut written);
        assert_eq!(written, expected);

        let mut s = String::new();
        write_json_string(text, &mut s).unwrap();
        assert_eq!(s, Value::Str(text.into()).to_string());
        for f in floats.into_iter().chain(non_finite) {
            let mut s = String::new();
            write_json_f64(f, &mut s).unwrap();
            assert_eq!(s, Value::F64(f).to_string());
        }
    }

    #[test]
    fn scalar_writers_match_the_standard_formatter() {
        let mut n = 1u64;
        let mut ints = vec![0, 9, 10, 99, 100, u64::MAX];
        while n < u64::MAX / 7 {
            ints.extend([n - 1, n, n + 1]);
            n *= 7;
        }
        for n in ints {
            let mut s = String::new();
            write_json_u64(n, &mut s).unwrap();
            assert_eq!(s, n.to_string());
            // Integral floats below 1e15 print like `{:.1}`.
            let f = n as f64;
            if f < 1e15 {
                for f in [f, -f] {
                    let mut s = String::new();
                    write_json_f64(f, &mut s).unwrap();
                    assert_eq!(s, format!("{f:.1}"));
                }
            }
        }
    }

    #[test]
    fn array_elements_are_handed_over_one_by_one() {
        let mut seen = Vec::new();
        let scalar = parse_array_elements(" [1, [2, 3], {\"a\": []}] ", |v| seen.push(v)).unwrap();
        assert_eq!(scalar, None);
        assert_eq!(
            seen,
            [
                Value::U64(1),
                Value::Arr(vec![Value::U64(2), Value::U64(3)]),
                Value::Obj(vec![("a".into(), Value::Arr(vec![]))]),
            ]
        );
        // Not an array: the value comes back, the callback never runs.
        let scalar = parse_array_elements("{\"a\": 1}", |_| panic!("no elements")).unwrap();
        assert_eq!(scalar, Some(Value::Obj(vec![("a".into(), Value::U64(1))])));
    }

    #[test]
    fn streamed_errors_keep_their_offsets() {
        // (input, elements handed over before the error, offset, message)
        let cases = [
            ("", 0, 0, "unexpected end of input"),
            ("[", 0, 1, "unexpected end of input"),
            ("[1,]", 1, 3, "expected value"),
            ("[1 2]", 1, 3, "expected ',' or ']'"),
            ("[1, {\"a\" 2}]", 1, 9, "expected ':'"),
            ("[1, \"ab", 1, 7, "unterminated string"),
            ("[1, 2] x", 2, 7, "trailing characters"),
            ("nul", 0, 0, "unexpected token"),
            ("1 2", 0, 2, "trailing characters"),
        ];
        for (input, delivered, offset, message) in cases {
            let mut n = 0;
            let e = parse_array_elements(input, |_| n += 1).unwrap_err();
            assert_eq!(
                (n, e.offset, e.message.as_str()),
                (delivered, offset, message),
                "{input:?}"
            );
            assert_eq!(parse(input).unwrap_err(), e, "{input:?}");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
    }
}
