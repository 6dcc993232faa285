//! Minimal JSON support for the wire protocol.
//!
//! The build environment is offline (no serde), so the server carries its
//! own JSON value type, parser and writer. Design constraints, in order:
//!
//! 1. **Never panic.** Every malformed input path returns [`JsonError`];
//!    nesting depth is capped so adversarial `[[[[…` input cannot overflow
//!    the stack. The protocol property tests fuzz this.
//! 2. **Bitwise `f64` round-trips.** Numbers are written with Rust's
//!    shortest-round-trip `Display` and re-parsed with `str::parse::<f64>`
//!    (correctly rounded), so a finite `f64` survives encode → decode with
//!    its exact bit pattern — the property the end-to-end "server equals
//!    direct `BatchEngine` call" guarantee rests on.
//! 3. **Deterministic output.** Objects keep insertion order (a `Vec` of
//!    pairs, not a hash map).
//! 4. **Series stay packed.** Series and corpora are arrays of numbers,
//!    often hundreds of thousands of them per message. The parser writes
//!    such an array straight into one `Vec<f64>` ([`Json::Nums`]) as it
//!    scans it: one grammar-checked pass, the same `str::parse::<f64>` on
//!    the same digits, and no [`Json`] value per sample. An array that
//!    turns out to hold anything else is unpacked at its first non-number
//!    and read on as an ordinary [`Json::Arr`], with the same errors at the
//!    same byte offsets.
//!
//! Non-finite numbers serialize as `null`, like serde_json; distances are
//! finite so this only affects deliberately hostile inputs.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Maximum nesting depth the parser accepts before erroring out.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array. The parser and [`Json::from_f64s`] produce this only for
    /// `[]` and for arrays holding something other than numbers.
    Arr(Vec<Json>),
    /// A non-empty array of numbers only, packed: what the parser and
    /// [`Json::from_f64s`] produce for such an array, so each parsed array
    /// has one representation. (An `Arr` of `Num`s built by hand writes
    /// the same bytes but does not compare equal.)
    Nums(Vec<f64>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Error from [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the error was detected at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Serializes the value to a compact JSON document (`to_string()`).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on any syntax violation, non-UTF-8 escape,
    /// or nesting beyond [`MAX_DEPTH`].
    pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
        let text = match std::str::from_utf8(input) {
            Ok(text) => text,
            Err(e) => std::str::from_utf8(&input[..e.valid_up_to()]).unwrap_or_default(),
        };
        let mut p = Parser {
            bytes: input,
            text,
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(*x, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => write_list(items, ['[', ']'], out, |item, out| item.write(out)),
            Json::Nums(xs) => write_list(xs, ['[', ']'], out, |&x, out| write_number(x, out)),
            Json::Obj(pairs) => write_list(pairs, ['{', '}'], out, |(key, value), out| {
                write_string(key, out);
                out.push(':');
                value.write(out);
            }),
        }
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractional parts and
    /// anything beyond 2^53, where `f64` stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 9.0e15 => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as an index-sized integer.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's elements, if it is an array. A packed array of numbers
    /// is unpacked into one [`Json::Num`] per element.
    pub fn as_array(&self) -> Option<Cow<'_, [Json]>> {
        match self {
            Json::Arr(items) => Some(Cow::Borrowed(items)),
            Json::Nums(xs) => Some(Cow::Owned(xs.iter().map(|&x| Json::Num(x)).collect())),
            _ => None,
        }
    }

    /// The value as an `f64` vector (errors on any non-number element).
    pub fn as_f64_vec(&self) -> Option<Vec<f64>> {
        match self {
            Json::Nums(xs) => Some(xs.clone()),
            Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
            _ => None,
        }
    }

    /// Builds an array of numbers.
    pub fn from_f64s(xs: &[f64]) -> Json {
        if xs.is_empty() {
            Json::Arr(Vec::new())
        } else {
            Json::Nums(xs.to_vec())
        }
    }
}

/// Writes `items` comma-separated between the two `brackets`.
fn write_list<T>(
    items: &[T],
    brackets: [char; 2],
    out: &mut String,
    mut each: impl FnMut(&T, &mut String),
) {
    out.push(brackets[0]);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(item, out);
    }
    out.push(brackets[1]);
}

fn write_number(x: f64, out: &mut String) {
    if x.is_finite() {
        // Straight into the output: no temporary string per number.
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    /// The longest valid UTF-8 prefix of `bytes`, checked once. The parse
    /// stops with an error at the first byte past it, so numbers and runs
    /// of string characters are sliced from here, not checked again.
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Moves past a run of ASCII digits, eight bytes at a time while eight
    /// remain. A byte outside `'0'..='9'` sets its top bit in `b - '0'`
    /// (below) or in `b + 0x46` (above), and the first such byte of a word
    /// has no carry or borrow coming into it, so the lowest top bit set
    /// marks where the run ends.
    fn digits(&mut self) {
        while let Some(chunk) = self.bytes.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
            let outside = (word.wrapping_sub(0x3030_3030_3030_3030)
                | word.wrapping_add(0x4646_4646_4646_4646))
                & 0x8080_8080_8080_8080;
            if outside != 0 {
                self.pos += outside.trailing_zeros() as usize / 8;
                return;
            }
            self.pos += 8;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number().map(Json::Num),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Numbers are packed into `nums` while every element so far is one;
    /// the first other element moves them into `items`, which takes every
    /// element from then on. Past the depth cap every element goes to
    /// [`Parser::value`], which rejects it there as it would any other.
    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut nums = Vec::new();
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            let packed = items.is_empty();
            if packed && depth < MAX_DEPTH && matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
                nums.push(self.number()?);
            } else {
                if packed {
                    items = nums.drain(..).map(Json::Num).collect();
                }
                items.push(self.value(depth + 1)?);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(if items.is_empty() {
                        Json::Nums(nums)
                    } else {
                        Json::Arr(items)
                    });
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // A run of plain characters, copied at once from the
                    // checked text; past its end lies the first bad byte.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&c| matches!(c, b'"' | b'\\') || c < 0x20);
                    let end = self.pos + run.unwrap_or(rest.len());
                    let Some(chars) = self.text.get(self.pos..end) else {
                        self.pos = self.text.len();
                        return Err(self.err("invalid UTF-8 in string"));
                    };
                    out.push_str(chars);
                    self.pos = end;
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (the `u` is already consumed),
    /// combining surrogate pairs. Leaves `pos` after the final digit's
    /// closing position.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        if (0xd800..0xdc00).contains(&hi) {
            // High surrogate: a `\uXXXX` low surrogate must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if !(0xdc00..0xe000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                let code = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xdc00..0xe000).contains(&hi) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected digit after '.'"));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("expected exponent digit"));
            }
            self.digits();
        }
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| self.err("non-UTF-8 number"))?;
        text.parse::<f64>()
            .map_err(|_| self.err("unparseable number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(v.to_string().as_bytes()).expect("writer output must parse")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-0.0),
            Json::Num(1.5e-300),
            Json::Num(12345678901234.0),
            Json::Str("hé\"\\\n\t\u{1}\u{1F600}".into()),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn f64_roundtrip_is_bitwise() {
        for &x in &[
            0.1,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            2.225_073_858_507_201e-308, // subnormal-boundary classic
            9.869604401089358,
        ] {
            let Json::Num(y) = roundtrip(&Json::Num(x)) else {
                panic!("number became non-number");
            };
            assert_eq!(x.to_bits(), y.to_bits(), "{x} did not round-trip");
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Json::Obj(vec![
            ("id".into(), Json::Num(7.0)),
            ("xs".into(), Json::from_f64s(&[1.0, -2.5, 3.25])),
            (
                "inner".into(),
                Json::Obj(vec![("empty".into(), Json::Arr(vec![]))]),
            ),
        ]);
        assert_eq!(roundtrip(&v), v);
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(
            v.get("xs").and_then(Json::as_f64_vec),
            Some(vec![1.0, -2.5, 3.25])
        );
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            &b""[..],
            b"{",
            b"[1,]",
            b"{\"a\":}",
            b"01",
            b"1.",
            b"1e",
            b"\"\\x\"",
            b"\"\\ud800\"",
            b"\"unterminated",
            b"nul",
            b"[1] trailing",
            b"\xff",
            b"\"\xc3\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_rejected_without_overflow() {
        let mut doc = Vec::new();
        doc.extend(std::iter::repeat_n(b'[', 10_000));
        doc.extend(std::iter::repeat_n(b']', 10_000));
        assert!(Json::parse(&doc).is_err());
    }

    #[test]
    fn surrogate_pair_escape() {
        let v = Json::parse(br#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, Json::Str("\u{1F600}".into()));
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        let packed = Json::from_f64s(&[1.0, f64::NAN, f64::NEG_INFINITY]);
        assert_eq!(packed.to_string(), "[1,null,null]");
    }

    fn parse(doc: &str) -> Json {
        Json::parse(doc.as_bytes()).unwrap_or_else(|e| panic!("{doc}: {e}"))
    }

    fn parse_err(doc: &[u8]) -> (usize, String) {
        let err = Json::parse(doc).expect_err("must fail");
        (err.offset, err.message)
    }

    #[test]
    fn number_arrays_parse_packed() {
        let Json::Nums(xs) = parse("[1, -0,\n2.5e3,1e999]") else {
            panic!("a number array must parse packed");
        };
        let bits: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
        let expected = [1.0, -0.0, 2500.0, f64::INFINITY].map(f64::to_bits);
        assert_eq!(bits, expected);
        assert_eq!(parse("[ ]"), Json::Arr(Vec::new()));
        assert_eq!(parse("[]"), Json::from_f64s(&[]));
        assert_eq!(
            parse("[1,true]"),
            Json::Arr(vec![Json::Num(1.0), Json::Bool(true)])
        );
        assert_eq!(
            parse("[1,[2]]"),
            Json::Arr(vec![Json::Num(1.0), Json::from_f64s(&[2.0])])
        );
        assert_eq!(
            parse("[[1,2],[3],null,4]"),
            Json::Arr(vec![
                Json::from_f64s(&[1.0, 2.0]),
                Json::from_f64s(&[3.0]),
                Json::Null,
                Json::Num(4.0),
            ])
        );
        let packed = parse("[1,2]");
        assert_eq!(
            packed.as_array().as_deref(),
            Some(&[Json::Num(1.0), Json::Num(2.0)][..])
        );
        assert_eq!(packed.as_f64_vec(), Some(vec![1.0, 2.0]));
    }

    #[test]
    fn packed_arrays_fail_where_any_array_fails() {
        for (doc, offset, message) in [
            ("[1,]", 3, "unexpected character"),
            ("[true,]", 6, "unexpected character"),
            ("[,1]", 1, "unexpected character"),
            ("[01]", 2, "expected ',' or ']'"),
            ("[1 2]", 3, "expected ',' or ']'"),
            ("[1,2", 4, "expected ',' or ']'"),
            ("[1.]", 3, "expected digit after '.'"),
            ("[1e]", 3, "expected exponent digit"),
            ("[1,-", 4, "expected digit"),
            ("[1,-x]", 4, "expected digit"),
            ("[1,+1]", 3, "unexpected character"),
            ("[true,1.]", 8, "expected digit after '.'"),
            ("[1,true,01]", 9, "expected ',' or ']'"),
        ] {
            assert_eq!(parse_err(doc.as_bytes()), (offset, message.into()), "{doc}");
        }
    }

    #[test]
    fn strings_copy_runs_and_fail_at_the_first_bad_byte() {
        assert_eq!(
            parse("\"\u{e9}\\n\u{1F600}x\""),
            Json::Str("\u{e9}\n\u{1F600}x".into())
        );
        for (doc, offset, message) in [
            (&b"\"a\xc3\xa9\xff\""[..], 4, "invalid UTF-8 in string"),
            (b"\"\xc3\xa9\xc3\"", 3, "invalid UTF-8 in string"),
            (b"\"\xc3\xa9\xc3", 3, "invalid UTF-8 in string"),
            (b"\"\xe0\x80\x80\"", 1, "invalid UTF-8 in string"),
            (b"\"ok\xed\xa0\x80\"", 3, "invalid UTF-8 in string"),
            (b"\"ab\xf4\x90\x80\x80\"", 3, "invalid UTF-8 in string"),
            (b"\"a\\u00e9\xc3\"", 8, "invalid UTF-8 in string"),
            (b"[\"\xc3\xa9\",\"x\xff\"]", 8, "invalid UTF-8 in string"),
            (b"\"a\x01\"", 2, "raw control character in string"),
            (b"\"abc", 4, "unterminated string"),
        ] {
            assert_eq!(parse_err(doc), (offset, message.into()), "{doc:?}");
        }
    }

    #[test]
    fn depth_cap_applies_to_packed_arrays() {
        let nested = |depth: usize, inner: &str| {
            format!("{}{inner}{}", "[".repeat(depth), "]".repeat(depth))
        };
        assert!(Json::parse(nested(MAX_DEPTH, "1,2").as_bytes()).is_ok());
        for inner in ["1", "true", "[]"] {
            assert_eq!(
                parse_err(nested(MAX_DEPTH + 1, inner).as_bytes()),
                (MAX_DEPTH + 1, "nesting too deep".into()),
                "{inner}"
            );
        }
    }

    #[test]
    fn digit_runs_end_at_the_first_non_digit() {
        // Runs of every length across the eight-byte steps, ended by the
        // bytes either side of '0'..='9' and by bytes that wrap `b + 0x46`.
        for len in 1..=19 {
            let run: String = (0..len).map(|i| char::from(b'1' + i % 9)).collect();
            for doc in [format!("[{run}]"), format!("[{run}.{run}e-{}]", len % 4)] {
                let x: f64 = doc[1..doc.len() - 1].parse().unwrap();
                assert_eq!(parse(&doc), Json::Nums(vec![x]), "{doc}");
            }
            for next in [b'/', b':', 0x7f, 0x80, 0xb9, 0xba, 0xff] {
                let mut doc = format!("[{run}.{run}").into_bytes();
                doc.push(next);
                doc.push(b']');
                let at = 2 * usize::from(len) + 2;
                assert_eq!(
                    parse_err(&doc),
                    (at, "expected ',' or ']'".into()),
                    "{doc:?}"
                );
            }
        }
    }

    #[test]
    fn as_u64_rejects_fractional_and_negative() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.0e16).as_u64(), None);
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
    }
}
