//! A minimal JSON value with a compact renderer and a validating parser.
//!
//! This started life as the write-only serializer behind the bench
//! artifacts (`results/BENCH_*.json`) plus an in-test recursive-descent
//! reader that proved the renderer's output was real JSON. The service
//! layer (`gp-service`) needs to *decode* requests too, so both halves
//! now live here as one audited implementation: everything that goes over
//! the wire round-trips through the same code the tests exercise.
//! `gp-bench` re-exports this type, so `gp_bench::Json` remains the
//! canonical name in experiment code.
//!
//! The parser is strict where it matters for validation — it rejects
//! trailing garbage, bare control characters in strings, lone surrogate
//! escapes, and malformed literals — and accepts insignificant whitespace
//! between tokens like any JSON reader must. It recurses once per nesting
//! level, so it refuses documents nested deeper than [`MAX_DEPTH`]: a
//! few kilobytes of `[` from the wire must be an error, not a stack
//! overflow that aborts the process.
//!
//! Both directions work on bytes: the parser walks the input's UTF-8
//! bytes (every structural character is ASCII, so a multi-byte character
//! can only ever sit inside a string, where unescaped runs are copied as
//! slices), and the renderer copies runs of bytes that need no escape
//! with one `push_str`. Integers above 2^53, which an `f64` would round,
//! parse to [`Json::Int`] and render back digit for digit, so 64-bit
//! request and trace ids survive the wire exactly.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts. Twice the depth
/// of the deepest frame any in-repo client sends (a 160-term expression
/// chain, 323 levels), and small enough that the recursive parse fits a
/// 2 MiB thread stack with room to spare.
pub const MAX_DEPTH: usize = 512;

/// 2^53: every integer up to here is exactly an `f64`.
const F64_EXACT: u64 = 1 << 53;

/// JSON value: builder, renderer, and parser.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// Null literal.
    Null,
    /// Boolean literal.
    Bool(bool),
    /// Finite number (non-finite values serialize as `null`).
    Num(f64),
    /// An unsigned integer carried exactly. The parser and `From<u64>`
    /// produce it only above 2^53, where an `f64` starts to round; every
    /// smaller number stays a [`Json::Num`], so code matching on `Num`
    /// sees what it always saw.
    Int(u64),
    /// String (escaped on render).
    Str(String),
    /// Ordered array.
    Arr(Vec<Json>),
    /// Ordered object (insertion order preserved). Keys built from string
    /// literals borrow them, so a builder row allocates no key.
    Obj(Vec<(Cow<'static, str>, Json)>),
    /// Pre-rendered JSON fragment, spliced verbatim (the caller guarantees
    /// it is valid JSON — e.g. `gp_distsim::trace_json` output). Never
    /// produced by [`Json::parse`].
    Raw(String),
}

/// A parse failure: byte position plus what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// 0-based byte offset of the failure (the character offset, on
    /// ASCII input).
    pub pos: usize,
    /// Description of the malformed construct.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert a field (builder style, objects only). A `&'static str` key
    /// is borrowed, a `String` key moved.
    pub fn field(mut self, key: impl Into<Cow<'static, str>>, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.into(), value.into())),
            _ => panic!("field() on a non-object Json"),
        }
        self
    }

    /// Look up a field of an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a `Num` (or an `Int`, rounded to `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Int(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The string, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.size_hint());
        self.write(&mut out);
        out
    }

    /// The rendered length, exact except that a number counts as 4
    /// bytes, so [`render`](Self::render) of a string-heavy document
    /// allocates once, at its final size, instead of doubling its way up.
    pub fn size_hint(&self) -> usize {
        match self {
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Int(_) => 4,
            Json::Str(s) => escaped_len(s),
            Json::Raw(s) => s.len(),
            Json::Arr(items) => {
                let commas = items.len().saturating_sub(1);
                2 + commas + items.iter().map(Json::size_hint).sum::<usize>()
            }
            Json::Obj(fields) => {
                let commas = fields.len().saturating_sub(1);
                let colons = fields.len();
                2 + commas
                    + colons
                    + fields
                        .iter()
                        .map(|(k, v)| escaped_len(k) + v.size_hint())
                        .sum::<usize>()
            }
        }
    }

    /// Parse a complete JSON document. Strict: the entire input (modulo
    /// surrounding whitespace) must be one value nested at most
    /// [`MAX_DEPTH`] levels; strings reject bare control characters and
    /// lone-surrogate `\u` escapes. Never returns [`Json::Raw`].
    pub fn parse(s: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser { src: s, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != s.len() {
            return Err(err(p.pos, "trailing garbage after value"));
        }
        Ok(v)
    }

    /// Append the compact rendering to `out` ([`render`](Self::render)
    /// into a caller's buffer).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                // Writing into a `String` cannot fail.
                let _ = if !x.is_finite() {
                    out.write_str("null")
                } else if x.fract() == 0.0 && x.abs() < 1e15 {
                    // Integral values render without a trailing ".0".
                    write!(out, "{}", *x as i64)
                } else {
                    write!(out, "{x}")
                };
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Raw(s) => out.push_str(s),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Index of the first byte at or after `from` that a JSON string cannot
/// hold verbatim: `"`, `\` or a control byte below 0x20 (all ASCII, so
/// the index is a char boundary); `bytes.len()` if there is none. Scans
/// eight bytes per step: in each word, the lowest flagged byte of the
/// classic zero-byte/less-than tests is exact, since their borrows only
/// run upwards.
fn next_special(bytes: &[u8], from: usize) -> usize {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let zero_in = |w: u64| w.wrapping_sub(LO) & !w & HI;
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let hits = zero_in(w ^ (LO * u64::from(b'"')))
            | zero_in(w ^ (LO * u64::from(b'\\')))
            | (w.wrapping_sub(LO * 0x20) & !w & HI);
        if hits != 0 {
            return i + (hits.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    while i < bytes.len() && !matches!(bytes[i], b'"' | b'\\' | 0..=0x1f) {
        i += 1;
    }
    i
}

/// The escape [`write_escaped`] writes for a byte [`next_special`] stops
/// at; `None` for the `\u00XX` form.
fn short_escape(b: u8) -> Option<&'static str> {
    match b {
        b'"' => Some("\\\""),
        b'\\' => Some("\\\\"),
        b'\n' => Some("\\n"),
        b'\t' => Some("\\t"),
        _ => None,
    }
}

/// Bytes [`write_escaped`] appends for `s`, quotes included.
fn escaped_len(s: &str) -> usize {
    let bytes = s.as_bytes();
    let mut len = s.len() + 2;
    let mut i = next_special(bytes, 0);
    while i < bytes.len() {
        len += short_escape(bytes[i]).map_or(5, |e| e.len() - 1);
        i = next_special(bytes, i + 1);
    }
    len
}

/// Append `s` as a quoted JSON string: `"` and `\` backslash-escaped,
/// `\n` and `\t` by name, every other control character as `\u00XX`,
/// everything else (all of non-ASCII included) verbatim. Runs of bytes
/// that need no escape are copied with one `push_str` each.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    loop {
        let i = next_special(bytes, run);
        out.push_str(&s[run..i]);
        let Some(&b) = bytes.get(i) else { break };
        match short_escape(b) {
            Some(e) => out.push_str(e),
            None => {
                let _ = write!(out, "\\u{:04x}", b);
            }
        }
        run = i + 1;
    }
    out.push('"');
}

fn err(pos: usize, message: impl Into<String>) -> JsonParseError {
    JsonParseError {
        pos,
        message: message.into(),
    }
}

/// Recursive-descent state over the input's bytes. `pos` only ever
/// stops on an ASCII byte or the end of input, so it is always a char
/// boundary of `src`.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// The (possibly multi-byte) character at `at`, for messages.
    fn char_at(&self, at: usize) -> Option<char> {
        self.src.get(at..).and_then(|rest| rest.chars().next())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Parse one value; `depth` counts the arrays/objects enclosing it.
    fn value(&mut self, depth: usize) -> Result<Json, JsonParseError> {
        self.skip_ws();
        if matches!(self.peek(), Some(b'[' | b'{')) && depth == MAX_DEPTH {
            return Err(err(
                self.pos,
                format!("nesting deeper than {MAX_DEPTH} levels"),
            ));
        }
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(err(self.pos, "expected ',' or ']' in array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let k = self.string()?;
                    self.skip_ws();
                    if self.peek() != Some(b':') {
                        return Err(err(self.pos, format!("expected ':' after key {k:?}")));
                    }
                    self.pos += 1;
                    let v = self.value(depth + 1)?;
                    fields.push((Cow::Owned(k), v));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(err(self.pos, "expected ',' or '}' in object")),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(err(
                self.pos,
                format!(
                    "unexpected character {:?}",
                    self.char_at(self.pos).unwrap_or('\u{fffd}')
                ),
            )),
            None => Err(err(self.pos, "unexpected end of input")),
        }
    }

    /// A number: the longest run of digits and `+-.eE`, read as `f64`
    /// (the accepted language is exactly Rust's float syntax over those
    /// characters). A plain digit string above 2^53 that fits a `u64` is
    /// kept exact as [`Json::Int`].
    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'+' | b'-' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        let x: f64 = text
            .parse()
            .map_err(|_| err(start, format!("bad number {text:?}")))?;
        if x >= F64_EXACT as f64 && text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                if n > F64_EXACT {
                    return Ok(Json::Int(n));
                }
            }
        }
        Ok(Json::Num(x))
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        if self.peek() != Some(b'"') {
            return Err(err(self.pos, "expected string"));
        }
        self.pos += 1;
        let bytes = self.src.as_bytes();
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one slice (all three are ASCII: char boundaries).
            let run = self.pos;
            self.pos = next_special(bytes, run);
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                    self.pos += 1;
                }
                Some(c) => {
                    return Err(err(
                        self.pos,
                        format!("bare control character {:?} in string", char::from(c)),
                    ));
                }
                None => return Err(err(self.pos, "unterminated string")),
            }
        }
    }

    /// One escape; `pos` is on the character after the backslash and is
    /// left on the escape's last byte.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonParseError> {
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b't') => out.push('\t'),
            Some(b'r') => out.push('\r'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let cp = self.hex4(self.pos + 1)?;
                self.pos += 4;
                if (0xD800..0xDC00).contains(&cp) {
                    // High surrogate: a low surrogate escape must
                    // follow, and the pair combines.
                    let bytes = self.src.as_bytes();
                    if bytes.get(self.pos + 1) != Some(&b'\\')
                        || bytes.get(self.pos + 2) != Some(&b'u')
                    {
                        return Err(err(self.pos, "lone high surrogate in \\u escape"));
                    }
                    let lo = self.hex4(self.pos + 3)?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(err(self.pos, "invalid low surrogate in \\u escape"));
                    }
                    self.pos += 6;
                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    out.push(char::from_u32(combined).expect("valid surrogate pair"));
                } else {
                    out.push(
                        char::from_u32(cp)
                            .ok_or_else(|| err(self.pos, "lone surrogate in \\u escape"))?,
                    );
                }
            }
            _ => {
                let other = self.char_at(self.pos);
                return Err(err(self.pos, format!("invalid escape \\{other:?}")));
            }
        }
        Ok(())
    }

    fn hex4(&self, at: usize) -> Result<u32, JsonParseError> {
        let Some(hex) = self.src.as_bytes().get(at..at + 4) else {
            return Err(err(at, "truncated \\u escape"));
        };
        let hex = String::from_utf8_lossy(hex);
        u32::from_str_radix(&hex, 16).map_err(|_| err(at, format!("bad \\u escape {hex:?}")))
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonParseError> {
        if !self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            return Err(err(self.pos, format!("expected literal {word}")));
        }
        self.pos += word.len();
        Ok(())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<u64> for Json {
    /// Exact: a value an `f64` would round becomes [`Json::Int`].
    fn from(x: u64) -> Json {
        if x > F64_EXACT {
            Json::Int(x)
        } else {
            Json::Num(x as f64)
        }
    }
}

impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_valid_compact_output() {
        let j = Json::obj()
            .field("name", "exp \"quoted\"")
            .field("n", 1_000_000usize)
            .field("ms", 1.5f64)
            .field("ok", true)
            .field("series", Json::Arr(vec![Json::Num(1.0), Json::Null]));
        assert_eq!(
            j.render(),
            r#"{"name":"exp \"quoted\"","n":1000000,"ms":1.5,"ok":true,"series":[1,null]}"#
        );
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn parse_accepts_whitespace_between_tokens() {
        let j = Json::parse(" { \"a\" : [ 1 , 2 ] ,\n\t\"b\" : null } ").unwrap();
        assert_eq!(
            j,
            Json::Obj(vec![
                ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
                ("b".into(), Json::Null),
            ])
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "nul",
            "truee",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"bare \u{1} control\"",
            "1 2",
            "[1] garbage",
            "\"\\ud800 lone\"",
            "--3",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.pos == MAX_DEPTH && e.message.contains("nesting"), "{e}");
    }

    #[test]
    fn integers_above_2_pow_53_stay_exact() {
        for n in [(1u64 << 53) + 1, 1 << 60, u64::MAX - 1, u64::MAX] {
            let j = Json::from(n);
            assert_eq!(j, Json::Int(n));
            assert_eq!(j.render(), n.to_string());
            assert_eq!(Json::parse(&n.to_string()), Ok(Json::Int(n)));
        }
        // At and below 2^53 numbers are plain `Num`s, as they always were;
        // beyond `u64` or with a fraction/exponent/sign they round as `f64`.
        assert_eq!(Json::from(1u64 << 53), Json::Num(9_007_199_254_740_992.0));
        assert_eq!(
            Json::parse("9007199254740992"),
            Ok(Json::Num(2f64.powi(53)))
        );
        assert_eq!(
            Json::parse("18446744073709551616"),
            Ok(Json::Num(2f64.powi(64)))
        );
        assert_eq!(
            Json::parse("-9007199254740993"),
            Ok(Json::Num(-(2f64.powi(53))))
        );
        assert_eq!(Json::parse("1e17"), Ok(Json::Num(1e17)));
    }

    #[test]
    fn error_positions_are_byte_offsets() {
        // On ASCII input a byte offset is the character offset.
        let e = Json::parse(r#"{"a" 1}"#).unwrap_err();
        assert_eq!(e.pos, 5);
        // After a multi-byte character it counts bytes: "é" is two.
        let e = Json::parse("[\"é\", x]").unwrap_err();
        assert_eq!((e.pos, e.message.as_str()), (7, "unexpected character 'x'"));
        let e = Json::parse("\"é\u{1}\"").unwrap_err();
        assert_eq!(e.pos, 3);
        assert!(e.message.contains("control"), "{e}");
    }

    #[test]
    fn escaping_copies_safe_runs_and_escapes_the_rest() {
        let s = "a\"b\\c\nd\te\rf\u{1f}g\u{7f}é🚀";
        let mut out = String::new();
        write_escaped(&mut out, s);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u000df\\u001fg\u{7f}é🚀\"");
        assert_eq!(escaped_len(s), out.len());
    }

    #[test]
    fn word_scan_finds_the_first_special_byte_at_every_offset() {
        // Bytes next to the special ones in value, and every high byte,
        // must never be flagged; each special byte must be found at every
        // offset within and across words, also behind an earlier one.
        let plain: Vec<u8> = (0x20..=0xffu8)
            .filter(|b| *b != b'"' && *b != b'\\')
            .collect();
        for special in (0..0x20).chain([b'"', b'\\']) {
            for at in 0..24 {
                for from in 0..=at {
                    let mut buf: Vec<u8> =
                        plain.iter().copied().cycle().skip(at).take(24).collect();
                    buf[at] = special;
                    if at + 3 < buf.len() {
                        buf[at + 3] = b'"';
                    }
                    assert_eq!(
                        next_special(&buf, from),
                        at,
                        "{special:#x} at {at} from {from}"
                    );
                }
            }
        }
        assert_eq!(next_special(&plain, 0), plain.len());
    }

    #[test]
    fn size_hint_is_exact_without_numbers() {
        let j = Json::obj()
            .field("a\n", "x\"y")
            .field("empty", Json::Arr(vec![]))
            .field(
                "nested",
                Json::Arr(vec![Json::Null, Json::obj(), "\u{1}".into()]),
            )
            .field("raw", Json::Raw("[1,2]".into()));
        assert_eq!(j.size_hint(), j.render().len());
    }

    #[test]
    fn parse_combines_surrogate_pairs() {
        // U+1F680 (🚀) as the surrogate pair D83D DE80.
        let j = Json::parse("\"\\ud83d\\ude80\"").unwrap();
        assert_eq!(j, Json::Str("\u{1F680}".into()));
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let j = Json::parse(r#"{"kind":"lint","n":3,"ok":true,"rows":[1,2]}"#).unwrap();
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("lint"));
        assert_eq!(j.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            j.get("rows").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(j.get("missing"), None);
    }
}
