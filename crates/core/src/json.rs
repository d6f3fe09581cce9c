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

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. Twice the depth
/// of the deepest frame any in-repo client sends (a 160-term expression
/// chain, 323 levels), and small enough that the recursive parse fits a
/// 2 MiB thread stack with room to spare.
pub const MAX_DEPTH: usize = 512;

/// JSON value: builder, renderer, and parser.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// Null literal.
    Null,
    /// Boolean literal.
    Bool(bool),
    /// Finite number (non-finite values serialize as `null`).
    Num(f64),
    /// String (escaped on render).
    Str(String),
    /// Ordered array.
    Arr(Vec<Json>),
    /// Ordered object (insertion order preserved).
    Obj(Vec<(String, Json)>),
    /// Pre-rendered JSON fragment, spliced verbatim (the caller guarantees
    /// it is valid JSON — e.g. `gp_distsim::trace_json` output). Never
    /// produced by [`Json::parse`].
    Raw(String),
}

/// A parse failure: character position plus what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// 0-based character offset of the failure.
    pub pos: usize,
    /// Description of the malformed construct.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at char {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl Json {
    /// Empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert a field (builder style, objects only).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
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

    /// The number, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
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
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parse a complete JSON document. Strict: the entire input (modulo
    /// surrounding whitespace) must be one value nested at most
    /// [`MAX_DEPTH`] levels; strings reject bare control characters and
    /// lone-surrogate `\u` escapes. Never returns [`Json::Raw`].
    pub fn parse(s: &str) -> Result<Json, JsonParseError> {
        let b: Vec<char> = s.chars().collect();
        let mut pos = 0usize;
        skip_ws(&b, &mut pos);
        let v = parse_value(&b, &mut pos, 0)?;
        skip_ws(&b, &mut pos);
        if pos != b.len() {
            return Err(err(pos, "trailing garbage after value"));
        }
        Ok(v)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // Integral values render without a trailing ".0".
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        out.push_str(&format!("{}", *x as i64));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
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
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn err(pos: usize, message: impl Into<String>) -> JsonParseError {
    JsonParseError {
        pos,
        message: message.into(),
    }
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while matches!(b.get(*pos), Some(' ' | '\t' | '\n' | '\r')) {
        *pos += 1;
    }
}

/// Parse one value; `depth` counts the arrays/objects enclosing it.
fn parse_value(b: &[char], pos: &mut usize, depth: usize) -> Result<Json, JsonParseError> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some('[' | '{')) && depth == MAX_DEPTH {
        return Err(err(*pos, format!("nesting deeper than {MAX_DEPTH} levels")));
    }
    match b.get(*pos) {
        Some('n') => expect(b, pos, "null").map(|()| Json::Null),
        Some('t') => expect(b, pos, "true").map(|()| Json::Bool(true)),
        Some('f') => expect(b, pos, "false").map(|()| Json::Bool(false)),
        Some('"') => parse_string(b, pos).map(Json::Str),
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some('{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let k = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&':') {
                    return Err(err(*pos, format!("expected ':' after key {k:?}")));
                }
                *pos += 1;
                fields.push((k, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *pos;
            while let Some(c) = b.get(*pos) {
                if c.is_ascii_digit() || "+-.eE".contains(*c) {
                    *pos += 1;
                } else {
                    break;
                }
            }
            let text: String = b[start..*pos].iter().collect();
            text.parse()
                .map(Json::Num)
                .map_err(|_| err(start, format!("bad number {text:?}")))
        }
        Some(c) => Err(err(*pos, format!("unexpected character {c:?}"))),
        None => Err(err(*pos, "unexpected end of input")),
    }
}

fn parse_string(b: &[char], pos: &mut usize) -> Result<String, JsonParseError> {
    if b.get(*pos) != Some(&'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            Some('"') => {
                *pos += 1;
                return Ok(out);
            }
            Some('\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let cp = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..0xDC00).contains(&cp) {
                            // High surrogate: a low surrogate escape must
                            // follow, and the pair combines.
                            if b.get(*pos + 1) != Some(&'\\') || b.get(*pos + 2) != Some(&'u') {
                                return Err(err(*pos, "lone high surrogate in \\u escape"));
                            }
                            let lo = parse_hex4(b, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(err(*pos, "invalid low surrogate in \\u escape"));
                            }
                            *pos += 6;
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            out.push(char::from_u32(combined).expect("valid surrogate pair"));
                        } else {
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| err(*pos, "lone surrogate in \\u escape"))?,
                            );
                        }
                    }
                    other => return Err(err(*pos, format!("invalid escape \\{other:?}"))),
                }
                *pos += 1;
            }
            Some(c) if (*c as u32) < 0x20 => {
                return Err(err(*pos, format!("bare control character {c:?} in string")));
            }
            Some(c) => {
                out.push(*c);
                *pos += 1;
            }
            None => return Err(err(*pos, "unterminated string")),
        }
    }
}

fn parse_hex4(b: &[char], at: usize) -> Result<u32, JsonParseError> {
    if at + 4 > b.len() {
        return Err(err(at, "truncated \\u escape"));
    }
    let hex: String = b[at..at + 4].iter().collect();
    u32::from_str_radix(&hex, 16).map_err(|_| err(at, format!("bad \\u escape {hex:?}")))
}

fn expect(b: &[char], pos: &mut usize, word: &str) -> Result<(), JsonParseError> {
    let end = *pos + word.chars().count();
    let got: String = b[*pos..end.min(b.len())].iter().collect();
    if got != word {
        return Err(err(*pos, format!("expected literal {word}")));
    }
    *pos = end;
    Ok(())
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
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
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
