//! A small text front end for the checker: programs as line-oriented
//! source, the way a lint tool would consume them.
//!
//! ```text
//! # Fig. 4, buggy
//! container students list
//! container failures list
//! iter iter = begin students
//! while iter != end {
//!     deref iter
//!     if {
//!         deref iter
//!         push_back failures
//!         erase students iter
//!     } else {
//!         advance iter
//!     }
//! }
//! ```
//!
//! Statements: `container NAME (vector|list|deque)`,
//! `iter NAME = (begin|end|search) CONTAINER`, `advance IT`, `deref IT`,
//! `erase CONTAINER IT [-> CAPTURE]`, `insert CONTAINER IT`,
//! `push_back CONTAINER`, `clear CONTAINER`, `assign DST SRC`,
//! `call (sort|find|lower_bound|binary_search|unique|max_element)
//! CONTAINER [-> IT]`, `while IT != end {`, `while ? {`, `if {`,
//! `} else {`, `}`. `#` starts a comment.
//!
//! Interprocedural programs add two forms: `fn NAME(P1, P2) {` opens a
//! function definition (top level only — `fn` cannot nest inside blocks
//! or other functions), and `invoke NAME(A1, A2)` calls one. A flat
//! program — no `fn`/`invoke` lines — parses to exactly the same
//! [`Program`] the seed parser produced, as the implicit `main`.
//!
//! [`parse`] does not parse a top-level function block it has seen
//! twice before: it takes the definition from a process-wide table,
//! which holds each block with its text and hands every program the
//! same shared definition. The result, or error, is the one
//! a line-by-line parse gives.

use crate::ir::{
    first_duplicate, AlgorithmName, Cond, ContainerKind, Definition, FunctionDef, Functions, Name,
    NameList, PosExpr, Program, Stmt,
};
use gp_core::hash::{hash_str, FnvMap, FnvSet};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// A parse failure with its 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A failure on the line being parsed; its number is filled in by
/// [`Parser::lines`], which knows where the line sits in the source.
fn err<T>(message: impl Into<String>) -> Result<T, String> {
    Err(message.into())
}

/// The 0-based number of the line starting at byte `at` of `src`
/// (counted only when an error needs it).
fn line_at(src: &str, at: usize) -> usize {
    src.as_bytes()[..at].iter().filter(|&&c| c == b'\n').count()
}

/// An open block. Its statements so far are `stmts[start..]` of the
/// parser's one shared statement stack, so each block is moved into its
/// own exact-size `Vec` once, when it closes.
enum Frame {
    While {
        cond: Cond,
        start: usize,
    },
    IfThen {
        start: usize,
    },
    IfElse {
        then_branch: Vec<Stmt>,
        start: usize,
    },
    Fn {
        name: String,
        params: NameList,
        start: usize,
    },
}

/// One [`Name`] per distinct identifier, and one [`NameList`] per
/// distinct `(…)` text, in the source being parsed. Identifiers come from
/// the wire, so the maps keep std's keyed hasher.
#[derive(Default)]
struct Interner<'s> {
    names: HashMap<&'s str, Name>,
    lists: HashMap<&'s str, NameList>,
}

impl<'s> Interner<'s> {
    fn name(&mut self, s: &'s str) -> Name {
        self.names.entry(s).or_insert_with(|| Name::from(s)).clone()
    }
}

/// Whitespace runs collapsed to one space: how `name(args)` text reads
/// in error messages.
fn squash(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Split `name(a, b)` into the name and comma-separated argument names.
/// `rest` is the source text of the tokens after the keyword.
fn parse_name_args<'s>(
    rest: &'s str,
    names: &mut Interner<'s>,
) -> Result<(&'s str, NameList), String> {
    let open = match rest.find('(') {
        Some(i) => i,
        None => return err(format!("expected `name(args)`, got `{}`", squash(rest))),
    };
    if !rest.ends_with(')') {
        return err(format!("expected closing `)` in `{}`", squash(rest)));
    }
    let name = rest[..open].trim();
    if name.is_empty() || name.contains(char::is_whitespace) {
        return err(format!("bad function name in `{}`", squash(rest)));
    }
    let inner = &rest[open + 1..rest.len() - 1];
    if let Some(list) = names.lists.get(inner) {
        return Ok((name, list.clone())); // the same text parsed before
    }
    // `name()`, blank inside the parentheses, takes zero arguments.
    let pieces = if inner.trim().is_empty() {
        0
    } else {
        inner.matches(',').count() + 1
    };
    let mut args = Vec::with_capacity(pieces);
    for piece in inner.split(',').take(pieces) {
        let piece = piece.trim();
        if piece.is_empty() {
            return err(format!("empty argument name in `{}`", squash(rest)));
        }
        if piece.contains(char::is_whitespace) {
            return err(format!(
                "bad argument `{}` in `{}`",
                squash(piece),
                squash(rest)
            ));
        }
        args.push(names.name(piece));
    }
    let list = NameList::from(args);
    names.lists.insert(inner, list.clone());
    Ok((name, list))
}

/// Tokens of one line kept in place: no line has a fixed shape longer
/// than 5 tokens, so a longer line can only be a `fn`/`invoke` (whose
/// argument text is re-read from the line itself) or an error.
const MAX_TOKENS: usize = 6;

/// Byte offset of `tok` (a subslice of `line`) within `line`.
fn offset_in(line: &str, tok: &str) -> usize {
    tok.as_ptr() as usize - line.as_ptr() as usize
}

/// The ASCII bytes `char::is_whitespace` accepts: tab, LF, VT, FF, CR
/// and space.
fn is_ascii_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// An ASCII line with its comment cut off and whitespace trimmed: what
/// `split('#')` then `trim` give, a byte at a time.
fn ascii_content(raw: &str) -> &str {
    let b = raw.as_bytes();
    let end = b.iter().position(|&c| c == b'#').unwrap_or(b.len());
    let lo = b[..end]
        .iter()
        .position(|&c| !is_ascii_ws(c))
        .unwrap_or(end);
    let hi = b[lo..end]
        .iter()
        .rposition(|&c| !is_ascii_ws(c))
        .map_or(lo, |i| lo + i + 1);
    &raw[lo..hi]
}

/// A line's statement text and its first [`MAX_TOKENS`] tokens, with
/// the token count and the last token. An ASCII line is cut, trimmed
/// and split in one pass over its bytes, on [`is_ascii_ws`]; any other
/// line goes through the Unicode `trim`/`split_whitespace`, which agree
/// with it on ASCII.
struct Tokens<'s> {
    line: &'s str,
    buf: [&'s str; MAX_TOKENS],
    count: usize,
    last: &'s str,
}

impl<'s> Tokens<'s> {
    fn of(raw: &'s str) -> Tokens<'s> {
        let mut t = Tokens {
            line: "",
            buf: [""; MAX_TOKENS],
            count: 0,
            last: "",
        };
        if raw.is_ascii() {
            let b = raw.as_bytes();
            let (mut i, mut first) = (0, 0);
            loop {
                while i < b.len() && is_ascii_ws(b[i]) {
                    i += 1;
                }
                if i == b.len() || b[i] == b'#' {
                    break;
                }
                let start = i;
                while i < b.len() && !is_ascii_ws(b[i]) && b[i] != b'#' {
                    i += 1;
                }
                if t.count == 0 {
                    first = start;
                }
                t.push(&raw[start..i]);
                t.line = &raw[first..i];
            }
        } else {
            t.line = raw.split('#').next().unwrap_or("").trim();
            for tok in t.line.split_whitespace() {
                t.push(tok);
            }
        }
        t
    }

    fn push(&mut self, tok: &'s str) {
        if self.count < MAX_TOKENS {
            self.buf[self.count] = tok;
        }
        self.count += 1;
        self.last = tok;
    }

    fn toks(&self) -> &[&'s str] {
        &self.buf[..self.count.min(MAX_TOKENS)]
    }
}

/// The parser's state between lines.
struct Parser<'s> {
    src: &'s str,
    stack: Vec<Frame>,
    /// Statements of the top level and of every open block, innermost
    /// block last.
    stmts: Vec<Stmt>,
    functions: Functions,
    fn_names: HashSet<&'s str>,
    names: Interner<'s>,
}

impl<'s> Parser<'s> {
    fn new(src: &'s str, blocks: usize) -> Parser<'s> {
        Parser {
            src,
            stack: Vec::new(),
            stmts: Vec::new(),
            functions: Functions::with_capacity(blocks),
            fn_names: HashSet::with_capacity(blocks),
            names: Interner::default(),
        }
    }

    /// Parse the lines of `src[from..to]` (`from` is a line start).
    fn lines(&mut self, from: usize, to: usize) -> Result<(), ParseError> {
        let src = self.src;
        for (idx, raw) in src[from..to].lines().enumerate() {
            self.line(raw).map_err(|message| ParseError {
                line: line_at(src, from) + idx + 1,
                message,
            })?;
        }
        Ok(())
    }

    /// Take a definition the block table holds for the block starting at
    /// byte `at`; only the duplicate check depends on the lines around
    /// it.
    fn shared(&mut self, at: usize, f: &'s Arc<Definition>) -> Result<(), ParseError> {
        let fname = f.def().name.as_str();
        if !self.fn_names.insert(fname) {
            return Err(ParseError {
                line: line_at(self.src, at) + 1,
                message: format!("duplicate function `{fname}`"),
            });
        }
        self.functions.push_shared(Arc::clone(f));
        Ok(())
    }

    fn line(&mut self, raw: &'s str) -> Result<(), String> {
        let t = Tokens::of(raw);
        let (line, last, count) = (t.line, t.last, t.count);
        if line.is_empty() {
            return Ok(());
        }
        let names = &mut self.names;
        let toks = t.toks();
        let stmt = match toks {
            ["container", name, kind] => {
                let kind = match *kind {
                    "vector" => ContainerKind::Vector,
                    "list" => ContainerKind::List,
                    "deque" => ContainerKind::Deque,
                    other => return err(format!("unknown container kind `{other}`")),
                };
                Stmt::DeclContainer {
                    name: names.name(name),
                    kind,
                }
            }
            ["iter", name, "=", pos, container] => {
                let pos = match *pos {
                    "begin" => PosExpr::Begin,
                    "end" => PosExpr::End,
                    "search" => PosExpr::SearchResult,
                    other => return err(format!("unknown position `{other}`")),
                };
                Stmt::DeclIter {
                    name: names.name(name),
                    container: names.name(container),
                    pos,
                }
            }
            ["advance", it] => Stmt::Advance {
                iter: names.name(it),
            },
            ["deref", it] => Stmt::Deref {
                iter: names.name(it),
            },
            ["erase", c, it] => Stmt::Erase {
                container: names.name(c),
                iter: names.name(it),
                capture: None,
            },
            ["erase", c, it, "->", cap] => Stmt::Erase {
                container: names.name(c),
                iter: names.name(it),
                capture: Some(names.name(cap)),
            },
            ["insert", c, it] => Stmt::Insert {
                container: names.name(c),
                iter: names.name(it),
            },
            ["push_back", c] => Stmt::PushBack {
                container: names.name(c),
            },
            ["clear", c] => Stmt::Clear {
                container: names.name(c),
            },
            ["assign", dst, src_] => Stmt::Assign {
                dst: names.name(dst),
                src: names.name(src_),
            },
            ["call", alg, c] | ["call", alg, c, "->", _] => {
                let algorithm = match *alg {
                    "sort" => AlgorithmName::Sort,
                    "find" => AlgorithmName::Find,
                    "lower_bound" => AlgorithmName::LowerBound,
                    "binary_search" => AlgorithmName::BinarySearch,
                    "unique" => AlgorithmName::Unique,
                    "max_element" => AlgorithmName::MaxElement,
                    other => return err(format!("unknown algorithm `{other}`")),
                };
                Stmt::Call {
                    algorithm,
                    container: names.name(c),
                    capture: (toks.len() == 5).then(|| names.name(toks[4])),
                }
            }
            ["fn", ..] if last == "{" => {
                if !self.stack.is_empty() {
                    return err("`fn` definitions must be at the top level");
                }
                // The text between `fn` and the closing `{` token.
                let rest = if count > 2 {
                    &line[offset_in(line, toks[1])..offset_in(line, last)]
                } else {
                    ""
                };
                let (fname, params) = parse_name_args(rest.trim_end(), names)?;
                if !self.fn_names.insert(fname) {
                    return err(format!("duplicate function `{fname}`"));
                }
                if first_duplicate(&params).is_some() {
                    return err(format!("duplicate parameter name in `fn {fname}`"));
                }
                self.stack.push(Frame::Fn {
                    name: fname.to_string(),
                    params,
                    start: self.stmts.len(),
                });
                return Ok(());
            }
            ["invoke", ..] => {
                let rest = if count > 1 {
                    &line[offset_in(line, toks[1])..]
                } else {
                    ""
                };
                let (fname, args) = parse_name_args(rest, names)?;
                Stmt::Invoke {
                    function: names.name(fname),
                    args,
                }
            }
            ["while", it, "!=", "end", "{"] => {
                self.stack.push(Frame::While {
                    cond: Cond::IterNotEnd {
                        iter: names.name(it),
                    },
                    start: self.stmts.len(),
                });
                return Ok(());
            }
            ["while", "?", "{"] => {
                self.stack.push(Frame::While {
                    cond: Cond::Unknown,
                    start: self.stmts.len(),
                });
                return Ok(());
            }
            ["if", "{"] => {
                self.stack.push(Frame::IfThen {
                    start: self.stmts.len(),
                });
                return Ok(());
            }
            ["}", "else", "{"] => {
                match self.stack.pop() {
                    Some(Frame::IfThen { start }) => self.stack.push(Frame::IfElse {
                        then_branch: self.stmts.split_off(start),
                        start,
                    }),
                    _ => return err("`} else {` without a matching `if {`"),
                }
                return Ok(());
            }
            ["}"] => match self.stack.pop() {
                Some(Frame::While { cond, start }) => Stmt::While {
                    cond,
                    body: self.stmts.split_off(start),
                },
                Some(Frame::IfThen { start }) => Stmt::If {
                    then_branch: self.stmts.split_off(start),
                    else_branch: Vec::new(),
                },
                Some(Frame::IfElse { then_branch, start }) => Stmt::If {
                    then_branch,
                    else_branch: self.stmts.split_off(start),
                },
                Some(Frame::Fn {
                    name: fname,
                    params,
                    start,
                }) => {
                    self.functions.push(FunctionDef {
                        name: fname,
                        params,
                        body: self.stmts.split_off(start),
                    });
                    return Ok(());
                }
                None => return err("unmatched `}`"),
            },
            _ => return err(format!("cannot parse `{line}`")),
        };
        self.stmts.push(stmt);
        Ok(())
    }

    fn finish(self, name: &str) -> Result<Program, ParseError> {
        if !self.stack.is_empty() {
            return Err(ParseError {
                line: self.src.lines().count(),
                message: "unclosed block at end of input".into(),
            });
        }
        Ok(Program::with_functions(name, self.stmts, self.functions))
    }
}

/// A top-level `fn … {` … `}` block found by [`scan`]: source bytes
/// `start..end` (from the start of the `fn` line through the end of the
/// closing line's text), and `next`, where the line after it starts.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: usize,
    end: usize,
    next: usize,
}

/// The first `{` or `}` in `b` at or after `from`, eight bytes a step.
fn find_brace(b: &[u8], from: usize) -> Option<usize> {
    const LO: u64 = u64::from_le_bytes([1; 8]);
    const HI: u64 = u64::from_le_bytes([0x80; 8]);
    let mut i = from;
    while let Some(chunk) = b.get(i..i + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        let (x, y) = (w ^ (LO * u64::from(b'{')), w ^ (LO * u64::from(b'}')));
        // A zero byte of `x` or `y` is a brace; the lowest flagged byte
        // is always a real one.
        let m = (x.wrapping_sub(LO) & !x | y.wrapping_sub(LO) & !y) & HI;
        if m != 0 {
            return Some(i + (m.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    b.get(i..)?
        .iter()
        .position(|&c| c == b'{' || c == b'}')
        .map(|k| i + k)
}

/// Split `src` at its top-level function blocks with a line scan that
/// tracks block depth the way the parser does. Only lines holding a
/// brace can change the depth; on those, after the comment is cut and
/// the line trimmed, `}` alone closes a block, a line whose last token
/// is `{` opens one when its first token is `fn`, `while` or `if`, and
/// `} else {` (first token `}`) does both. Every other line leaves the
/// depth alone or is a parse error. Returns no blocks when `src` has
/// none (at once when it does not contain `fn`), when it is not ASCII
/// (Unicode whitespace would need the Unicode tokenizer), or when its
/// blocks do not balance — the parser then sees the whole text line by
/// line.
fn scan(src: &str) -> Vec<Span> {
    let b = src.as_bytes();
    let mut spans: Vec<Span> = Vec::new();
    if !b.is_ascii() || !src.contains("fn") {
        return spans;
    }
    let mut depth = 0usize;
    let mut open: Option<usize> = None; // start byte of the open block
    let mut pos = 0; // a line start
    while let Some(brace) = find_brace(b, pos) {
        let start = b[pos..brace]
            .iter()
            .rposition(|&c| c == b'\n')
            .map_or(pos, |k| pos + k + 1);
        let eol = b[brace..]
            .iter()
            .position(|&c| c == b'\n')
            .map_or(b.len(), |k| brace + k);
        let text = ascii_content(&src[start..eol]);
        if text == "}" {
            let Some(d) = depth.checked_sub(1) else {
                return Vec::new(); // unmatched `}`
            };
            depth = d;
            if let (0, Some(start)) = (depth, open) {
                open = None;
                if spans.is_empty() {
                    // Room for blocks of 64 bytes and up: no regrowth.
                    spans.reserve(b.len() / 64);
                }
                // `str::lines` drops the `\r` of a `\r\n`.
                let crlf = eol < b.len() && b[eol - 1] == b'\r';
                spans.push(Span {
                    start,
                    end: eol - usize::from(crlf),
                    next: (eol + 1).min(b.len()),
                });
            }
        } else if opens(text) {
            let first = text.as_bytes().iter().position(|&c| is_ascii_ws(c));
            match &text[..first.unwrap_or(text.len())] {
                "fn" => {
                    if depth == 0 {
                        open = Some(start);
                    }
                    depth += 1;
                }
                "while" | "if" => depth += 1,
                _ => {}
            }
        }
        pos = eol + 1;
    }
    if depth != 0 {
        return Vec::new(); // unclosed block
    }
    spans
}

/// Is the last token of `text` (trimmed, ASCII) a lone `{`?
fn opens(text: &str) -> bool {
    let t = text.as_bytes();
    t.last() == Some(&b'{') && (t.len() == 1 || is_ascii_ws(t[t.len() - 2]))
}

/// What the block table holds for one scanned block.
enum Found {
    /// The definition parsed from this exact text.
    Hit(Arc<Definition>),
    /// Not held, but seen before: parse it, then admit it.
    Admit,
    /// First sighting (now recorded): parse it only.
    Miss,
}

/// Sightings remembered: a block's hash waits in a ring this long after
/// its first sighting, and a second sighting meanwhile admits the block.
const SIGHTINGS: usize = 4096;

struct TableEntry {
    text: Box<str>,
    def: Arc<Definition>,
    bytes: usize,
}

#[derive(Default)]
struct TableInner {
    map: FnvMap<u64, TableEntry>,
    /// Admission order, for FIFO eviction.
    order: VecDeque<u64>,
    bytes: usize,
    /// Hashes of the last [`SIGHTINGS`] blocks seen and not held, oldest
    /// first, and the same hashes as a set (both allocated, full size,
    /// for the first program with a function).
    ring: VecDeque<u64>,
    seen: FnvSet<u64>,
}

impl TableInner {
    /// Record a sighting of a block not held; true if it was seen before.
    fn sighted(&mut self, h: u64) -> bool {
        if self.seen.contains(&h) {
            return true;
        }
        if self.ring.capacity() == 0 {
            self.ring = VecDeque::with_capacity(SIGHTINGS);
            self.seen = FnvSet::with_capacity_and_hasher(SIGHTINGS, Default::default());
        }
        if self.ring.len() == SIGHTINGS {
            if let Some(old) = self.ring.pop_front() {
                self.seen.remove(&old);
            }
        }
        self.ring.push_back(h);
        self.seen.insert(h);
        false
    }
}

struct TableMetrics {
    hit: &'static gp_telemetry::Counter,
    miss: &'static gp_telemetry::Counter,
    admit: &'static gp_telemetry::Counter,
    evict: &'static gp_telemetry::Counter,
    collision: &'static gp_telemetry::Counter,
}

fn table_metrics() -> &'static TableMetrics {
    static METRICS: OnceLock<TableMetrics> = OnceLock::new();
    METRICS.get_or_init(|| TableMetrics {
        hit: gp_telemetry::counter("checker.block.hit"),
        miss: gp_telemetry::counter("checker.block.miss"),
        admit: gp_telemetry::counter("checker.block.admit"),
        evict: gp_telemetry::counter("checker.block.evict"),
        collision: gp_telemetry::counter("checker.block.collision"),
    })
}

/// Parsed function blocks by text, bounded in bytes: the parser takes a
/// top-level `fn` block it has parsed before from here instead of
/// parsing it again, sharing one definition (with its content digests)
/// among every program that holds the block.
///
/// Entries are filed under a hash of the block text and every hit
/// compares the text itself, so a hash collision is a miss. A block is
/// admitted on its second sighting; the first records only its hash, so
/// text seen once (an edited function) never displaces anything.
struct BlockTable {
    inner: Mutex<TableInner>,
    max_bytes: usize,
    hash: fn(&str) -> u64,
}

/// The process-wide table's bound on the bytes of blocks it holds.
const TABLE_BYTES: usize = 8 << 20;

impl BlockTable {
    /// An empty table holding at most about `max_bytes` of blocks, filed
    /// under `hash` (tests shrink the bound and force collisions).
    fn new(max_bytes: usize, hash: fn(&str) -> u64) -> BlockTable {
        BlockTable {
            inner: Mutex::new(TableInner::default()),
            max_bytes,
            hash,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Parse a program, taking the function blocks this table holds
    /// instead of parsing them. The result (or error) is the one a
    /// line-by-line parse gives.
    fn parse(&self, name: &str, src: &str) -> Result<Program, ParseError> {
        let spans = scan(src);
        if spans.is_empty() {
            return parse_lines(name, src);
        }
        let hashes: Vec<u64> = spans
            .iter()
            .map(|s| (self.hash)(&src[s.start..s.end]))
            .collect();
        let found = self.lookup(src, &spans, &hashes);
        let mut p = Parser::new(src, spans.len());
        let mut admit: Vec<(usize, Arc<Definition>)> = Vec::new();
        let mut at = 0;
        for (i, (span, found)) in spans.iter().zip(&found).enumerate() {
            p.lines(at, span.start)?;
            match found {
                Found::Hit(f) if p.stack.is_empty() => p.shared(span.start, f)?,
                _ => {
                    let (top, nf, ns) = (p.stack.is_empty(), p.functions.len(), p.stmts.len());
                    p.lines(span.start, span.next)?;
                    // The block's lines, parsed from the top level, made
                    // exactly one definition and nothing else: that
                    // definition is a function of the text alone.
                    let alone = top
                        && p.stack.is_empty()
                        && p.functions.len() == nf + 1
                        && p.stmts.len() == ns;
                    if alone && matches!(found, Found::Admit) {
                        admit.extend(p.functions.share_last().map(|f| (i, f)));
                    }
                }
            }
            at = span.next;
        }
        p.lines(at, src.len())?;
        let program = p.finish(name)?;
        if !admit.is_empty() {
            self.admit(src, &spans, &hashes, admit);
        }
        Ok(program)
    }

    /// Look every block up under one lock, recording first sightings.
    fn lookup(&self, src: &str, spans: &[Span], hashes: &[u64]) -> Vec<Found> {
        let m = table_metrics();
        let mut inner = self.lock();
        spans
            .iter()
            .zip(hashes)
            .map(|(s, &h)| {
                if let Some(e) = inner.map.get(&h) {
                    if *e.text == src[s.start..s.end] {
                        m.hit.incr();
                        return Found::Hit(Arc::clone(&e.def));
                    }
                    m.collision.incr();
                }
                m.miss.incr();
                if inner.sighted(h) {
                    Found::Admit
                } else {
                    Found::Miss
                }
            })
            .collect()
    }

    /// Hold the definitions parsed from blocks seen twice, evicting the
    /// oldest beyond the byte bound. A block filed under a colliding hash
    /// replaces the entry there.
    fn admit(
        &self,
        src: &str,
        spans: &[Span],
        hashes: &[u64],
        admit: Vec<(usize, Arc<Definition>)>,
    ) {
        let m = table_metrics();
        let mut inner = self.lock();
        for (i, def) in admit {
            let (s, h) = (&spans[i], hashes[i]);
            let text: Box<str> = src[s.start..s.end].into();
            let bytes = text.len()
                + std::mem::size_of::<TableEntry>()
                + std::mem::size_of::<Definition>()
                + stmt_count(&def.def().body) * std::mem::size_of::<Stmt>();
            m.admit.incr();
            inner.bytes += bytes;
            match inner.map.insert(h, TableEntry { text, def, bytes }) {
                Some(old) => inner.bytes -= old.bytes,
                None => inner.order.push_back(h),
            }
            while inner.bytes > self.max_bytes {
                let Some(old) = inner.order.pop_front() else {
                    break;
                };
                if let Some(e) = inner.map.remove(&old) {
                    inner.bytes -= e.bytes;
                    m.evict.incr();
                }
            }
        }
    }
}

/// Parse `src` line by line, with no block table.
fn parse_lines(name: &str, src: &str) -> Result<Program, ParseError> {
    let mut p = Parser::new(src, 0);
    p.lines(0, src.len())?;
    p.finish(name)
}

/// Statements in `stmts`, nested blocks included.
fn stmt_count(stmts: &[Stmt]) -> usize {
    stmts
        .iter()
        .map(|s| {
            1 + match s {
                Stmt::While { body, .. } => stmt_count(body),
                Stmt::If {
                    then_branch,
                    else_branch,
                } => stmt_count(then_branch) + stmt_count(else_branch),
                _ => 0,
            }
        })
        .sum()
}

/// Parse a program from source text, taking the function blocks parsed
/// before from the process-wide block table.
pub fn parse(name: &str, src: &str) -> Result<Program, ParseError> {
    static TABLE: OnceLock<BlockTable> = OnceLock::new();
    TABLE
        .get_or_init(|| BlockTable::new(TABLE_BYTES, hash_str))
        .parse(name, src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, DiagnosticCode, MSG_SINGULAR, MSG_SORTED_LINEAR};
    use crate::corpus::fig4_program;

    const FIG4: &str = r"
        # Fig. 4: extract-and-erase of failing grades (buggy)
        container students list
        container failures list
        iter iter = begin students
        while iter != end {
            deref iter            # if (fgrade(*iter))
            if {
                deref iter        # failures.push_back(*iter)
                push_back failures
                erase students iter
            } else {
                advance iter
            }
        }
    ";

    #[test]
    fn parsed_fig4_matches_the_builder_version() {
        let parsed = parse("fig4-buggy", FIG4).expect("parses");
        assert_eq!(parsed, fig4_program(false));
    }

    #[test]
    fn parsed_fig4_produces_the_paper_diagnostic() {
        let parsed = parse("fig4-buggy", FIG4).unwrap();
        let diags = analyze(&parsed);
        assert!(diags.iter().any(|d| d.message == MSG_SINGULAR));
    }

    #[test]
    fn fixed_source_with_capture_arrow_is_clean() {
        let fixed = FIG4.replace("erase students iter", "erase students iter -> iter");
        let parsed = parse("fig4-fixed", &fixed).unwrap();
        assert_eq!(parsed, fig4_program(true));
        let diags = analyze(&parsed);
        assert!(!diags
            .iter()
            .any(|d| d.code == DiagnosticCode::DerefSingular));
    }

    #[test]
    fn sorted_linear_search_from_source() {
        let src = r"
            container v vector
            call sort v
            call find v -> i
        ";
        let diags = analyze(&parse("p", src).unwrap());
        assert!(diags.iter().any(|d| d.message == MSG_SORTED_LINEAR));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse("p", "container v hashmap").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("hashmap"));

        let e = parse("p", "container v vector\nfrobnicate v").unwrap_err();
        assert_eq!(e.line, 2);

        let e = parse("p", "while x != end {\n  deref x").unwrap_err();
        assert!(e.message.contains("unclosed"));

        let e = parse("p", "}").unwrap_err();
        assert!(e.message.contains("unmatched"));

        let e = parse("p", "} else {").unwrap_err();
        assert!(e.message.contains("without a matching"));
    }

    #[test]
    fn clear_parses_and_comments_are_ignored() {
        let src = "container v vector # trailing comment\nclear v";
        let p = parse("p", src).unwrap();
        assert_eq!(p.stmts.len(), 2);
        assert!(matches!(p.stmts[1], Stmt::Clear { .. }));
    }

    #[test]
    fn nested_blocks_parse() {
        let src = r"
            container v list
            iter it = begin v
            while it != end {
                if {
                    while ? {
                        advance it
                    }
                } else {
                    deref it
                }
                advance it
            }
        ";
        let p = parse("nested", src).unwrap();
        assert_eq!(p.stmts.len(), 3);
        let _ = analyze(&p); // must not panic
    }

    #[test]
    fn unchanged_blocks_are_taken_from_the_table() {
        let table = BlockTable::new(1 << 20, hash_str);
        let held = || table.lock().map.len();
        // Other tests hit the process-wide table meanwhile: only a rise
        // of at least the expected hits is certain.
        let hits = || table_metrics().hit.get();
        // Nested blocks, `} else {` and braces in comments must not hide
        // a block's end from the scan.
        let src = "fn leaf(A, B) { # }\n    push_back B\n    iter i = begin A\n\
                   \x20   while i != end {\n        if { # {\n            deref i\n\
                   \x20       } else {\n            advance i\n        }\n    }\n}\n\
                   fn mid(A, B) {\r\n    invoke leaf(A, B)\r\n}\r\n\
                   container V vector\ninvoke mid(V, V)\n";
        let plain = parse_lines("p", src).expect("parses");
        assert_eq!(table.parse("p", src).as_ref(), Ok(&plain));
        assert_eq!(held(), 0, "a first sighting admits nothing");
        assert_eq!(table.parse("p", src).as_ref(), Ok(&plain));
        assert_eq!(held(), 2, "the second sighting admits both blocks");
        let h0 = hits();
        assert_eq!(table.parse("p", src).as_ref(), Ok(&plain));
        assert!(hits() >= h0 + 2, "the third parse hits both blocks");
        // Edit one block: the other still hits, and the edit parses fresh.
        let edited = src.replace("push_back B", "clear B");
        let h0 = hits();
        assert_eq!(table.parse("p", &edited), parse_lines("p", &edited));
        assert!(hits() > h0);
        assert_eq!(held(), 2, "a first sighting admits nothing");
    }

    #[test]
    fn a_forced_block_hash_collision_returns_the_right_block() {
        // Every block files under one hash, so every lookup of a block
        // other than the one held collides.
        let table = BlockTable::new(1 << 20, |_| 42);
        let a = "fn a(X) {\n    push_back X\n}\n";
        let b = "fn b(Y) {\n    clear Y\n}\n";
        let both = format!("{a}{b}container V vector\ninvoke a(V)\ninvoke b(V)\n");
        let only_b = format!("{b}container V vector\ninvoke b(V)\n");
        for src in [&both, &both, &both, &only_b, &only_b, &both, &only_b] {
            assert_eq!(table.parse("p", src), parse_lines("p", src), "{src:?}");
            assert!(table.lock().map.len() <= 1, "one hash holds one block");
        }
    }

    #[test]
    fn a_small_table_evicts_and_still_parses_every_program_the_same() {
        use rand::{Rng, SeedableRng};
        const BODIES: [&str; 5] = [
            "    push_back A\n",
            "    iter i = begin A\n    deref i\n",
            "    call sort A\n    call find A -> j\n",
            "    while ? {\n        clear A\n    } # }\n",
            "    if {\n        push_back A\n    } else {\n        clear A\n    }\n",
        ];
        let table = BlockTable::new(2 << 10, hash_str);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut ever_held: FnvSet<u64> = FnvSet::default();
        let mut evicted = false;
        for _ in 0..200 {
            let mut src = String::new();
            let mut main = String::from("container V vector\n");
            for f in 0..rng.gen_range(1..12) {
                let body = BODIES[rng.gen_range(0..BODIES.len())];
                src.push_str(&format!("fn f{f}(A) {{\n{body}}}\n"));
                main.push_str(&format!("invoke f{f}(V)\n"));
            }
            src.push_str(&main);
            let plain = parse_lines("p", &src);
            for _ in 0..3 {
                assert_eq!(table.parse("p", &src), plain, "{src:?}");
            }
            let inner = table.lock();
            assert!(inner.bytes <= table.max_bytes);
            assert_eq!(inner.map.len(), inner.order.len());
            evicted |= ever_held.iter().any(|h| !inner.map.contains_key(h));
            ever_held.extend(inner.map.keys());
        }
        assert!(evicted, "the table filled and evicted");
    }
}
