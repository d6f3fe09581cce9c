//! Incremental lint ≡ cold lint, over random edit sequences.
//!
//! `gp_checker::parse::parse` takes every top-level `fn` block it has
//! seen twice from a process-wide table instead of parsing it again, and
//! `SummaryCache` keeps the instance graph of the last few call
//! structures. Neither may change an answer. Each step here edits a
//! program (insert, delete, move, rename, break and repair a function,
//! change its arity, edit a body, swap two bodies under fixed names) and
//! re-renders it. The new text is parsed three times, so the table's
//! admission and hit paths both run, and every parse must equal the
//! frozen seed parser's result (the same `Program` or the same
//! `ParseError`). The analysis against one `SummaryCache` shared by the
//! whole sequence must equal a cold, cacheless analysis.
//!
//! The rendering mixes in what a line scan gets wrong: VT and FF
//! whitespace, tabs, CRLF line ends, and comments holding `{` and `}`.
//! The table's own forced-collision and eviction checks are unit tests
//! of `gp_checker::parse`.

use gp_bench::oracle::parse_seed;
use gp_checker::parse::parse;
use gp_checker::{analyze_program, analyze_program_with_cache, CheckConfig, SummaryCache};
use proptest::prelude::*;
use proptest::Strategy;
use rand::rngs::StdRng;
use rand::Rng;

/// Whitespace between tokens and before statements.
const SPACES: [&str; 6] = [" ", "  ", "\t", "\x0B", "\x0C", " \x0C "];
/// Comments appended to some lines, braces included.
const COMMENTS: [&str; 5] = ["# {", "# }", "# } else {", "#{ x }", "# fn f() {"];

/// Statements a body draws from; `A` and `B` are the parameters.
const STMTS: [&str; 10] = [
    "iter it = begin A",
    "push_back B",
    "deref it",
    "advance it",
    "call sort A",
    "call find A -> it",
    "clear B",
    "container t vector",
    "push_back t",
    "erase A it",
];

/// One statement line (or block of lines) of a body.
#[derive(Clone, Debug)]
enum Line {
    Stmt(&'static str),
    /// `invoke NAME(A, B)`.
    Call(String),
    /// `while it != end { deref it advance it }`.
    Loop,
    /// `if { push_back B } else { clear A }`.
    Branch,
}

/// How a function renders: fixed when it is created, so an unedited
/// function renders to the same text at every step.
#[derive(Clone, Debug)]
struct Style {
    indent: &'static str,
    sep: &'static str,
    comment: Option<&'static str>,
    crlf: bool,
}

#[derive(Clone, Debug)]
struct Func {
    name: String,
    /// A third parameter `C`: every call (all pass two arguments) is
    /// then an arity error, which no call-graph edge records.
    wide: bool,
    body: Vec<Line>,
    style: Style,
    /// A break applied to the function, undone by `repair`.
    broken: Option<Break>,
}

#[derive(Clone, Copy, Debug)]
enum Break {
    /// Drop the closing `}`: the block never closes.
    Unclosed,
    /// A line no statement form matches.
    Junk,
    /// `fn name(A, A)`: a duplicate parameter.
    DupParam,
}

#[derive(Clone, Debug)]
struct Model {
    funcs: Vec<Func>,
    fresh: usize,
}

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

fn style(rng: &mut StdRng) -> Style {
    Style {
        indent: pick(rng, &SPACES),
        sep: if rng.gen_bool(0.7) {
            " "
        } else {
            pick(rng, &SPACES)
        },
        comment: rng.gen_bool(0.3).then(|| pick(rng, &COMMENTS)),
        crlf: rng.gen_bool(0.2),
    }
}

fn body(rng: &mut StdRng, callees: &[String]) -> Vec<Line> {
    (0..rng.gen_range(1usize..6))
        .map(|_| match rng.gen_range(0u32..10) {
            0 if !callees.is_empty() => {
                Line::Call(callees[rng.gen_range(0..callees.len())].clone())
            }
            1 => Line::Loop,
            2 => Line::Branch,
            _ => Line::Stmt(pick(rng, &STMTS)),
        })
        .collect()
}

fn new_func(rng: &mut StdRng, m: &mut Model) -> Func {
    m.fresh += 1;
    let callees: Vec<String> = m.funcs.iter().map(|f| f.name.clone()).collect();
    Func {
        name: format!("f{}", m.fresh),
        wide: rng.gen_bool(0.1),
        body: body(rng, &callees),
        style: style(rng),
        broken: None,
    }
}

fn render_func(f: &Func, out: &mut String) {
    let s = &f.style;
    let eol = if s.crlf { "\r\n" } else { "\n" };
    let line = |depth: usize, text: &str, out: &mut String| {
        for _ in 0..depth {
            out.push_str(s.indent);
        }
        out.push_str(&text.replace(' ', s.sep));
        if let Some(c) = s.comment {
            out.push(' ');
            out.push_str(c);
        }
        out.push_str(eol);
    };
    let params = match (f.broken, f.wide) {
        (Some(Break::DupParam), _) => "A, A",
        (_, true) => "A, B, C",
        _ => "A, B",
    };
    line(0, &format!("fn {}({params}) {{", f.name), out);
    for l in &f.body {
        match l {
            Line::Stmt(t) => line(1, t, out),
            Line::Call(g) => line(1, &format!("invoke {g}(A, B)"), out),
            Line::Loop => {
                line(1, "while it != end {", out);
                line(2, "deref it", out);
                line(2, "advance it", out);
                line(1, "}", out);
            }
            Line::Branch => {
                line(1, "if {", out);
                line(2, "push_back B", out);
                line(1, "} else {", out);
                line(2, "clear A", out);
                line(1, "}", out);
            }
        }
    }
    if let Some(Break::Junk) = f.broken {
        line(1, "frobnicate A", out);
    }
    if !matches!(f.broken, Some(Break::Unclosed)) {
        line(0, "}", out);
    }
}

fn render(m: &Model) -> String {
    let mut out = String::new();
    for f in &m.funcs {
        render_func(f, &mut out);
    }
    out.push_str("container V vector\ncontainer W list\niter I = begin V\n");
    for f in &m.funcs {
        out.push_str(&format!("invoke {}(V, W)\n", f.name));
    }
    out.push_str("deref I\n");
    out
}

/// Apply one random edit.
fn edit(rng: &mut StdRng, m: &mut Model) {
    let n = m.funcs.len();
    match rng.gen_range(0u32..10) {
        0 | 1 => {
            let f = new_func(rng, m);
            m.funcs.insert(rng.gen_range(0..=n), f);
        }
        2 if n > 0 => {
            m.funcs.remove(rng.gen_range(0..n));
        }
        3 if n > 1 => {
            let f = m.funcs.remove(rng.gen_range(0..n));
            m.funcs.insert(rng.gen_range(0..n), f);
        }
        4 if n > 0 => {
            // Rename: callers keep the old name (a bad invoke), or the
            // new name repeats another function's (a duplicate).
            let i = rng.gen_range(0..n);
            m.funcs[i].name = if rng.gen_bool(0.2) {
                m.funcs[rng.gen_range(0..n)].name.clone()
            } else {
                m.fresh += 1;
                format!("r{}", m.fresh)
            };
        }
        5 if n > 0 => {
            let i = rng.gen_range(0..n);
            m.funcs[i].broken = Some(match rng.gen_range(0u32..3) {
                0 => Break::Unclosed,
                1 => Break::Junk,
                _ => Break::DupParam,
            });
        }
        6 => {
            for f in &mut m.funcs {
                f.broken = None;
            }
        }
        7 if n > 0 => {
            let i = rng.gen_range(0..n);
            m.funcs[i].wide = !m.funcs[i].wide;
        }
        8 if n > 1 => {
            // Swap two bodies; every name stays where it was.
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let bi = std::mem::take(&mut m.funcs[i].body);
            m.funcs[i].body = std::mem::replace(&mut m.funcs[j].body, bi);
        }
        _ if n > 0 => {
            let i = rng.gen_range(0..n);
            let callees: Vec<String> = m.funcs[..i].iter().map(|f| f.name.clone()).collect();
            let extra = body(rng, &callees);
            let f = &mut m.funcs[i];
            if rng.gen_bool(0.3) && f.body.len() > 1 {
                f.body.pop();
            } else {
                f.body.extend(extra);
            }
        }
        _ => {}
    }
}

/// A starting model and the seed of its edit sequence.
struct Sequences;

impl Strategy for Sequences {
    type Value = (Model, u64);

    fn sample(&self, rng: &mut StdRng) -> (Model, u64) {
        let mut m = Model {
            funcs: Vec::new(),
            fresh: 0,
        };
        for _ in 0..rng.gen_range(0usize..5) {
            let f = new_func(rng, &mut m);
            m.funcs.push(f);
        }
        (m, rng.gen_range(0u64..u64::MAX))
    }
}

/// Every parse of `src` (three, so the table admits its blocks and then
/// hits them) equals the seed parser's; the analysis with `cache` equals
/// the cacheless one.
fn check_step(src: &str, cache: &SummaryCache, cfg: &CheckConfig) {
    let seed = parse_seed("p", src);
    let mut last = None;
    for _ in 0..3 {
        let p = parse("p", src);
        assert_eq!(p, seed, "{src:?}");
        last = Some(p);
    }
    if let Some(Ok(p)) = last {
        assert_eq!(
            analyze_program_with_cache(&p, cfg, cache),
            analyze_program(&p, cfg),
            "{src:?}"
        );
    }
}

proptest! {
    #[test]
    fn edit_sequences_parse_and_analyze_as_cold(case in Sequences) {
        use rand::SeedableRng;
        let (mut model, seed) = case;
        let mut rng = StdRng::seed_from_u64(seed);
        let cache = SummaryCache::new(4096);
        for step in 0..12 {
            let cfg = CheckConfig {
                parallel: step % 2 == 1,
                ..CheckConfig::default()
            };
            check_step(&render(&model), &cache, &cfg);
            edit(&mut rng, &mut model);
        }
    }
}

#[test]
fn the_sequences_reach_both_outcomes() {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(11);
    let (mut ok, mut failed) = (0, 0);
    for _ in 0..50 {
        let (mut model, seed) = Sequences.sample(&mut rng);
        let mut steps = StdRng::seed_from_u64(seed);
        for _ in 0..12 {
            match parse_seed("p", &render(&model)) {
                Ok(p) if !p.functions.is_empty() => ok += 1,
                Ok(_) => {}
                Err(_) => failed += 1,
            }
            edit(&mut steps, &mut model);
        }
    }
    assert!(ok > 100 && failed > 100, "ok {ok}, failed {failed}");
}
