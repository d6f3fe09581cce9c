//! The checker's text front end against its frozen seed version.
//!
//! `gp_checker::parse::parse` interns identifiers and tokenizes each line
//! in place; `gp_bench::oracle::parse_seed` is the parser before that
//! change, copying every token. On every source text both must return
//! the same `Program` or the same `ParseError` (line and message). The
//! generator mixes well-formed programs with the inputs a tokenizer
//! rewrite gets wrong: comments (holding braces and `#`), CRLF line ends,
//! Unicode whitespace between tokens, over-long lines, and malformed
//! `fn`/`invoke` headers.

use gp_bench::oracle::parse_seed;
use gp_checker::parse::parse;
use proptest::prelude::*;
use proptest::Strategy;
use rand::rngs::StdRng;
use rand::Rng;

/// Identifiers drawn from a small pool, so names repeat (interning) and
/// declarations collide (duplicate functions and parameters).
const NAMES: [&str; 9] = ["a", "b", "it", "C", "x1", "ünï", "a:b", "f", "g"];
/// Whitespace that `split_whitespace` and `trim` accept: ASCII and not.
const SPACES: [&str; 7] = [" ", "  ", "\t", " \t ", "\u{3000}", "\u{a0}", "\u{2003}"];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

fn name(rng: &mut StdRng) -> &'static str {
    pick(rng, &NAMES)
}

/// `(a, b)`-style text with the occasional malformed piece.
fn name_list(rng: &mut StdRng) -> String {
    let n = rng.gen_range(0usize..4);
    let mut pieces: Vec<String> = (0..n).map(|_| name(rng).to_string()).collect();
    match rng.gen_range(0u32..12) {
        0 => pieces.push(String::new()),                          // `(a,)`
        1 => pieces.push(format!("{} {}", name(rng), name(rng))), // `(a b)`
        2 => pieces.push("  ".into()),                            // `(a,  )`
        _ => {}
    }
    let sep = pick(rng, &[",", ", ", " , ", ",\u{3000}"]);
    format!("({})", pieces.join(sep))
}

/// One statement line's tokens (before whitespace is chosen).
fn line_tokens(rng: &mut StdRng) -> Vec<String> {
    let t = |s: &str| s.to_string();
    match rng.gen_range(0u32..22) {
        0 => vec![
            t("container"),
            t(name(rng)),
            t(pick(rng, &["vector", "list", "deque", "hashmap"])),
        ],
        1 => vec![
            t("iter"),
            t(name(rng)),
            t("="),
            t(pick(rng, &["begin", "end", "search", "middle"])),
            t(name(rng)),
        ],
        2 => vec![t(pick(rng, &["advance", "deref"])), t(name(rng))],
        3 => vec![t("erase"), t(name(rng)), t(name(rng))],
        4 => vec![
            t("erase"),
            t(name(rng)),
            t(name(rng)),
            t("->"),
            t(name(rng)),
        ],
        5 => vec![t("insert"), t(name(rng)), t(name(rng))],
        6 => vec![t(pick(rng, &["push_back", "clear"])), t(name(rng))],
        7 => vec![t("assign"), t(name(rng)), t(name(rng))],
        8 => {
            let alg = pick(
                rng,
                &[
                    "sort",
                    "find",
                    "lower_bound",
                    "binary_search",
                    "unique",
                    "max_element",
                    "nope",
                ],
            );
            let mut v = vec![t("call"), t(alg), t(name(rng))];
            if rng.gen_bool(0.5) {
                v.extend([t("->"), t(name(rng))]);
            }
            v
        }
        9 | 10 => {
            // `invoke f(a, b)`, glued or spaced, sometimes broken.
            let call = format!("{}{}", name(rng), name_list(rng));
            match rng.gen_range(0u32..8) {
                0 => vec![t("invoke")],
                1 => vec![t("invoke"), t(name(rng)), t("(a")],
                2 => vec![t("invoke"), t("(a)")],
                3 => vec![t("invoke"), t(name(rng)), t(name(rng)), t("()")],
                _ => {
                    let mut v = vec![t("invoke")];
                    v.extend(call.split(' ').map(t));
                    v
                }
            }
        }
        11 | 12 => {
            let header = format!("{}{}", name(rng), name_list(rng));
            let mut v = vec![t("fn")];
            match rng.gen_range(0u32..6) {
                0 => {}                                // `fn {`
                1 => v.extend([t(name(rng)), t("a")]), // `fn f a {`
                _ => v.extend(header.split(' ').map(t)),
            }
            v.push(t("{"));
            v
        }
        13 | 14 => vec![t("while"), t(name(rng)), t("!="), t("end"), t("{")],
        15 => vec![t("while"), t("?"), t("{")],
        16 | 17 => vec![t("if"), t("{")],
        18 => vec![t("}"), t("else"), t("{")],
        19 | 20 => vec![t("}")],
        // Over-long lines: more tokens than any fixed shape.
        _ => {
            let head = pick(rng, &["container", "invoke", "fn", "deref", "while"]);
            let mut v = vec![t(head)];
            let n = rng.gen_range(5usize..40);
            v.extend((0..n).map(|_| t(name(rng))));
            if rng.gen_bool(0.5) {
                v.push(t("{"));
            }
            v
        }
    }
}

/// A whole source text.
struct Source;

impl Strategy for Source {
    type Value = String;

    fn sample(&self, rng: &mut StdRng) -> String {
        let crlf = rng.gen_bool(0.3);
        let n = rng.gen_range(0usize..30);
        let mut src = String::new();
        for _ in 0..n {
            let line = match rng.gen_range(0u32..10) {
                0 => String::new(),
                1 => format!("# comment {{ with }} braces # and {}", name(rng)),
                _ => {
                    let toks = line_tokens(rng);
                    let mut line = String::new();
                    if rng.gen_bool(0.3) {
                        line.push_str(pick(rng, &SPACES)); // indentation
                    }
                    for (i, tok) in toks.iter().enumerate() {
                        if i > 0 {
                            line.push_str(pick(rng, &SPACES));
                        }
                        line.push_str(tok);
                    }
                    if rng.gen_bool(0.2) {
                        line.push_str(pick(rng, &SPACES));
                        line.push_str("# trailing } comment");
                    }
                    line
                }
            };
            src.push_str(&line);
            src.push_str(if crlf { "\r\n" } else { "\n" });
        }
        if rng.gen_bool(0.2) {
            src.pop(); // no final newline
        }
        src
    }
}

/// Well-formed programs: balanced blocks, functions at the top level,
/// unique function names, so the comparison covers successful parses and
/// not only the first error.
struct Program;

impl Strategy for Program {
    type Value = String;

    fn sample(&self, rng: &mut StdRng) -> String {
        let mut src = String::new();
        for f in 0..rng.gen_range(0usize..4) {
            src.push_str(&format!("fn fun{f}(a,{}b) {{\n", pick(rng, &SPACES)));
            body(rng, &mut src, 2);
            src.push_str("}\n");
        }
        body(rng, &mut src, 3);
        src
    }
}

fn body(rng: &mut StdRng, src: &mut String, depth: usize) {
    for _ in 0..rng.gen_range(0usize..8) {
        match rng.gen_range(0u32..6) {
            0 if depth > 0 => {
                src.push_str("while it != end {\n");
                body(rng, src, depth - 1);
                src.push_str("}\n");
            }
            1 if depth > 0 => {
                src.push_str("if {\n");
                body(rng, src, depth - 1);
                if rng.gen_bool(0.5) {
                    src.push_str("} else {\n");
                    body(rng, src, depth - 1);
                }
                src.push_str("}\n");
            }
            2 => src.push_str(&format!("invoke fun0({}, {})\n", name(rng), name(rng))),
            _ => {
                let toks = loop {
                    let toks = line_tokens(rng);
                    let opens = toks.last().is_some_and(|t| t == "{") || toks[0] == "}";
                    if !opens && toks[0] != "invoke" {
                        break toks;
                    }
                };
                src.push_str(&toks.join(pick(rng, &SPACES)));
                src.push('\n');
            }
        }
    }
}

proptest! {
    #[test]
    fn parser_matches_the_seed_parser_on_arbitrary_text(src in Source) {
        prop_assert_eq!(parse("p", &src), parse_seed("p", &src), "{:?}", src);
    }

    #[test]
    fn parser_matches_the_seed_parser_on_well_formed_programs(src in Program) {
        prop_assert_eq!(parse("p", &src), parse_seed("p", &src), "{:?}", src);
    }
}

#[test]
fn the_generators_reach_both_outcomes() {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(7);
    let (mut ok, mut failed) = (0, 0);
    for _ in 0..500 {
        for src in [Source.sample(&mut rng), Program.sample(&mut rng)] {
            match parse("p", &src) {
                Ok(p) if !p.stmts.is_empty() || !p.functions.is_empty() => ok += 1,
                Ok(_) => {}
                Err(_) => failed += 1,
            }
        }
    }
    assert!(ok > 100 && failed > 100, "ok {ok}, failed {failed}");
}
