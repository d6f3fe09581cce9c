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

use crate::ir::{
    first_duplicate, AlgorithmName, Cond, ContainerKind, FunctionDef, Name, NameList, PosExpr,
    Program, Stmt,
};
use std::collections::{HashMap, HashSet};
use std::fmt;

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

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
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
    line: usize,
    rest: &'s str,
    names: &mut Interner<'s>,
) -> Result<(&'s str, NameList), ParseError> {
    let open = match rest.find('(') {
        Some(i) => i,
        None => {
            return err(
                line,
                format!("expected `name(args)`, got `{}`", squash(rest)),
            )
        }
    };
    if !rest.ends_with(')') {
        return err(line, format!("expected closing `)` in `{}`", squash(rest)));
    }
    let name = rest[..open].trim();
    if name.is_empty() || name.contains(char::is_whitespace) {
        return err(line, format!("bad function name in `{}`", squash(rest)));
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
            return err(line, format!("empty argument name in `{}`", squash(rest)));
        }
        if piece.contains(char::is_whitespace) {
            return err(
                line,
                format!("bad argument `{}` in `{}`", squash(piece), squash(rest)),
            );
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

/// Parse a program from source text.
pub fn parse(name: &str, src: &str) -> Result<Program, ParseError> {
    let mut stack: Vec<Frame> = Vec::new();
    // Statements of the top level and of every open block, innermost
    // block last.
    let mut stmts: Vec<Stmt> = Vec::new();
    let mut functions: Vec<FunctionDef> = Vec::new();
    let mut fn_names: HashSet<&str> = HashSet::new();
    let mut names = Interner::default();

    let mut lines = 0;
    for (idx, raw) in src.lines().enumerate() {
        lines = idx + 1;
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut buf = [""; MAX_TOKENS];
        let mut count = 0;
        let mut last = "";
        for t in line.split_whitespace() {
            if count < MAX_TOKENS {
                buf[count] = t;
            }
            count += 1;
            last = t;
        }
        let toks = &buf[..count.min(MAX_TOKENS)];
        let stmt = match toks {
            ["container", name, kind] => {
                let kind = match *kind {
                    "vector" => ContainerKind::Vector,
                    "list" => ContainerKind::List,
                    "deque" => ContainerKind::Deque,
                    other => return err(lineno, format!("unknown container kind `{other}`")),
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
                    other => return err(lineno, format!("unknown position `{other}`")),
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
                    other => return err(lineno, format!("unknown algorithm `{other}`")),
                };
                Stmt::Call {
                    algorithm,
                    container: names.name(c),
                    capture: (toks.len() == 5).then(|| names.name(toks[4])),
                }
            }
            ["fn", ..] if last == "{" => {
                if !stack.is_empty() {
                    return err(lineno, "`fn` definitions must be at the top level");
                }
                // The text between `fn` and the closing `{` token.
                let rest = if count > 2 {
                    &line[offset_in(line, toks[1])..offset_in(line, last)]
                } else {
                    ""
                };
                let (fname, params) = parse_name_args(lineno, rest.trim_end(), &mut names)?;
                if !fn_names.insert(fname) {
                    return err(lineno, format!("duplicate function `{fname}`"));
                }
                if first_duplicate(&params).is_some() {
                    return err(lineno, format!("duplicate parameter name in `fn {fname}`"));
                }
                stack.push(Frame::Fn {
                    name: fname.to_string(),
                    params,
                    start: stmts.len(),
                });
                continue;
            }
            ["invoke", ..] => {
                let rest = if count > 1 {
                    &line[offset_in(line, toks[1])..]
                } else {
                    ""
                };
                let (fname, args) = parse_name_args(lineno, rest, &mut names)?;
                Stmt::Invoke {
                    function: names.name(fname),
                    args,
                }
            }
            ["while", it, "!=", "end", "{"] => {
                stack.push(Frame::While {
                    cond: Cond::IterNotEnd {
                        iter: names.name(it),
                    },
                    start: stmts.len(),
                });
                continue;
            }
            ["while", "?", "{"] => {
                stack.push(Frame::While {
                    cond: Cond::Unknown,
                    start: stmts.len(),
                });
                continue;
            }
            ["if", "{"] => {
                stack.push(Frame::IfThen { start: stmts.len() });
                continue;
            }
            ["}", "else", "{"] => {
                match stack.pop() {
                    Some(Frame::IfThen { start }) => stack.push(Frame::IfElse {
                        then_branch: stmts.split_off(start),
                        start,
                    }),
                    _ => return err(lineno, "`} else {` without a matching `if {`"),
                }
                continue;
            }
            ["}"] => match stack.pop() {
                Some(Frame::While { cond, start }) => Stmt::While {
                    cond,
                    body: stmts.split_off(start),
                },
                Some(Frame::IfThen { start }) => Stmt::If {
                    then_branch: stmts.split_off(start),
                    else_branch: Vec::new(),
                },
                Some(Frame::IfElse { then_branch, start }) => Stmt::If {
                    then_branch,
                    else_branch: stmts.split_off(start),
                },
                Some(Frame::Fn {
                    name: fname,
                    params,
                    start,
                }) => {
                    functions.push(FunctionDef {
                        name: fname,
                        params,
                        body: stmts.split_off(start),
                    });
                    continue;
                }
                None => return err(lineno, "unmatched `}`"),
            },
            _ => return err(lineno, format!("cannot parse `{line}`")),
        };
        stmts.push(stmt);
    }
    if !stack.is_empty() {
        return err(lines, "unclosed block at end of input");
    }
    Ok(Program::with_functions(name, stmts, functions))
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
}
