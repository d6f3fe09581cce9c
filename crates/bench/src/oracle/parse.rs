//! The seed text front end of the checker: the parser as it was before
//! identifiers were interned, frozen in behavior. It tokenizes each line
//! into a `Vec` and copies every token into its own string; the
//! production parser (`gp_checker::parse`) must produce the same
//! [`Program`] or the same [`ParseError`] on every input, which the
//! equivalence proptests in `tests/parser_equivalence.rs` check.

use gp_checker::ir::{
    AlgorithmName, Cond, ContainerKind, FunctionDef, Name, PosExpr, Program, Stmt,
};
use gp_checker::parse::ParseError;

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

enum Frame {
    While {
        cond: Cond,
        body: Vec<Stmt>,
    },
    IfThen {
        then_branch: Vec<Stmt>,
    },
    IfElse {
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    },
    Fn {
        name: String,
        params: Vec<String>,
        body: Vec<Stmt>,
    },
}

fn names(v: Vec<String>) -> gp_checker::ir::NameList {
    v.into_iter().map(Name::from).collect()
}

/// Split `name(a, b)` into the name and comma-separated argument names.
/// `rest` is the already-whitespace-joined text after the keyword.
fn parse_name_args(line: usize, rest: &str) -> Result<(String, Vec<String>), ParseError> {
    let open = match rest.find('(') {
        Some(i) => i,
        None => return err(line, format!("expected `name(args)`, got `{rest}`")),
    };
    if !rest.ends_with(')') {
        return err(line, format!("expected closing `)` in `{rest}`"));
    }
    let name = rest[..open].trim();
    if name.is_empty() || name.contains(|c: char| c.is_whitespace()) {
        return err(line, format!("bad function name in `{rest}`"));
    }
    let inner = &rest[open + 1..rest.len() - 1];
    let mut args = Vec::new();
    for piece in inner.split(',') {
        let piece = piece.trim();
        if piece.is_empty() {
            if inner.trim().is_empty() && args.is_empty() {
                break; // `name()` — zero args
            }
            return err(line, format!("empty argument name in `{rest}`"));
        }
        if piece.contains(|c: char| c.is_whitespace()) {
            return err(line, format!("bad argument `{piece}` in `{rest}`"));
        }
        args.push(piece.to_string());
    }
    Ok((name.to_string(), args))
}

/// Parse a program from source text.
pub fn parse_seed(name: &str, src: &str) -> Result<Program, ParseError> {
    let mut stack: Vec<Frame> = Vec::new();
    let mut top: Vec<Stmt> = Vec::new();
    let mut functions: Vec<FunctionDef> = Vec::new();

    fn current<'a>(stack: &'a mut [Frame], top: &'a mut Vec<Stmt>) -> &'a mut Vec<Stmt> {
        match stack.last_mut() {
            None => top,
            Some(Frame::While { body, .. }) => body,
            Some(Frame::IfThen { then_branch }) => then_branch,
            Some(Frame::IfElse { else_branch, .. }) => else_branch,
            Some(Frame::Fn { body, .. }) => body,
        }
    }

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.as_slice() {
            ["container", name, kind] => {
                let kind = match *kind {
                    "vector" => ContainerKind::Vector,
                    "list" => ContainerKind::List,
                    "deque" => ContainerKind::Deque,
                    other => return err(lineno, format!("unknown container kind `{other}`")),
                };
                current(&mut stack, &mut top).push(Stmt::DeclContainer {
                    name: Name::from(*name),
                    kind,
                });
            }
            ["iter", name, "=", pos, container] => {
                let pos = match *pos {
                    "begin" => PosExpr::Begin,
                    "end" => PosExpr::End,
                    "search" => PosExpr::SearchResult,
                    other => return err(lineno, format!("unknown position `{other}`")),
                };
                current(&mut stack, &mut top).push(Stmt::DeclIter {
                    name: Name::from(*name),
                    container: Name::from(*container),
                    pos,
                });
            }
            ["advance", it] => current(&mut stack, &mut top).push(Stmt::Advance {
                iter: Name::from(*it),
            }),
            ["deref", it] => current(&mut stack, &mut top).push(Stmt::Deref {
                iter: Name::from(*it),
            }),
            ["erase", c, it] => current(&mut stack, &mut top).push(Stmt::Erase {
                container: Name::from(*c),
                iter: Name::from(*it),
                capture: None,
            }),
            ["erase", c, it, "->", cap] => current(&mut stack, &mut top).push(Stmt::Erase {
                container: Name::from(*c),
                iter: Name::from(*it),
                capture: Some(Name::from(*cap)),
            }),
            ["insert", c, it] => current(&mut stack, &mut top).push(Stmt::Insert {
                container: Name::from(*c),
                iter: Name::from(*it),
            }),
            ["push_back", c] => current(&mut stack, &mut top).push(Stmt::PushBack {
                container: Name::from(*c),
            }),
            ["clear", c] => current(&mut stack, &mut top).push(Stmt::Clear {
                container: Name::from(*c),
            }),
            ["assign", dst, src_] => current(&mut stack, &mut top).push(Stmt::Assign {
                dst: Name::from(*dst),
                src: Name::from(*src_),
            }),
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
                let capture = if toks.len() == 5 {
                    Some(Name::from(toks[4]))
                } else {
                    None
                };
                current(&mut stack, &mut top).push(Stmt::Call {
                    algorithm,
                    container: Name::from(*c),
                    capture,
                });
            }
            ["fn", ..] if toks.last() == Some(&"{") => {
                if !stack.is_empty() {
                    return err(lineno, "`fn` definitions must be at the top level");
                }
                let rest = toks[1..toks.len() - 1].join(" ");
                let (fname, params) = parse_name_args(lineno, &rest)?;
                if functions.iter().any(|f: &FunctionDef| f.name == fname) {
                    return err(lineno, format!("duplicate function `{fname}`"));
                }
                let mut seen = params.clone();
                seen.sort();
                seen.dedup();
                if seen.len() != params.len() {
                    return err(lineno, format!("duplicate parameter name in `fn {fname}`"));
                }
                stack.push(Frame::Fn {
                    name: fname,
                    params,
                    body: Vec::new(),
                });
            }
            ["invoke", ..] => {
                let rest = toks[1..].join(" ");
                let (fname, args) = parse_name_args(lineno, &rest)?;
                current(&mut stack, &mut top).push(Stmt::Invoke {
                    function: fname.into(),
                    args: names(args),
                });
            }
            ["while", it, "!=", "end", "{"] => stack.push(Frame::While {
                cond: Cond::IterNotEnd {
                    iter: Name::from(*it),
                },
                body: Vec::new(),
            }),
            ["while", "?", "{"] => stack.push(Frame::While {
                cond: Cond::Unknown,
                body: Vec::new(),
            }),
            ["if", "{"] => stack.push(Frame::IfThen {
                then_branch: Vec::new(),
            }),
            ["}", "else", "{"] => match stack.pop() {
                Some(Frame::IfThen { then_branch }) => stack.push(Frame::IfElse {
                    then_branch,
                    else_branch: Vec::new(),
                }),
                _ => return err(lineno, "`} else {` without a matching `if {`"),
            },
            ["}"] => {
                let stmt = match stack.pop() {
                    Some(Frame::While { cond, body }) => Stmt::While { cond, body },
                    Some(Frame::IfThen { then_branch }) => Stmt::If {
                        then_branch,
                        else_branch: Vec::new(),
                    },
                    Some(Frame::IfElse {
                        then_branch,
                        else_branch,
                    }) => Stmt::If {
                        then_branch,
                        else_branch,
                    },
                    Some(Frame::Fn {
                        name: fname,
                        params,
                        body,
                    }) => {
                        functions.push(FunctionDef {
                            name: fname,
                            params: names(params),
                            body,
                        });
                        continue;
                    }
                    None => return err(lineno, "unmatched `}`"),
                };
                current(&mut stack, &mut top).push(stmt);
            }
            _ => return err(lineno, format!("cannot parse `{line}`")),
        }
    }
    if !stack.is_empty() {
        return err(src.lines().count(), "unclosed block at end of input");
    }
    Ok(Program::with_functions(name, top, functions))
}
