//! The checker's bug corpus: named programs with expected findings.
//!
//! The corpus doubles as the detection table of experiment E3 (every case
//! states what STLlint should say about it) and as the workload for the
//! analysis-throughput benchmark.

use crate::analyze::DiagnosticCode;
use crate::ir::build::*;
use crate::ir::{AlgorithmName as A, ContainerKind as K, Program, Stmt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the checker is expected to find for a corpus case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// No diagnostics at all.
    Clean,
    /// At least these diagnostic codes appear.
    Finds(Vec<DiagnosticCode>),
    /// These codes must *not* appear (e.g. the fixed Fig. 4 program).
    Avoids(Vec<DiagnosticCode>),
}

/// A corpus entry.
#[derive(Clone, Debug)]
pub struct Case {
    /// The program.
    pub program: Program,
    /// The expected checker outcome.
    pub expect: Expectation,
    /// Which paper claim this exercises.
    pub paper_ref: &'static str,
}

/// The Fig. 4 erase-loop program, buggy (`fixed = false`) or with the
/// `iter = c.erase(iter)` correction (`fixed = true`).
pub fn fig4_program(fixed: bool) -> Program {
    let erase_stmt = if fixed {
        erase_into("students", "iter", "iter")
    } else {
        erase("students", "iter")
    };
    Program::new(
        if fixed { "fig4-fixed" } else { "fig4-buggy" },
        vec![
            container("students", K::List),
            container("failures", K::List),
            begin("iter", "students"),
            while_not_end(
                "iter",
                vec![
                    deref("iter"), // if (fgrade(*iter))
                    branch(
                        vec![
                            deref("iter"), // failures.push_back(*iter)
                            push_back("failures"),
                            erase_stmt,
                        ],
                        vec![advance("iter")],
                    ),
                ],
            ),
        ],
    )
}

/// The full named corpus.
pub fn corpus() -> Vec<Case> {
    use DiagnosticCode::*;
    vec![
        Case {
            program: fig4_program(false),
            expect: Expectation::Finds(vec![DerefSingular]),
            paper_ref: "Fig. 4 / §3.1 iterator invalidation",
        },
        Case {
            program: fig4_program(true),
            expect: Expectation::Avoids(vec![DerefSingular]),
            paper_ref: "Fig. 4 corrected idiom",
        },
        Case {
            program: Program::new(
                "deref-end",
                vec![container("c", K::Vector), end("it", "c"), deref("it")],
            ),
            expect: Expectation::Finds(vec![DerefPastEnd]),
            paper_ref: "§3.1 range violations (past-the-end deref)",
        },
        Case {
            program: Program::new(
                "vector-pushback-invalidation",
                vec![
                    container("v", K::Vector),
                    begin("it", "v"),
                    push_back("v"),
                    deref("it"),
                ],
            ),
            expect: Expectation::Finds(vec![DerefSingular]),
            paper_ref: "§3.1 invalidation varies by container kind (vector)",
        },
        Case {
            program: Program::new(
                "list-pushback-ok",
                vec![
                    container("l", K::List),
                    begin("it", "l"),
                    push_back("l"),
                    while_not_end("it", vec![deref("it"), advance("it")]),
                ],
            ),
            expect: Expectation::Avoids(vec![DerefSingular]),
            paper_ref: "§3.1 invalidation varies by container kind (list)",
        },
        Case {
            program: Program::new(
                "sorted-linear-search",
                vec![
                    container("v", K::Vector),
                    call(A::Sort, "v"),
                    call_into(A::Find, "v", "i"),
                ],
            ),
            expect: Expectation::Finds(vec![SortedLinearSearch]),
            paper_ref: "§3.2 algorithm-selection suggestion (find → lower_bound)",
        },
        Case {
            program: Program::new(
                "binary-search-unsorted",
                vec![
                    container("v", K::Vector),
                    call(A::Sort, "v"),
                    push_back("v"),
                    call(A::BinarySearch, "v"),
                ],
            ),
            expect: Expectation::Finds(vec![RequiresSorted]),
            paper_ref: "§3.1 sortedness entry handler",
        },
        Case {
            program: Program::new(
                "binary-search-sorted-ok",
                vec![
                    container("v", K::Vector),
                    call(A::Sort, "v"),
                    call(A::BinarySearch, "v"),
                ],
            ),
            expect: Expectation::Clean,
            paper_ref: "§3.1 sortedness exit handler feeds entry handler",
        },
        Case {
            program: Program::new(
                "unique-unsorted",
                vec![container("v", K::Vector), call(A::Unique, "v")],
            ),
            expect: Expectation::Finds(vec![RequiresSorted]),
            paper_ref: "§3.1 algorithm precondition checking (unique)",
        },
        Case {
            program: Program::new(
                "vector-erase-capture-ok",
                vec![
                    container("v", K::Vector),
                    begin("it", "v"),
                    while_not_end(
                        "it",
                        vec![
                            deref("it"),
                            branch(vec![erase_into("v", "it", "it")], vec![advance("it")]),
                        ],
                    ),
                ],
            ),
            expect: Expectation::Avoids(vec![DerefSingular]),
            paper_ref: "Fig. 4 corrected idiom on a vector",
        },
        Case {
            program: Program::new(
                "branch-maybe-invalidation",
                vec![
                    container("v", K::Vector),
                    begin("it", "v"),
                    branch(vec![push_back("v")], vec![]),
                    deref("it"),
                ],
            ),
            expect: Expectation::Finds(vec![DerefSingular]),
            paper_ref: "§3.1 flow-sensitive (path-joined) analysis",
        },
        Case {
            program: Program::new(
                "clean-traversal",
                vec![
                    container("c", K::List),
                    begin("it", "c"),
                    while_not_end("it", vec![deref("it"), advance("it")]),
                ],
            ),
            expect: Expectation::Clean,
            paper_ref: "no false positives on the idiomatic loop",
        },
        Case {
            program: Program::new(
                "max-element-then-deref",
                vec![
                    container("v", K::Vector),
                    call_into(A::MaxElement, "v", "m"),
                    deref("m"),
                ],
            ),
            expect: Expectation::Finds(vec![DerefPastEnd]),
            paper_ref: "§3.1 search results may be past-the-end",
        },
    ]
}

/// Generate a random well-formed program of roughly `size` statements —
/// workload for the analysis-throughput benchmark. Deterministic per seed.
pub fn random_program(seed: u64, size: usize) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let kinds = [K::Vector, K::List, K::Deque];
    let n_containers = rng.gen_range(1..=3usize);
    let mut stmts: Vec<Stmt> = Vec::new();
    for i in 0..n_containers {
        stmts.push(container(&format!("c{i}"), kinds[rng.gen_range(0..3usize)]));
    }
    let mut iters: Vec<String> = Vec::new();
    let mut budget = size;
    while budget > 0 {
        let choice = rng.gen_range(0..10);
        match choice {
            0 | 1 => {
                let name = format!("it{}", iters.len());
                let c = format!("c{}", rng.gen_range(0..n_containers));
                stmts.push(begin(&name, &c));
                iters.push(name);
            }
            2 | 3 if !iters.is_empty() => {
                let it = &iters[rng.gen_range(0..iters.len())];
                stmts.push(deref(it));
            }
            4 if !iters.is_empty() => {
                let it = &iters[rng.gen_range(0..iters.len())];
                stmts.push(advance(it));
            }
            5 => {
                let c = format!("c{}", rng.gen_range(0..n_containers));
                stmts.push(push_back(&c));
            }
            6 => {
                let c = format!("c{}", rng.gen_range(0..n_containers));
                let algs = [A::Sort, A::Find, A::BinarySearch, A::MaxElement];
                stmts.push(call(algs[rng.gen_range(0..algs.len())], &c));
            }
            7 if !iters.is_empty() => {
                let it = iters[rng.gen_range(0..iters.len())].clone();
                stmts.push(while_not_end(&it, vec![deref(&it), advance(&it)]));
            }
            8 if !iters.is_empty() => {
                let it = iters[rng.gen_range(0..iters.len())].clone();
                let c = format!("c{}", rng.gen_range(0..n_containers));
                stmts.push(branch(vec![push_back(&c)], vec![advance(&it)]));
            }
            _ => {
                let name = format!("it{}", iters.len());
                let c = format!("c{}", rng.gen_range(0..n_containers));
                stmts.push(Stmt::DeclIter {
                    name: name.as_str().into(),
                    container: c.into(),
                    pos: crate::ir::PosExpr::SearchResult,
                });
                iters.push(name);
            }
        }
        budget -= 1;
    }
    Program::new(format!("random-{seed}"), stmts)
}

/// Count statements (including nested) — the throughput denominator.
pub fn statement_count(p: &Program) -> usize {
    fn count(stmts: &[Stmt]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::While { body, .. } => 1 + count(body),
                Stmt::If {
                    then_branch,
                    else_branch,
                } => 1 + count(then_branch) + count(else_branch),
                _ => 1,
            })
            .sum()
    }
    count(&p.stmts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;

    #[test]
    fn every_corpus_case_meets_its_expectation() {
        for case in corpus() {
            let diags = analyze(&case.program);
            let codes: Vec<DiagnosticCode> = diags.iter().map(|d| d.code).collect();
            match &case.expect {
                Expectation::Clean => {
                    assert!(
                        diags.is_empty(),
                        "{}: expected clean, got {diags:?}",
                        case.program.name
                    );
                }
                Expectation::Finds(expected) => {
                    for c in expected {
                        assert!(
                            codes.contains(c),
                            "{}: expected {c:?} among {codes:?}",
                            case.program.name
                        );
                    }
                }
                Expectation::Avoids(banned) => {
                    for c in banned {
                        assert!(
                            !codes.contains(c),
                            "{}: must not report {c:?}, got {diags:?}",
                            case.program.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn random_programs_analyze_without_panicking() {
        for seed in 0..20 {
            let p = random_program(seed, 60);
            let _ = analyze(&p);
            assert!(statement_count(&p) >= 60);
        }
    }

    #[test]
    fn random_program_is_deterministic_per_seed() {
        assert_eq!(random_program(7, 40), random_program(7, 40));
    }
}
