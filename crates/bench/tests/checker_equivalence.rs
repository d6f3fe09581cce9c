//! Equivalence properties for the interprocedural checker.
//!
//! Three oracles pin the three ways the engine is allowed to be fast:
//!
//! 1. **Incremental = cold.** Analyzing an edited program against a
//!    cache warmed by the pre-edit program must produce byte-identical
//!    diagnostics to a cold, cacheless analysis of the edited program.
//!    Summaries are keyed by transitive content hash, so a stale hit
//!    here would be a key-collision bug, not a tuning artifact.
//! 2. **Parallel = sequential.** SCC batches at equal condensation
//!    height run on the global pool; scheduling must be invisible.
//! 3. **Flat = seed.** Programs with no `fn` must produce exactly the
//!    seed analyzer's diagnostics (the frozen oracle
//!    [`gp_bench::oracle::analyze_flat`]) — the interprocedural machinery
//!    degenerates to the intraprocedural one. The bug corpus runs as
//!    fixed inputs before the random programs.
//!
//! The generator deliberately produces messy programs — use-before-decl,
//! invokes with iterator/container arguments crossed, recursion — since
//! diagnostics on junk must be just as deterministic as on clean code.

use gp_bench::oracle::analyze_flat;
use gp_checker::analyze::{analyze, Diagnostic};
use gp_checker::corpus::{corpus, random_program};
use gp_checker::ir::{build, AlgorithmName as A, ContainerKind as K, FunctionDef, Program, Stmt};
use gp_checker::{analyze_program, analyze_program_with_cache, CheckConfig, SummaryCache};
use proptest::prelude::*;
use proptest::Strategy;
use rand::rngs::StdRng;
use rand::Rng;

/// Names in scope while generating a body.
struct Scope {
    containers: Vec<String>,
    iters: Vec<String>,
}

fn arb_stmts(
    rng: &mut StdRng,
    scope: &mut Scope,
    fns: &[FunctionDef],
    self_info: Option<(usize, usize)>,
    budget: usize,
    fresh: &mut usize,
) -> Vec<Stmt> {
    let kinds = [K::Vector, K::List, K::Deque];
    let algs = [A::Sort, A::Find, A::BinarySearch, A::MaxElement];
    let mut stmts = Vec::new();
    for _ in 0..budget {
        match rng.gen_range(0u32..12) {
            0 => {
                let name = format!("x{}", *fresh);
                *fresh += 1;
                stmts.push(build::container(&name, kinds[rng.gen_range(0..3usize)]));
                scope.containers.push(name);
            }
            1 | 2 if !scope.containers.is_empty() => {
                let name = format!("x{}", *fresh);
                *fresh += 1;
                let c = scope.containers[rng.gen_range(0..scope.containers.len())].clone();
                stmts.push(build::begin(&name, &c));
                scope.iters.push(name);
            }
            3 | 4 if !scope.iters.is_empty() => {
                let it = &scope.iters[rng.gen_range(0..scope.iters.len())];
                stmts.push(if rng.gen_bool(0.5) {
                    build::deref(it)
                } else {
                    build::advance(it)
                });
            }
            5 if !scope.containers.is_empty() => {
                let c = &scope.containers[rng.gen_range(0..scope.containers.len())];
                stmts.push(if rng.gen_bool(0.7) {
                    build::push_back(c)
                } else {
                    build::clear(c)
                });
            }
            6 if !scope.containers.is_empty() => {
                let c = &scope.containers[rng.gen_range(0..scope.containers.len())];
                stmts.push(build::call(algs[rng.gen_range(0..algs.len())], c));
            }
            7 if !scope.containers.is_empty() && !scope.iters.is_empty() => {
                let c = scope.containers[rng.gen_range(0..scope.containers.len())].clone();
                let it = scope.iters[rng.gen_range(0..scope.iters.len())].clone();
                stmts.push(build::erase(&c, &it));
            }
            8 if !scope.iters.is_empty() => {
                let it = scope.iters[rng.gen_range(0..scope.iters.len())].clone();
                stmts.push(build::while_not_end(
                    &it,
                    vec![build::deref(&it), build::advance(&it)],
                ));
            }
            9 if !scope.containers.is_empty() && !scope.iters.is_empty() => {
                let c = scope.containers[rng.gen_range(0..scope.containers.len())].clone();
                let it = scope.iters[rng.gen_range(0..scope.iters.len())].clone();
                stmts.push(build::branch(
                    vec![build::push_back(&c)],
                    vec![build::advance(&it)],
                ));
            }
            10 | 11 => {
                // Invoke: an earlier function, or self (bounded recursion
                // through widening). Arguments are drawn from whatever is
                // in scope — containers and iterators mixed freely, no
                // duplicates (aliased arguments are rejected by design).
                let n_candidates = fns.len() + usize::from(self_info.is_some());
                if n_candidates == 0 {
                    continue;
                }
                let pick = rng.gen_range(0..n_candidates);
                let (callee_name, arity) = if pick < fns.len() {
                    (fns[pick].name.clone(), fns[pick].params.len())
                } else {
                    let (i, arity) = self_info.unwrap();
                    (format!("f{i}"), arity)
                };
                let mut pool: Vec<String> = scope
                    .containers
                    .iter()
                    .chain(scope.iters.iter())
                    .cloned()
                    .collect();
                if pool.len() < arity {
                    continue;
                }
                let mut args = Vec::with_capacity(arity);
                for _ in 0..arity {
                    let j = rng.gen_range(0..pool.len());
                    args.push(pool.swap_remove(j));
                }
                let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
                stmts.push(build::invoke(&callee_name, &arg_refs));
            }
            _ => {}
        }
    }
    stmts
}

/// A random interprocedural program: up to 4 functions (later ones may
/// call earlier ones, any may call itself), plus a main that declares
/// state and invokes them.
fn arb_ip_program(rng: &mut StdRng) -> Program {
    let nf = rng.gen_range(0usize..=4);
    let mut fns: Vec<FunctionDef> = Vec::new();
    let mut fresh = 0usize;
    for i in 0..nf {
        let np = rng.gen_range(1usize..=2);
        let params: Vec<String> = (0..np).map(|j| format!("p{j}")).collect();
        // Parameters enter scope as containers or iterators at random —
        // the *call site* decides the actual binding, so bodies that
        // guess wrong simply exercise the mixed-role diagnostics.
        let mut scope = Scope {
            containers: Vec::new(),
            iters: Vec::new(),
        };
        for p in &params {
            if rng.gen_bool(0.7) {
                scope.containers.push(p.clone());
            } else {
                scope.iters.push(p.clone());
            }
        }
        let budget = rng.gen_range(2usize..=6);
        let self_info = if rng.gen_bool(0.25) {
            Some((i, np))
        } else {
            None
        };
        let body = arb_stmts(rng, &mut scope, &fns, self_info, budget, &mut fresh);
        let param_refs: Vec<&str> = params.iter().map(String::as_str).collect();
        fns.push(build::func(&format!("f{i}"), &param_refs, body));
    }
    let mut scope = Scope {
        containers: Vec::new(),
        iters: Vec::new(),
    };
    let mut main = Vec::new();
    let kinds = [K::Vector, K::List, K::Deque];
    for i in 0..rng.gen_range(1usize..=3) {
        let name = format!("c{i}");
        main.push(build::container(&name, kinds[rng.gen_range(0..3usize)]));
        scope.containers.push(name);
    }
    let main_budget = rng.gen_range(3usize..=8);
    main.extend(arb_stmts(
        rng,
        &mut scope,
        &fns,
        None,
        main_budget,
        &mut fresh,
    ));
    Program::with_functions("prop", main, fns)
}

struct IpPrograms;

impl Strategy for IpPrograms {
    type Value = Program;

    fn sample(&self, rng: &mut StdRng) -> Program {
        arb_ip_program(rng)
    }
}

/// Flat-program strategy over the corpus generator.
struct FlatPrograms;

impl Strategy for FlatPrograms {
    type Value = Program;

    fn sample(&self, rng: &mut StdRng) -> Program {
        let seed: u64 = rng.gen_range(0u64..u64::MAX);
        let size = rng.gen_range(4usize..40);
        random_program(seed, size)
    }
}

/// Apply one random edit to one function body (or to main when there are
/// no functions): append a statement that shifts the content hash.
fn edit_one_function(rng: &mut StdRng, p: &Program) -> Program {
    let extra = if rng.gen_bool(0.5) {
        build::push_back("zedit") // undeclared: adds an UnknownName diag
    } else {
        build::container("zedit", K::List) // silent decl: behavior-neutral
    };
    let mut fns = p.functions.clone();
    let mut main = p.stmts.clone();
    if fns.is_empty() {
        main.push(extra);
    } else {
        let i = rng.gen_range(0..fns.len());
        fns[i].body.push(extra);
    }
    Program::with_functions(p.name.clone(), main, fns)
}

fn run(p: &Program, cfg: &CheckConfig) -> Vec<Diagnostic> {
    analyze_program(p, cfg).expect("default config converges")
}

/// Flat = seed for one program: cold, through `analyze`, and through a
/// cache twice (the second run fully warm).
fn assert_flat_matches_seed(p: &Program) {
    let seed = analyze_flat(p);
    assert_eq!(run(p, &CheckConfig::default()), seed, "{}", p.name);
    assert_eq!(analyze(p), seed, "{}", p.name);
    let cache = SummaryCache::new(256);
    let cfg = CheckConfig::default();
    let a = analyze_program_with_cache(p, &cfg, &cache).expect("flat");
    let b = analyze_program_with_cache(p, &cfg, &cache).expect("flat warm");
    assert_eq!(a, seed, "{}", p.name);
    assert_eq!(a, b, "{}", p.name);
}

#[test]
fn corpus_programs_reproduce_the_seed_analyzer_exactly() {
    for case in corpus() {
        assert!(case.program.functions.is_empty(), "corpus is flat");
        assert_flat_matches_seed(&case.program);
    }
}

/// Fixed inputs for the incremental and parallel properties: a callee
/// that invalidates its caller's iterator, and two independent callees
/// at equal condensation height (one parallel batch).
#[test]
fn fixed_programs_rerun_warm_and_in_parallel_identically() {
    let grow = "fn grow(C) {\n\tpush_back C\n}\ncontainer V vector\npush_back V\n\
                iter I = begin V\ninvoke grow(V)\nderef I\n";
    let forest = "fn a(C) {\n\tpush_back C\n}\nfn b(C) {\n\tcall sort C\n}\n\
                  container V vector\npush_back V\ncontainer W vector\ninvoke a(V)\n\
                  invoke b(W)\ncall binary_search V\ncall binary_search W\n";
    for src in [grow, forest] {
        let p = gp_checker::parse::parse("t", src).expect("parses");
        let cfg = CheckConfig::default();
        let cache = SummaryCache::new(1024);
        let cold = analyze_program_with_cache(&p, &cfg, &cache).expect("cold");
        assert!(!cache.is_empty());
        let warm = analyze_program_with_cache(&p, &cfg, &cache).expect("warm");
        assert_eq!(warm, cold);
        assert_eq!(run(&p, &cfg), cold);
        let par = CheckConfig {
            parallel: true,
            ..cfg
        };
        assert_eq!(run(&p, &par), cold);
    }
}

proptest! {
    #[test]
    fn incremental_reanalysis_is_byte_identical_to_cold(
        (p, edit_seed) in (IpPrograms, 0u64..u64::MAX)
    ) {
        use rand::SeedableRng;
        let cfg = CheckConfig::default();
        let cache = SummaryCache::new(4096);
        // Warm the cache on the pre-edit program.
        let pre = analyze_program_with_cache(&p, &cfg, &cache).expect("pre-edit");
        prop_assert_eq!(&pre, &run(&p, &cfg));
        // Edit one function, re-analyze warm, compare against cold.
        let mut erng = StdRng::seed_from_u64(edit_seed);
        let edited = edit_one_function(&mut erng, &p);
        let warm = analyze_program_with_cache(&edited, &cfg, &cache).expect("warm");
        let cold = run(&edited, &cfg);
        prop_assert_eq!(warm, cold);
    }

    #[test]
    fn parallel_analysis_is_bit_equal_to_sequential(p in IpPrograms) {
        let seq = run(&p, &CheckConfig::default());
        let par = run(&p, &CheckConfig { parallel: true, ..CheckConfig::default() });
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn flat_programs_reproduce_the_seed_analyzer_exactly(p in FlatPrograms) {
        assert_flat_matches_seed(&p);
    }
}
