//! Seeded request generators for the three workloads.
//!
//! Every request is a pure function of `(seed, lane, index)`: a *lane* is
//! one independent request stream (one per load connection, plus one for
//! the warm-up and one for the traced replay), so two lanes never send
//! the same request and a rerun with the same seed sends the same bytes.

use gp_rewrite::{BinOp, Expr, Type, UnOp};
use gp_service::lint::LintRequest;
use gp_service::optimize::{CostSpec, OptimizeRequest};
use gp_service::prove::ProveRequest;
use gp_service::select::SelectRequest;
use gp_service::simplify::{EnvSpec, SimplifyRequest};
use gp_service::Request;
use std::sync::Arc;

/// Lanes 0 and 1 are the two load connections.
pub const LANE_WARMUP: u64 = 2;
/// The traced replay's own lane, so it never repeats a timed request.
pub const LANE_REPLAY: u64 = 3;
const LANES: u64 = 4;

/// Size of the `hot-repeat` pool.
pub const HOT_POOL: usize = 64;
/// Functions in the `lint-edits` base program: 20 mid-level functions,
/// each calling 9 leaves, under `main`.
const MIDS: usize = 20;
const LEAVES_PER_MID: usize = 9;

/// One in this many `engine-unique` requests is a `select`.
const SELECT_EVERY: u64 = 32;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A small pool of repeated requests of all five compute kinds,
    /// answered from the response cache.
    HotRepeat,
    /// Every request distinct: the engines do the work.
    EngineUnique,
    /// A ~200-function program with one leaf edited per request.
    LintEdits,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot-repeat" => Some(Workload::HotRepeat),
            "engine-unique" => Some(Workload::EngineUnique),
            "lint-edits" => Some(Workload::LintEdits),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotRepeat => "hot-repeat",
            Workload::EngineUnique => "engine-unique",
            Workload::LintEdits => "lint-edits",
        }
    }
}

/// SplitMix64: small, fast, and good enough to drive input generation.
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, lane, index)` triple.
    pub fn at(seed: u64, lane: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0xe703_7ed1_a0b4_28db);
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }
}

// ---------------------------------------------------------------- kinds

fn int_leaf(rng: &mut Rng) -> Expr {
    match rng.below(6) {
        0 => Expr::int(0),
        1 => Expr::int(1),
        2 => Expr::int(rng.below(9) as i64 + 2),
        3 => Expr::var("x", Type::Int),
        4 => Expr::var("y", Type::Int),
        _ => Expr::var("z", Type::Int),
    }
}

/// A random `Int` expression tree seeded with identities, annihilators
/// and cancellations, so the directed rules have work to do.
fn int_tree(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 || rng.below(5) == 0 {
        return int_leaf(rng);
    }
    let sub = |rng: &mut Rng| int_tree(rng, depth - 1);
    match rng.below(7) {
        0 => Expr::bin(BinOp::Add, sub(rng), sub(rng)),
        1 => Expr::bin(BinOp::Mul, sub(rng), sub(rng)),
        2 => Expr::un(UnOp::Neg, sub(rng)),
        3 => Expr::bin(BinOp::Add, sub(rng), Expr::int(0)),
        4 => Expr::bin(BinOp::Mul, Expr::int(1), sub(rng)),
        5 => Expr::bin(BinOp::Mul, sub(rng), Expr::int(0)),
        _ => {
            let e = sub(rng);
            Expr::bin(BinOp::Add, e.clone(), Expr::un(UnOp::Neg, e))
        }
    }
}

/// A full binary `+`/`*` tree of random leaves: every seed gives the
/// same shape, so a pool built from these costs the same to decode.
fn full_tree(rng: &mut Rng, depth: usize) -> Expr {
    if depth == 0 {
        return int_leaf(rng);
    }
    let op = if rng.below(2) == 0 {
        BinOp::Add
    } else {
        BinOp::Mul
    };
    let l = full_tree(rng, depth - 1);
    Expr::bin(op, l, full_tree(rng, depth - 1))
}

/// `tree + (tok * 1)`: the token variable makes the request unique and
/// survives simplification.
fn simplify_req(tree: Expr, tok: &str) -> Request {
    let expr = Expr::bin(
        BinOp::Add,
        tree,
        Expr::bin(BinOp::Mul, Expr::var(tok, Type::Int), Expr::int(1)),
    );
    Request::Simplify(SimplifyRequest {
        expr,
        env: EnvSpec::Standard,
    })
}

/// The cancellation shape `(a + b) + (-b)` that the directed engine
/// cannot close and the e-graph can, over random small subterms.
fn optimize_req(
    rng: &mut Rng,
    tok: &str,
    tree: fn(&mut Rng, usize) -> Expr,
    depth: usize,
) -> Request {
    let a = Expr::bin(BinOp::Mul, Expr::var(tok, Type::Int), tree(rng, depth));
    let b = tree(rng, depth);
    let expr = Expr::bin(
        BinOp::Add,
        Expr::bin(BinOp::Add, a, b.clone()),
        Expr::un(UnOp::Neg, b),
    );
    Request::Optimize(OptimizeRequest {
        expr,
        env: EnvSpec::Standard,
        cost: if rng.below(2) == 0 {
            CostSpec::Annotation
        } else {
            CostSpec::Measured
        },
        max_nodes: Some(2000),
        max_iters: Some(6),
    })
}

/// A flat (function-free) program over uniquely named containers.
fn flat_program(rng: &mut Rng, tok: &str, stmts: usize) -> String {
    let kind = *rng.pick(&["vector", "list", "deque"]);
    let (c, d, i) = (format!("c{tok}"), format!("d{tok}"), format!("i{tok}"));
    let mut s = format!("container {c} {kind}\ncontainer {d} vector\niter {i} = begin {c}\n");
    for _ in 0..stmts {
        let line = match rng.below(9) {
            0 => format!("push_back {c}\n"),
            1 => format!("push_back {d}\n"),
            2 => format!("deref {i}\n"),
            3 => format!("advance {i}\n"),
            4 => format!("call sort {c}\n"),
            5 => format!("call find {c} -> {i}\n"),
            6 => format!("iter {i} = begin {c}\n"),
            7 => format!("while {i} != end {{\n    deref {i}\n    advance {i}\n}}\n"),
            _ => format!("if {{\n    erase {c} {i}\n}} else {{\n    clear {d}\n}}\n"),
        };
        s.push_str(&line);
    }
    s
}

fn lint_req(rng: &mut Rng, tok: &str, stmts: usize) -> Request {
    Request::Lint(LintRequest {
        name: format!("p{tok}"),
        program: flat_program(rng, tok, stmts),
    })
}

/// A pool `prove`: always a two-entry renaming, so every seed's pool
/// has the same shape.
fn pool_prove_req(rng: &mut Rng, tok: &str) -> Request {
    let theory = *rng.pick(&["monoid", "group", "monoid-identity-uniqueness"]);
    let op = *rng.pick(&["add", "mul", "plus", "times"]);
    let e = *rng.pick(&["zero", "one", "unit", "id"]);
    Request::Prove(ProveRequest {
        theory: theory.into(),
        instance: format!("inst{tok}"),
        model: vec![("e".into(), e.into()), ("op".into(), op.into())],
    })
}

fn prove_req(rng: &mut Rng, tok: &str) -> Request {
    let (theory, model): (&str, Vec<(&str, &str)>) = match rng.below(5) {
        0 => ("monoid", vec![("op", "add"), ("e", "zero"), ("M", "Int")]),
        1 => ("monoid", vec![("op", "mul"), ("e", "one")]),
        2 => ("group", Vec::new()),
        3 => ("monoid-identity-uniqueness", Vec::new()),
        _ => ("order", Vec::new()),
    };
    Request::Prove(ProveRequest {
        theory: theory.into(),
        instance: format!("inst{tok}"),
        model: model
            .into_iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect(),
    })
}

/// Every `select` requirement the codec can express, in a seeded order.
fn select_combos(seed: u64) -> Vec<SelectRequest> {
    const PROBLEMS: [&str; 6] = [
        "leader-election",
        "broadcast",
        "spanning-tree",
        "consensus",
        "mutual-exclusion",
        "failure-detection",
    ];
    const TOPOLOGIES: [&str; 8] = [
        "arbitrary",
        "ring",
        "uni-ring",
        "bi-ring",
        "complete",
        "tree",
        "star",
        "grid",
    ];
    const TIMINGS: [&str; 3] = ["asynchronous", "partially-synchronous", "synchronous"];
    const FAULTS: [&str; 4] = ["none", "crash", "omission", "byzantine"];
    const SHARING: [&str; 2] = ["message-passing", "shared-memory"];
    const MGMT: [&str; 2] = ["static", "dynamic"];
    let mut out = Vec::new();
    for p in PROBLEMS {
        for t in TOPOLOGIES {
            for ti in TIMINGS {
                for f in FAULTS {
                    for s in SHARING {
                        for m in MGMT {
                            let j = gp_core::json::Json::obj()
                                .field("problem", p)
                                .field("topology", t)
                                .field("timing", ti)
                                .field("fault", f)
                                .field("sharing", s)
                                .field("process-mgmt", m);
                            out.push(
                                SelectRequest::from_json(&j).expect("every combination decodes"),
                            );
                        }
                    }
                }
            }
        }
    }
    let mut rng = Rng::at(seed, u64::MAX, 0);
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

// ------------------------------------------------------- lint-edits base

/// The `lint-edits` base program, kept as one text block per function so
/// that an edited copy is a splice of one block.
pub struct EditBase {
    /// `blocks[0]` is the top-level `main` code; the rest are functions.
    blocks: Vec<String>,
    /// Indices into `blocks` of the leaf functions.
    leaves: Vec<usize>,
}

impl EditBase {
    fn new(seed: u64) -> EditBase {
        let mut rng = Rng::at(seed, u64::MAX - 1, 0);
        let mut blocks = vec![String::new()];
        let mut leaves = Vec::new();
        let mut main = String::from("container V vector\ncontainer W list\n");
        for m in 0..MIDS {
            let mut mid = format!("fn mid_{m:02}(A, B) {{\n    push_back B\n");
            for l in 0..LEAVES_PER_MID {
                let name = format!("leaf_{m:02}_{l}");
                mid.push_str(&format!("    invoke {name}(A, B)\n"));
                leaves.push(blocks.len());
                blocks.push(leaf_body(&mut rng, &name));
            }
            mid.push_str("}\n");
            blocks.push(mid);
            main.push_str(&format!("invoke mid_{m:02}(V, W)\n"));
        }
        blocks[0] = main;
        EditBase { blocks, leaves }
    }

    /// The unedited program.
    pub fn base(&self) -> String {
        self.splice(usize::MAX, "")
    }

    /// The program with `extra` appended to leaf `leaf`'s body.
    fn splice(&self, leaf: usize, extra: &str) -> String {
        let target = self.leaves.get(leaf).copied().unwrap_or(usize::MAX);
        let mut s = String::with_capacity(24 << 10);
        // Functions first, then main's top-level statements.
        for (i, b) in self.blocks.iter().enumerate().skip(1) {
            if i == target {
                s.push_str(&b[..b.len() - 2]); // drop the closing "}\n"
                s.push_str(extra);
                s.push_str("}\n");
            } else {
                s.push_str(b);
            }
        }
        s.push_str(&self.blocks[0]);
        s
    }

    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }
}

fn leaf_body(rng: &mut Rng, name: &str) -> String {
    let body = match rng.below(4) {
        // A correct traversal of the first argument.
        0 => "    iter it = begin A\n    push_back B\n    deref it\n    advance it\n",
        // The iterator-invalidation bug: growing A invalidates `it`.
        1 => "    iter it = begin A\n    push_back A\n    deref it\n    advance it\n",
        // A linear search over a sorted range (a suggestion).
        2 => "    call sort A\n    call find A -> it\n    push_back B\n    clear B\n",
        // A loop over a local container.
        _ => "    container t vector\n    push_back t\n    iter i = begin t\n    while i != end {\n        deref i\n        advance i\n    }\n",
    };
    format!("fn {name}(A, B) {{\n{body}}}\n")
}

// ---------------------------------------------------------------- streams

/// Everything a workload's streams are generated from.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// The `hot-repeat` pool (empty for the other workloads).
    pub pool: Vec<Request>,
    selects: Vec<SelectRequest>,
    pub edits: Option<EditBase>,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Arc<Inputs> {
        let selects = select_combos(seed);
        let pool = if workload == Workload::HotRepeat {
            (0..HOT_POOL as u64)
                .map(|i| {
                    let mut rng = Rng::at(seed, u64::MAX - 2, i);
                    let tok = format!("h{i}");
                    match i % 5 {
                        0 => lint_req(&mut rng, &tok, 4),
                        1 => simplify_req(full_tree(&mut rng, 2), &tok),
                        2 => optimize_req(&mut rng, &tok, full_tree, 1),
                        3 => pool_prove_req(&mut rng, &tok),
                        // The tail of the shuffled combos; the unique
                        // streams draw theirs from the head.
                        _ => Request::Select(selects[selects.len() - 1 - i as usize].clone()),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let edits = (workload == Workload::LintEdits).then(|| EditBase::new(seed));
        Arc::new(Inputs {
            workload,
            seed,
            pool,
            selects,
            edits,
        })
    }

    pub fn lane(self: &Arc<Self>, lane: u64) -> Stream {
        Stream {
            inputs: Arc::clone(self),
            lane,
            index: 0,
            selects_used: 0,
        }
    }
}

/// One lane's request sequence.
pub struct Stream {
    inputs: Arc<Inputs>,
    lane: u64,
    index: u64,
    selects_used: usize,
}

impl Stream {
    pub fn seed(&self) -> u64 {
        self.inputs.seed
    }

    /// Index of the next request in this lane.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The pool index of the next `hot-repeat` request (the load
    /// generator sends pre-encoded pool frames by index).
    pub fn next_hot_index(&mut self) -> usize {
        let i = self.index;
        self.index += 1;
        Rng::at(self.inputs.seed, self.lane, i).below(HOT_POOL)
    }

    pub fn next_request(&mut self) -> Request {
        if self.inputs.workload == Workload::HotRepeat {
            let at = self.next_hot_index();
            return self.inputs.pool[at].clone();
        }
        let (seed, lane, i) = (self.inputs.seed, self.lane, self.index);
        self.index += 1;
        let mut rng = Rng::at(seed, lane, i);
        let tok = format!("{lane}_{i}");
        match self.inputs.workload {
            Workload::HotRepeat => unreachable!("answered from the pool above"),
            Workload::EngineUnique => {
                // Each lane owns an equal share of the select combinations
                // (minus the pool's tail); when its share is used up the
                // slot falls through to the other kinds, so no select
                // ever repeats.
                let share = (self.inputs.selects.len() - HOT_POOL) / LANES as usize;
                if i % SELECT_EVERY == SELECT_EVERY - 1 && self.selects_used < share {
                    let at = lane as usize * share + self.selects_used;
                    self.selects_used += 1;
                    return Request::Select(self.inputs.selects[at].clone());
                }
                match rng.below(20) {
                    0..=6 => simplify_req(int_tree(&mut rng, 4), &tok),
                    7..=10 => optimize_req(&mut rng, &tok, int_tree, 2),
                    11..=15 => lint_req(&mut rng, &tok, 12),
                    _ => prove_req(&mut rng, &tok),
                }
            }
            Workload::LintEdits => {
                let base = self.inputs.edits.as_ref().expect("lint-edits has a base");
                let leaf = rng.below(base.leaf_count());
                let extra = format!("    container e{tok} vector\n    push_back e{tok}\n");
                Request::Lint(LintRequest {
                    name: "edits".into(),
                    program: base.splice(leaf, &extra),
                })
            }
        }
    }
}

/// The `lint-edits` base program as a request (the warm-up lints it cold).
pub fn base_request(inputs: &Inputs) -> Option<Request> {
    inputs.edits.as_ref().map(|b| {
        Request::Lint(LintRequest {
            name: "edits".into(),
            program: b.base(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_service::encode_request;
    use std::collections::HashSet;

    const ALL: [Workload; 3] = [
        Workload::HotRepeat,
        Workload::EngineUnique,
        Workload::LintEdits,
    ];

    fn frames(w: Workload, seed: u64, lane: u64, n: usize) -> Vec<String> {
        let inputs = Inputs::new(w, seed);
        let mut s = inputs.lane(lane);
        (0..n)
            .map(|i| encode_request(i as u64, &s.next_request()))
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in ALL {
            for lane in [0, 1, LANE_WARMUP] {
                let a = frames(w, 7, lane, 40);
                assert_eq!(a, frames(w, 7, lane, 40), "{w:?} lane {lane} repeats");
                assert_ne!(
                    a,
                    frames(w, 8, lane, 40),
                    "{w:?} lane {lane} seed-sensitive"
                );
            }
        }
    }

    #[test]
    fn engine_unique_never_repeats_a_canonical_form() {
        let inputs = Inputs::new(Workload::EngineUnique, 11);
        let mut seen = HashSet::new();
        for lane in 0..LANES {
            let mut s = inputs.lane(lane);
            // Past one lane's share of select combinations, so the
            // fall-through path is covered too.
            for _ in 0..20_000 {
                let c = s.next_request().canonical();
                assert!(seen.insert(c.clone()), "repeated canonical form {c}");
            }
        }
    }

    #[test]
    fn lint_edits_differ_from_the_base_in_exactly_one_function() {
        let inputs = Inputs::new(Workload::LintEdits, 3);
        let base = gp_checker::parse::parse("b", &base_request(&inputs).map(program).unwrap())
            .expect("base parses");
        assert_eq!(base.functions.len(), MIDS * (LEAVES_PER_MID + 1));
        let mut s = inputs.lane(0);
        for _ in 0..50 {
            let src = program(s.next_request());
            let p = gp_checker::parse::parse("e", &src).expect("edit parses");
            assert_eq!(p.stmts, base.stmts);
            let differing = p
                .functions
                .iter()
                .zip(&base.functions)
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(differing, 1);
        }
    }

    fn program(r: Request) -> String {
        match r {
            Request::Lint(l) => l.program,
            other => panic!("expected lint, got {}", other.kind()),
        }
    }

    #[test]
    fn hot_pool_is_distinct_and_covers_every_kind() {
        let inputs = Inputs::new(Workload::HotRepeat, 5);
        let canon: HashSet<String> = inputs.pool.iter().map(Request::canonical).collect();
        assert_eq!(canon.len(), HOT_POOL);
        let kinds: HashSet<&str> = inputs.pool.iter().map(Request::kind).collect();
        assert_eq!(kinds.len(), 5);
    }
}
