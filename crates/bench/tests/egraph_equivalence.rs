//! Property tests pinning semi-naive equality saturation and the shared
//! rewrite engines to the frozen references in `gp_bench::oracle`:
//! [`optimize_full_sweep`] (every node e-matched against every rule on
//! every iteration) and the handlers that build their engine and cost
//! model per request. For random `int_tree`-shaped terms, under both cost
//! models and under the standard and custom environments, with node and
//! iteration budgets that stop the loop (some inside the match sweep):
//!
//! * `OptimizeStats` (every field) and the extracted term are identical;
//! * the served `optimize` and `simplify` payloads are byte-identical.
//!
//! The oracle tries every rule at every node, so agreement also pins the
//! rule index: a rule whose index hints missed a key it fires on would
//! fire here and not in the library.

use gp_bench::oracle::{
    optimize_full_sweep, optimize_payload_rebuild, simplify_payload_rebuild, KeyedCost,
};
use gp_rewrite::egraph::{EGraph, EGraphConfig, OptimizeStats};
use gp_rewrite::env::AlgConcept;
use gp_rewrite::{BinOp, Expr, Simplifier, Type, UnOp, Value};
use gp_service::optimize::{CostSpec, OptimizeRequest};
use gp_service::simplify::{EnvDecl, EnvSpec, SimplifyRequest};
use gp_service::RequestKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

fn int_leaf(rng: &mut StdRng) -> Expr {
    match rng.gen_range(0..6) {
        0 => Expr::int(0),
        1 => Expr::int(1),
        2 => Expr::int(rng.gen_range(2..11)),
        3 => Expr::var("x", Type::Int),
        4 => Expr::var("y", Type::Int),
        _ => Expr::var("z", Type::Int),
    }
}

/// The serving benchmark's random `Int` tree: identities, annihilators
/// and cancellations seeded in, so both engines have work to do.
fn int_tree(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_range(0..5) == 0 {
        return int_leaf(rng);
    }
    let d = depth - 1;
    match rng.gen_range(0..7) {
        0 => Expr::bin(BinOp::Add, int_tree(rng, d), int_tree(rng, d)),
        1 => Expr::bin(BinOp::Mul, int_tree(rng, d), int_tree(rng, d)),
        2 => Expr::un(UnOp::Neg, int_tree(rng, d)),
        3 => Expr::bin(BinOp::Add, int_tree(rng, d), Expr::int(0)),
        4 => Expr::bin(BinOp::Mul, Expr::int(1), int_tree(rng, d)),
        5 => Expr::bin(BinOp::Mul, int_tree(rng, d), Expr::int(0)),
        _ => {
            let e = int_tree(rng, d);
            Expr::bin(BinOp::Add, e.clone(), Expr::un(UnOp::Neg, e))
        }
    }
}

/// A plain `int_tree`, or the benchmark's optimize shape
/// `(t * a + b) + (-b)` the directed engine cannot close.
fn term(rng: &mut StdRng) -> Expr {
    let depth = rng.gen_range(1..4);
    if rng.gen_bool(0.5) {
        return int_tree(rng, depth);
    }
    let a = Expr::bin(BinOp::Mul, Expr::var("t", Type::Int), int_tree(rng, depth));
    let b = int_tree(rng, depth);
    Expr::bin(
        BinOp::Add,
        Expr::bin(BinOp::Add, a, b.clone()),
        Expr::un(UnOp::Neg, b),
    )
}

/// Two custom environments: an additive group without commutativity
/// (so no exploration commute on `+`), and commutative monoids with a
/// multiplicative annihilator.
fn custom_env(rng: &mut StdRng) -> EnvSpec {
    let decl = |op: BinOp,
                concepts: &[AlgConcept],
                identity: i64,
                annihilator: Option<i64>,
                inverse: Option<UnOp>| EnvDecl {
        ty: Type::Int,
        op,
        concepts: concepts.to_vec(),
        identity: Some(Value::Int(identity)),
        annihilator: annihilator.map(Value::Int),
        inverse,
    };
    EnvSpec::Custom(if rng.gen_bool(0.5) {
        vec![decl(
            BinOp::Add,
            &[AlgConcept::Group],
            0,
            None,
            Some(UnOp::Neg),
        )]
    } else {
        use AlgConcept::{Commutative, Monoid};
        vec![
            decl(BinOp::Add, &[Monoid, Commutative], 0, None, None),
            decl(BinOp::Mul, &[Monoid, Commutative], 1, Some(0), None),
        ]
    })
}

/// Random optimize requests: either environment, either cost model, and
/// budgets from none to tight enough to stop before the input is swept.
struct OptimizeCase;

impl Strategy for OptimizeCase {
    type Value = OptimizeRequest;

    fn sample(&self, rng: &mut StdRng) -> OptimizeRequest {
        let expr = term(rng);
        let env = if rng.gen_bool(0.7) {
            EnvSpec::Standard
        } else {
            custom_env(rng)
        };
        let cost = if rng.gen_bool(0.5) {
            CostSpec::Annotation
        } else {
            CostSpec::Measured
        };
        let max_nodes = match rng.gen_range(0..4) {
            0 => None,
            1 => Some(2000),
            _ => Some(rng.gen_range(4..80)),
        };
        let max_iters = match rng.gen_range(0..3) {
            0 => None,
            _ => Some(rng.gen_range(1..7)),
        };
        OptimizeRequest {
            expr,
            env,
            cost,
            max_nodes,
            max_iters,
        }
    }
}

/// The library engine a request runs on: the shared superoptimizer for
/// the standard environment, a fresh one for a custom environment.
fn library_optimize(req: &OptimizeRequest) -> (Expr, OptimizeStats) {
    let custom;
    let simp = match &req.env {
        EnvSpec::Standard => Simplifier::superopt_ref(),
        EnvSpec::Custom(_) => {
            custom = Simplifier::superopt(req.env.build());
            &custom
        }
    };
    simp.session()
        .optimize(&req.expr, &req.config(), req.cost.build())
}

fn assert_optimize_agrees(req: &OptimizeRequest) {
    let (out, stats) = library_optimize(req);
    let simp = Simplifier::superopt(req.env.build());
    let (out_o, stats_o, _) =
        optimize_full_sweep(&simp, &req.expr, &req.config(), &KeyedCost::of(req.cost));
    assert_eq!(stats, stats_o, "stats diverged on {}", req.expr);
    assert_eq!(out, out_o, "extraction diverged on {}", req.expr);
    let payload = req.handle().expect("optimize handles").render();
    assert_eq!(
        payload,
        optimize_payload_rebuild(req).render(),
        "optimize payload diverged on {}",
        req.expr
    );
}

proptest! {
    #[test]
    fn semi_naive_optimize_matches_the_full_sweep(
        reqs in prop::collection::vec(OptimizeCase, 1..24)
    ) {
        for req in &reqs {
            assert_optimize_agrees(req);
        }
    }

    #[test]
    fn shared_simplify_engine_matches_per_request_builds(
        reqs in prop::collection::vec(OptimizeCase, 1..24)
    ) {
        for req in reqs {
            let req = SimplifyRequest { expr: req.expr, env: req.env };
            let payload = req.handle().expect("simplify handles").render();
            prop_assert_eq!(payload, simplify_payload_rebuild(&req).render());
        }
    }
}

/// An eight-variable add chain (15 nodes) under a 20-node budget: the
/// first sweep's commutes and re-associations cross the budget before
/// every input node is matched, and both engines stop at the same node.
#[test]
fn a_budget_stop_inside_the_match_sweep_agrees() {
    let mut e = Expr::var("v0", Type::Int);
    for i in 1..8 {
        e = Expr::bin(BinOp::Add, e, Expr::var(format!("v{i}"), Type::Int));
    }
    let cfg = EGraphConfig {
        max_nodes: 20,
        max_classes: 20,
        max_iters: 6,
    };
    let simp = Simplifier::superopt_ref();
    let cost = CostSpec::Measured.build();
    let mut sess = simp.session();
    sess.store_mut().intern_expr(&e);
    let input_nodes = sess.store().len();
    let mut stats = OptimizeStats::default();
    let mut g = EGraph::new(simp, sess.store_mut());
    g.saturate(&cfg, &mut stats);
    assert!(stats.budget_hit && stats.iters == 1);
    assert!(
        g.matched() < input_nodes,
        "the budget must stop the first sweep early ({} of {input_nodes} matched)",
        g.matched()
    );

    let (_, full, _) = optimize_full_sweep(simp, &e, &cfg, &KeyedCost::measured());
    let (_, lib) = simp.session().optimize(&e, &cfg, cost);
    assert_eq!(lib, full);
    assert!(lib.budget_hit);
}

/// Semi-naive matching does strictly less work once a run takes more
/// than one iteration, and the same work on the first.
#[test]
fn semi_naive_matches_each_node_once() {
    let x = Expr::var("x", Type::Int);
    let y = Expr::var("y", Type::Int);
    let e = Expr::bin(
        BinOp::Add,
        Expr::bin(BinOp::Add, x, y.clone()),
        Expr::un(UnOp::Neg, y),
    );
    let cfg = EGraphConfig::default();
    let simp = Simplifier::superopt_ref();
    let cost = CostSpec::Annotation.build();
    let mut sess = simp.session();
    let root = sess.store_mut().intern_expr(&e);
    let mut g = EGraph::new(simp, sess.store_mut());
    let (_, stats) = g.optimize(root, &cfg, cost);
    let (_, full_stats, full_matched) =
        optimize_full_sweep(simp, &e, &cfg, &KeyedCost::annotation());
    assert_eq!(stats, full_stats);
    assert!(stats.saturated && stats.iters > 1);
    assert!(
        g.matched() <= stats.nodes,
        "each node is matched at most once"
    );
    assert!(g.matched() < full_matched);
}
