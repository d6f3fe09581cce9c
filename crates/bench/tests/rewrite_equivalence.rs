//! Property tests pinning the hash-consed engine to the clone-per-pass
//! baseline ([`gp_bench::oracle::simplify_baseline`]): for random expressions — including DAG-shaped ones with
//! forced shared subterms — both engines must produce the same output
//! and the same per-rule application counts, and the interned engine
//! must actually exploit the sharing (memo hit-rate > 0).

use gp_bench::oracle::simplify_baseline;
use gp_rewrite::expr::{BinOp, Type, UnOp};
use gp_rewrite::{Expr, Simplifier};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Strategy over the integer fragment (the fragment with rich rule
/// coverage: identities, inverses, annihilators, constant folding,
/// associative re-folding). The offline proptest subset has no
/// `prop_recursive`, so this is a hand-rolled recursive sampler.
struct IntExpr {
    depth: usize,
}

fn gen_int_expr(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return match rng.gen_range(0..4) {
            0 => Expr::int(rng.gen_range(-3..4)),
            1 => Expr::int(0),
            2 => Expr::var("a", Type::Int),
            _ => Expr::var("b", Type::Int),
        };
    }
    match rng.gen_range(0..4) {
        0 => Expr::bin(
            BinOp::Add,
            gen_int_expr(rng, depth - 1),
            gen_int_expr(rng, depth - 1),
        ),
        1 => Expr::bin(
            BinOp::Sub,
            gen_int_expr(rng, depth - 1),
            gen_int_expr(rng, depth - 1),
        ),
        2 => Expr::bin(
            BinOp::Mul,
            gen_int_expr(rng, depth - 1),
            gen_int_expr(rng, depth - 1),
        ),
        _ => Expr::un(UnOp::Neg, gen_int_expr(rng, depth - 1)),
    }
}

impl Strategy for IntExpr {
    type Value = Expr;

    fn sample(&self, rng: &mut StdRng) -> Expr {
        gen_int_expr(rng, self.depth)
    }
}

/// Builds a tree with *forced* shared subterms: starting from a pool of
/// independent seeds, each step combines two previously built nodes
/// (chosen by index, so reuse — and thus structural sharing once
/// interned — is the norm, not the exception). The returned `Expr` is a
/// plain tree whose clones of shared nodes the interner must collapse.
struct SharedDagExpr;

impl Strategy for SharedDagExpr {
    type Value = Expr;

    fn sample(&self, rng: &mut StdRng) -> Expr {
        let mut nodes: Vec<Expr> = (0..rng.gen_range(1..4))
            .map(|_| gen_int_expr(rng, 2))
            .collect();
        for _ in 0..rng.gen_range(1..12) {
            let l = nodes[rng.gen_range(0..nodes.len())].clone();
            let r = nodes[rng.gen_range(0..nodes.len())].clone();
            let op = match rng.gen_range(0..3) {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                _ => BinOp::Mul,
            };
            nodes.push(Expr::bin(op, l, r));
        }
        nodes.pop().expect("at least one seed")
    }
}

/// Both engines must agree on the output; the interned engine may fire
/// each rule *fewer* times (a shared subterm is rewritten once, not once
/// per occurrence — the point of the memo), but never more, and never a
/// rule the baseline didn't need.
fn assert_engines_agree(s: &Simplifier, e: &Expr) {
    let (out_new, stats_new) = s.simplify(e);
    let (out_old, stats_old) = simplify_baseline(s, e);
    assert_eq!(out_new, out_old, "engines diverged on {e}");
    assert_eq!(stats_new.size_before, stats_old.size_before);
    assert_eq!(stats_new.size_after, stats_old.size_after);
    let new_rules: Vec<&&str> = stats_new.applications.keys().collect();
    let old_rules: Vec<&&str> = stats_old.applications.keys().collect();
    assert_eq!(new_rules, old_rules, "different rule sets fired on {e}");
    for (rule, n_new) in &stats_new.applications {
        let n_old = stats_old.applications[rule];
        assert!(
            *n_new <= n_old,
            "rule {rule} fired {n_new} > baseline {n_old} times on {e}"
        );
    }
}

proptest! {
    #[test]
    fn interned_engine_matches_baseline_on_random_expressions(e in IntExpr { depth: 4 }) {
        assert_engines_agree(&Simplifier::standard(), &e);
    }

    #[test]
    fn interned_engine_matches_baseline_on_shared_subterm_dags(e in SharedDagExpr) {
        assert_engines_agree(&Simplifier::standard(), &e);
    }

    #[test]
    fn doubled_expressions_always_memo_hit(e in IntExpr { depth: 3 }) {
        // t + t: the second occurrence of t is, by construction, shared —
        // the interner must collapse it and the memo must catch it.
        let doubled = Expr::bin(BinOp::Add, e.clone(), e);
        let s = Simplifier::standard();
        let (out, stats) = s.simplify(&doubled);
        prop_assert!(stats.memo_hits > 0, "no memo hits on a doubled term");
        let (out_old, _) = simplify_baseline(&s, &doubled);
        prop_assert_eq!(out, out_old);
    }
}
