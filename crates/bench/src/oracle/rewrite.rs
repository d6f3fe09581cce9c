//! The original clone-per-pass rewriter: the behavioral reference and
//! measured baseline for the interned engine in `gp_rewrite::simplify`.
//!
//! Each pass rebuilds the whole tree bottom-up, trying every rule in
//! registration order at every node until none fires, and passes repeat
//! to a fixpoint (capped at 64). E13r (`exp_rewrite`) times it against
//! [`Simplifier::simplify`], and the equivalence proptests pin the two to
//! the same outputs and per-rule counts. Nothing here reports telemetry.

use gp_rewrite::{Expr, Simplifier, SimplifyStats};

/// Pass cap: a rule set that rewrites forever stops here.
const MAX_ITERS: usize = 64;

/// Simplify `e` with `s`'s environment and rules, one clone-per-pass
/// bottom-up rewrite at a time, to a fixpoint.
pub fn simplify_baseline(s: &Simplifier, e: &Expr) -> (Expr, SimplifyStats) {
    let mut stats = SimplifyStats {
        size_before: e.size(),
        ..SimplifyStats::default()
    };
    let mut cur = e.clone();
    for _ in 0..MAX_ITERS {
        stats.iterations += 1;
        let (next, changed) = pass(s, &cur, &mut stats);
        cur = next;
        if !changed {
            break;
        }
    }
    stats.size_after = cur.size();
    (cur, stats)
}

/// One bottom-up pass. Returns (expr, changed).
fn pass(s: &Simplifier, e: &Expr, stats: &mut SimplifyStats) -> (Expr, bool) {
    // Rewrite children first.
    let (mut node, mut changed) = match e {
        Expr::Unary(op, x) => {
            let (x2, c) = pass(s, x, stats);
            (Expr::Unary(*op, Box::new(x2)), c)
        }
        Expr::Binary(op, l, r) => {
            let (l2, cl) = pass(s, l, stats);
            let (r2, cr) = pass(s, r, stats);
            (Expr::Binary(*op, Box::new(l2), Box::new(r2)), cl || cr)
        }
        Expr::Call(name, ty, args) => {
            let mut c = false;
            let args2 = args
                .iter()
                .map(|a| {
                    let (a2, ca) = pass(s, a, stats);
                    c |= ca;
                    a2
                })
                .collect();
            (Expr::Call(name.clone(), *ty, args2), c)
        }
        leaf => (leaf.clone(), false),
    };
    // Then the root, repeatedly until no rule fires. (This loop runs for
    // leaves too: a rule matching a bare variable or literal at any
    // position — including the whole-expression root — fires.)
    loop {
        let fired = s.rules().iter().find_map(|rule| {
            rule.try_apply(&node, s.env())
                .map(|next| (rule.name(), next))
        });
        let Some((name, next)) = fired else {
            return (node, changed);
        };
        *stats.applications.entry(name.to_string()).or_insert(0) += 1;
        node = next;
        changed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_rewrite::{BinOp, ConceptEnv, RewriteRule, Type, UnOp};

    #[test]
    fn nested_expression_agrees_with_the_interned_engine() {
        let x = Expr::var("x", Type::Int);
        let y = Expr::var("y", Type::Int);
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, x.clone(), Expr::int(1)),
            Expr::bin(BinOp::Add, y.clone(), Expr::un(UnOp::Neg, y)),
        );
        let s = Simplifier::standard();
        let (out, stats) = s.simplify(&e);
        let (out_b, stats_b) = simplify_baseline(&s, &e);
        assert_eq!(out_b, x);
        assert_eq!(out_b, out);
        assert_eq!(stats_b.applications, stats.applications);
    }

    #[test]
    fn fixpoint_terminates_on_pathological_nesting() {
        // (((x*1)*1)*1)... 60 levels: one fire per level, collapsed in
        // one bottom-up pass (plus the fixpoint-confirming one).
        let mut e = Expr::var("x", Type::Int);
        for _ in 0..60 {
            e = Expr::bin(BinOp::Mul, e, Expr::int(1));
        }
        let (out, stats) = simplify_baseline(&Simplifier::standard(), &e);
        assert_eq!(out, Expr::var("x", Type::Int));
        assert!(
            stats.iterations <= 3,
            "bottom-up should collapse in one pass"
        );
        assert_eq!(stats.applications["right-identity"], 60);
    }

    #[test]
    fn rules_fire_on_bare_leaf_roots() {
        struct InlineX;
        impl RewriteRule for InlineX {
            fn name(&self) -> &'static str {
                "inline-x"
            }
            fn requirements(&self) -> &'static str {
                "x is a known compile-time constant"
            }
            fn try_apply(&self, e: &Expr, _env: &ConceptEnv) -> Option<Expr> {
                matches!(e, Expr::Var(name, Type::Int) if name == "x").then(|| Expr::int(7))
            }
        }
        let mut s = Simplifier::standard();
        s.add_rule(Box::new(InlineX));
        let (out, stats) = simplify_baseline(&s, &Expr::var("x", Type::Int));
        assert_eq!(out, Expr::int(7));
        assert_eq!(stats.applications["inline-x"], 1);
        // The replacement feeds the concept rules: x + x → 7 + 7 → 14.
        let e = Expr::bin(
            BinOp::Add,
            Expr::var("x", Type::Int),
            Expr::var("x", Type::Int),
        );
        assert_eq!(simplify_baseline(&s, &e).0, Expr::int(14));
    }
}
