//! Standard-environment `simplify` and `optimize` requests run on engines
//! built once per process (`Simplifier::standard_ref` and
//! `Simplifier::superopt_ref`), so their rule indexes are built once, not
//! once per request; a custom environment still builds its own.
//!
//! `rewrite.index.builds` is process-wide, so this test has its own
//! binary: no other test can build an engine meanwhile.

use gp_rewrite::env::AlgConcept;
use gp_rewrite::{BinOp, Expr, Simplifier, Type, UnOp, Value};
use gp_service::optimize::{CostSpec, OptimizeRequest};
use gp_service::simplify::{EnvDecl, EnvSpec, SimplifyRequest};
use gp_service::RequestKind;

fn simplify(i: usize, env: EnvSpec) -> SimplifyRequest {
    SimplifyRequest {
        expr: Expr::bin(
            BinOp::Add,
            Expr::bin(
                BinOp::Mul,
                Expr::var(format!("x{i}"), Type::Int),
                Expr::int(1),
            ),
            Expr::int(0),
        ),
        env,
    }
}

fn optimize(i: usize) -> OptimizeRequest {
    let y = Expr::var("y", Type::Int);
    OptimizeRequest {
        expr: Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, Expr::var(format!("x{i}"), Type::Int), y.clone()),
            Expr::un(UnOp::Neg, y),
        ),
        env: EnvSpec::Standard,
        cost: if i.is_multiple_of(2) {
            CostSpec::Annotation
        } else {
            CostSpec::Measured
        },
        max_nodes: None,
        max_iters: None,
    }
}

#[test]
fn rule_indexes_are_built_once_not_per_request() {
    // First use builds the two shared engines' indexes.
    simplify(0, EnvSpec::Standard).handle().unwrap();
    optimize(0).handle().unwrap();
    let shared = (
        Simplifier::standard_ref() as *const Simplifier as usize,
        Simplifier::superopt_ref() as *const Simplifier as usize,
    );

    let before = gp_telemetry::snapshot();
    let handles: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..4 {
                    let n = t * 4 + i;
                    let out = simplify(n, EnvSpec::Standard).handle().unwrap();
                    assert!(out.render().contains(&format!("\"display\":\"x{n}\"")));
                    simplify(n + 1, EnvSpec::Standard).handle().unwrap();
                    let out = optimize(n).handle().unwrap();
                    assert!(out.render().contains(&format!("\"display\":\"x{n}\"")));
                }
                (
                    Simplifier::standard_ref() as *const Simplifier as usize,
                    Simplifier::superopt_ref() as *const Simplifier as usize,
                )
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), shared);
    }
    let delta = gp_telemetry::snapshot().delta(&before);
    assert_eq!(
        delta.counter("rewrite.index.builds"),
        0,
        "a rule index was rebuilt after first use"
    );
    assert!(delta.counter("rewrite.egraph.matched") > 0);

    // A custom environment builds its engine, and so its index, per
    // request.
    let custom = EnvSpec::Custom(vec![EnvDecl {
        ty: Type::Int,
        op: BinOp::Mul,
        concepts: vec![AlgConcept::Monoid],
        identity: Some(Value::Int(1)),
        annihilator: None,
        inverse: None,
    }]);
    let before = gp_telemetry::snapshot();
    simplify(0, custom.clone()).handle().unwrap();
    simplify(1, custom).handle().unwrap();
    let delta = gp_telemetry::snapshot().delta(&before);
    assert_eq!(delta.counter("rewrite.index.builds"), 2);
}
