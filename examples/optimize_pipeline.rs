//! An optimization pipeline: batch-simplify a stream of expressions with
//! the concept-based rule set, then extend the optimizer with a
//! library-specific rule and watch the coverage change — §3.2 end to end.
//!
//! ```text
//! cargo run --example optimize_pipeline
//! ```

use generic_hpc::rewrite::rules::LidiaInverse;
use generic_hpc::rewrite::{BinOp, Expr, Simplifier, Type, UnOp};
use std::collections::BTreeMap;

fn workload() -> Vec<Expr> {
    let x = || Expr::var("x", Type::Int);
    let y = || Expr::var("y", Type::Float);
    let s = || Expr::var("s", Type::Str);
    let f = || Expr::var("f", Type::BigFloat);
    vec![
        Expr::bin(BinOp::Mul, x(), Expr::int(1)),
        Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, x(), Expr::int(2)),
            Expr::int(3),
        ),
        Expr::bin(BinOp::Mul, y(), Expr::un(UnOp::Recip, y())),
        Expr::bin(BinOp::Concat, s(), Expr::string("")),
        Expr::bin(BinOp::Mul, x(), Expr::int(0)),
        Expr::bin(BinOp::Div, Expr::bigfloat(1.0), f()),
        Expr::un(UnOp::Not, Expr::un(UnOp::Not, Expr::var("b", Type::Bool))),
        Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Sub, y(), y()),
            Expr::bin(BinOp::Mul, y(), Expr::float(1.0)),
        ),
    ]
}

fn run(label: &str, s: &Simplifier) {
    println!("== {label} ==");
    let mut total_before = 0;
    let mut total_after = 0;
    let mut rules: BTreeMap<&str, usize> = BTreeMap::new();
    for e in workload() {
        let (out, stats) = s.simplify(&e);
        total_before += stats.size_before;
        total_after += stats.size_after;
        for (k, v) in stats.applications {
            *rules.entry(k).or_insert(0) += v;
        }
        println!("  {e:<28} →  {out}");
    }
    println!("  total AST nodes: {total_before} → {total_after}");
    println!("  rule applications: {rules:?}\n");
}

fn main() {
    // Standard concept-based rules only.
    run("standard concept rules", &Simplifier::standard());

    // Library extension: the LiDIA bigfloat inverse specialization.
    let mut extended = Simplifier::standard();
    extended.add_rule(Box::new(LidiaInverse));
    run("standard + LiDIA library rule", &extended);

    println!("note how 1.0/f only specializes once the library registers");
    println!("its rule — and nothing else in the pipeline had to change.");
}
