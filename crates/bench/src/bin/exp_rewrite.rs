//! E5: Simplicissimus — the Fig. 5 coverage table: two concept-based rules
//! subsume the ten type-specific instances, plus the LiDIA user extension
//! and the "new type for free" demonstration.
//!
//! E13r: the rewrite-engine benchmark — hash-consed interner + indexed
//! dispatch + normal-form memo vs the clone-per-pass baseline, over
//! shared-subterm, deep, and wide workloads, plus the id-level DAG entry
//! point on expressions too large to exist as trees. Emits
//! `results/BENCH_rewrite.json`; `--smoke` shrinks sizes for CI.

use gp_bench::oracle::simplify_baseline;
use gp_bench::{banner, median_ms, write_results, Json, Table};
use gp_rewrite::env::AlgConcept;
use gp_rewrite::expr::Value;
use gp_rewrite::rules::LidiaInverse;
use gp_rewrite::{BinOp, Expr, Simplifier, Type, UnOp};
use std::time::Instant;

fn instances() -> Vec<(&'static str, Expr)> {
    use BinOp::*;
    let var = Expr::var;
    vec![
        // Fig. 5 row 1: x + 0 → x when (x, +) models Monoid.
        ("i * 1", Expr::bin(Mul, var("i", Type::Int), Expr::int(1))),
        (
            "f * 1.0",
            Expr::bin(Mul, var("f", Type::Float), Expr::float(1.0)),
        ),
        (
            "b && true",
            Expr::bin(And, var("b", Type::Bool), Expr::boolean(true)),
        ),
        (
            "i & 0xFF..F",
            Expr::bin(BitAnd, var("i", Type::UInt), Expr::uint(u64::MAX)),
        ),
        (
            "concat(s, \"\")",
            Expr::bin(Concat, var("s", Type::Str), Expr::string("")),
        ),
        ("x + 0", Expr::bin(Add, var("x", Type::Int), Expr::int(0))),
        // Fig. 5 row 2: x + (-x) → 0 when (x, +, -) models Group.
        (
            "i + (-i)",
            Expr::bin(
                Add,
                var("i", Type::Int),
                Expr::un(UnOp::Neg, var("i", Type::Int)),
            ),
        ),
        (
            "f * (1.0/f)",
            Expr::bin(
                Mul,
                var("f", Type::Float),
                Expr::un(UnOp::Recip, var("f", Type::Float)),
            ),
        ),
        (
            "r * r^-1",
            Expr::bin(
                Mul,
                var("r", Type::Rational),
                Expr::un(UnOp::Recip, var("r", Type::Rational)),
            ),
        ),
        (
            "g - g",
            Expr::bin(Sub, var("g", Type::Float), var("g", Type::Float)),
        ),
    ]
}

fn main() {
    banner(
        "E5",
        "Two concept-based rules subsume the Fig. 5 instance list",
        "Fig. 5; §3.2 Simplicissimus",
    );
    let s = Simplifier::standard();
    let t = Table::new(&[
        ("instance", 16),
        ("before", 24),
        ("after", 14),
        ("rule fired", 16),
        ("requirement", 30),
    ]);
    let mut rules_used = std::collections::BTreeSet::new();
    for (label, e) in instances() {
        let (out, stats) = s.simplify(&e);
        let rule = stats
            .applications
            .keys()
            .next()
            .cloned()
            .unwrap_or_else(|| "-".to_string());
        let req = match rule.as_str() {
            "right-identity" | "left-identity" => "(x, op) models Monoid",
            "right-inverse" | "left-inverse" => "(x, op, inv) models Group",
            _ => "-",
        };
        rules_used.extend(stats.applications.keys().cloned());
        t.row(&[
            label.to_string(),
            e.to_string(),
            out.to_string(),
            rule,
            req.to_string(),
        ]);
    }
    println!(
        "\n  {} instances simplified by {} concept-based rules: {:?}",
        instances().len(),
        rules_used.len(),
        rules_used
    );

    banner(
        "E5b",
        "User-extensible library rules (LiDIA 1.0/f → f.Inverse())",
        "§3.2 'the ability to extend the optimizer … is of paramount importance'",
    );
    let f = Expr::var("f", Type::BigFloat);
    let e = Expr::bin(BinOp::Div, Expr::bigfloat(1.0), f);
    let (before, _) = Simplifier::standard().simplify(&e);
    println!("  without LiDIA rule: {e}  →  {before}");
    let mut s = Simplifier::standard();
    s.add_rule(Box::new(LidiaInverse));
    let (after, _) = s.simplify(&e);
    println!("  with LiDIA rule   : {e}  →  {after}");

    banner(
        "E5c",
        "A new data type gets the rules 'for free' after declaring models",
        "Fig. 5 advantage 3",
    );
    // Treat BigFloat-with-Add as the 'new type': before declaration nothing
    // fires; after declaring Monoid, the existing rule applies unchanged.
    let e = Expr::bin(
        BinOp::Add,
        Expr::var("m", Type::BigFloat),
        Expr::bigfloat(0.0),
    );
    let bare = Simplifier::empty(gp_rewrite::ConceptEnv::empty());
    let (out, _) = bare.simplify(&e);
    println!("  no concept declarations : {e}  →  {out}");
    let mut env = gp_rewrite::ConceptEnv::empty();
    env.declare(Type::BigFloat, BinOp::Add, AlgConcept::Monoid)
        .set_identity(Type::BigFloat, BinOp::Add, Value::BigFloat(0.0));
    let s = Simplifier::with_env(env);
    let (out, stats) = s.simplify(&e);
    println!(
        "  after declaring Monoid  : {e}  →  {out}   (rule: {})",
        stats.applications.keys().next().unwrap()
    );

    banner(
        "E5d",
        "Deep-expression simplification statistics",
        "§3.2 (engine characteristics)",
    );
    // ((x*1 + (y + -y)) * 1 + 0) nested 20 deep.
    let mut e = Expr::var("x", Type::Int);
    for _ in 0..20 {
        e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, e, Expr::int(1)),
            Expr::bin(
                BinOp::Add,
                Expr::var("y", Type::Int),
                Expr::un(UnOp::Neg, Expr::var("y", Type::Int)),
            ),
        );
    }
    let (out, stats) = Simplifier::standard().simplify(&e);
    println!(
        "  AST size {} → {} in {} fixpoint pass(es), {} rule applications",
        stats.size_before,
        stats.size_after,
        stats.iterations,
        stats.total()
    );
    println!("  result: {out}");

    e13r(std::env::args().any(|a| a == "--smoke"));
}

// --- E13r: interned engine vs clone-per-pass baseline -------------------

/// Median wall time of `reps` runs, in milliseconds.
/// `levels` doublings of a rewritable core: every level duplicates the
/// term below it, so the tree has ~3·2^levels nodes but only ~3·levels
/// distinct subterms — the workload hash-consing exists for.
fn shared_subterm_expr(levels: usize) -> Expr {
    let mut t = Expr::bin(
        BinOp::Add,
        Expr::bin(BinOp::Mul, Expr::var("x", Type::Int), Expr::int(1)),
        Expr::int(0),
    );
    for _ in 0..levels {
        let half = Expr::bin(BinOp::Mul, t, Expr::int(1));
        t = Expr::bin(BinOp::Add, half.clone(), half);
    }
    t
}

/// Right-identity chain `((x*1)*1)*…` of the given depth: every level is
/// a *distinct* subterm, so the memo never hits — the no-sharing control.
fn deep_expr(depth: usize) -> Expr {
    let mut e = Expr::var("x", Type::Int);
    for _ in 0..depth {
        e = Expr::bin(BinOp::Mul, e, Expr::int(1));
    }
    e
}

/// Balanced tree over distinct variables — wide, shallow, all-distinct.
fn wide_expr(depth: usize) -> Expr {
    fn build(depth: usize, next: &mut usize) -> Expr {
        if depth == 0 {
            let e = Expr::bin(
                BinOp::Mul,
                Expr::var(format!("v{next}"), Type::Int),
                Expr::int(1),
            );
            *next += 1;
            return e;
        }
        Expr::bin(BinOp::Add, build(depth - 1, next), build(depth - 1, next))
    }
    build(depth, &mut 0)
}

fn bench_workload(name: &str, e: &Expr, reps: usize, table: &Table) -> Json {
    let s = Simplifier::standard();
    let (out_new, stats_new) = s.simplify(e);
    let (out_old, stats_old) = simplify_baseline(&s, e);
    assert_eq!(out_new, out_old, "engines diverged on workload {name}");
    let interned_ms = median_ms(reps, || s.simplify(e));
    let baseline_ms = median_ms(reps, || simplify_baseline(&s, e));
    let speedup = baseline_ms / interned_ms;
    table.row(&[
        name.to_string(),
        stats_new.size_before.to_string(),
        stats_new.distinct_terms.to_string(),
        format!("{baseline_ms:.3}"),
        format!("{interned_ms:.3}"),
        format!("{speedup:.2}x"),
    ]);
    Json::obj()
        .field("workload", name)
        .field("size_before", stats_new.size_before)
        .field("distinct_terms", stats_new.distinct_terms)
        .field("memo_hits", stats_new.memo_hits)
        .field("applications_interned", stats_new.total())
        .field("applications_baseline", stats_old.total())
        .field("baseline_ms", baseline_ms)
        .field("interned_ms", interned_ms)
        .field("speedup", speedup)
}

fn e13r(smoke: bool) {
    banner(
        "E13r",
        "Hash-consed interner + indexed dispatch vs clone-per-pass engine",
        "§3.2 (rewriting as a performance tool); ROADMAP 'fast as the hardware allows'",
    );
    let (shared_levels, deep_depth, wide_depth, reps) = if smoke {
        (10, 128, 8, 3)
    } else {
        (16, 512, 11, 7)
    };
    let t = Table::new(&[
        ("workload", 10),
        ("tree size", 12),
        ("distinct", 10),
        ("baseline ms", 12),
        ("interned ms", 12),
        ("speedup", 9),
    ]);
    let workloads = vec![
        bench_workload("shared", &shared_subterm_expr(shared_levels), reps, &t),
        bench_workload("deep", &deep_expr(deep_depth), reps, &t),
        bench_workload("wide", &wide_expr(wide_depth), reps, &t),
    ];

    // The id-level entry point: a (x*1 + x*1)-doubling DAG 48 levels deep
    // — a 2^48-node expression that cannot exist as a tree — simplified
    // directly in the store.
    let s = Simplifier::standard();
    let mut sess = s.session();
    let st = sess.store_mut();
    let x = st.var("x", Type::Int);
    let one = st.lit(&Value::Int(1));
    let mut d = x;
    for _ in 0..48 {
        let m = st.binary(BinOp::Mul, d, one);
        d = st.binary(BinOp::Add, m, m);
    }
    let t0 = Instant::now();
    let (_, dag_stats) = sess.simplify_id(d);
    let dag_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "\n  id-level DAG: 2^48-node (virtual) expression, {} distinct terms, \
         {} rule fires in {:.3} ms",
        dag_stats.distinct_terms,
        dag_stats.total(),
        dag_ms
    );

    let shared_speedup = workloads[0].get("speedup").and_then(Json::as_f64).unwrap();
    println!(
        "\n  headline: {shared_speedup:.1}x on the shared-subterm workload \
         (target >= 3x)"
    );

    let report = Json::obj()
        .field("experiment", "E13r")
        .field("smoke", smoke)
        .field("reps", reps)
        .field("workloads", Json::Arr(workloads))
        .field(
            "dag_id_level",
            Json::obj()
                .field("virtual_levels", 48usize)
                .field("distinct_terms", dag_stats.distinct_terms)
                .field("applications", dag_stats.total())
                .field("interned_ms", dag_ms),
        )
        .field("shared_speedup", shared_speedup)
        .field("target_speedup", 3.0);
    let path = write_results("BENCH_rewrite.json", &report);
    println!("  wrote {}", path.display());
}
