//! Cross-model property test: each built-in rule's two entry points,
//! `try_apply` on `Expr` trees and `try_apply_interned` on the hash-consed
//! `TermStore`, must give the same answer on random well-typed
//! expressions of Int, Float, BigFloat, Bool and Str.
//!
//! Float literals include `0.0`, `-0.0`, NaN and `1.0`, where `Expr::eq`
//! and id equality part ways, and a binary node's operands are forced
//! equal (or one the inverse of the other) often, so every
//! equality-sensitive rule is exercised on both sides of its test. The
//! tree result is interned into the store that produced the store result,
//! so the comparison is by id: NaN literals compare bitwise.

use gp_rewrite::rules::{exploration_rules, standard_rules, LidiaInverse};
use gp_rewrite::{BinOp, ConceptEnv, Expr, TermStore, Type, UnOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TYPES: [Type; 5] = [
    Type::Int,
    Type::Float,
    Type::BigFloat,
    Type::Bool,
    Type::Str,
];
const FLOATS: [f64; 5] = [0.0, -0.0, f64::NAN, 1.0, 2.5];

/// The binary and unary operators well-typed at `ty`.
fn ops(ty: Type) -> (&'static [BinOp], &'static [UnOp]) {
    use BinOp::*;
    use UnOp::*;
    match ty {
        Type::Int => (&[Add, Sub, Mul], &[Neg]),
        Type::Float | Type::BigFloat => (&[Add, Sub, Mul, Div], &[Neg, Recip]),
        Type::Bool => (&[And, Or], &[Not]),
        Type::Str => (&[Concat], &[]),
        _ => unreachable!("no generator for {ty:?}"),
    }
}

fn leaf(rng: &mut StdRng, ty: Type) -> Expr {
    if rng.gen_bool(0.4) {
        return Expr::var(if rng.gen_bool(0.5) { "x" } else { "y" }, ty);
    }
    match ty {
        Type::Int => Expr::int(rng.gen_range(-1..3)),
        Type::Float => Expr::float(FLOATS[rng.gen_range(0..FLOATS.len())]),
        Type::BigFloat => Expr::bigfloat(FLOATS[rng.gen_range(0..FLOATS.len())]),
        Type::Bool => Expr::boolean(rng.gen_bool(0.5)),
        _ => Expr::string(if rng.gen_bool(0.5) { "" } else { "a" }),
    }
}

fn gen_expr(rng: &mut StdRng, ty: Type, depth: usize) -> Expr {
    if depth == 0 || rng.gen_bool(0.25) {
        return leaf(rng, ty);
    }
    let (bins, uns) = ops(ty);
    if !uns.is_empty() && rng.gen_bool(0.2) {
        let op = uns[rng.gen_range(0..uns.len())];
        return Expr::un(op, gen_expr(rng, ty, depth - 1));
    }
    let op = bins[rng.gen_range(0..bins.len())];
    let l = gen_expr(rng, ty, depth - 1);
    let r = match rng.gen_range(0..6) {
        0 | 1 => l.clone(),
        2 if !uns.is_empty() => Expr::un(uns[rng.gen_range(0..uns.len())], l.clone()),
        _ => gen_expr(rng, ty, depth - 1),
    };
    if rng.gen_bool(0.5) {
        Expr::bin(op, l, r)
    } else {
        Expr::bin(op, r, l)
    }
}

#[test]
fn tree_and_store_entry_points_agree() {
    let mut rules = standard_rules();
    rules.extend(exploration_rules());
    rules.push(Box::new(LidiaInverse));
    let env = ConceptEnv::standard();
    let mut rng = StdRng::seed_from_u64(0x5eed_0019);
    for _ in 0..20_000 {
        let ty = TYPES[rng.gen_range(0..TYPES.len())];
        let e = gen_expr(&mut rng, ty, 4);
        let mut st = TermStore::new();
        let id = st.intern_expr(&e);
        for rule in &rules {
            let store = rule.try_apply_interned(&mut st, id, &env);
            let tree = rule.try_apply(&e, &env).map(|t| st.intern_expr(&t));
            let show = |t: Option<_>| t.map(|t| st.extract(t).to_string());
            assert!(
                tree == store,
                "{} on {e}: tree gives {:?}, store gives {:?}",
                rule.name(),
                show(tree),
                show(store)
            );
        }
    }
}
