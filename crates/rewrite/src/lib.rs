//! # gp-rewrite — Simplicissimus: concept-based expression rewriting
//!
//! Reproduction of the paper's §3.2 optimizer. A traditional compiler
//! simplifier rewrites `x + 0 → x` only when `x` is a built-in integer;
//! Simplicissimus applies rewrite rules **keyed on the concepts the data
//! types model**: `x + 0 → x` is valid whenever `(x, +)` models *Monoid*,
//! `x + (-x) → 0` whenever `(x, +, -)` models *Group* (Fig. 5). Two generic
//! rules thereby subsume the ten type-specific instances of Fig. 5 — and
//! every future type that declares the concepts, "for free".
//!
//! The engine is **user-extensible** (the paper: "of paramount
//! importance"): libraries register their own rules, e.g. LiDIA's
//! `1.0/f → f.Inverse()` specialization for arbitrary-precision floats.
//!
//! Modules:
//!
//! * [`expr`] — the typed expression AST, evaluator, and pretty printer.
//! * [`mod@env`] — the concept environment: which `(type, operation)` pairs
//!   model Monoid/Group/…, their identity and annihilator elements.
//! * [`rules`] — the [`rules::RewriteRule`] concept and the built-in
//!   concept-based rule library. Each built-in rule is written once,
//!   generic over the [`rules::Terms`] concept, whose two models are
//!   `Expr` trees and the interned [`TermStore`]; one bridge impl turns
//!   that body into both `RewriteRule` entry points.
//! * [`intern`] — the hash-consed term store: every distinct subterm
//!   interned once, `u32` ids, O(1) equality.
//! * [`simplify`] — the rewrite engine: indexed rule dispatch plus a
//!   normal-form memo over the interner, with application statistics
//!   (the original clone-per-pass engine, its measured baseline, lives
//!   in `gp_bench::oracle`).
//! * [`egraph`] — the opt-in equality-saturation mode: e-classes and
//!   congruence closure layered over the interner, bounded saturation of
//!   the same concept-gated rules, and cost-based extraction (the
//!   concept superoptimizer).

pub mod egraph;
pub mod env;
pub mod expr;
pub mod intern;
pub mod rules;
pub mod simplify;

pub use egraph::{
    AstSizeCost, ComplexityCost, CostModel, EGraph, EGraphConfig, MeasuredCost, OptimizeStats,
};
pub use env::ConceptEnv;
pub use expr::{BinOp, Expr, Type, UnOp, Value};
pub use intern::{TermId, TermStore};
pub use rules::RewriteRule;
pub use simplify::{Session, Simplifier, SimplifyStats};
