//! Frozen reference implementations, one per job, kept outside the
//! library.
//!
//! Each production job in the library has exactly one code path. The
//! engines it replaced survive here because they are still useful as
//! oracles (equivalence tests pin the production engine to them) and as
//! measured baselines (the experiments time the production engine
//! against them):
//!
//! * [`analyze_flat`] — the seed intraprocedural checker; the flat-program
//!   oracle for `gp_checker::analyze`.
//! * [`parse_seed`] — the checker's text front end before identifiers were
//!   interned; the oracle for `gp_checker::parse::parse`.
//! * [`simplify_baseline`] — the clone-per-pass rewriter; the reference
//!   and E13r baseline for the interned `Simplifier`.
//! * [`prove_recheck`] — the `prove` handler that rebuilds, renames and
//!   re-checks every theory per request; the reference and E8b baseline
//!   for the served handler, which renames statements checked once.
//! * [`spawn_map`] / [`spawn_reduce`] — spawn-per-call parallel
//!   primitives; the E11 baseline for the pooled executor.

mod checker;
mod parse;
mod prove;
mod rewrite;
mod spawn;

pub use checker::analyze_flat;
pub use parse::parse_seed;
pub use prove::prove_recheck;
pub use rewrite::simplify_baseline;
pub use spawn::{spawn_map, spawn_reduce};
