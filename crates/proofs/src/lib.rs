//! # gp-proofs — a Denotational Proof Language checker (Athena-style)
//!
//! Reproduction of the paper's §3.3. The design follows Arkoudas's DPL
//! architecture as the paper describes it:
//!
//! * an **assumption base** — "an associative memory of propositions that
//!   have been asserted or proved in a proof session; … all proof activity
//!   centers around it" ([`base::AssumptionBase`]);
//! * **deductions** that are *executed*: "proper deductions … produce
//!   theorems and add them to the assumption base; improper deductions
//!   result in an error condition" ([`deduction::Ded`],
//!   [`deduction::eval`]);
//! * **first-class methods**: proof-building functions are ordinary Rust
//!   functions returning [`deduction::Ded`] values, composable and
//!   parameterizable;
//! * **genericity without modules**: theories are "parameterized … by
//!   functions that carry operator mappings" — a generic proof over
//!   abstract symbols is checked once and *renamed* onto concrete symbols
//!   ([`logic::SymbolMap`], [`theories`]); a renaming that could change a
//!   proof's meaning re-checks it. Proof **checking** is all the engine
//!   ever does; there is no proof search.
//!
//! The flagship content is [`theories::order`]: the Strict Weak Order
//! axioms of Fig. 6 with machine-checked derivations of the symmetry and
//! reflexivity of the induced equivalence — the paper's exact example —
//! plus monoid/group theories ([`theories::monoid`], [`theories::group`])
//! covering the algebraic concepts the optimizer keys on.

pub mod base;
pub mod deduction;
pub mod logic;
pub mod theories;

pub use base::AssumptionBase;
pub use deduction::{eval, Ded, ProofError};
pub use logic::{Prop, SymbolMap, Term};
