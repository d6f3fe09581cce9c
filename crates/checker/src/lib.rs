//! # gp-checker — STLlint: high-level static checking against library
//! semantics
//!
//! Reproduction of the paper's §3.1 system. STLlint "analyzes the
//! behavior of abstractions at a high level and ignores the
//! implementation of the abstractions": programs are modeled as sequences
//! of *concept-level events* — obtain an iterator, advance, dereference,
//! erase, call an algorithm — and a flow-sensitive abstract interpreter
//! tracks what library semantics say about them.
//!
//! What it detects (each is an experiment row in E3/E4/E6):
//!
//! * **Iterator invalidation** (Fig. 4): the textbook erase-loop bug yields
//!   the paper's exact diagnostic, `attempt to dereference a singular
//!   iterator`. Invalidation policies are per-container-kind, because "the
//!   invalidation behavior of operations varies greatly across domains, but
//!   the semantic iterator concept … cross-cuts" them.
//! * **Range violations**: dereferencing a (possibly) past-the-end
//!   iterator.
//! * **Sortedness pre/postconditions**: `sort` installs a *sortedness*
//!   property (exit handler); `binary_search`/`lower_bound` demand it
//!   (entry handlers); `find` on a sorted sequence triggers the paper's
//!   algorithm-selection suggestion verbatim (§3.2).
//! * **Multipass mischaracterization** ([`multipass`]): running an
//!   algorithm against the semantic Input-Iterator archetype exposes
//!   undeclared Forward (multipass) requirements, e.g. `max_element`'s.
//!
//! Modules: [`ir`] (the checked mini-language), [`parse`] (a line-oriented
//! text front end for it), [`state`] (abstract domains), [`mod@analyze`]
//! (the entry point and diagnostic vocabulary), [`interp`] (the one
//! analysis engine: the abstract interpreter with the algorithm
//! entry/exit handlers), [`corpus`] (the bug corpus, including Fig. 4),
//! [`multipass`] (semantic-archetype checking).
//!
//! The analysis is **interprocedural**: programs may define `fn
//! name(params) { ... }` and call them with `invoke name(args)`
//! (containers by reference, iterators by value). [`callgraph`]
//! discovers every `(function, calling context)` instance and condenses
//! them into SCCs; [`interp`] computes a [`summary::Summary`] per
//! instance bottom-up — SCCs at equal condensation height in parallel —
//! and the [`summary::SummaryCache`], keyed by content and by the callees'
//! summary values ([`gp_core::hash`]), makes re-analysis after an edit
//! touch only the edited function and the callers whose callees'
//! summaries changed, across service requests. [`parse::parse`] shares
//! the function blocks it has seen before through a process-wide table,
//! and the cache reuses the instance graph of an unchanged call
//! structure, so a one-function edit costs about the edit, not the
//! program.
//! A program without functions is simply its implicit `main` instance;
//! the seed's intraprocedural analyzer survives outside the library, in
//! `gp_bench::oracle`, as the flat-program oracle.

pub mod analyze;
pub mod callgraph;
pub mod corpus;
pub mod interp;
pub mod ir;
pub mod multipass;
pub mod parse;
pub mod state;
pub mod summary;
pub mod sym;

pub use analyze::{analyze, diag_counter, Diagnostic, DiagnosticCode, Severity};
pub use interp::{
    analyze_program, analyze_program_cached, analyze_program_with_cache, CheckConfig, CheckError,
};
pub use ir::{AlgorithmName, Cond, ContainerKind, FunctionDef, PosExpr, Program, Stmt};
pub use summary::{global_cache, SummaryCache};
