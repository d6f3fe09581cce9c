//! # gp-parallel — a concept-constrained data-parallel library
//!
//! Reproduction of the paper's §4 program: "our concept-based library
//! approach leverages the capabilities of a mainstream base language …
//! while concentrating the desired new functionality into library modules.
//! … The programmer still thinks and programs in parallel, but more
//! abstractly."
//!
//! The concept discipline is what makes the parallelism *correct*:
//!
//! * [`par::par_reduce`] and [`par::par_scan`] demand a
//!   [`gp_core::algebra::Monoid`] witness — tree reduction reorders the
//!   combination, so **associativity is a semantic precondition**, and the
//!   identity element makes empty chunks harmless. The unchecked variant
//!   ([`par::par_reduce_unchecked`]) exists only to demonstrate (tests,
//!   ablation bench) what goes wrong when the concept requirement is
//!   ignored.
//! * [`par::par_sort`] demands a [`gp_core::order::StrictWeakOrder`] —
//!   the same Fig. 6 obligation as the sequential sorts, checked by the
//!   same axioms and proofs.
//!
//! Modules: [`pool`] (a work-stealing executor: per-worker LIFO deques, a
//! global injector, rayon-style [`pool::ThreadPool::join`], panic-safe
//! jobs), [`par`] (data-parallel primitives — map, reduce, scan, sort,
//! for-each — on the lazily initialized global pool via recursive
//! adaptive splitting), [`dist`] (a block-distributed vector built on
//! the pooled primitives). The seed's spawn-per-call primitives, the
//! baseline the pool is measured against, live in `gp_bench::oracle`.

pub mod dist;
pub mod par;
pub mod pool;

pub use dist::BlockVec;
pub use pool::ThreadPool;
