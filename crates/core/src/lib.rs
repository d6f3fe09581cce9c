//! # gp-core — first-class concepts for generic high-performance libraries
//!
//! This crate is the primary contribution of the reproduction: it makes
//! *concepts* — in the sense of Gregor et al., "Generic Programming and
//! High-Performance Libraries" (2004) — first-class, machine-checkable
//! entities. A concept consists of four kinds of requirements:
//!
//! 1. **associated types** — mappings from the modeling type to
//!    collaborating types (e.g. a graph to its vertex type),
//! 2. **function signatures** (valid expressions) — operations every model
//!    must support,
//! 3. **semantic constraints** — axioms every model must obey, and
//! 4. **complexity guarantees** — performance bounds on the operations.
//!
//! The crate provides two complementary encodings:
//!
//! * **Traits** ([`algebra`], [`order`], [`cursor`]) give the zero-overhead,
//!   statically dispatched encoding used by the library code itself
//!   (sequences, graphs, the data-parallel layer).
//! * **The concept registry** ([`concept`]) gives a reflective encoding in
//!   which concepts, refinement, modeling declarations, associated-type
//!   constraints, *constraint propagation*, multi-type concepts, and
//!   concept-based overload resolution are ordinary inspectable data. This
//!   is the part mainstream languages lacked in 2004 and the part the
//!   checker (`gp-checker`), optimizer (`gp-rewrite`), and taxonomy
//!   (`gp-taxonomy`) crates consume.
//!
//! Supporting modules:
//!
//! * [`archetype`] — executable archetypes: minimal models used to verify
//!   that generic algorithms require no syntax or semantics beyond their
//!   declared concepts (counting cursors, single-pass cursors, minimal
//!   algebraic models).
//! * [`complexity`] — a small symbolic complexity language plus empirical
//!   validation of complexity guarantees from measured operation counts.
//! * [`numeric`] — complex numbers, rationals, and dense matrices used by
//!   the Vector Space / mixed-precision experiments (Fig. 3, CLACRM).

pub mod algebra;
pub mod archetype;
pub mod complexity;
pub mod concept;
pub mod cursor;
pub mod frame;
pub mod hash;
pub mod json;
pub mod numeric;
pub mod order;

pub mod prelude {
    //! Convenient re-exports of the most commonly used items.
    pub use crate::algebra::{
        AbelianGroup, BinaryOp, CommutativeOp, Field, Group, Identity, Inverse, Monoid, Ring,
        Semigroup, VectorSpace,
    };
    pub use crate::complexity::Complexity;
    pub use crate::concept::{Concept, ConceptRef, ModelDecl, Registry, TypeExpr};
    pub use crate::cursor::{
        BidirectionalCursor, Category, ForwardCursor, InputCursor, OutputCursor,
        RandomAccessCursor, Range,
    };
    pub use crate::order::{StrictWeakOrder, TotalOrder};
}
