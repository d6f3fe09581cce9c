//! The rewrite-rule concept and the built-in concept-based rule library.
//!
//! Each rule states its concept **requirements** (the middle column of
//! Fig. 5) and fires only when the concept environment confirms the
//! operands' types model them. The two headline rules are
//! [`RightIdentity`]/[`LeftIdentity`] (`x + 0 → x`, Monoid) and
//! [`RightInverse`]/[`LeftInverse`] (`x + (-x) → 0`, Group); the library
//! adds the equally concept-generic annihilator, idempotence,
//! double-inverse, and constant-folding rules.
//!
//! Each built-in rule's matching is written once, as a [`GenericRule`]
//! body generic over the [`Terms`] concept: the handful of operations a
//! rule needs from a term representation (a node's shape and literal
//! value, its type, `Expr::eq` and bit-for-bit identity, and building
//! literal, binary and call nodes). Two representations model it:
//!
//! * `Expr` trees — a handle is a borrowed subtree, and a built node owns
//!   clones of the subtrees it reuses;
//! * the hash-consed [`TermStore`] — a handle is a [`TermId`], and
//!   building a node interns it.
//!
//! One bridge impl instantiates each body for both [`RewriteRule`] entry
//! points, `try_apply` on trees and `try_apply_interned` on the store, so
//! the two cannot drift apart.

use crate::env::{AlgConcept, ConceptEnv};
use crate::expr::{eval_bin, eval_un, BinOp, Expr, Type, UnOp, Value};
use crate::intern::{value_bits_eq, Head, Term, TermId, TermStore};
use std::marker::PhantomData;

/// The `(Type, head)` keys a rule can possibly fire on, used to build the
/// dispatch index. `Any` (the default) places the rule in every bucket —
/// always correct, never fast. `Keys` must be a **superset** of the keys
/// the rule fires on under the environment it was derived from: an
/// over-approximation only costs a failed `try_apply`, an
/// under-approximation silently disables the rule.
#[derive(Clone, Debug)]
pub enum IndexHints {
    /// Consult this rule at every node (the safe default for user rules).
    Any,
    /// Consult this rule only at nodes with one of these `(type, head)`
    /// keys.
    Keys(Vec<(Type, Head)>),
}

/// The rewrite-rule concept: try to rewrite the *root* of an expression.
/// The engine handles traversal and iteration.
pub trait RewriteRule {
    /// Rule name (statistics, diagnostics).
    fn name(&self) -> &'static str;

    /// Human-readable concept requirement, e.g. `(x, op) models Monoid`.
    fn requirements(&self) -> &'static str;

    /// Rewrite the root of `e` if the rule matches and its concept
    /// requirements hold in `env`.
    fn try_apply(&self, e: &Expr, env: &ConceptEnv) -> Option<Expr>;

    /// The `(type, head)` dispatch keys this rule can fire on under
    /// `env`. The engine rebuilds the index whenever the environment or
    /// rule set changes, so hints may (and should) consult `env`.
    /// Defaults to [`IndexHints::Any`], which is always correct.
    fn index_hints(&self, env: &ConceptEnv) -> IndexHints {
        let _ = env;
        IndexHints::Any
    }

    /// Rewrite the root of the interned term `id` — the hash-consed fast
    /// path. The default extracts the whole subtree, applies
    /// [`RewriteRule::try_apply`], and re-interns the result, which is
    /// correct for any user rule but pays a tree materialization. A
    /// [`GenericRule`] (every built-in rule is one) gets both entry points
    /// from its single body instead.
    ///
    /// A user rule that overrides both methods must preserve `try_apply`
    /// semantics exactly; in particular, subterm equality is `Expr::eq` —
    /// use [`TermStore::exprs_eq`], never raw id equality (NaN and `-0.0`
    /// literals make the two differ).
    fn try_apply_interned(
        &self,
        st: &mut TermStore,
        id: TermId,
        env: &ConceptEnv,
    ) -> Option<TermId> {
        let out = self.try_apply(&st.extract(id), env)?;
        Some(st.intern_expr(&out))
    }
}

/// The term-access concept a [`GenericRule`] body is written against.
///
/// An [`Id`](Terms::Id) is a handle to an existing term; an
/// [`Out`](Terms::Out) is a built term, which is what a rule returns and
/// what a built node takes as children. [`Terms::reuse`] turns a handle
/// into a built term, so a replacement can contain existing subterms.
pub trait Terms {
    /// Handle to an existing term.
    type Id: Copy;
    /// A built term.
    type Out;

    /// The value of `id` if it is a literal.
    fn as_lit(&self, id: Self::Id) -> Option<&Value>;
    /// The operator and operand of `id` if it is a unary application.
    fn as_unary(&self, id: Self::Id) -> Option<(UnOp, Self::Id)>;
    /// The operator and operands of `id` if it is a binary application.
    fn as_binary(&self, id: Self::Id) -> Option<(BinOp, Self::Id, Self::Id)>;
    /// Static type of `id`.
    fn ty(&self, id: Self::Id) -> Type;
    /// `Expr::eq` of the two represented trees: `-0.0 == 0.0`, and a tree
    /// that contains NaN equals nothing, itself included.
    fn exprs_eq(&self, a: Self::Id, b: Self::Id) -> bool;
    /// Whether the two represented trees are the same bit for bit
    /// (floats compare by bit pattern, so NaN is identical to itself).
    fn identical(&self, a: Self::Id, b: Self::Id) -> bool;
    /// The existing subterm `id`, as a child of a node to build.
    fn reuse(&self, id: Self::Id) -> Self::Out;
    /// Build a literal.
    fn make_lit(&mut self, v: Value) -> Self::Out;
    /// Build a binary application.
    fn make_binary(&mut self, op: BinOp, l: Self::Out, r: Self::Out) -> Self::Out;
    /// Build a call.
    fn make_call<const N: usize>(
        &mut self,
        name: &str,
        ty: Type,
        args: [Self::Out; N],
    ) -> Self::Out;
}

/// The store model: handles are ids, and building a node interns it.
impl Terms for TermStore {
    type Id = TermId;
    type Out = TermId;

    fn as_lit(&self, id: TermId) -> Option<&Value> {
        match self.term(id) {
            Term::Lit(v) => Some(v),
            _ => None,
        }
    }
    fn as_unary(&self, id: TermId) -> Option<(UnOp, TermId)> {
        match *self.term(id) {
            Term::Unary(op, x) => Some((op, x)),
            _ => None,
        }
    }
    fn as_binary(&self, id: TermId) -> Option<(BinOp, TermId, TermId)> {
        match *self.term(id) {
            Term::Binary(op, l, r) => Some((op, l, r)),
            _ => None,
        }
    }
    fn ty(&self, id: TermId) -> Type {
        TermStore::ty(self, id)
    }
    fn exprs_eq(&self, a: TermId, b: TermId) -> bool {
        TermStore::exprs_eq(self, a, b)
    }
    fn identical(&self, a: TermId, b: TermId) -> bool {
        a == b
    }
    fn reuse(&self, id: TermId) -> TermId {
        id
    }
    fn make_lit(&mut self, v: Value) -> TermId {
        self.lit(&v)
    }
    fn make_binary(&mut self, op: BinOp, l: TermId, r: TermId) -> TermId {
        self.binary(op, l, r)
    }
    fn make_call<const N: usize>(&mut self, name: &str, ty: Type, args: [TermId; N]) -> TermId {
        self.call(name, ty, &args)
    }
}

/// The tree model: a handle is a borrowed subtree, and a built node owns
/// clones of the subtrees it reuses.
struct Trees<'a>(PhantomData<&'a Expr>);

impl<'a> Terms for Trees<'a> {
    type Id = &'a Expr;
    type Out = Expr;

    fn as_lit(&self, e: &'a Expr) -> Option<&Value> {
        match e {
            Expr::Lit(v) => Some(v),
            _ => None,
        }
    }
    fn as_unary(&self, e: &'a Expr) -> Option<(UnOp, &'a Expr)> {
        match e {
            Expr::Unary(op, x) => Some((*op, x)),
            _ => None,
        }
    }
    fn as_binary(&self, e: &'a Expr) -> Option<(BinOp, &'a Expr, &'a Expr)> {
        match e {
            Expr::Binary(op, l, r) => Some((*op, l, r)),
            _ => None,
        }
    }
    fn ty(&self, e: &'a Expr) -> Type {
        e.ty()
    }
    fn exprs_eq(&self, a: &'a Expr, b: &'a Expr) -> bool {
        a == b
    }
    fn identical(&self, a: &'a Expr, b: &'a Expr) -> bool {
        bits_identical(a, b)
    }
    fn reuse(&self, e: &'a Expr) -> Expr {
        e.clone()
    }
    fn make_lit(&mut self, v: Value) -> Expr {
        Expr::Lit(v)
    }
    fn make_binary(&mut self, op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::bin(op, l, r)
    }
    fn make_call<const N: usize>(&mut self, name: &str, ty: Type, args: [Expr; N]) -> Expr {
        Expr::Call(name.to_string(), ty, args.into())
    }
}

/// `Expr::eq`, except that literals compare by bit pattern — the tree
/// counterpart of the store's id equality.
fn bits_identical(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::Lit(x), Expr::Lit(y)) => value_bits_eq(x, y),
        (Expr::Unary(o, x), Expr::Unary(p, y)) => o == p && bits_identical(x, y),
        (Expr::Binary(o, xl, xr), Expr::Binary(p, yl, yr)) => {
            o == p && bits_identical(xl, yl) && bits_identical(xr, yr)
        }
        (Expr::Call(n, t, xs), Expr::Call(m, u, ys)) => {
            n == m
                && t == u
                && xs.len() == ys.len()
                && xs.iter().zip(ys).all(|(x, y)| bits_identical(x, y))
        }
        _ => a == b,
    }
}

/// A rewrite rule whose matching is written once, generic over the
/// [`Terms`] concept. Every `GenericRule` is a [`RewriteRule`]: one bridge
/// impl instantiates [`GenericRule::apply`] for `Expr` trees
/// (`try_apply`) and for the [`TermStore`] (`try_apply_interned`).
pub trait GenericRule {
    /// See [`RewriteRule::name`].
    const NAME: &'static str;
    /// See [`RewriteRule::requirements`].
    const REQUIREMENTS: &'static str;

    /// Rewrite the root of `id` in `m` if the rule matches and its concept
    /// requirements hold in `env`.
    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, env: &ConceptEnv) -> Option<M::Out>;

    /// See [`RewriteRule::index_hints`].
    fn index_hints(&self, env: &ConceptEnv) -> IndexHints;
}

impl<R: GenericRule> RewriteRule for R {
    fn name(&self) -> &'static str {
        R::NAME
    }
    fn requirements(&self) -> &'static str {
        R::REQUIREMENTS
    }
    fn try_apply(&self, e: &Expr, env: &ConceptEnv) -> Option<Expr> {
        self.apply(&mut Trees(PhantomData), e, env)
    }
    fn index_hints(&self, env: &ConceptEnv) -> IndexHints {
        GenericRule::index_hints(self, env)
    }
    fn try_apply_interned(
        &self,
        st: &mut TermStore,
        id: TermId,
        env: &ConceptEnv,
    ) -> Option<TermId> {
        self.apply(st, id, env)
    }
}

/// `x op e → x` when `(x, op)` models Monoid and `e` is its identity.
pub struct RightIdentity;

impl GenericRule for RightIdentity {
    const NAME: &'static str = "right-identity";
    const REQUIREMENTS: &'static str = "(x, op) models Monoid";

    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, env: &ConceptEnv) -> Option<M::Out> {
        let (op, l, r) = m.as_binary(id)?;
        let ty = m.ty(l);
        if env.models(ty, op, AlgConcept::Monoid) {
            if let Some(v) = m.as_lit(r) {
                if Some(v) == env.identity(ty, op) {
                    return Some(m.reuse(l));
                }
            }
        }
        None
    }
    fn index_hints(&self, env: &ConceptEnv) -> IndexHints {
        // Dispatch key is (l.ty(), op); the rule needs a Monoid model and
        // a declared identity for exactly that pair.
        IndexHints::Keys(
            env.declared_identities()
                .filter(|&(ty, op, _)| env.models(ty, op, AlgConcept::Monoid))
                .map(|(ty, op, _)| (ty, Head::Bin(op)))
                .collect(),
        )
    }
}

/// `e op x → x` when `(x, op)` models Monoid and `e` is its identity.
pub struct LeftIdentity;

impl GenericRule for LeftIdentity {
    const NAME: &'static str = "left-identity";
    const REQUIREMENTS: &'static str = "(x, op) models Monoid";

    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, env: &ConceptEnv) -> Option<M::Out> {
        let (op, l, r) = m.as_binary(id)?;
        let ty = m.ty(r);
        if env.models(ty, op, AlgConcept::Monoid) {
            if let Some(v) = m.as_lit(l) {
                if Some(v) == env.identity(ty, op) {
                    return Some(m.reuse(r));
                }
            }
        }
        None
    }
    fn index_hints(&self, env: &ConceptEnv) -> IndexHints {
        // The node's dispatch type is l.ty(); here l must be the identity
        // *literal*, whose intrinsic type can differ from the declared
        // type in exotic environments — key on the literal's type.
        IndexHints::Keys(
            env.declared_identities()
                .filter(|&(ty, op, _)| env.models(ty, op, AlgConcept::Monoid))
                .map(|(_, op, v)| (v.ty(), Head::Bin(op)))
                .collect(),
        )
    }
}

/// `x op inv(x) → identity` when `(x, op, inv)` models Group.
/// Also matches the sugared forms `x - x` (additive) and `x / x`
/// (multiplicative).
pub struct RightInverse;

/// `inv(x) op x → identity` when `(x, op, inv)` models Group.
pub struct LeftInverse;

/// Whether `candidate` is `inv(x)` for the inverse operator declared for
/// `(ty, op)`, with `inv`'s operand expr-equal to `x`.
fn inverse_matches<M: Terms>(
    m: &M,
    env: &ConceptEnv,
    ty: Type,
    op: BinOp,
    x: M::Id,
    candidate: M::Id,
) -> bool {
    let Some(inv) = env.inverse_op(ty, op) else {
        return false;
    };
    matches!(m.as_unary(candidate), Some((u, inner)) if u == inv && m.exprs_eq(inner, x))
}

fn group_identity<M: Terms>(m: &mut M, env: &ConceptEnv, ty: Type, op: BinOp) -> Option<M::Out> {
    env.identity(ty, op).cloned().map(|v| m.make_lit(v))
}

impl GenericRule for RightInverse {
    const NAME: &'static str = "right-inverse";
    const REQUIREMENTS: &'static str = "(x, op, inv) models Group";

    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, env: &ConceptEnv) -> Option<M::Out> {
        let (op, l, r) = m.as_binary(id)?;
        let ty = m.ty(l);
        // Sugared forms first: x - x and x / x.
        let (base_op, rhs_is_inverse) = match op {
            BinOp::Sub => (BinOp::Add, m.exprs_eq(l, r)),
            BinOp::Div => (BinOp::Mul, m.exprs_eq(l, r)),
            other => (other, inverse_matches(m, env, ty, other, l, r)),
        };
        if rhs_is_inverse && env.models(ty, base_op, AlgConcept::Group) {
            return group_identity(m, env, ty, base_op);
        }
        None
    }
    fn index_hints(&self, env: &ConceptEnv) -> IndexHints {
        let mut keys = Vec::new();
        for (ty, op, _) in env.declared_models() {
            if !env.models(ty, op, AlgConcept::Group) {
                continue;
            }
            // Sugared spellings of the group operation.
            if op == BinOp::Add {
                keys.push((ty, Head::Bin(BinOp::Sub)));
            }
            if op == BinOp::Mul {
                keys.push((ty, Head::Bin(BinOp::Div)));
            }
        }
        // Explicit `x op inv(x)` requires a declared inverse operator.
        for (ty, op, _) in env.declared_inverse_ops() {
            if env.models(ty, op, AlgConcept::Group) {
                keys.push((ty, Head::Bin(op)));
            }
        }
        IndexHints::Keys(keys)
    }
}

impl GenericRule for LeftInverse {
    const NAME: &'static str = "left-inverse";
    const REQUIREMENTS: &'static str = "(x, op, inv) models Group";

    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, env: &ConceptEnv) -> Option<M::Out> {
        let (op, l, r) = m.as_binary(id)?;
        let ty = m.ty(r);
        if inverse_matches(m, env, ty, op, r, l) && env.models(ty, op, AlgConcept::Group) {
            return group_identity(m, env, ty, op);
        }
        None
    }
    fn index_hints(&self, env: &ConceptEnv) -> IndexHints {
        // Node dispatch type is l.ty() where l = inv(x) with x == r; for
        // Not the unary's type is Bool regardless of the operand.
        IndexHints::Keys(
            env.declared_inverse_ops()
                .filter(|&(ty, op, _)| env.models(ty, op, AlgConcept::Group))
                .map(|(ty, op, inv)| {
                    let node_ty = if inv == UnOp::Not { Type::Bool } else { ty };
                    (node_ty, Head::Bin(op))
                })
                .collect(),
        )
    }
}

/// `x op a → a` when `a` is a declared annihilator of `(x, op)`
/// (e.g. `x * 0 → 0`, `b && false → false`).
pub struct Annihilator;

impl GenericRule for Annihilator {
    const NAME: &'static str = "annihilator";
    const REQUIREMENTS: &'static str = "(x, op) has a declared annihilator";

    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, env: &ConceptEnv) -> Option<M::Out> {
        let (op, l, r) = m.as_binary(id)?;
        let a = env.annihilator(m.ty(l), op)?;
        if m.as_lit(l) == Some(a) || m.as_lit(r) == Some(a) {
            return Some(m.make_lit(a.clone()));
        }
        None
    }
    fn index_hints(&self, env: &ConceptEnv) -> IndexHints {
        // The annihilator lookup keys on l.ty() itself, so the declared
        // pair is exactly the dispatch key.
        IndexHints::Keys(
            env.declared_annihilators()
                .map(|(ty, op, _)| (ty, Head::Bin(op)))
                .collect(),
        )
    }
}

/// `x op x → x` when `(x, op)` models an idempotent operation
/// (e.g. `b && b → b`, `i & i → i`).
pub struct Idempotence;

impl GenericRule for Idempotence {
    const NAME: &'static str = "idempotence";
    const REQUIREMENTS: &'static str = "(x, op) models Idempotent";

    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, env: &ConceptEnv) -> Option<M::Out> {
        let (op, l, r) = m.as_binary(id)?;
        if m.exprs_eq(l, r) && env.models(m.ty(l), op, AlgConcept::Idempotent) {
            return Some(m.reuse(l));
        }
        None
    }
    fn index_hints(&self, env: &ConceptEnv) -> IndexHints {
        IndexHints::Keys(
            env.declared_models()
                .filter(|&(_, _, c)| c == AlgConcept::Idempotent)
                .map(|(ty, op, _)| (ty, Head::Bin(op)))
                .collect(),
        )
    }
}

/// `inv(inv(x)) → x` when the type's operation with that inverse models
/// Group (e.g. `-(-x) → x`, `1/(1/x) → x`).
pub struct DoubleInverse;

impl GenericRule for DoubleInverse {
    const NAME: &'static str = "double-inverse";
    const REQUIREMENTS: &'static str = "(x, op, inv) models Group";

    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, env: &ConceptEnv) -> Option<M::Out> {
        let (u1, inner) = m.as_unary(id)?;
        let (u2, x) = m.as_unary(inner)?;
        if u1 != u2 {
            return None;
        }
        let ty = m.ty(x);
        // Find a group operation whose inverse op is u1.
        for op in [BinOp::Add, BinOp::Mul] {
            if env.inverse_op(ty, op) == Some(u1) && env.models(ty, op, AlgConcept::Group) {
                return Some(m.reuse(x));
            }
        }
        None
    }
    fn index_hints(&self, env: &ConceptEnv) -> IndexHints {
        IndexHints::Keys(
            env.declared_inverse_ops()
                .filter(|&(ty, op, _)| {
                    (op == BinOp::Add || op == BinOp::Mul) && env.models(ty, op, AlgConcept::Group)
                })
                .map(|(ty, _, inv)| {
                    let node_ty = if inv == UnOp::Not { Type::Bool } else { ty };
                    (node_ty, Head::Un(inv))
                })
                .collect(),
        )
    }
}

/// Fold operations on literals (`2 + 3 → 5`) — the traditional simplifier
/// retained alongside the concept rules.
pub struct ConstantFold;

impl GenericRule for ConstantFold {
    const NAME: &'static str = "constant-fold";
    const REQUIREMENTS: &'static str = "all operands are literals";

    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, _env: &ConceptEnv) -> Option<M::Out> {
        let folded = if let Some((op, l, r)) = m.as_binary(id) {
            eval_bin(op, m.as_lit(l)?, m.as_lit(r)?)?
        } else {
            let (op, x) = m.as_unary(id)?;
            eval_un(op, m.as_lit(x)?)?
        };
        Some(m.make_lit(folded))
    }
    fn index_hints(&self, _env: &ConceptEnv) -> IndexHints {
        // Fires on any unary/binary node whose operands are literals; a
        // literal-headed binary node's dispatch type is its left literal's
        // intrinsic type, so Matrix (which has no literal form) is the
        // only impossible type.
        let value_types = [
            Type::Int,
            Type::UInt,
            Type::Float,
            Type::Bool,
            Type::Str,
            Type::Rational,
            Type::BigFloat,
        ];
        let bin_ops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::And,
            BinOp::Or,
            BinOp::BitAnd,
            BinOp::Concat,
        ];
        let un_ops = [UnOp::Neg, UnOp::Recip, UnOp::Not];
        let mut keys = Vec::new();
        for ty in value_types {
            for op in bin_ops {
                keys.push((ty, Head::Bin(op)));
            }
            for op in un_ops {
                keys.push((ty, Head::Un(op)));
            }
        }
        IndexHints::Keys(keys)
    }
}

/// Associativity-based constant gathering: `(x op c1) op c2 → x op (c1 op
/// c2)` when `(x, op)` models Semigroup and `c1`, `c2` are literals — after
/// which constant folding collapses the right operand. The commutative
/// variant also matches `(c1 op x) op c2`.
pub struct AssocFold;

impl GenericRule for AssocFold {
    const NAME: &'static str = "assoc-fold";
    const REQUIREMENTS: &'static str =
        "(x, op) models Semigroup (plus Commutative for the left variant)";

    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, env: &ConceptEnv) -> Option<M::Out> {
        let (op, l, r) = m.as_binary(id)?;
        m.as_lit(r)?;
        let (op2, x, c1) = m.as_binary(l)?;
        let ty = m.ty(id);
        if op2 != op || !env.models(ty, op, AlgConcept::Semigroup) {
            return None;
        }
        let (x_lit, c1_lit) = (m.as_lit(x).is_some(), m.as_lit(c1).is_some());
        let (inner, c1) = if !x_lit && c1_lit {
            // (x op c1) op c2 → x op (c1 op c2): pure associativity.
            (x, c1)
        } else if x_lit && !c1_lit && env.models(ty, op, AlgConcept::Commutative) {
            // (c1 op x) op c2 → x op (c1 op c2): needs commutativity.
            (c1, x)
        } else {
            return None;
        };
        let (c1, c2) = (m.reuse(c1), m.reuse(r));
        let consts = m.make_binary(op, c1, c2);
        let inner = m.reuse(inner);
        Some(m.make_binary(op, inner, consts))
    }
    fn index_hints(&self, env: &ConceptEnv) -> IndexHints {
        IndexHints::Keys(
            env.declared_models()
                .filter(|&(ty, op, _)| env.models(ty, op, AlgConcept::Semigroup))
                .map(|(ty, op, _)| (ty, Head::Bin(op)))
                .collect(),
        )
    }
}

/// Boolean double negation: `!!b → b` (involution of `Not`).
pub struct NotNot;

impl GenericRule for NotNot {
    const NAME: &'static str = "not-not";
    const REQUIREMENTS: &'static str = "negation is an involution on bool";

    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, _env: &ConceptEnv) -> Option<M::Out> {
        let (UnOp::Not, inner) = m.as_unary(id)? else {
            return None;
        };
        let (UnOp::Not, b) = m.as_unary(inner)? else {
            return None;
        };
        Some(m.reuse(b))
    }
    fn index_hints(&self, _env: &ConceptEnv) -> IndexHints {
        // A `!`-headed node always has type Bool.
        IndexHints::Keys(vec![(Type::Bool, Head::Un(UnOp::Not))])
    }
}

/// The LiDIA-style **user-defined, library-specific** rule of §3.2:
/// `1.0/f → f.Inverse()` (and `recip(f) → f.Inverse()`) for
/// arbitrary-precision floats, "often … specializing general expressions to
/// specific function calls".
pub struct LidiaInverse;

impl GenericRule for LidiaInverse {
    const NAME: &'static str = "lidia-inverse";
    const REQUIREMENTS: &'static str = "f is a LiDIA bigfloat";

    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, _env: &ConceptEnv) -> Option<M::Out> {
        let f = if let Some((UnOp::Recip, f)) = m.as_unary(id) {
            f
        } else {
            let (BinOp::Div, one, f) = m.as_binary(id)? else {
                return None;
            };
            if m.as_lit(one) != Some(&Value::BigFloat(1.0)) {
                return None;
            }
            f
        };
        if m.ty(f) != Type::BigFloat {
            return None;
        }
        let f = m.reuse(f);
        Some(m.make_call("Inverse", Type::BigFloat, [f]))
    }
    fn index_hints(&self, _env: &ConceptEnv) -> IndexHints {
        // recip(f): node type is f's type (BigFloat); 1.0/f: node type is
        // the left literal's type (BigFloat).
        IndexHints::Keys(vec![
            (Type::BigFloat, Head::Un(UnOp::Recip)),
            (Type::BigFloat, Head::Bin(BinOp::Div)),
        ])
    }
}

/// Commutativity as a pure equality: `x op y → y op x` when `(x, op)`
/// models Commutative.
///
/// This is an **exploration** rule for the e-graph: as a directed
/// reduction it never terminates (the two orientations rewrite into each
/// other forever), so it is *not* in [`standard_rules`]. Under equality
/// saturation it merely merges the two orientations into one e-class,
/// which is exactly what lets cost-based extraction consider both.
pub struct Commute;

impl GenericRule for Commute {
    const NAME: &'static str = "commute";
    const REQUIREMENTS: &'static str = "(x, op) models Commutative";

    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, env: &ConceptEnv) -> Option<M::Out> {
        let (op, l, r) = m.as_binary(id)?;
        // Skip exactly the terms commuting leaves unchanged: `x + x` and
        // `NaN + NaN` do not fire, `0.0 + -0.0` does.
        if m.identical(l, r) || !env.models(m.ty(id), op, AlgConcept::Commutative) {
            return None;
        }
        let (r, l) = (m.reuse(r), m.reuse(l));
        Some(m.make_binary(op, r, l))
    }
    fn index_hints(&self, env: &ConceptEnv) -> IndexHints {
        IndexHints::Keys(
            env.declared_models()
                .filter(|&(ty, op, _)| env.models(ty, op, AlgConcept::Commutative))
                .map(|(ty, op, _)| (ty, Head::Bin(op)))
                .collect(),
        )
    }
}

/// Associativity as a pure equality: `(a op b) op c → a op (b op c)` when
/// `(x, op)` models Semigroup.
///
/// Like [`Commute`], an **exploration** rule for the e-graph only: the
/// general re-association (unlike [`AssocFold`]'s constant-gathering
/// special case) does not reduce anything by itself, but it exposes
/// cancellation the directed engine cannot see — `(x + y) + (-y)`
/// re-associates to `x + (y + (-y))`, where the Group inverse rule fires.
pub struct Associate;

impl GenericRule for Associate {
    const NAME: &'static str = "associate";
    const REQUIREMENTS: &'static str = "(x, op) models Semigroup";

    fn apply<M: Terms>(&self, m: &mut M, id: M::Id, env: &ConceptEnv) -> Option<M::Out> {
        let (op, l, r) = m.as_binary(id)?;
        let (op2, a, b) = m.as_binary(l)?;
        if op2 != op || !env.models(m.ty(id), op, AlgConcept::Semigroup) {
            return None;
        }
        let (b, r) = (m.reuse(b), m.reuse(r));
        let right = m.make_binary(op, b, r);
        let a = m.reuse(a);
        Some(m.make_binary(op, a, right))
    }
    fn index_hints(&self, env: &ConceptEnv) -> IndexHints {
        IndexHints::Keys(
            env.declared_models()
                .filter(|&(ty, op, _)| env.models(ty, op, AlgConcept::Semigroup))
                .map(|(ty, op, _)| (ty, Head::Bin(op)))
                .collect(),
        )
    }
}

/// The default concept-based rule set.
pub fn standard_rules() -> Vec<Box<dyn RewriteRule + Send + Sync>> {
    vec![
        Box::new(ConstantFold),
        Box::new(RightIdentity),
        Box::new(LeftIdentity),
        Box::new(RightInverse),
        Box::new(LeftInverse),
        Box::new(Annihilator),
        Box::new(Idempotence),
        Box::new(DoubleInverse),
        Box::new(AssocFold),
        Box::new(NotNot),
    ]
}

/// The exploration rules the equality-saturation engine adds on top of
/// [`standard_rules`]: non-reducing equalities (commutativity,
/// associativity) that a directed engine cannot run without looping, but
/// that merely merge e-classes under saturation.
pub fn exploration_rules() -> Vec<Box<dyn RewriteRule + Send + Sync>> {
    vec![Box::new(Commute), Box::new(Associate)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Value;

    fn env() -> ConceptEnv {
        ConceptEnv::standard()
    }

    #[test]
    fn right_identity_fires_only_under_monoid() {
        let e = Expr::bin(BinOp::Mul, Expr::var("i", Type::Int), Expr::int(1));
        assert_eq!(
            RightIdentity.try_apply(&e, &env()),
            Some(Expr::var("i", Type::Int))
        );
        // Without the concept declaration, nothing fires.
        let bare = ConceptEnv::empty();
        assert_eq!(RightIdentity.try_apply(&e, &bare), None);
        // Wrong element: no fire.
        let e = Expr::bin(BinOp::Mul, Expr::var("i", Type::Int), Expr::int(2));
        assert_eq!(RightIdentity.try_apply(&e, &env()), None);
    }

    #[test]
    fn identity_rules_cover_fig5_row1_instances() {
        let cases = vec![
            Expr::bin(BinOp::Mul, Expr::var("i", Type::Int), Expr::int(1)),
            Expr::bin(BinOp::Mul, Expr::var("f", Type::Float), Expr::float(1.0)),
            Expr::bin(BinOp::And, Expr::var("b", Type::Bool), Expr::boolean(true)),
            Expr::bin(
                BinOp::BitAnd,
                Expr::var("i", Type::UInt),
                Expr::uint(u64::MAX),
            ),
            Expr::bin(BinOp::Concat, Expr::var("s", Type::Str), Expr::string("")),
            Expr::bin(BinOp::Add, Expr::var("x", Type::Int), Expr::int(0)),
        ];
        for c in cases {
            let out = RightIdentity.try_apply(&c, &env());
            assert!(out.is_some(), "no fire on {c}");
            assert!(
                matches!(out.unwrap(), Expr::Var(..)),
                "wrong result for {c}"
            );
        }
    }

    #[test]
    fn left_identity_respects_non_commutativity_correctly() {
        // "" ++ s → s is valid in any monoid (identity is two-sided), even
        // a non-commutative one.
        let e = Expr::bin(BinOp::Concat, Expr::string(""), Expr::var("s", Type::Str));
        assert_eq!(
            LeftIdentity.try_apply(&e, &env()),
            Some(Expr::var("s", Type::Str))
        );
    }

    #[test]
    fn group_inverse_rules_cover_fig5_row2_instances() {
        // i + (-i) → 0
        let e = Expr::bin(
            BinOp::Add,
            Expr::var("i", Type::Int),
            Expr::un(UnOp::Neg, Expr::var("i", Type::Int)),
        );
        assert_eq!(RightInverse.try_apply(&e, &env()), Some(Expr::int(0)));
        // f * (1/f) → 1
        let e = Expr::bin(
            BinOp::Mul,
            Expr::var("f", Type::Float),
            Expr::un(UnOp::Recip, Expr::var("f", Type::Float)),
        );
        assert_eq!(RightInverse.try_apply(&e, &env()), Some(Expr::float(1.0)));
        // r * r^{-1} → 1 (rationals)
        let e = Expr::bin(
            BinOp::Mul,
            Expr::var("r", Type::Rational),
            Expr::un(UnOp::Recip, Expr::var("r", Type::Rational)),
        );
        assert!(RightInverse.try_apply(&e, &env()).is_some());
        // (-i) + i → 0 (left form)
        let e = Expr::bin(
            BinOp::Add,
            Expr::un(UnOp::Neg, Expr::var("i", Type::Int)),
            Expr::var("i", Type::Int),
        );
        assert_eq!(LeftInverse.try_apply(&e, &env()), Some(Expr::int(0)));
    }

    #[test]
    fn inverse_rule_does_not_fire_for_non_groups() {
        // i * (1/i) for Int: Int multiplication is not a group — no rule.
        let e = Expr::bin(
            BinOp::Mul,
            Expr::var("i", Type::Int),
            Expr::un(UnOp::Recip, Expr::var("i", Type::Int)),
        );
        assert_eq!(RightInverse.try_apply(&e, &env()), None);
    }

    #[test]
    fn sugar_forms_x_minus_x_and_x_div_x() {
        let e = Expr::bin(
            BinOp::Sub,
            Expr::var("i", Type::Int),
            Expr::var("i", Type::Int),
        );
        assert_eq!(RightInverse.try_apply(&e, &env()), Some(Expr::int(0)));
        let e = Expr::bin(
            BinOp::Div,
            Expr::var("f", Type::Float),
            Expr::var("f", Type::Float),
        );
        assert_eq!(RightInverse.try_apply(&e, &env()), Some(Expr::float(1.0)));
    }

    #[test]
    fn annihilator_and_idempotence() {
        let e = Expr::bin(BinOp::Mul, Expr::var("i", Type::Int), Expr::int(0));
        assert_eq!(Annihilator.try_apply(&e, &env()), Some(Expr::int(0)));
        let e = Expr::bin(BinOp::And, Expr::boolean(false), Expr::var("b", Type::Bool));
        assert_eq!(
            Annihilator.try_apply(&e, &env()),
            Some(Expr::boolean(false))
        );
        let e = Expr::bin(
            BinOp::And,
            Expr::var("b", Type::Bool),
            Expr::var("b", Type::Bool),
        );
        assert_eq!(
            Idempotence.try_apply(&e, &env()),
            Some(Expr::var("b", Type::Bool))
        );
        // Addition is not idempotent.
        let e = Expr::bin(
            BinOp::Add,
            Expr::var("i", Type::Int),
            Expr::var("i", Type::Int),
        );
        assert_eq!(Idempotence.try_apply(&e, &env()), None);
    }

    #[test]
    fn double_inverse_unwraps() {
        let e = Expr::un(UnOp::Neg, Expr::un(UnOp::Neg, Expr::var("i", Type::Int)));
        assert_eq!(
            DoubleInverse.try_apply(&e, &env()),
            Some(Expr::var("i", Type::Int))
        );
        let e = Expr::un(
            UnOp::Recip,
            Expr::un(UnOp::Recip, Expr::var("f", Type::Float)),
        );
        assert_eq!(
            DoubleInverse.try_apply(&e, &env()),
            Some(Expr::var("f", Type::Float))
        );
    }

    #[test]
    fn constant_folding() {
        let e = Expr::bin(BinOp::Add, Expr::int(2), Expr::int(3));
        assert_eq!(ConstantFold.try_apply(&e, &env()), Some(Expr::int(5)));
        let e = Expr::un(UnOp::Neg, Expr::int(7));
        assert_eq!(ConstantFold.try_apply(&e, &env()), Some(Expr::int(-7)));
        let e = Expr::bin(BinOp::Add, Expr::var("x", Type::Int), Expr::int(3));
        assert_eq!(ConstantFold.try_apply(&e, &env()), None);
    }

    #[test]
    fn lidia_rule_specializes_bigfloat_reciprocals_only() {
        let f = Expr::var("f", Type::BigFloat);
        let e = Expr::bin(BinOp::Div, Expr::bigfloat(1.0), f.clone());
        let out = LidiaInverse.try_apply(&e, &env()).unwrap();
        assert_eq!(out.to_string(), "Inverse(f)");
        let e = Expr::un(UnOp::Recip, f);
        assert!(LidiaInverse.try_apply(&e, &env()).is_some());
        // Plain floats are untouched: the rule is library-specific.
        let e = Expr::un(UnOp::Recip, Expr::var("g", Type::Float));
        assert_eq!(LidiaInverse.try_apply(&e, &env()), None);
        assert_eq!(
            Value::BigFloat(1.0).ty(),
            Type::BigFloat // sanity: literals carry the library type
        );
    }

    #[test]
    fn assoc_fold_gathers_constants() {
        // (x + 1) + 2 → x + (1 + 2); the engine then folds to x + 3.
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, Expr::var("x", Type::Int), Expr::int(1)),
            Expr::int(2),
        );
        let out = AssocFold.try_apply(&e, &env()).unwrap();
        assert_eq!(out.to_string(), "(x + (1 + 2))");
        // Commutative variant: (1 + x) + 2 → x + (1 + 2).
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, Expr::int(1), Expr::var("x", Type::Int)),
            Expr::int(2),
        );
        assert!(AssocFold.try_apply(&e, &env()).is_some());
        // Non-commutative concat: left variant must NOT fire.
        let e = Expr::bin(
            BinOp::Concat,
            Expr::bin(BinOp::Concat, Expr::string("a"), Expr::var("s", Type::Str)),
            Expr::string("b"),
        );
        assert_eq!(AssocFold.try_apply(&e, &env()), None);
        // But the right-nested concat form does (pure associativity).
        let e = Expr::bin(
            BinOp::Concat,
            Expr::bin(BinOp::Concat, Expr::var("s", Type::Str), Expr::string("a")),
            Expr::string("b"),
        );
        assert!(AssocFold.try_apply(&e, &env()).is_some());
    }

    #[test]
    fn assoc_fold_composes_with_constant_fold_in_engine() {
        use crate::simplify::Simplifier;
        // ((((x + 1) + 2) + 3) + 4) → x + 10.
        let mut e = Expr::var("x", Type::Int);
        for c in 1..=4 {
            e = Expr::bin(BinOp::Add, e, Expr::int(c));
        }
        let s = Simplifier::standard();
        let (out, stats) = s.simplify(&e);
        assert_eq!(out.to_string(), "(x + 10)");
        assert!(stats.applications["assoc-fold"] >= 3);
        assert!(stats.applications["constant-fold"] >= 3);
    }

    #[test]
    fn not_not_unwraps() {
        let b = Expr::var("b", Type::Bool);
        let e = Expr::un(UnOp::Not, Expr::un(UnOp::Not, b.clone()));
        assert_eq!(NotNot.try_apply(&e, &env()), Some(b.clone()));
        let e = Expr::un(UnOp::Not, b);
        assert_eq!(NotNot.try_apply(&e, &env()), None);
    }

    /// `Commute` through both entry points, results rendered as text
    /// (`Expr::eq` cannot tell `-0.0` from `0.0`, `Display` can).
    fn commute_both(e: &Expr) -> (Option<String>, Option<String>) {
        let tree = Commute.try_apply(e, &env());
        let mut st = TermStore::new();
        let id = st.intern_expr(e);
        let store = Commute.try_apply_interned(&mut st, id, &env());
        (
            tree.map(|t| t.to_string()),
            store.map(|t| st.extract(t).to_string()),
        )
    }

    #[test]
    fn commute_fires_on_signed_zeros() {
        let e = Expr::bin(BinOp::Add, Expr::float(0.0), Expr::float(-0.0));
        let want = Some("(-0.0 + 0.0)".to_string());
        assert_eq!(commute_both(&e), (want.clone(), want));
    }

    #[test]
    fn commute_skips_identical_operands() {
        let nan = Expr::bin(BinOp::Add, Expr::float(f64::NAN), Expr::float(f64::NAN));
        let x = Expr::var("x", Type::Int);
        let xx = Expr::bin(BinOp::Add, x.clone(), x);
        for e in [nan, xx] {
            assert_eq!(commute_both(&e), (None, None), "{e}");
        }
    }
}
