//! Hash-consed term store: every distinct subterm is interned exactly once
//! and identified by a dense [`TermId`] (`u32`), so structural equality and
//! hashing are O(1) id comparisons and an unchanged shared subtree is never
//! re-cloned or re-visited.
//!
//! This is the classic speed lever of term-rewriting engines (and the
//! degenerate, single-representative case of the e-graphs used by
//! equality-saturation systems): the `Box<Expr>` tree the facade API still
//! speaks is converted in once, rewritten as a DAG of ids, and converted
//! out once. A deliberately DAG-shaped input of 2^k tree nodes costs the
//! interned engine O(k) work where the clone-per-pass engine pays O(2^k).
//!
//! Two pieces of per-term metadata keep rule semantics *identical* to the
//! tree engine even though ids compare floats by bit pattern:
//!
//! * `norm` — the id of the term with every `-0.0` float/bigfloat literal
//!   replaced by `+0.0`. `Expr`'s derived `PartialEq` treats `-0.0 == 0.0`,
//!   so equality-sensitive rules compare `norm` ids, not raw ids.
//! * `has_nan` — whether any literal in the term is NaN. `NaN != NaN`
//!   under `PartialEq`, so a term containing NaN is never "equal" to
//!   anything, including itself, and equality-sensitive rules must not
//!   fire on it even though the ids coincide.
//!
//! With both, [`TermStore::exprs_eq`] decides `Expr::eq` of the two
//! represented trees in O(1).

use crate::expr::{BinOp, Expr, Type, UnOp, Value};
use gp_core::hash::FnvHasher;
use gp_telemetry::Counter;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// The hash-consing index: a flat open-addressed table of
/// `(term hash, id)` pairs with linear probing. A `HashMap<u64,
/// Vec<TermId>>` would allocate a bucket `Vec` per distinct term — one
/// malloc per node of every fresh expression — and re-hash the already-
/// hashed key; this is one array, no per-entry allocation, no re-hash.
/// Equal hashes are confirmed structurally against the arena by the
/// caller, so collisions only cost an extra probe.
struct ConsTable {
    /// `(hash, raw id)`; id `u32::MAX` marks an empty slot.
    slots: Vec<(u64, u32)>,
    len: usize,
}

const CONS_EMPTY: u32 = u32::MAX;

impl Default for ConsTable {
    fn default() -> Self {
        ConsTable {
            slots: vec![(0, CONS_EMPTY); 64],
            len: 0,
        }
    }
}

impl ConsTable {
    /// Visit every stored id whose hash equals `h`, in probe order,
    /// until `confirm` accepts one.
    fn find(&self, h: u64, mut confirm: impl FnMut(TermId) -> bool) -> Option<TermId> {
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            let (sh, sid) = self.slots[i];
            if sid == CONS_EMPTY {
                return None;
            }
            if sh == h && confirm(TermId(sid)) {
                return Some(TermId(sid));
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, h: u64, id: TermId) {
        if self.len * 10 >= self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        while self.slots[i].1 != CONS_EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (h, id.0);
        self.len += 1;
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![(0, CONS_EMPTY); 0]);
        self.slots = vec![(0, CONS_EMPTY); old.len() * 2];
        let mask = self.slots.len() - 1;
        for (h, id) in old {
            if id != CONS_EMPTY {
                let mut i = (h as usize) & mask;
                while self.slots[i].1 != CONS_EMPTY {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (h, id);
            }
        }
    }
}

/// Identity of an interned term. Kept at exactly four bytes so memo tables
/// (`TermId → TermId`) stay cache-dense; a compile-time assert below and a
/// unit test guard the size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

// Batch memo tables key and value on TermId; widening it silently halves
// how many entries fit per cache line. Fail the build instead.
const _: () = assert!(std::mem::size_of::<TermId>() == 4);
const _: () = assert!(std::mem::size_of::<Option<TermId>>() == 8);

impl TermId {
    /// The raw index (dense, 0-based, in interning order).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from a dense index. Crate-internal: only the e-graph
    /// sweeps the store by index; callers must stay below
    /// [`TermStore::len`] of the store the index came from.
    pub(crate) fn from_index(i: usize) -> TermId {
        TermId(u32::try_from(i).expect("term index exceeds u32"))
    }
}

/// An interned term: the same shape as [`Expr`], children by id.
#[derive(Clone, Debug)]
pub enum Term {
    /// Literal value.
    Lit(Value),
    /// Typed variable.
    Var(String, Type),
    /// Unary application.
    Unary(UnOp, TermId),
    /// Binary application.
    Binary(BinOp, TermId, TermId),
    /// Named function call.
    Call(String, Type, Vec<TermId>),
}

/// Head symbol of a term — the first dispatch key of the rule index
/// (the second is the term's [`Type`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Head {
    /// Binary application of this operator.
    Bin(BinOp),
    /// Unary application of this operator.
    Un(UnOp),
    /// Named function call.
    Call,
    /// Literal leaf.
    Lit,
    /// Variable leaf.
    Var,
}

impl Head {
    /// Dense index for table-backed dispatch (see [`Head::COUNT`]).
    pub fn index(self) -> usize {
        match self {
            Head::Bin(op) => op as usize,
            Head::Un(op) => 8 + op as usize,
            Head::Call => 11,
            Head::Lit => 12,
            Head::Var => 13,
        }
    }

    /// Number of distinct head values.
    pub const COUNT: usize = 14;
}

/// Dense index for a [`Type`] (see [`TYPE_COUNT`]).
pub fn type_index(t: Type) -> usize {
    t as usize
}

/// Number of distinct [`Type`] values.
pub const TYPE_COUNT: usize = 8;

/// A borrowed view of a term, used to look up candidates without
/// allocating the owned [`Term`] first.
enum TermRef<'a> {
    Lit(&'a Value),
    Var(&'a str, Type),
    Unary(UnOp, TermId),
    Binary(BinOp, TermId, TermId),
    Call(&'a str, Type, &'a [TermId]),
}

/// Hash a value by *bit pattern* (floats via `to_bits`), so it can key the
/// hash-consing map even though `f64` is not `Hash`. Two values with equal
/// bits are structurally interchangeable; `-0.0`/`0.0` and NaN asymmetries
/// versus `PartialEq` are recovered through `norm`/`has_nan` metadata.
fn hash_value<H: Hasher>(v: &Value, state: &mut H) {
    std::mem::discriminant(v).hash(state);
    match v {
        Value::Int(x) => x.hash(state),
        Value::UInt(x) => x.hash(state),
        Value::Float(x) => x.to_bits().hash(state),
        Value::Bool(b) => b.hash(state),
        Value::Str(s) => s.hash(state),
        Value::Rational(r) => r.hash(state),
        Value::BigFloat(x) => x.to_bits().hash(state),
    }
}

/// Bit-level value equality — the interner's notion of "same literal".
fn value_bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::BigFloat(x), Value::BigFloat(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

impl TermRef<'_> {
    /// Word-folded FNV with the avalanche finalizer: the interner hashes
    /// every node of every incoming expression, so SipHash's keyed setup
    /// is measurable overhead, and the cons table takes slots from the low
    /// bits. Collisions are harmless: candidates are confirmed
    /// structurally against the arena.
    fn hash64(&self) -> u64 {
        let mut h = FnvHasher::default();
        match self {
            TermRef::Lit(v) => {
                0u8.hash(&mut h);
                hash_value(v, &mut h);
            }
            TermRef::Var(name, ty) => {
                1u8.hash(&mut h);
                name.hash(&mut h);
                ty.hash(&mut h);
            }
            TermRef::Unary(op, x) => {
                2u8.hash(&mut h);
                op.hash(&mut h);
                x.hash(&mut h);
            }
            TermRef::Binary(op, l, r) => {
                3u8.hash(&mut h);
                op.hash(&mut h);
                l.hash(&mut h);
                r.hash(&mut h);
            }
            TermRef::Call(name, ty, args) => {
                4u8.hash(&mut h);
                name.hash(&mut h);
                ty.hash(&mut h);
                args.hash(&mut h);
            }
        }
        h.finish()
    }

    fn matches(&self, t: &Term) -> bool {
        match (self, t) {
            (TermRef::Lit(a), Term::Lit(b)) => value_bits_eq(a, b),
            (TermRef::Var(n, ty), Term::Var(m, tz)) => *n == m && ty == tz,
            (TermRef::Unary(op, x), Term::Unary(oq, y)) => op == oq && x == y,
            (TermRef::Binary(op, l, r), Term::Binary(oq, m, s)) => op == oq && l == m && r == s,
            (TermRef::Call(n, ty, args), Term::Call(m, tz, brgs)) => {
                *n == m && ty == tz && *args == brgs.as_slice()
            }
            _ => false,
        }
    }

    fn to_owned(&self) -> Term {
        match self {
            TermRef::Lit(v) => Term::Lit((*v).clone()),
            TermRef::Var(n, ty) => Term::Var((*n).to_string(), *ty),
            TermRef::Unary(op, x) => Term::Unary(*op, *x),
            TermRef::Binary(op, l, r) => Term::Binary(*op, *l, *r),
            TermRef::Call(n, ty, args) => Term::Call((*n).to_string(), *ty, args.to_vec()),
        }
    }
}

/// Per-term cached metadata, computed once at interning time.
struct TermData {
    term: Term,
    /// Static type (the `Expr::ty` recursion, paid once).
    ty: Type,
    /// Tree size of the represented expression (the `Expr::size`
    /// recursion, paid once; `u64` because a shared DAG unfolds
    /// exponentially).
    size: u64,
    /// Id of the `-0.0 → +0.0` normalized variant (usually `self`).
    norm: TermId,
    /// Whether any literal inside is NaN.
    has_nan: bool,
}

/// Interning counters, resolved once per process (module-level static, the
/// same pattern `gp-parallel` uses for its hot-path metrics).
struct InternMetrics {
    hits: &'static Counter,
    misses: &'static Counter,
}

fn intern_metrics() -> &'static InternMetrics {
    static METRICS: OnceLock<InternMetrics> = OnceLock::new();
    METRICS.get_or_init(|| InternMetrics {
        hits: gp_telemetry::counter("rewrite.intern.hits"),
        misses: gp_telemetry::counter("rewrite.intern.misses"),
    })
}

/// The arena-backed, hash-consed term store.
#[derive(Default)]
pub struct TermStore {
    terms: Vec<TermData>,
    /// hash → id index (candidates are confirmed against the arena, so
    /// the table never owns a second copy of a term).
    map: ConsTable,
}

impl TermStore {
    /// An empty store.
    pub fn new() -> Self {
        TermStore::default()
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    fn data(&self, id: TermId) -> &TermData {
        &self.terms[id.index()]
    }

    /// The interned term behind `id`.
    pub fn term(&self, id: TermId) -> &Term {
        &self.data(id).term
    }

    /// Static type of the term — O(1), cached at interning time.
    pub fn ty(&self, id: TermId) -> Type {
        self.data(id).ty
    }

    /// Tree size of the represented expression — O(1), cached.
    pub fn size(&self, id: TermId) -> u64 {
        self.data(id).size
    }

    /// Head symbol of the term.
    pub fn head(&self, id: TermId) -> Head {
        match self.term(id) {
            Term::Lit(_) => Head::Lit,
            Term::Var(..) => Head::Var,
            Term::Unary(op, _) => Head::Un(*op),
            Term::Binary(op, ..) => Head::Bin(*op),
            Term::Call(..) => Head::Call,
        }
    }

    /// Does the represented tree contain a NaN literal?
    pub fn has_nan(&self, id: TermId) -> bool {
        self.data(id).has_nan
    }

    /// Decide `Expr::eq` of the two represented trees in O(1): equal ids
    /// after `-0.0` normalization, and no NaN anywhere (NaN is not equal
    /// to itself under `PartialEq`, so such a tree equals nothing).
    pub fn exprs_eq(&self, a: TermId, b: TermId) -> bool {
        self.data(a).norm == self.data(b).norm && !self.data(a).has_nan
    }

    fn intern(&mut self, key: TermRef<'_>) -> TermId {
        let h = key.hash64();
        let terms = &self.terms;
        if let Some(id) = self.map.find(h, |id| key.matches(&terms[id.index()].term)) {
            intern_metrics().hits.incr();
            return id;
        }
        intern_metrics().misses.incr();
        let term = key.to_owned();
        // `< u32::MAX`, not `<= `: the top value is [`TermMap`]'s sentinel.
        let raw = u32::try_from(self.terms.len())
            .ok()
            .filter(|&n| n < u32::MAX)
            .expect("term store overflowed u32 ids");
        let id = TermId(raw);
        let (ty, size, norm_parts, has_nan) = self.metadata_of(&term);
        self.terms.push(TermData {
            term,
            ty,
            size,
            norm: id, // provisional; fixed up below when a variant differs
            has_nan,
        });
        self.map.insert(h, id);
        // Compute the -0.0-normalized variant. Children are already
        // interned (hence already normalized); only a differing child norm
        // or a -0.0 literal at the root forces a second interning, and the
        // variant's own norm is itself, so this recursion is depth one.
        if let Some(norm_key) = norm_parts {
            let norm = self.intern_norm_variant(norm_key);
            self.terms[id.index()].norm = norm;
        }
        id
    }

    /// Metadata for a freshly interned term, plus the recipe for its
    /// normalized variant if that differs from the term itself.
    #[allow(clippy::type_complexity)]
    fn metadata_of(&self, term: &Term) -> (Type, u64, Option<NormVariant>, bool) {
        match term {
            Term::Lit(v) => {
                let nan = matches!(v, Value::Float(x) | Value::BigFloat(x) if x.is_nan());
                let norm = match v {
                    Value::Float(x) if x.to_bits() == (-0.0f64).to_bits() => {
                        Some(NormVariant::Lit(Value::Float(0.0)))
                    }
                    Value::BigFloat(x) if x.to_bits() == (-0.0f64).to_bits() => {
                        Some(NormVariant::Lit(Value::BigFloat(0.0)))
                    }
                    _ => None,
                };
                (v.ty(), 1, norm, nan)
            }
            Term::Var(_, t) => (*t, 1, None, false),
            Term::Unary(op, x) => {
                let ty = if *op == UnOp::Not {
                    Type::Bool
                } else {
                    self.ty(*x)
                };
                let xn = self.data(*x).norm;
                let norm = (xn != *x).then_some(NormVariant::Unary(*op, xn));
                (ty, 1 + self.size(*x), norm, self.has_nan(*x))
            }
            Term::Binary(op, l, r) => {
                let (ln, rn) = (self.data(*l).norm, self.data(*r).norm);
                let norm = (ln != *l || rn != *r).then_some(NormVariant::Binary(*op, ln, rn));
                (
                    self.ty(*l),
                    1 + self.size(*l) + self.size(*r),
                    norm,
                    self.has_nan(*l) || self.has_nan(*r),
                )
            }
            Term::Call(name, t, args) => {
                let norms: Vec<TermId> = args.iter().map(|a| self.data(*a).norm).collect();
                let norm = (norms != *args).then(|| NormVariant::Call(name.clone(), *t, norms));
                (
                    *t,
                    1 + args.iter().map(|a| self.size(*a)).sum::<u64>(),
                    norm,
                    args.iter().any(|a| self.has_nan(*a)),
                )
            }
        }
    }

    fn intern_norm_variant(&mut self, v: NormVariant) -> TermId {
        match v {
            NormVariant::Lit(val) => self.intern(TermRef::Lit(&val)),
            NormVariant::Unary(op, x) => self.intern(TermRef::Unary(op, x)),
            NormVariant::Binary(op, l, r) => self.intern(TermRef::Binary(op, l, r)),
            NormVariant::Call(name, ty, args) => self.intern(TermRef::Call(&name, ty, &args)),
        }
    }

    // --- public constructors -------------------------------------------

    /// Intern a literal.
    pub fn lit(&mut self, v: &Value) -> TermId {
        self.intern(TermRef::Lit(v))
    }

    /// Intern a typed variable.
    pub fn var(&mut self, name: &str, ty: Type) -> TermId {
        self.intern(TermRef::Var(name, ty))
    }

    /// Intern a unary application.
    pub fn unary(&mut self, op: UnOp, x: TermId) -> TermId {
        self.intern(TermRef::Unary(op, x))
    }

    /// Intern a binary application.
    pub fn binary(&mut self, op: BinOp, l: TermId, r: TermId) -> TermId {
        self.intern(TermRef::Binary(op, l, r))
    }

    /// Intern a function call.
    pub fn call(&mut self, name: &str, ty: Type, args: &[TermId]) -> TermId {
        self.intern(TermRef::Call(name, ty, args))
    }

    /// Intern an expression tree bottom-up. Shared/repeated subtrees
    /// collapse to a single id (this is where `rewrite.intern.hits` come
    /// from on DAG-shaped workloads).
    pub fn intern_expr(&mut self, e: &Expr) -> TermId {
        match e {
            Expr::Lit(v) => self.lit(v),
            Expr::Var(name, ty) => self.var(name, *ty),
            Expr::Unary(op, x) => {
                let xi = self.intern_expr(x);
                self.unary(*op, xi)
            }
            Expr::Binary(op, l, r) => {
                let (li, ri) = (self.intern_expr(l), self.intern_expr(r));
                self.binary(*op, li, ri)
            }
            Expr::Call(name, ty, args) => {
                let ids: Vec<TermId> = args.iter().map(|a| self.intern_expr(a)).collect();
                self.call(name, *ty, &ids)
            }
        }
    }

    /// Convert an interned term back into an owned expression tree.
    /// Shared subterms are duplicated, exactly as the tree representation
    /// requires.
    pub fn extract(&self, id: TermId) -> Expr {
        match self.term(id) {
            Term::Lit(v) => Expr::Lit(v.clone()),
            Term::Var(name, ty) => Expr::Var(name.clone(), *ty),
            Term::Unary(op, x) => Expr::Unary(*op, Box::new(self.extract(*x))),
            Term::Binary(op, l, r) => {
                Expr::Binary(*op, Box::new(self.extract(*l)), Box::new(self.extract(*r)))
            }
            Term::Call(name, ty, args) => Expr::Call(
                name.clone(),
                *ty,
                args.iter().map(|a| self.extract(*a)).collect(),
            ),
        }
    }
}

/// Owned recipe for a normalized variant (children already interned).
enum NormVariant {
    Lit(Value),
    Unary(UnOp, TermId),
    Binary(BinOp, TermId, TermId),
    Call(String, Type, Vec<TermId>),
}

/// A dense `TermId → TermId` map: a flat `u32` array indexed by the key's
/// arena index (ids are dense by construction). This is the memo-table
/// representation the 4-byte `TermId` guarantee exists for — lookup and
/// insert are one array access, 16 entries per cache line, no hashing.
#[derive(Default)]
pub struct TermMap {
    slots: Vec<u32>,
}

/// Empty-slot sentinel: the store caps ids below `u32::MAX` (it would
/// panic interning term 2^32-1), so the top value is free.
const TERM_MAP_EMPTY: u32 = u32::MAX;

impl TermMap {
    /// An empty map.
    pub fn new() -> Self {
        TermMap::default()
    }

    /// Value stored for `key`, if any.
    pub fn get(&self, key: TermId) -> Option<TermId> {
        match self.slots.get(key.index()) {
            Some(&v) if v != TERM_MAP_EMPTY => Some(TermId(v)),
            _ => None,
        }
    }

    /// Store `value` for `key` (last write wins).
    pub fn insert(&mut self, key: TermId, value: TermId) {
        let i = key.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, TERM_MAP_EMPTY);
        }
        self.slots[i] = value.0;
    }

    /// Remove every entry (keeps capacity).
    pub fn clear(&mut self) {
        self.slots.fill(TERM_MAP_EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_id_is_four_bytes() {
        // The compile-time asserts above are the real guard; this test
        // keeps the invariant visible in `cargo test` output.
        assert_eq!(std::mem::size_of::<TermId>(), 4);
        assert_eq!(std::mem::size_of::<Option<TermId>>(), 8);
    }

    #[test]
    fn interning_is_idempotent_and_shares_subterms() {
        let mut st = TermStore::new();
        let x = Expr::var("x", Type::Int);
        let e = Expr::bin(BinOp::Add, x.clone(), x.clone());
        let a = st.intern_expr(&e);
        let b = st.intern_expr(&e);
        assert_eq!(a, b);
        // x, and x+x: exactly two distinct terms.
        assert_eq!(st.len(), 2);
        assert_eq!(st.size(a), 3);
        assert_eq!(st.ty(a), Type::Int);
        assert_eq!(st.head(a), Head::Bin(BinOp::Add));
    }

    #[test]
    fn round_trip_preserves_expressions() {
        let exprs = [
            Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::var("x", Type::Int), Expr::int(3)),
                Expr::un(UnOp::Neg, Expr::var("y", Type::Int)),
            ),
            Expr::Call(
                "Inverse".into(),
                Type::BigFloat,
                vec![Expr::var("f", Type::BigFloat)],
            ),
            Expr::bin(BinOp::Concat, Expr::string("a"), Expr::string("")),
        ];
        let mut st = TermStore::new();
        for e in exprs {
            let id = st.intern_expr(&e);
            assert_eq!(st.extract(id), e);
            assert_eq!(st.size(id) as usize, e.size());
            assert_eq!(st.ty(id), e.ty());
        }
    }

    #[test]
    fn exprs_eq_matches_partial_eq_on_float_edge_cases() {
        let mut st = TermStore::new();
        let zp = st.intern_expr(&Expr::float(0.0));
        let zn = st.intern_expr(&Expr::float(-0.0));
        // Distinct bit patterns intern separately…
        assert_ne!(zp, zn);
        // …but PartialEq says they are equal, and exprs_eq agrees.
        assert!(st.exprs_eq(zp, zn));
        // NaN interns to one id but is never expr-equal, even to itself.
        let nan = st.intern_expr(&Expr::float(f64::NAN));
        let nan2 = st.intern_expr(&Expr::float(f64::NAN));
        assert_eq!(nan, nan2);
        assert!(!st.exprs_eq(nan, nan2));
        // Compound terms inherit both behaviors.
        let e1 = Expr::bin(BinOp::Add, Expr::var("x", Type::Float), Expr::float(0.0));
        let e2 = Expr::bin(BinOp::Add, Expr::var("x", Type::Float), Expr::float(-0.0));
        assert_eq!(e1, e2, "sanity: PartialEq treats -0.0 == 0.0");
        let (i1, i2) = (st.intern_expr(&e1), st.intern_expr(&e2));
        assert_ne!(i1, i2);
        assert!(st.exprs_eq(i1, i2));
    }

    #[test]
    fn dag_shaped_input_interns_linearly() {
        // 2^16 tree nodes, 17 distinct terms.
        let mut e = Expr::var("x", Type::Int);
        for _ in 0..15 {
            e = Expr::bin(BinOp::Add, e.clone(), e);
        }
        let mut st = TermStore::new();
        let id = st.intern_expr(&e);
        assert_eq!(st.len(), 16);
        assert_eq!(st.size(id), (1 << 16) - 1);
    }

    #[test]
    fn head_indices_are_dense_and_distinct() {
        use std::collections::BTreeSet;
        let heads = [
            Head::Bin(BinOp::Add),
            Head::Bin(BinOp::Sub),
            Head::Bin(BinOp::Mul),
            Head::Bin(BinOp::Div),
            Head::Bin(BinOp::And),
            Head::Bin(BinOp::Or),
            Head::Bin(BinOp::BitAnd),
            Head::Bin(BinOp::Concat),
            Head::Un(UnOp::Neg),
            Head::Un(UnOp::Recip),
            Head::Un(UnOp::Not),
            Head::Call,
            Head::Lit,
            Head::Var,
        ];
        let set: BTreeSet<usize> = heads.iter().map(|h| h.index()).collect();
        assert_eq!(set.len(), Head::COUNT);
        assert!(set.iter().all(|&i| i < Head::COUNT));
    }
}
