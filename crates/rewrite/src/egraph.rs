//! Equality saturation over the hash-consed term store: the concept
//! superoptimizer.
//!
//! The directed engine ([`crate::simplify::Session::simplify`]) applies
//! the first matching rule and commits — a local optimum. This module
//! layers the machinery DESIGN §5 originally left out on top of the same
//! [`TermStore`]: a union-find of **e-classes** over the interned ids,
//! congruence closure on rebuild, e-matching of the *same* concept-gated
//! rule objects the directed engine dispatches, and **cost-based
//! extraction** of the cheapest representative. Rules still fire only
//! when the concept environment models their requirements, so every
//! union is justified by a declared algebraic law (or by congruence).
//!
//! Three things make this tractable rather than explosive:
//!
//! * **Bounded saturation.** Node / class / iteration budgets stop the
//!   loop deterministically; hitting one sets a flag in
//!   [`OptimizeStats`], never panics, and extraction still returns a
//!   no-worse-cost term (the input's class always contains the input).
//! * **Semi-naive matching.** Each iteration e-matches only the nodes
//!   interned since the previous sweep. An older node cannot derive
//!   anything new: the store is hash-consed and append-only, so the node
//!   never changes; a rule's result at it is a pure function of the node
//!   and the environment, so re-matching re-interns the same terms and
//!   re-derives the same pairs; and classes only merge, so a pair merged
//!   once stays merged. Re-matching it would only cost time
//!   (`rewrite.egraph.matched` counts the nodes actually matched).
//! * **Canonical rebuilding as cheap e-matching.** Representatives are
//!   chosen by a fixed preference (literals, then variables, then the
//!   oldest id), so rebuilding a node with its children's
//!   representatives tends to expose the literal/shared forms the rules
//!   pattern-match on. This is not complete e-matching — a rule sees one
//!   member per child class — but it is deterministic, cheap, and enough
//!   to reach the re-association/cancellation forms the directed engine
//!   cannot. The rebuilt node is a new node, so the next sweep matches it.
//!
//! Costs come through the [`CostModel`] concept with two library models:
//! [`ComplexityCost`] (weights derived from the taxonomy's asymptotic
//! complexity annotations, evaluated at a nominal size) and
//! [`MeasuredCost`] (weights from measured operation counts, the E9
//! methodology). Both look a node's weight up by its [`op_key`] without
//! building the key string. Extraction is a fixpoint relaxation over
//! classes with a deterministic `(cost, id)` tie-break, so equal-cost
//! extractions are reproducible run to run.
//!
//! The engine before semi-naive matching — every node e-matched on every
//! iteration, every rule tried in registration order — is frozen in
//! `gp_bench::oracle` as the reference the equivalence proptests pin this
//! one to.

use crate::env::ConceptEnv;
use crate::expr::{BinOp, Type, UnOp};
use crate::intern::{type_index, Head, Term, TermId, TermStore, TYPE_COUNT};
use crate::simplify::Simplifier;
use gp_core::complexity::Complexity;
use gp_telemetry::Counter;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// E-graph telemetry, resolved once per process (the engine-metrics
/// pattern `simplify.rs` uses).
struct EGraphMetrics {
    classes: &'static Counter,
    nodes: &'static Counter,
    unions: &'static Counter,
    iters: &'static Counter,
    matched: &'static Counter,
    extract_cost: &'static Counter,
}

fn egraph_metrics() -> &'static EGraphMetrics {
    static METRICS: OnceLock<EGraphMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EGraphMetrics {
        classes: gp_telemetry::counter("rewrite.egraph.classes"),
        nodes: gp_telemetry::counter("rewrite.egraph.nodes"),
        unions: gp_telemetry::counter("rewrite.egraph.unions"),
        iters: gp_telemetry::counter("rewrite.egraph.iters"),
        matched: gp_telemetry::counter("rewrite.egraph.matched"),
        extract_cost: gp_telemetry::counter("rewrite.egraph.extract_cost"),
    })
}

/// Saturation budgets. Every budget is a hard, deterministic stop: the
/// run reports `budget_hit` in [`OptimizeStats`] and extraction proceeds
/// on whatever the e-graph holds.
#[derive(Clone, Debug)]
pub struct EGraphConfig {
    /// Stop when the store holds this many e-nodes.
    pub max_nodes: usize,
    /// Stop when the e-graph holds this many e-classes.
    pub max_classes: usize,
    /// Stop after this many saturation iterations.
    pub max_iters: usize,
}

impl Default for EGraphConfig {
    fn default() -> Self {
        EGraphConfig {
            max_nodes: 20_000,
            max_classes: 20_000,
            max_iters: 16,
        }
    }
}

/// Statistics from one [`Session::optimize`](crate::Session::optimize)
/// run, mirrored into the `rewrite.egraph.*` counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OptimizeStats {
    /// E-classes at the end of saturation.
    pub classes: usize,
    /// E-nodes (interned terms touched by this run's store sweep).
    pub nodes: usize,
    /// Class merges performed (rule-justified plus congruence).
    pub unions: usize,
    /// Saturation iterations run.
    pub iters: usize,
    /// The loop reached a fixpoint (no new equalities or nodes).
    pub saturated: bool,
    /// A node/class/iteration budget stopped the loop early. Not an
    /// error: extraction still returns a no-worse-cost term.
    pub budget_hit: bool,
    /// Cost of the input term under the run's cost model.
    pub cost_before: u64,
    /// Cost of the extracted term (`<= cost_before` always).
    pub cost_after: u64,
    /// Tree size of the extracted term.
    pub extracted_size: usize,
    /// Saturation-phase rule applications that merged classes, per rule.
    pub applications: BTreeMap<&'static str, usize>,
}

// ---------------------------------------------------------------------
// Cost models
// ---------------------------------------------------------------------

/// The cost-model concept: the cost of one e-node **excluding** its
/// children (extraction adds child class costs). Implementations should
/// return at least 1; extraction clamps to 1 so that cyclic e-classes
/// (`x = x * 1` puts `x`'s class among its own children) can never be
/// their own cheapest explanation.
pub trait CostModel {
    /// Cost of the node itself, children excluded.
    fn node_cost(&self, store: &TermStore, id: TermId) -> u64;
}

fn ty_key(t: Type) -> &'static str {
    match t {
        Type::Int => "int",
        Type::UInt => "uint",
        Type::Float => "float",
        Type::Bool => "bool",
        Type::Str => "str",
        Type::Rational => "rational",
        Type::Matrix => "matrix",
        Type::BigFloat => "bigfloat",
    }
}

fn bin_key(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::BitAnd => "bitand",
        BinOp::Concat => "concat",
    }
}

fn un_key(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "neg",
        UnOp::Recip => "recip",
        UnOp::Not => "not",
    }
}

/// Every `"<type>.<op>"` key, built once and indexed like the rule index
/// (`type_index * Head::COUNT + head.index()`); leaf and call slots are
/// empty.
fn operator_keys() -> &'static [String] {
    static KEYS: OnceLock<Vec<String>> = OnceLock::new();
    KEYS.get_or_init(|| {
        use BinOp::*;
        use Type::*;
        let types = [Int, UInt, Float, Bool, Str, Rational, Matrix, BigFloat];
        let heads = [Add, Sub, Mul, Div, And, Or, BitAnd, Concat]
            .map(|op| (Head::Bin(op), bin_key(op)))
            .into_iter()
            .chain([UnOp::Neg, UnOp::Recip, UnOp::Not].map(|op| (Head::Un(op), un_key(op))));
        let mut keys = vec![String::new(); TYPE_COUNT * Head::COUNT];
        for (head, op) in heads {
            for ty in types {
                keys[type_index(ty) * Head::COUNT + head.index()] = format!("{}.{op}", ty_key(ty));
            }
        }
        keys
    })
}

/// A node's cost key, borrowed: a static operator or leaf key, or the
/// name of a library call (whose key is `"call.<name>"`).
enum KeyRef<'a> {
    Static(&'static str),
    Call(&'a str),
}

fn key_ref(store: &TermStore, id: TermId) -> KeyRef<'_> {
    match store.term(id) {
        Term::Lit(_) => KeyRef::Static("lit"),
        Term::Var(..) => KeyRef::Static("var"),
        Term::Call(name, ..) => KeyRef::Call(name),
        Term::Unary(..) | Term::Binary(..) => KeyRef::Static(
            &operator_keys()[type_index(store.ty(id)) * Head::COUNT + store.head(id).index()],
        ),
    }
}

/// The stable cost key of a node: `"<type>.<op>"` for operators (e.g.
/// `int.add`, `bigfloat.div`), `"call.<Name>"` for library calls,
/// `"lit"` / `"var"` for leaves. [`ComplexityCost`] and [`MeasuredCost`]
/// weight tables are keyed by these strings, as is the cost catalog the
/// taxonomy crate surfaces.
pub fn op_key(store: &TermStore, id: TermId) -> String {
    match key_ref(store, id) {
        KeyRef::Static(key) => key.to_string(),
        KeyRef::Call(name) => format!("call.{name}"),
    }
}

/// A weight table keyed like [`op_key`] and read without building the
/// key: operator and leaf weights under their static keys, call weights
/// under the bare call name. Unlisted keys weigh 1.
struct Weights {
    ops: BTreeMap<String, u64>,
    calls: BTreeMap<String, u64>,
}

impl Weights {
    fn new(pairs: impl IntoIterator<Item = (String, u64)>) -> Self {
        let (mut ops, mut calls) = (BTreeMap::new(), BTreeMap::new());
        for (key, w) in pairs {
            match key.strip_prefix("call.") {
                Some(name) => calls.insert(name.to_string(), w),
                None => ops.insert(key, w),
            };
        }
        Weights { ops, calls }
    }

    fn get(&self, store: &TermStore, id: TermId) -> u64 {
        match key_ref(store, id) {
            KeyRef::Static(key) => self.ops.get(key),
            KeyRef::Call(name) => self.calls.get(name),
        }
        .copied()
        .unwrap_or(1)
    }
}

/// Every node costs 1 — extraction minimizes tree size, the directed
/// engine's own metric. The baseline model for tests and ablations.
pub struct AstSizeCost;

impl CostModel for AstSizeCost {
    fn node_cost(&self, _store: &TermStore, _id: TermId) -> u64 {
        1
    }
}

/// Weights derived from the taxonomy's asymptotic complexity
/// annotations: each operator's [`Complexity`] evaluated at a nominal
/// problem size (operand width, precision …) and rounded up. Leaves and
/// unlisted operators fall back to weight 1.
pub struct ComplexityCost {
    weights: Weights,
}

impl ComplexityCost {
    /// Build from `(op key, annotation)` pairs, evaluating every
    /// annotation at size `n` (see [`op_key`] for the key format).
    pub fn from_annotations<'a>(
        annotations: impl IntoIterator<Item = (&'a str, &'a Complexity)>,
        n: f64,
    ) -> Self {
        let weights = annotations
            .into_iter()
            .map(|(key, c)| (key.to_string(), weight_of(c.evaluate_single(n))));
        ComplexityCost {
            weights: Weights::new(weights),
        }
    }
}

/// Clamp an evaluated complexity / measured count to a usable weight.
fn weight_of(w: f64) -> u64 {
    if w.is_finite() {
        (w.ceil() as u64).clamp(1, 1 << 40)
    } else {
        1 << 40
    }
}

impl CostModel for ComplexityCost {
    fn node_cost(&self, store: &TermStore, id: TermId) -> u64 {
        self.weights.get(store, id)
    }
}

/// Weights from **measured** operation counts (the E9 methodology:
/// instrumented runs counting what each operation actually executes),
/// keyed like [`op_key`]. Unlisted operators fall back to count 1.
pub struct MeasuredCost {
    counts: Weights,
}

impl MeasuredCost {
    /// Build from `(op key, measured count)` pairs.
    pub fn from_counts<K: Into<String>>(counts: impl IntoIterator<Item = (K, u64)>) -> Self {
        let counts = counts.into_iter().map(|(k, v)| (k.into(), v.max(1)));
        MeasuredCost {
            counts: Weights::new(counts),
        }
    }
}

impl CostModel for MeasuredCost {
    fn node_cost(&self, store: &TermStore, id: TermId) -> u64 {
        self.counts.get(store, id)
    }
}

// ---------------------------------------------------------------------
// Union-find with representative preference
// ---------------------------------------------------------------------

/// Representative preference class: literals canonicalize classes to
/// their constant member, variables beat compound terms, and ties break
/// to the oldest id. Children are always interned before parents, so
/// "oldest" also means "subterm-most" — canonical rebuilding shrinks.
fn node_rank(store: &TermStore, id: TermId) -> u8 {
    match store.term(id) {
        Term::Lit(_) => 0,
        Term::Var(..) => 1,
        _ => 2,
    }
}

/// No entry: the end of a use list.
const NONE: u32 = u32::MAX;

/// One node's union-find slot. `dirty` asks the next rebuild pass to
/// re-canonicalize the node; `head`/`tail` delimit, while the node is a
/// class root, the class's use list.
#[derive(Clone, Copy)]
struct Slot {
    parent: u32,
    dirty: bool,
    head: u32,
    tail: u32,
}

/// One use-list entry: `user` has a member of the list's class as a
/// child.
#[derive(Clone, Copy)]
struct Use {
    user: u32,
    next: u32,
}

/// The union-find over node ids, plus what a worklist rebuild needs: a
/// dirty flag per node, and per class the nodes that have a member of
/// the class as a child. The use lists are linked through one flat
/// array, an entry per (node, child) pair, and a union splices the losing
/// class's list onto the winner's in O(1).
struct UnionFind {
    slots: Vec<Slot>,
    uses: Vec<Use>,
}

fn u32_id(i: usize) -> u32 {
    u32::try_from(i).expect("e-graph id overflow")
}

impl UnionFind {
    /// An empty union-find with room for a store of `n` nodes to grow
    /// fourfold before the arrays reallocate (E17's cancellations end
    /// at about three times their input).
    fn with_room(n: usize) -> Self {
        let nodes = 4 * n.max(16);
        UnionFind {
            slots: Vec::with_capacity(nodes),
            uses: Vec::with_capacity(2 * nodes),
        }
    }

    /// Cover every node of `store`: a new node starts as a dirty
    /// singleton class and joins its children's classes' use lists.
    fn ensure(&mut self, store: &TermStore) {
        for i in self.slots.len()..store.len() {
            self.slots.push(Slot {
                parent: u32_id(i),
                dirty: true,
                head: NONE,
                tail: NONE,
            });
            let id = TermId::from_index(i);
            match store.term(id) {
                Term::Lit(_) | Term::Var(..) => {}
                &Term::Unary(_, x) => self.add_use(x, id),
                &Term::Binary(_, l, r) => {
                    self.add_use(l, id);
                    self.add_use(r, id);
                }
                Term::Call(_, _, args) => {
                    for &a in args {
                        self.add_use(a, id);
                    }
                }
            }
        }
    }

    /// Record that `user` has a member of `child`'s class as a child.
    fn add_use(&mut self, child: TermId, user: TermId) {
        let c = self.find(child).index();
        let e = u32_id(self.uses.len());
        self.uses.push(Use {
            user: u32_id(user.index()),
            next: NONE,
        });
        match self.slots[c].tail {
            NONE => self.slots[c].head = e,
            t => self.uses[t as usize].next = e,
        }
        self.slots[c].tail = e;
    }

    fn find(&mut self, id: TermId) -> TermId {
        let mut i = id.index();
        while self.slots[i].parent as usize != i {
            // Path halving.
            let gp = self.slots[self.slots[i].parent as usize].parent;
            self.slots[i].parent = gp;
            i = gp as usize;
        }
        TermId::from_index(i)
    }

    /// Merge the class rooted at `child` into the one rooted at `root`:
    /// every user of the losing class now has a non-canonical child, so
    /// it is dirty, and the list moves to the winner.
    fn merge(&mut self, root: TermId, child: TermId) {
        let (r, c) = (root.index(), child.index());
        let lost = self.slots[c];
        self.slots[c] = Slot {
            parent: u32_id(r),
            head: NONE,
            tail: NONE,
            ..lost
        };
        let mut e = lost.head;
        while e != NONE {
            let u = self.uses[e as usize];
            self.slots[u.user as usize].dirty = true;
            e = u.next;
        }
        if lost.head != NONE {
            match self.slots[r].tail {
                NONE => self.slots[r].head = lost.head,
                t => self.uses[t as usize].next = lost.head,
            }
            self.slots[r].tail = lost.tail;
        }
    }

    /// Take `i`'s dirty flag, leaving it clean.
    fn take_dirty(&mut self, i: usize) -> bool {
        std::mem::take(&mut self.slots[i].dirty)
    }
}

// ---------------------------------------------------------------------
// The e-graph
// ---------------------------------------------------------------------

/// An equality-saturation session over a [`TermStore`]: every interned
/// term is an e-node; the union-find groups them into e-classes.
/// Normally driven through [`Session::optimize`](crate::Session::optimize);
/// public for tests and for callers that want staged control
/// ([`EGraph::saturate`] then [`EGraph::extract`]).
pub struct EGraph<'a> {
    simp: &'a Simplifier,
    store: &'a mut TermStore,
    uf: UnionFind,
    unions: usize,
    /// Nodes below this id have been e-matched; a sweep starts here.
    swept: usize,
    /// Nodes e-matched so far.
    matched: usize,
}

impl<'a> EGraph<'a> {
    /// Wrap a store (typically a [`Session`](crate::Session)'s) for
    /// saturation with `simp`'s rules and environment.
    pub fn new(simp: &'a Simplifier, store: &'a mut TermStore) -> Self {
        let mut uf = UnionFind::with_room(store.len());
        uf.ensure(store);
        EGraph {
            simp,
            store,
            uf,
            unions: 0,
            swept: 0,
            matched: 0,
        }
    }

    /// The canonical representative of `id`'s e-class.
    pub fn find(&mut self, id: TermId) -> TermId {
        self.uf.ensure(self.store);
        self.uf.find(id)
    }

    /// Merge the classes of `a` and `b`; returns whether they were
    /// distinct. The surviving representative is the preferred member
    /// (literal > variable > compound, then oldest id).
    fn union(&mut self, a: TermId, b: TermId) -> bool {
        let ra = self.uf.find(a);
        let rb = self.uf.find(b);
        if ra == rb {
            return false;
        }
        let ka = (node_rank(self.store, ra), ra.index());
        let kb = (node_rank(self.store, rb), rb.index());
        let (root, child) = if ka <= kb { (ra, rb) } else { (rb, ra) };
        self.uf.merge(root, child);
        self.unions += 1;
        true
    }

    /// Rebuild `id` with canonical children (congruence probe). Interns
    /// the rebuilt node when it differs.
    fn canonical_rebuild(&mut self, id: TermId) -> TermId {
        match self.store.term(id) {
            Term::Lit(_) | Term::Var(..) => id,
            &Term::Unary(op, x) => {
                let xc = self.uf.find(x);
                if xc == x {
                    id
                } else {
                    self.store.unary(op, xc)
                }
            }
            &Term::Binary(op, l, r) => {
                let (lc, rc) = (self.uf.find(l), self.uf.find(r));
                if lc == l && rc == r {
                    id
                } else {
                    self.store.binary(op, lc, rc)
                }
            }
            Term::Call(name, ty, args) => {
                let (name, ty, args) = (name.clone(), *ty, args.clone());
                let canon: Vec<TermId> = args.iter().map(|&a| self.uf.find(a)).collect();
                if canon == args {
                    id
                } else {
                    self.store.call(&name, ty, &canon)
                }
            }
        }
    }

    /// Congruence closure: pass over the dirty nodes in id order, rebuild
    /// each with canonical children and union it with the rebuilt form,
    /// until a pass moves nothing or the node budget stops it. Returns
    /// `true` on a budget stop.
    ///
    /// A clean node's children have kept their representatives since the
    /// node was last rebuilt, so rebuilding it again would re-intern the
    /// same node and re-derive a union already made. Skipping it leaves
    /// the passes, the interning order and every union exactly as a sweep
    /// over all nodes makes them.
    fn rebuild(&mut self, cfg: &EGraphConfig) -> bool {
        loop {
            let mut changed = false;
            let n = self.store.len();
            self.uf.ensure(self.store);
            for i in 0..n {
                if !self.uf.take_dirty(i) {
                    continue;
                }
                let id = TermId::from_index(i);
                let rebuilt = self.canonical_rebuild(id);
                self.uf.ensure(self.store);
                if self.union(id, rebuilt) {
                    changed = true;
                }
            }
            if self.store.len() >= cfg.max_nodes {
                return true;
            }
            if !changed && self.store.len() == n {
                return false;
            }
        }
    }

    /// Number of distinct e-classes: every node starts as its own class
    /// and every union merges two.
    pub fn class_count(&self) -> usize {
        self.store.len() - self.unions
    }

    /// Nodes e-matched so far (each node at most once, see
    /// [`EGraph::saturate`]); mirrored into `rewrite.egraph.matched`.
    pub fn matched(&self) -> usize {
        self.matched
    }

    /// Run bounded equality saturation from `root`'s store. Each
    /// iteration e-matches the nodes interned since the previous sweep
    /// against the rule index (semi-naive matching; the module doc gives
    /// the argument that older nodes derive nothing new), merges what
    /// the matches equate, and closes the result under congruence. Fires
    /// that merge distinct classes count as applications. Deterministic:
    /// nodes are swept in id order and unions use a fixed preference, so
    /// two runs over equal inputs produce identical e-graphs — the same
    /// e-graph, statistics and extraction as sweeping every node on
    /// every iteration.
    pub fn saturate(&mut self, cfg: &EGraphConfig, stats: &mut OptimizeStats) {
        let simp = self.simp;
        let index = simp.index();
        let rules = simp.rules();
        let env: &ConceptEnv = simp.env();
        let mut fires = vec![0usize; rules.len()];
        let mut matches: Vec<(TermId, TermId, usize)> = Vec::new();
        loop {
            if stats.iters >= cfg.max_iters {
                stats.budget_hit = true;
                break;
            }
            stats.iters += 1;
            let n = self.store.len();
            let unions_before = self.unions;

            // E-match phase: collect (lhs, rhs, rule) triples before
            // touching the union-find so match order cannot depend on
            // this iteration's own merges.
            matches.clear();
            let mut node_budget_hit = false;
            for i in self.swept..n {
                let id = TermId::from_index(i);
                self.swept = i + 1;
                self.matched += 1;
                for &ri in index.candidates(self.store, id) {
                    if let Some(next) = rules[ri as usize].try_apply_interned(self.store, id, env) {
                        if next != id {
                            matches.push((id, next, ri as usize));
                        }
                    }
                }
                if self.store.len() >= cfg.max_nodes {
                    node_budget_hit = true;
                    break;
                }
            }
            self.uf.ensure(self.store);
            for &(lhs, rhs, ri) in &matches {
                if self.union(lhs, rhs) {
                    simp.record_fire(ri);
                    fires[ri] += 1;
                }
            }

            // Congruence closure over everything the matches added.
            node_budget_hit |= self.rebuild(cfg);

            if node_budget_hit || self.class_count() >= cfg.max_classes {
                stats.budget_hit = true;
                break;
            }
            if self.unions == unions_before && self.store.len() == n {
                stats.saturated = true;
                break;
            }
        }
        for (rule, count) in rules.iter().zip(fires) {
            if count > 0 {
                *stats.applications.entry(rule.name()).or_insert(0) += count;
            }
        }
        stats.nodes = self.store.len();
        stats.classes = self.class_count();
        stats.unions = self.unions;
    }

    /// Tree cost of `id` under `cost` (children counted per occurrence,
    /// shared subterms memoized for linear time), ignoring e-classes —
    /// the "before" yardstick extraction must beat or match.
    pub fn tree_cost(&self, cost: &dyn CostModel, id: TermId) -> u64 {
        fn go(store: &TermStore, cost: &dyn CostModel, id: TermId, memo: &mut Vec<u64>) -> u64 {
            if memo[id.index()] != u64::MAX {
                return memo[id.index()];
            }
            let own = cost.node_cost(store, id).max(1);
            let total = match store.term(id) {
                Term::Lit(_) | Term::Var(..) => own,
                &Term::Unary(_, x) => own.saturating_add(go(store, cost, x, memo)),
                &Term::Binary(_, l, r) => own
                    .saturating_add(go(store, cost, l, memo))
                    .saturating_add(go(store, cost, r, memo)),
                Term::Call(_, _, args) => {
                    let args: Vec<TermId> = args.clone();
                    args.into_iter()
                        .fold(own, |acc, a| acc.saturating_add(go(store, cost, a, memo)))
                }
            };
            memo[id.index()] = total;
            total
        }
        let mut memo = vec![u64::MAX; self.store.len()];
        go(self.store, cost, id, &mut memo)
    }

    /// Extract the cheapest term equivalent to `root`: a fixpoint
    /// relaxation assigns every e-class the `(cost, id)`-minimal of its
    /// nodes' costs (node cost plus child class costs), then the best
    /// nodes are rebuilt into a plain term. Returns the extracted term's
    /// id and its cost. Deterministic via the lexicographic tie-break.
    pub fn extract(&mut self, root: TermId, cost: &dyn CostModel) -> (TermId, u64) {
        let n = self.store.len();
        self.uf.ensure(self.store);
        // Per-node own costs and class membership, resolved once.
        let own: Vec<u64> = (0..n)
            .map(|i| cost.node_cost(self.store, TermId::from_index(i)).max(1))
            .collect();
        let class: Vec<usize> = (0..n)
            .map(|i| self.uf.find(TermId::from_index(i)).index())
            .collect();
        // best[c] = (cost, node) — the cheapest explanation of class c.
        let mut best: Vec<Option<(u64, TermId)>> = vec![None; n];
        loop {
            let mut changed = false;
            for i in 0..n {
                let id = TermId::from_index(i);
                let c = match self.node_dp_cost(id, own[i], &class, &best) {
                    Some(c) => c,
                    None => continue,
                };
                let slot = &mut best[class[i]];
                if slot.is_none_or(|(bc, bid)| (c, id) < (bc, bid)) {
                    *slot = Some((c, id));
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let root_class = class[root.index()];
        let (root_cost, _) = best[root_class].expect("root class has no finite-cost member");
        let mut built: Vec<Option<TermId>> = vec![None; n];
        let out = self.build_best(root_class, &class, &best, &mut built);
        (out, root_cost)
    }

    /// DP cost of one node: own weight plus its children's current class
    /// costs; `None` while any child class is still unexplained.
    fn node_dp_cost(
        &self,
        id: TermId,
        own: u64,
        class: &[usize],
        best: &[Option<(u64, TermId)>],
    ) -> Option<u64> {
        let child_cost = |c: TermId| -> Option<u64> {
            // Children interned during extraction cannot appear here:
            // `class`/`best` were sized before any rebuild.
            best[class[c.index()]].map(|(cost, _)| cost)
        };
        Some(match self.store.term(id) {
            Term::Lit(_) | Term::Var(..) => own,
            &Term::Unary(_, x) => own.saturating_add(child_cost(x)?),
            &Term::Binary(_, l, r) => own
                .saturating_add(child_cost(l)?)
                .saturating_add(child_cost(r)?),
            Term::Call(_, _, args) => {
                let mut acc = own;
                for &a in args {
                    acc = acc.saturating_add(child_cost(a)?);
                }
                acc
            }
        })
    }

    /// Rebuild the best node of `cls` as a plain term (recursively
    /// substituting each child class's best). Terminates because a best
    /// node's children were explained strictly before it (node costs are
    /// >= 1, so a class can never be on its own cheapest path).
    fn build_best(
        &mut self,
        cls: usize,
        class: &[usize],
        best: &[Option<(u64, TermId)>],
        built: &mut Vec<Option<TermId>>,
    ) -> TermId {
        if let Some(done) = built[cls] {
            return done;
        }
        let (_, node) = best[cls].expect("extracting a class with no explanation");
        let out = match self.store.term(node) {
            Term::Lit(_) | Term::Var(..) => node,
            &Term::Unary(op, x) => {
                let xb = self.build_best(class[x.index()], class, best, built);
                self.store.unary(op, xb)
            }
            &Term::Binary(op, l, r) => {
                let lb = self.build_best(class[l.index()], class, best, built);
                let rb = self.build_best(class[r.index()], class, best, built);
                self.store.binary(op, lb, rb)
            }
            Term::Call(name, ty, args) => {
                let (name, ty, args) = (name.clone(), *ty, args.clone());
                let ab: Vec<TermId> = args
                    .iter()
                    .map(|&a| self.build_best(class[a.index()], class, best, built))
                    .collect();
                self.store.call(&name, ty, &ab)
            }
        };
        built[cls] = Some(out);
        out
    }

    /// The whole pipeline: saturate from `root`, then extract the
    /// cheapest equivalent under `cost`. Publishes the run into the
    /// `rewrite.egraph.*` counters.
    pub fn optimize(
        &mut self,
        root: TermId,
        cfg: &EGraphConfig,
        cost: &dyn CostModel,
    ) -> (TermId, OptimizeStats) {
        let _span = gp_telemetry::span!("optimize");
        let mut stats = OptimizeStats {
            cost_before: self.tree_cost(cost, root),
            ..OptimizeStats::default()
        };
        self.saturate(cfg, &mut stats);
        let (out, cost_after) = self.extract(root, cost);
        stats.cost_after = cost_after.min(stats.cost_before);
        // Extraction can only rediscover the input when saturation found
        // nothing cheaper; report the input itself then so callers never
        // see a rebuilt-but-equal dressing of it.
        let out = if cost_after < stats.cost_before {
            out
        } else {
            root
        };
        stats.extracted_size = usize::try_from(self.store.size(out)).unwrap_or(usize::MAX);
        let m = egraph_metrics();
        m.classes.add(stats.classes as u64);
        m.nodes.add(stats.nodes as u64);
        m.unions.add(stats.unions as u64);
        m.iters.add(stats.iters as u64);
        m.matched.add(self.matched as u64);
        m.extract_cost.add(stats.cost_after);
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, Value};

    fn superopt() -> Simplifier {
        Simplifier::superopt(ConceptEnv::standard())
    }

    /// `(x + y) + (-y)`: the flagship form the directed engine cannot
    /// reduce (no rule matches any node), but re-association exposes the
    /// Group cancellation.
    fn cancellation() -> Expr {
        let x = Expr::var("x", Type::Int);
        let y = Expr::var("y", Type::Int);
        Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, x, y.clone()),
            Expr::un(UnOp::Neg, y),
        )
    }

    #[test]
    fn extraction_reaches_past_the_directed_engine() {
        let s = superopt();
        let directed = Simplifier::standard();
        let (nf, _) = directed.simplify(&cancellation());
        assert_eq!(nf.to_string(), "((x + y) + (-y))", "directed is stuck");

        let mut sess = s.session();
        let (out, stats) = sess.optimize(&cancellation(), &EGraphConfig::default(), &AstSizeCost);
        assert_eq!(out, Expr::var("x", Type::Int));
        assert!(stats.saturated && !stats.budget_hit);
        assert!(stats.cost_after < stats.cost_before);
        assert!(stats.unions > 0 && stats.nodes >= stats.classes);
    }

    #[test]
    fn optimize_is_deterministic() {
        let s = superopt();
        let run = || {
            let mut sess = s.session();
            sess.optimize(&cancellation(), &EGraphConfig::default(), &AstSizeCost)
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn already_minimal_terms_come_back_unchanged() {
        let s = superopt();
        let mut sess = s.session();
        let e = Expr::bin(
            BinOp::Mul,
            Expr::var("a", Type::Int),
            Expr::var("b", Type::Int),
        );
        let (out, stats) = sess.optimize(&e, &EGraphConfig::default(), &AstSizeCost);
        assert_eq!(out, e);
        assert_eq!(stats.cost_after, stats.cost_before);
    }

    #[test]
    fn budget_hit_is_a_flag_not_a_panic_and_extraction_is_no_worse() {
        let s = superopt();
        // Eight-variable add chain: commute x associate explodes far past
        // a tiny node budget.
        let mut e = Expr::var("v0", Type::Int);
        for i in 1..8 {
            e = Expr::bin(BinOp::Add, e, Expr::var(format!("v{i}"), Type::Int));
        }
        let cfg = EGraphConfig {
            max_nodes: 120,
            ..EGraphConfig::default()
        };
        let mut sess = s.session();
        let (out, stats) = sess.optimize(&e, &cfg, &AstSizeCost);
        assert!(stats.budget_hit && !stats.saturated);
        assert!(stats.cost_after <= stats.cost_before);
        // The extracted term is still a permutation-sized add chain.
        assert_eq!(out.size(), e.size());
    }

    #[test]
    fn iteration_budget_alone_also_stops_the_loop() {
        let s = superopt();
        let mut e = Expr::var("v0", Type::Int);
        for i in 1..6 {
            e = Expr::bin(BinOp::Add, e, Expr::var(format!("v{i}"), Type::Int));
        }
        let cfg = EGraphConfig {
            max_iters: 2,
            ..EGraphConfig::default()
        };
        let mut sess = s.session();
        let (_, stats) = sess.optimize(&e, &cfg, &AstSizeCost);
        assert!(stats.iters <= 2);
        assert!(stats.budget_hit);
    }

    #[test]
    fn cost_models_weight_by_op_key() {
        let mut store = TermStore::new();
        let f = store.var("f", Type::BigFloat);
        let one = store.lit(&Value::BigFloat(1.0));
        let div = store.binary(BinOp::Div, one, f);
        let call = store.call("Inverse", Type::BigFloat, &[f]);
        assert_eq!(op_key(&store, div), "bigfloat.div");
        assert_eq!(op_key(&store, call), "call.Inverse");
        assert_eq!(op_key(&store, f), "var");

        let quadratic = Complexity::poly("b", 2);
        let linear = Complexity::linear("b");
        let annot = ComplexityCost::from_annotations(
            [("bigfloat.div", &quadratic), ("call.Inverse", &linear)],
            64.0,
        );
        assert!(annot.node_cost(&store, div) > annot.node_cost(&store, call));

        let measured =
            MeasuredCost::from_counts([("bigfloat.div", 4096u64), ("call.Inverse", 64u64)]);
        assert!(measured.node_cost(&store, div) > measured.node_cost(&store, call));
    }

    #[test]
    fn annotation_costs_steer_extraction_between_equal_terms() {
        // Under a model where bigfloat division is quadratic and the
        // LiDIA Inverse call linear, the e-graph extracts the call; under
        // the flat AST-size model, `1.0/f` (3 nodes) beats `Inverse(f)`
        // + nothing — both live in one class either way.
        let mut s = Simplifier::superopt(ConceptEnv::standard());
        s.add_rule(Box::new(crate::rules::LidiaInverse));
        let e = Expr::bin(
            BinOp::Div,
            Expr::bigfloat(1.0),
            Expr::var("f", Type::BigFloat),
        );
        let quadratic = Complexity::poly("b", 2);
        let linear = Complexity::linear("b");
        let annot = ComplexityCost::from_annotations(
            [("bigfloat.div", &quadratic), ("call.Inverse", &linear)],
            64.0,
        );
        let mut sess = s.session();
        let (out, stats) = sess.optimize(&e, &EGraphConfig::default(), &annot);
        assert_eq!(out.to_string(), "Inverse(f)");
        assert!(stats.cost_after < stats.cost_before);
    }
}
