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
//! Two things make this tractable rather than explosive:
//!
//! * **Bounded saturation.** Node / class / iteration budgets stop the
//!   loop deterministically; hitting one sets a flag in
//!   [`OptimizeStats`], never panics, and extraction still returns a
//!   no-worse-cost term (the input's class always contains the input).
//! * **Canonical rebuilding as cheap e-matching.** Representatives are
//!   chosen by a fixed preference (literals, then variables, then the
//!   oldest id), so rebuilding a node with its children's
//!   representatives tends to expose the literal/shared forms the rules
//!   pattern-match on. This is not complete e-matching — a rule sees one
//!   member per child class — but it is deterministic, cheap, and enough
//!   to reach the re-association/cancellation forms the directed engine
//!   cannot.
//!
//! Costs come through the [`CostModel`] concept with two library models:
//! [`ComplexityCost`] (weights derived from the taxonomy's asymptotic
//! complexity annotations, evaluated at a nominal size) and
//! [`MeasuredCost`] (weights from measured operation counts, the E9
//! methodology). Extraction is a fixpoint relaxation over classes with a
//! deterministic `(cost, id)` tie-break, so equal-cost extractions are
//! reproducible run to run.

use crate::env::ConceptEnv;
use crate::expr::{BinOp, Type, UnOp};
use crate::intern::{Term, TermId, TermStore};
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
    extract_cost: &'static Counter,
}

fn egraph_metrics() -> &'static EGraphMetrics {
    static METRICS: OnceLock<EGraphMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EGraphMetrics {
        classes: gp_telemetry::counter("rewrite.egraph.classes"),
        nodes: gp_telemetry::counter("rewrite.egraph.nodes"),
        unions: gp_telemetry::counter("rewrite.egraph.unions"),
        iters: gp_telemetry::counter("rewrite.egraph.iters"),
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
    pub applications: BTreeMap<String, usize>,
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

/// The stable cost key of a node: `"<type>.<op>"` for operators (e.g.
/// `int.add`, `bigfloat.div`), `"call.<Name>"` for library calls,
/// `"lit"` / `"var"` for leaves. [`ComplexityCost`] and [`MeasuredCost`]
/// weight tables are keyed by these strings, as is the cost catalog the
/// taxonomy crate surfaces.
pub fn op_key(store: &TermStore, id: TermId) -> String {
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
    match store.term(id) {
        Term::Lit(_) => "lit".to_string(),
        Term::Var(..) => "var".to_string(),
        Term::Unary(op, _) => format!("{}.{}", ty_key(store.ty(id)), un_key(*op)),
        Term::Binary(op, ..) => format!("{}.{}", ty_key(store.ty(id)), bin_key(*op)),
        Term::Call(name, ..) => format!("call.{name}"),
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
/// unlisted operators fall back to `default_weight`.
pub struct ComplexityCost {
    weights: BTreeMap<String, u64>,
    default_weight: u64,
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
            .map(|(key, c)| (key.to_string(), weight_of(c.evaluate_single(n))))
            .collect();
        ComplexityCost {
            weights,
            default_weight: 1,
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
        self.weights
            .get(&op_key(store, id))
            .copied()
            .unwrap_or(self.default_weight)
    }
}

/// Weights from **measured** operation counts (the E9 methodology:
/// instrumented runs counting what each operation actually executes),
/// keyed like [`op_key`]. Unlisted operators fall back to
/// `default_count`.
pub struct MeasuredCost {
    counts: BTreeMap<String, u64>,
    default_count: u64,
}

impl MeasuredCost {
    /// Build from `(op key, measured count)` pairs.
    pub fn from_counts<K: Into<String>>(counts: impl IntoIterator<Item = (K, u64)>) -> Self {
        MeasuredCost {
            counts: counts
                .into_iter()
                .map(|(k, v)| (k.into(), v.max(1)))
                .collect(),
            default_count: 1,
        }
    }
}

impl CostModel for MeasuredCost {
    fn node_cost(&self, store: &TermStore, id: TermId) -> u64 {
        self.counts
            .get(&op_key(store, id))
            .copied()
            .unwrap_or(self.default_count)
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

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: Vec::new() }
    }

    /// Grow to cover `n` ids (new ids start as singleton classes).
    fn ensure(&mut self, n: usize) {
        let from = self.parent.len();
        self.parent
            .extend((from..n).map(|i| u32::try_from(i).expect("e-graph id overflow")));
    }

    fn find(&mut self, id: TermId) -> TermId {
        let mut i = id.index();
        while self.parent[i] as usize != i {
            // Path halving.
            let gp = self.parent[self.parent[i] as usize];
            self.parent[i] = gp;
            i = gp as usize;
        }
        TermId::from_index(i)
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
}

impl<'a> EGraph<'a> {
    /// Wrap a store (typically a [`Session`](crate::Session)'s) for
    /// saturation with `simp`'s rules and environment.
    pub fn new(simp: &'a Simplifier, store: &'a mut TermStore) -> Self {
        let mut uf = UnionFind::new();
        uf.ensure(store.len());
        EGraph {
            simp,
            store,
            uf,
            unions: 0,
        }
    }

    /// The canonical representative of `id`'s e-class.
    pub fn find(&mut self, id: TermId) -> TermId {
        self.uf.ensure(self.store.len());
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
        self.uf.parent[child.index()] = u32::try_from(root.index()).expect("e-graph id overflow");
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

    /// Congruence closure: repeatedly rebuild every node with canonical
    /// children and union it with the rebuilt form, until nothing moves
    /// or the node budget stops it. Returns `true` on a budget stop.
    fn rebuild(&mut self, cfg: &EGraphConfig) -> bool {
        loop {
            let mut changed = false;
            let n = self.store.len();
            self.uf.ensure(n);
            for i in 0..n {
                let id = TermId::from_index(i);
                let rebuilt = self.canonical_rebuild(id);
                self.uf.ensure(self.store.len());
                if self.union(id, rebuilt) {
                    changed = true;
                }
            }
            self.uf.ensure(self.store.len());
            if self.store.len() >= cfg.max_nodes {
                return true;
            }
            if !changed && self.store.len() == n {
                return false;
            }
        }
    }

    /// Number of distinct e-classes.
    pub fn class_count(&mut self) -> usize {
        let n = self.store.len();
        self.uf.ensure(n);
        (0..n)
            .filter(|&i| {
                let id = TermId::from_index(i);
                self.uf.find(id) == id
            })
            .count()
    }

    /// Run bounded equality saturation from `root`'s store. Every
    /// e-node is e-matched against the rule index each iteration; fires
    /// that merge distinct classes count as applications (re-deriving a
    /// known equality is free and unreported). Deterministic: nodes are
    /// swept in id order and unions use a fixed preference, so two runs
    /// over equal inputs produce identical e-graphs.
    pub fn saturate(&mut self, cfg: &EGraphConfig, stats: &mut OptimizeStats) {
        loop {
            if stats.iters >= cfg.max_iters {
                stats.budget_hit = true;
                break;
            }
            stats.iters += 1;
            let n = self.store.len();
            let unions_before = self.unions;
            self.uf.ensure(n);

            // E-match phase: collect (lhs, rhs, rule) triples before
            // touching the union-find so match order cannot depend on
            // this iteration's own merges.
            let mut matches: Vec<(TermId, TermId, usize)> = Vec::new();
            let simp = self.simp;
            let index = simp.index();
            let rules = simp.rules();
            let env: &ConceptEnv = simp.env();
            let mut node_budget_hit = false;
            for i in 0..n {
                let id = TermId::from_index(i);
                let cands = index.candidates(self.store, id);
                for &ri in cands {
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
            self.uf.ensure(self.store.len());
            for (lhs, rhs, ri) in matches {
                if self.union(lhs, rhs) {
                    self.simp.record_fire(ri);
                    *stats
                        .applications
                        .entry(self.simp.rules()[ri].name().to_string())
                        .or_insert(0) += 1;
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
        self.uf.ensure(n);
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
