//! The equality-saturation engine before semi-naive matching, and the
//! `simplify` / `optimize` handlers before shared engines: the reference
//! for `gp_rewrite::egraph` and the served rewrite kinds.
//!
//! [`optimize_full_sweep`] e-matches *every* node on every iteration and
//! tries every rule in registration order at each (no rule index), closes
//! congruence by re-canonicalizing every node on every pass, counts
//! classes by scanning the union-find, and extracts by the same fixpoint
//! relaxation. [`optimize_payload_rebuild`] and
//! [`simplify_payload_rebuild`] build the engine and the cost model for
//! each request, as the handlers did, and render the same payload. The
//! cost models here look weights up by an allocated [`op_key`] string.
//! `egraph_equivalence.rs` pins the library and the handlers to these,
//! statistics and bytes; E17 (`exp_egraph`) reports the nodes each
//! matches per iteration. Nothing here reports telemetry.

use gp_core::json::Json;
use gp_rewrite::egraph::{op_key, CostModel, EGraphConfig, OptimizeStats};
use gp_rewrite::intern::{Term, TermId, TermStore};
use gp_rewrite::{Expr, Simplifier};
use gp_service::optimize::{CostSpec, OptimizeRequest};
use gp_service::simplify::{expr_to_json, SimplifyRequest};
use std::collections::BTreeMap;

/// A cost model keyed by [`op_key`] strings, built per request: the
/// library's `ComplexityCost` and `MeasuredCost` as they were.
pub struct KeyedCost {
    weights: BTreeMap<String, u64>,
}

impl KeyedCost {
    /// The taxonomy's complexity annotations at the nominal size.
    pub fn annotation() -> Self {
        let n = gp_taxonomy::costs::NOMINAL_SIZE;
        KeyedCost {
            weights: gp_taxonomy::op_cost_catalog()
                .iter()
                .map(|a| (a.key.to_string(), weight_of(a.cost.evaluate_single(n))))
                .collect(),
        }
    }

    /// The taxonomy's measured operation counts.
    pub fn measured() -> Self {
        KeyedCost {
            weights: gp_taxonomy::measured_op_counts()
                .into_iter()
                .map(|(k, v)| (k.into(), v.max(1)))
                .collect(),
        }
    }

    /// The model a request's cost spec names.
    pub fn of(spec: CostSpec) -> Self {
        match spec {
            CostSpec::Annotation => KeyedCost::annotation(),
            CostSpec::Measured => KeyedCost::measured(),
        }
    }
}

fn weight_of(w: f64) -> u64 {
    if w.is_finite() {
        (w.ceil() as u64).clamp(1, 1 << 40)
    } else {
        1 << 40
    }
}

impl CostModel for KeyedCost {
    fn node_cost(&self, store: &TermStore, id: TermId) -> u64 {
        self.weights.get(&op_key(store, id)).copied().unwrap_or(1)
    }
}

/// `simp.session().optimize(e, cfg, cost)` with every node e-matched on
/// every iteration. Returns the extracted term, the run's statistics and
/// the number of nodes e-matched.
pub fn optimize_full_sweep(
    simp: &Simplifier,
    e: &Expr,
    cfg: &EGraphConfig,
    cost: &dyn CostModel,
) -> (Expr, OptimizeStats, usize) {
    let mut store = TermStore::new();
    let root = store.intern_expr(e);
    let mut g = FullSweep {
        simp,
        store: &mut store,
        parent: Vec::new(),
        unions: 0,
        matched: 0,
    };
    g.ensure();
    let (out, stats) = g.optimize(root, cfg, cost);
    let matched = g.matched;
    (store.extract(out), stats, matched)
}

/// The `optimize` handler with the engine and cost model built for this
/// request and the full-sweep e-graph.
pub fn optimize_payload_rebuild(req: &OptimizeRequest) -> Json {
    let simp = Simplifier::superopt(req.env.build());
    let cost = KeyedCost::of(req.cost);
    let (out, stats, _) = optimize_full_sweep(&simp, &req.expr, &req.config(), &cost);
    let mut apps = Json::obj();
    for (rule, count) in &stats.applications {
        apps = apps.field(rule.to_string(), *count);
    }
    Json::obj()
        .field("expr", expr_to_json(&out))
        .field("display", out.to_string())
        .field(
            "stats",
            Json::obj()
                .field("classes", stats.classes)
                .field("nodes", stats.nodes)
                .field("unions", stats.unions)
                .field("iters", stats.iters)
                .field("saturated", stats.saturated)
                .field("budget-hit", stats.budget_hit)
                .field("cost-before", stats.cost_before)
                .field("cost-after", stats.cost_after)
                .field("extracted-size", stats.extracted_size)
                .field("applications", apps),
        )
}

/// The `simplify` handler with the engine built for this request.
pub fn simplify_payload_rebuild(req: &SimplifyRequest) -> Json {
    let (out, stats) = Simplifier::with_env(req.env.build()).simplify(&req.expr);
    let mut apps = Json::obj();
    for (rule, count) in &stats.applications {
        apps = apps.field(rule.to_string(), *count);
    }
    Json::obj()
        .field("expr", expr_to_json(&out))
        .field("display", out.to_string())
        .field(
            "stats",
            Json::obj()
                .field("iterations", stats.iterations)
                .field("size_before", stats.size_before)
                .field("size_after", stats.size_after)
                .field("total", stats.total())
                .field("applications", apps),
        )
}

/// Representative preference: literal, then variable, then compound.
fn node_rank(store: &TermStore, id: TermId) -> u8 {
    match store.term(id) {
        Term::Lit(_) => 0,
        Term::Var(..) => 1,
        _ => 2,
    }
}

struct FullSweep<'a> {
    simp: &'a Simplifier,
    store: &'a mut TermStore,
    parent: Vec<u32>,
    unions: usize,
    matched: usize,
}

impl FullSweep<'_> {
    /// Grow the union-find to cover the store.
    fn ensure(&mut self) {
        let from = self.parent.len();
        self.parent
            .extend((from..self.store.len()).map(|i| u32::try_from(i).expect("id overflow")));
    }

    fn find(&mut self, id: TermId) -> TermId {
        let mut i = id.index();
        while self.parent[i] as usize != i {
            let gp = self.parent[self.parent[i] as usize];
            self.parent[i] = gp;
            i = gp as usize;
        }
        TermId::from_index(i)
    }

    fn union(&mut self, a: TermId, b: TermId) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let ka = (node_rank(self.store, ra), ra.index());
        let kb = (node_rank(self.store, rb), rb.index());
        let (root, child) = if ka <= kb { (ra, rb) } else { (rb, ra) };
        self.parent[child.index()] = u32::try_from(root.index()).expect("id overflow");
        self.unions += 1;
        true
    }

    fn canonical_rebuild(&mut self, id: TermId) -> TermId {
        match self.store.term(id) {
            Term::Lit(_) | Term::Var(..) => id,
            &Term::Unary(op, x) => {
                let xc = self.find(x);
                if xc == x {
                    id
                } else {
                    self.store.unary(op, xc)
                }
            }
            &Term::Binary(op, l, r) => {
                let (lc, rc) = (self.find(l), self.find(r));
                if lc == l && rc == r {
                    id
                } else {
                    self.store.binary(op, lc, rc)
                }
            }
            Term::Call(name, ty, args) => {
                let (name, ty, args) = (name.clone(), *ty, args.clone());
                let canon: Vec<TermId> = args.iter().map(|&a| self.find(a)).collect();
                if canon == args {
                    id
                } else {
                    self.store.call(&name, ty, &canon)
                }
            }
        }
    }

    /// Re-canonicalize every node per pass until nothing moves; `true`
    /// on a node-budget stop.
    fn rebuild(&mut self, cfg: &EGraphConfig) -> bool {
        loop {
            let mut changed = false;
            let n = self.store.len();
            self.ensure();
            for i in 0..n {
                let id = TermId::from_index(i);
                let rebuilt = self.canonical_rebuild(id);
                self.ensure();
                if self.union(id, rebuilt) {
                    changed = true;
                }
            }
            self.ensure();
            if self.store.len() >= cfg.max_nodes {
                return true;
            }
            if !changed && self.store.len() == n {
                return false;
            }
        }
    }

    fn class_count(&mut self) -> usize {
        self.ensure();
        (0..self.store.len())
            .filter(|&i| {
                let id = TermId::from_index(i);
                self.find(id) == id
            })
            .count()
    }

    fn saturate(&mut self, cfg: &EGraphConfig, stats: &mut OptimizeStats) {
        loop {
            if stats.iters >= cfg.max_iters {
                stats.budget_hit = true;
                break;
            }
            stats.iters += 1;
            let n = self.store.len();
            let unions_before = self.unions;
            self.ensure();

            let mut matches: Vec<(TermId, TermId, usize)> = Vec::new();
            let simp = self.simp;
            let mut node_budget_hit = false;
            for i in 0..n {
                let id = TermId::from_index(i);
                self.matched += 1;
                for (ri, rule) in simp.rules().iter().enumerate() {
                    if let Some(next) = rule.try_apply_interned(self.store, id, simp.env()) {
                        if next != id {
                            matches.push((id, next, ri));
                        }
                    }
                }
                if self.store.len() >= cfg.max_nodes {
                    node_budget_hit = true;
                    break;
                }
            }
            self.ensure();
            for (lhs, rhs, ri) in matches {
                if self.union(lhs, rhs) {
                    *stats
                        .applications
                        .entry(simp.rules()[ri].name())
                        .or_insert(0) += 1;
                }
            }

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

    fn tree_cost(&self, cost: &dyn CostModel, id: TermId) -> u64 {
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

    fn extract(&mut self, root: TermId, cost: &dyn CostModel) -> (TermId, u64) {
        let n = self.store.len();
        self.ensure();
        let own: Vec<u64> = (0..n)
            .map(|i| cost.node_cost(self.store, TermId::from_index(i)).max(1))
            .collect();
        let class: Vec<usize> = (0..n)
            .map(|i| self.find(TermId::from_index(i)).index())
            .collect();
        let mut best: Vec<Option<(u64, TermId)>> = vec![None; n];
        loop {
            let mut changed = false;
            for i in 0..n {
                let id = TermId::from_index(i);
                let Some(c) = self.node_dp_cost(id, own[i], &class, &best) else {
                    continue;
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

    fn node_dp_cost(
        &self,
        id: TermId,
        own: u64,
        class: &[usize],
        best: &[Option<(u64, TermId)>],
    ) -> Option<u64> {
        let child_cost =
            |c: TermId| -> Option<u64> { best[class[c.index()]].map(|(cost, _)| cost) };
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

    fn optimize(
        &mut self,
        root: TermId,
        cfg: &EGraphConfig,
        cost: &dyn CostModel,
    ) -> (TermId, OptimizeStats) {
        let mut stats = OptimizeStats {
            cost_before: self.tree_cost(cost, root),
            ..OptimizeStats::default()
        };
        self.saturate(cfg, &mut stats);
        let (out, cost_after) = self.extract(root, cost);
        stats.cost_after = cost_after.min(stats.cost_before);
        let out = if cost_after < stats.cost_before {
            out
        } else {
            root
        };
        stats.extracted_size = usize::try_from(self.store.size(out)).unwrap_or(usize::MAX);
        (out, stats)
    }
}
