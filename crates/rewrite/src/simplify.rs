//! The rewrite engine: hash-consed normalization with indexed rule
//! dispatch.
//!
//! The default path ([`Simplifier::simplify`]) interns the expression into
//! a [`TermStore`] (every distinct subterm once, ids are `u32`), then
//! normalizes bottom-up:
//!
//! * **Memo table** (`TermId → TermId`): each distinct subterm is
//!   normalized exactly once per [`Session`]; a repeated subterm — common
//!   in machine-generated expressions — is a single hash lookup
//!   (`rewrite.memo.hits`). The fixpoint is linear in *distinct* subterms.
//! * **Rule index** keyed by `(Type, head symbol)`: each node consults
//!   only the rules whose [`IndexHints`](crate::rules::IndexHints) admit
//!   its key instead of scanning the whole rule list
//!   (`rewrite.index.candidates` histogram records how many). Hints are
//!   conservative supersets, so behavior is identical to the full scan.
//! * **Facade**: the public API still speaks `Expr` trees; conversion
//!   happens once in, once out. [`Session::simplify_id`] exposes the
//!   id-level entry point for callers that build DAGs directly.
//!
//! The original engine (bottom-up clone-per-pass, iterated to fixpoint)
//! lives on outside the library, in `gp_bench::oracle`: `exp_rewrite`
//! (E13r) measures one against the other, and property tests pin equal
//! outputs and per-rule counts.

use crate::env::ConceptEnv;
use crate::expr::Expr;
use crate::intern::{type_index, Head, TermId, TermMap, TermStore, TYPE_COUNT};
use crate::rules::{standard_rules, IndexHints, RewriteRule};
use gp_telemetry::{Counter, Histogram};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Engine-level telemetry, resolved once per process at module level (the
/// same pattern the gp-parallel primitives use) rather than per run.
struct EngineMetrics {
    runs: &'static Counter,
    passes: &'static Counter,
    memo_hits: &'static Counter,
    index_candidates: &'static Histogram,
}

fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        runs: gp_telemetry::counter("rewrite.runs"),
        passes: gp_telemetry::counter("rewrite.passes"),
        memo_hits: gp_telemetry::counter("rewrite.memo.hits"),
        index_candidates: gp_telemetry::histogram("rewrite.index.candidates"),
    })
}

/// The global telemetry counter tracking fires of the rule named `name`
/// (`rewrite.rule.<name>.fires`). Resolved once per [`Simplifier`] per
/// rule; the per-fire cost is one relaxed increment.
fn rule_fire_counter(name: &str) -> &'static Counter {
    gp_telemetry::counter(&format!("rewrite.rule.{name}.fires"))
}

/// Statistics from one simplification run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Applications per rule name.
    pub applications: BTreeMap<String, usize>,
    /// Fixpoint iterations used (the interned engine normalizes in one).
    pub iterations: usize,
    /// AST size before and after.
    pub size_before: usize,
    /// AST size after simplification.
    pub size_after: usize,
    /// Distinct subterms normalized (0 for the clone-per-pass baseline).
    pub distinct_terms: usize,
    /// Normal-form memo hits — repeated subterms whose normalization was
    /// skipped entirely (0 for the clone-per-pass baseline).
    pub memo_hits: usize,
}

impl SimplifyStats {
    /// Total rule applications.
    pub fn total(&self) -> usize {
        self.applications.values().sum()
    }
}

/// Indexed rule dispatch: for every `(Type, head)` key, the (registration-
/// ordered) rule indices that can possibly fire there. Built from each
/// rule's [`IndexHints`] against the concept environment; rebuilt whenever
/// the environment or rule set changes.
pub(crate) struct RuleIndex {
    buckets: Vec<Vec<u16>>,
}

impl RuleIndex {
    fn build(rules: &[Box<dyn RewriteRule + Send + Sync>], env: &ConceptEnv) -> Self {
        let n = TYPE_COUNT * Head::COUNT;
        let mut buckets = vec![Vec::new(); n];
        let mut seen = vec![false; n];
        for (i, rule) in rules.iter().enumerate() {
            let i = u16::try_from(i).expect("more than 65535 rewrite rules");
            match rule.index_hints(env) {
                IndexHints::Any => {
                    for b in &mut buckets {
                        b.push(i);
                    }
                }
                IndexHints::Keys(keys) => {
                    seen.iter_mut().for_each(|s| *s = false);
                    for (ty, head) in keys {
                        let k = type_index(ty) * Head::COUNT + head.index();
                        if !seen[k] {
                            seen[k] = true;
                            buckets[k].push(i);
                        }
                    }
                }
            }
        }
        RuleIndex { buckets }
    }

    pub(crate) fn candidates(&self, store: &TermStore, id: TermId) -> &[u16] {
        let k = type_index(store.ty(id)) * Head::COUNT + store.head(id).index();
        &self.buckets[k]
    }
}

/// The Simplicissimus engine: a concept environment plus an extensible rule
/// set.
pub struct Simplifier {
    env: ConceptEnv,
    rules: Vec<Box<dyn RewriteRule + Send + Sync>>,
    /// Pre-resolved global fire counters, aligned index-for-index with
    /// `rules`.
    rule_fires: Vec<&'static Counter>,
    /// Lazily built dispatch index; cleared by every `&mut` accessor so
    /// later env/rule changes are honored on the next simplify.
    index: OnceLock<RuleIndex>,
}

impl Simplifier {
    fn from_parts(env: ConceptEnv, rules: Vec<Box<dyn RewriteRule + Send + Sync>>) -> Self {
        let rule_fires = rules.iter().map(|r| rule_fire_counter(r.name())).collect();
        Simplifier {
            env,
            rules,
            rule_fires,
            index: OnceLock::new(),
        }
    }

    /// Standard rules over the standard environment.
    pub fn standard() -> Self {
        Self::from_parts(ConceptEnv::standard(), standard_rules())
    }

    /// Custom environment with the standard rules.
    pub fn with_env(env: ConceptEnv) -> Self {
        Self::from_parts(env, standard_rules())
    }

    /// The superoptimizer rule set: standard reductions **plus** the
    /// exploration equalities (commutativity, associativity) that only
    /// the equality-saturation engine can run without looping. Use this
    /// with [`Session::optimize`]; the directed [`Simplifier::simplify`]
    /// path would burn its application budget re-orienting terms.
    pub fn superopt(env: ConceptEnv) -> Self {
        let mut rules = standard_rules();
        rules.extend(crate::rules::exploration_rules());
        Self::from_parts(env, rules)
    }

    /// An engine with no rules at all (baseline for benchmarks).
    pub fn empty(env: ConceptEnv) -> Self {
        Self::from_parts(env, Vec::new())
    }

    /// Register a user/library rule (the LiDIA extension point of §3.2).
    pub fn add_rule(&mut self, rule: Box<dyn RewriteRule + Send + Sync>) -> &mut Self {
        self.index = OnceLock::new();
        self.rule_fires.push(rule_fire_counter(rule.name()));
        self.rules.push(rule);
        self
    }

    /// The concept environment (mutable, so libraries can declare new
    /// models — after which existing rules cover them "for free"). Taking
    /// it invalidates the dispatch index, which is rebuilt lazily.
    pub fn env_mut(&mut self) -> &mut ConceptEnv {
        self.index = OnceLock::new();
        &mut self.env
    }

    /// Access the environment.
    pub fn env(&self) -> &ConceptEnv {
        &self.env
    }

    /// Names of the registered rules.
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    pub(crate) fn index(&self) -> &RuleIndex {
        self.index
            .get_or_init(|| RuleIndex::build(&self.rules, &self.env))
    }

    /// The registered rules, in registration order (the e-graph engine
    /// e-matches the same rule objects the directed engine dispatches).
    pub fn rules(&self) -> &[Box<dyn RewriteRule + Send + Sync>] {
        &self.rules
    }

    /// Bump the global fire counter of rule `i` (registration index).
    pub(crate) fn record_fire(&self, i: usize) {
        self.rule_fires[i].incr();
    }

    /// Start a rewriting session: a hash-consing term store plus a
    /// normal-form memo table, shared by every expression simplified
    /// through it. A batch of related expressions simplified on one
    /// session interns common structure once.
    pub fn session(&self) -> Session<'_> {
        Session {
            simp: self,
            store: TermStore::new(),
            memo: TermMap::new(),
            budget: 0,
        }
    }

    /// Simplify to normal form (interned engine); returns the result and
    /// statistics. Equivalent to a fresh [`Session`] per call.
    pub fn simplify(&self, e: &Expr) -> (Expr, SimplifyStats) {
        self.session().simplify(e)
    }

    /// Simplify a batch of expressions on one shared term store (common
    /// subterms across the batch intern once). The normal-form memo is
    /// reset between entries so each entry's `SimplifyStats` — and the
    /// per-rule telemetry it mirrors — is identical to a solo
    /// [`Simplifier::simplify`] call; the served batching path relies on
    /// that equivalence.
    pub fn simplify_batch(&self, exprs: &[Expr]) -> Vec<(Expr, SimplifyStats)> {
        let mut sess = self.session();
        exprs
            .iter()
            .map(|e| {
                sess.clear_memo();
                sess.simplify(e)
            })
            .collect()
    }
}

/// A rewriting session: term store + normal-form memo over one
/// [`Simplifier`]. Cheap to create; hold one across many related
/// expressions to amortize interning (this is what the service's
/// micro-batches do).
pub struct Session<'s> {
    simp: &'s Simplifier,
    store: TermStore,
    memo: TermMap,
    /// Remaining rule applications for the current run — the interned
    /// engine's analogue of the clone-per-pass engine's pass cap,
    /// bounding adversarial user rule sets that rewrite forever.
    budget: usize,
}

/// Rule-application cap per `simplify` call. The clone-per-pass engine caps
/// fixpoint passes at 64 but lets a self-looping rule spin forever inside
/// one pass; the interned engine bounds total applications instead, far
/// above anything a terminating rule set reaches.
const MAX_APPLICATIONS: usize = 1 << 16;

impl Session<'_> {
    /// The session's term store (read access: sizes, types, extraction).
    pub fn store(&self) -> &TermStore {
        &self.store
    }

    /// The session's term store, mutably — for callers that build
    /// DAG-shaped inputs directly with ids and hand them to
    /// [`Session::simplify_id`].
    pub fn store_mut(&mut self) -> &mut TermStore {
        &mut self.store
    }

    /// Drop the normal-form memo (keeping interned terms). After this,
    /// the next `simplify` reports statistics exactly as a fresh session
    /// would, while still sharing the interner.
    pub fn clear_memo(&mut self) {
        self.memo.clear();
    }

    /// Simplify an expression tree: intern, normalize, extract.
    ///
    /// The memo persists across calls on one session, so a second call on
    /// an expression sharing subterms with an earlier one skips their
    /// normalization — and consequently reports fewer `applications` than
    /// a solo run would (the skipped rules fired in the earlier call).
    /// Call [`Session::clear_memo`] between entries if per-call stats
    /// parity matters more than amortization.
    pub fn simplify(&mut self, e: &Expr) -> (Expr, SimplifyStats) {
        let _span = gp_telemetry::span!("simplify");
        let size_before = e.size();
        let root = self.store.intern_expr(e);
        let (out, mut stats) = self.simplify_id(root);
        stats.size_before = size_before;
        (self.store.extract(out), stats)
    }

    /// The opt-in equality-saturation mode: saturate an e-graph from `e`
    /// under this session's rules/environment, then extract the cheapest
    /// equivalent under `cost`. The directed [`Session::simplify`] stays
    /// the fast path; reach for this when extraction needs to *explore*
    /// (e.g. with [`crate::rules::exploration_rules`] registered, via
    /// [`Simplifier::superopt`]).
    pub fn optimize(
        &mut self,
        e: &Expr,
        cfg: &crate::egraph::EGraphConfig,
        cost: &dyn crate::egraph::CostModel,
    ) -> (Expr, crate::egraph::OptimizeStats) {
        let root = self.store.intern_expr(e);
        let (out, stats) = self.optimize_id(root, cfg, cost);
        (self.store.extract(out), stats)
    }

    /// [`Session::optimize`] for an already-interned term — the id-level
    /// entry point, symmetric with [`Session::simplify_id`].
    pub fn optimize_id(
        &mut self,
        root: TermId,
        cfg: &crate::egraph::EGraphConfig,
        cost: &dyn crate::egraph::CostModel,
    ) -> (TermId, crate::egraph::OptimizeStats) {
        crate::egraph::EGraph::new(self.simp, &mut self.store).optimize(root, cfg, cost)
    }

    /// Simplify an already-interned term; returns the normal-form id and
    /// statistics (sizes are DAG-unfolded tree sizes, saturating).
    pub fn simplify_id(&mut self, root: TermId) -> (TermId, SimplifyStats) {
        let mut stats = SimplifyStats {
            size_before: usize::try_from(self.store.size(root)).unwrap_or(usize::MAX),
            ..SimplifyStats::default()
        };
        self.budget = MAX_APPLICATIONS;
        let out = self.norm(root, &mut stats);
        stats.iterations = 1;
        stats.size_after = usize::try_from(self.store.size(out)).unwrap_or(usize::MAX);
        let m = engine_metrics();
        m.runs.incr();
        m.passes.add(stats.iterations as u64);
        (out, stats)
    }

    /// Normalize one term: memo lookup, children first, then root rules.
    fn norm(&mut self, id: TermId, stats: &mut SimplifyStats) -> TermId {
        if let Some(nf) = self.memo.get(id) {
            stats.memo_hits += 1;
            engine_metrics().memo_hits.incr();
            return nf;
        }
        stats.distinct_terms += 1;
        let rebuilt = self.norm_children(id, stats);
        // Distinct trees can rebuild to the same term (e.g. every level of
        // `((x*1)*1)*…` rebuilds to `x*1` once its child collapses); the
        // first occurrence already reduced it, so check the memo before
        // scanning rules again.
        let out = match (rebuilt != id).then(|| self.memo.get(rebuilt)).flatten() {
            Some(nf) => {
                stats.memo_hits += 1;
                engine_metrics().memo_hits.incr();
                nf
            }
            None => self.reduce_root(rebuilt, stats),
        };
        self.memo.insert(id, out);
        if rebuilt != id {
            self.memo.insert(rebuilt, out);
        }
        // The normal form is its own normal form: later occurrences of
        // `out` as a subterm are instant hits.
        self.memo.insert(out, out);
        out
    }

    /// Rebuild `id` with normalized children (returns `id` unchanged when
    /// no child moved — the hash-cons hit that makes untouched subtrees
    /// free).
    fn norm_children(&mut self, id: TermId, stats: &mut SimplifyStats) -> TermId {
        use crate::intern::Term;
        match self.store.term(id) {
            Term::Lit(_) | Term::Var(..) => id,
            &Term::Unary(op, x) => {
                let xn = self.norm(x, stats);
                if xn == x {
                    id
                } else {
                    self.store.unary(op, xn)
                }
            }
            &Term::Binary(op, l, r) => {
                let (ln, rn) = (self.norm(l, stats), self.norm(r, stats));
                if ln == l && rn == r {
                    id
                } else {
                    self.store.binary(op, ln, rn)
                }
            }
            Term::Call(name, ty, args) => {
                let (name, ty, args) = (name.clone(), *ty, args.clone());
                let normed: Vec<TermId> = args.iter().map(|&a| self.norm(a, stats)).collect();
                if normed == args {
                    id
                } else {
                    self.store.call(&name, ty, &normed)
                }
            }
        }
    }

    /// Apply the first matching candidate rule at the root; on a fire,
    /// fully normalize the replacement (its children may be new terms)
    /// and return that normal form.
    fn reduce_root(&mut self, id: TermId, stats: &mut SimplifyStats) -> TermId {
        let index = self.simp.index();
        let cands = index.candidates(&self.store, id);
        engine_metrics().index_candidates.record(cands.len() as u64);
        for &ri in cands {
            let ri = ri as usize;
            if self.budget == 0 {
                return id;
            }
            let rule = &self.simp.rules[ri];
            if let Some(next) = rule.try_apply_interned(&mut self.store, id, &self.simp.env) {
                self.budget -= 1;
                *stats
                    .applications
                    .entry(rule.name().to_string())
                    .or_insert(0) += 1;
                self.simp.rule_fires[ri].incr();
                return self.norm(next, stats);
            }
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Type, UnOp, Value};
    use crate::rules::LidiaInverse;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    #[test]
    fn nested_expression_collapses_fully() {
        // ((x * 1) + (y + (-y))) * (b && true as no-op? typed per-branch)
        let x = Expr::var("x", Type::Int);
        let y = Expr::var("y", Type::Int);
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, x.clone(), Expr::int(1)),
            Expr::bin(BinOp::Add, y.clone(), Expr::un(UnOp::Neg, y.clone())),
        );
        let s = Simplifier::standard();
        let (out, stats) = s.simplify(&e);
        assert_eq!(out, x); // (x*1) + (y + -y) → x + 0 → x
        assert!(stats.total() >= 3);
        assert!(stats.size_after < stats.size_before);
    }

    #[test]
    fn simplification_preserves_semantics_on_random_expressions() {
        // Property: for random integer expressions, eval(simplify(e)) ==
        // eval(e). (Agreement with the clone-per-pass engine is the
        // equivalence proptest in gp-bench.)
        let mut rng = StdRng::seed_from_u64(5);
        let s = Simplifier::standard();
        for _ in 0..200 {
            let e = random_int_expr(&mut rng, 4);
            let env: BTreeMap<String, Value> = [
                ("a".to_string(), Value::Int(rng.gen_range(-50..50))),
                ("b".to_string(), Value::Int(rng.gen_range(-50..50))),
            ]
            .into();
            let before = e.eval(&env);
            let (out, _) = s.simplify(&e);
            let after = out.eval(&env);
            assert_eq!(before, after, "expr {e} simplified to {out}");
        }
    }

    fn random_int_expr(rng: &mut StdRng, depth: usize) -> Expr {
        if depth == 0 || rng.gen_bool(0.3) {
            return match rng.gen_range(0..4) {
                0 => Expr::int(rng.gen_range(-3..4)),
                1 => Expr::int(0),
                2 => Expr::var("a", Type::Int),
                _ => Expr::var("b", Type::Int),
            };
        }
        match rng.gen_range(0..5) {
            0 => Expr::bin(
                BinOp::Add,
                random_int_expr(rng, depth - 1),
                random_int_expr(rng, depth - 1),
            ),
            1 => Expr::bin(
                BinOp::Mul,
                random_int_expr(rng, depth - 1),
                random_int_expr(rng, depth - 1),
            ),
            2 => Expr::bin(
                BinOp::Sub,
                random_int_expr(rng, depth - 1),
                random_int_expr(rng, depth - 1),
            ),
            _ => Expr::un(UnOp::Neg, random_int_expr(rng, depth - 1)),
        }
    }

    #[test]
    fn user_extension_lidia_rule_fires_after_registration() {
        let f = Expr::var("f", Type::BigFloat);
        let e = Expr::bin(BinOp::Div, Expr::bigfloat(1.0), f.clone());
        // Without the library rule: untouched (no built-in matches 1.0/f).
        let s = Simplifier::standard();
        let (out, _) = s.simplify(&e);
        assert_eq!(out, e);
        // With it: specialized to the library call.
        let mut s = Simplifier::standard();
        s.add_rule(Box::new(LidiaInverse));
        let (out, stats) = s.simplify(&e);
        assert_eq!(out.to_string(), "Inverse(f)");
        assert_eq!(stats.applications["lidia-inverse"], 1);
    }

    #[test]
    fn new_type_declaration_enables_existing_rules_for_free() {
        // Fig. 5 advantage 3: declaring concepts for a "new" type makes the
        // existing generic rules apply with no rule changes.
        use crate::env::AlgConcept;
        let mut env = ConceptEnv::empty();
        // Pretend Matrix multiplication is declared a Monoid with identity
        // modeled by a named literal — use Str to stand in for a symbolic
        // matrix identity in this unit test (the exp binary does it
        // properly); here use BigFloat-with-add instead:
        env.declare(Type::BigFloat, BinOp::Add, AlgConcept::Monoid)
            .set_identity(Type::BigFloat, BinOp::Add, Value::BigFloat(0.0));
        let s = Simplifier::with_env(env);
        let e = Expr::bin(
            BinOp::Add,
            Expr::var("m", Type::BigFloat),
            Expr::bigfloat(0.0),
        );
        let (out, stats) = s.simplify(&e);
        assert_eq!(out, Expr::var("m", Type::BigFloat));
        assert_eq!(stats.applications["right-identity"], 1);
    }

    #[test]
    fn env_mutation_after_construction_rebuilds_the_index() {
        // The dispatch index is derived from the environment; declaring a
        // model through env_mut after construction must be honored (the
        // index is invalidated and lazily rebuilt).
        use crate::env::AlgConcept;
        let e = Expr::bin(
            BinOp::Add,
            Expr::var("m", Type::BigFloat),
            Expr::bigfloat(0.0),
        );
        let mut s = Simplifier::with_env(ConceptEnv::empty());
        let (out, _) = s.simplify(&e);
        assert_eq!(out, e, "no declarations — nothing fires");
        s.env_mut()
            .declare(Type::BigFloat, BinOp::Add, AlgConcept::Monoid)
            .set_identity(Type::BigFloat, BinOp::Add, Value::BigFloat(0.0));
        let (out, stats) = s.simplify(&e);
        assert_eq!(out, Expr::var("m", Type::BigFloat));
        assert_eq!(stats.applications["right-identity"], 1);
    }

    #[test]
    fn empty_engine_is_identity() {
        let s = Simplifier::empty(ConceptEnv::standard());
        let e = Expr::bin(BinOp::Mul, Expr::var("x", Type::Int), Expr::int(1));
        let (out, stats) = s.simplify(&e);
        assert_eq!(out, e);
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.iterations, 1);
    }

    #[test]
    fn fixpoint_terminates_on_pathological_nesting() {
        // Deeply nested identities: (((x*1)*1)*1)... 60 levels.
        let mut e = Expr::var("x", Type::Int);
        for _ in 0..60 {
            e = Expr::bin(BinOp::Mul, e, Expr::int(1));
        }
        let s = Simplifier::standard();
        // Interned engine: every level rebuilds to the same `x*1` term, so
        // the rule fires ONCE and the other 59 levels are memo hits.
        let (out, stats) = s.simplify(&e);
        assert_eq!(out, Expr::var("x", Type::Int));
        assert_eq!(stats.iterations, 1);
        assert_eq!(stats.applications["right-identity"], 1);
        assert!(stats.memo_hits >= 59);
    }

    #[test]
    fn stats_report_size_reduction() {
        let e = Expr::bin(
            BinOp::And,
            Expr::var("p", Type::Bool),
            Expr::bin(BinOp::And, Expr::boolean(true), Expr::boolean(true)),
        );
        let s = Simplifier::standard();
        let (out, stats) = s.simplify(&e);
        assert_eq!(out, Expr::var("p", Type::Bool));
        assert_eq!(stats.size_before, 5);
        assert_eq!(stats.size_after, 1);
    }

    #[test]
    fn rules_fire_on_bare_leaf_roots() {
        // Regression (engine-rewrite guard): a rule whose pattern is a
        // bare variable or literal must fire when that leaf IS the whole
        // expression — an indexed engine that forgets Lit/Var dispatch
        // buckets, or a traversal that skips root rules for leaves, would
        // silently drop these.
        struct InlineX;
        impl RewriteRule for InlineX {
            fn name(&self) -> &'static str {
                "inline-x"
            }
            fn requirements(&self) -> &'static str {
                "x is a known compile-time constant"
            }
            fn try_apply(&self, e: &Expr, _env: &ConceptEnv) -> Option<Expr> {
                matches!(e, Expr::Var(name, Type::Int) if name == "x").then(|| Expr::int(7))
            }
        }
        let mut s = Simplifier::standard();
        s.add_rule(Box::new(InlineX));
        // Bare variable root: the rule fires, then nothing else.
        let (out, stats) = s.simplify(&Expr::var("x", Type::Int));
        assert_eq!(out, Expr::int(7));
        assert_eq!(stats.applications["inline-x"], 1);
        // The replacement feeds the concept rules: x + x → 7 + 7 → 14.
        let e = Expr::bin(
            BinOp::Add,
            Expr::var("x", Type::Int),
            Expr::var("x", Type::Int),
        );
        let (out, _) = s.simplify(&e);
        assert_eq!(out, Expr::int(14));
        // Literal root with a literal-matching rule (standard rules leave
        // bare literals alone, so use constant-fold through a Neg chain).
        let (out, _) = s.simplify(&Expr::un(UnOp::Neg, Expr::int(3)));
        assert_eq!(out, Expr::int(-3));
    }

    #[test]
    fn session_memo_carries_across_calls() {
        // Two expressions sharing a subterm: the second call on the same
        // session skips the shared part via the memo.
        let s = Simplifier::standard();
        let shared = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::var("x", Type::Int), Expr::int(1)),
            Expr::int(0),
        );
        let e1 = shared.clone();
        let e2 = Expr::bin(BinOp::Mul, shared, Expr::int(2));
        let (_, solo2) = s.simplify(&e2);
        let mut sess = s.session();
        let (out1, stats1) = sess.simplify(&e1);
        assert_eq!(out1, Expr::var("x", Type::Int));
        let (out2, stats2) = sess.simplify(&e2);
        assert_eq!(out2.to_string(), "(x * 2)");
        // The shared subtree was normalized during the first call, so the
        // second call's rule fires happened there: fewer applications
        // than a solo run of e2, and the shared subterm memo-hits.
        assert!(stats2.total() < solo2.total());
        assert!(stats2.memo_hits > 0, "shared subterm must memo-hit");
        assert!(stats2.total() < stats1.total() + 1);
    }

    #[test]
    fn batch_stats_match_solo_stats() {
        // simplify_batch shares the interner but resets the memo, so
        // per-entry statistics are identical to solo runs even when
        // entries share structure.
        let s = Simplifier::standard();
        let shared = Expr::bin(BinOp::Mul, Expr::var("x", Type::Int), Expr::int(1));
        let exprs = vec![
            shared.clone(),
            Expr::bin(BinOp::Add, shared.clone(), Expr::int(0)),
            Expr::bin(BinOp::Sub, shared.clone(), shared),
        ];
        let batched = s.simplify_batch(&exprs);
        for (e, (out_b, stats_b)) in exprs.iter().zip(&batched) {
            let (out_s, stats_s) = s.simplify(e);
            assert_eq!(&out_s, out_b);
            assert_eq!(&stats_s, stats_b);
        }
    }

    #[test]
    fn dag_shaped_input_is_linear_in_distinct_terms() {
        // (t - t) doubled k times: 2^k tree nodes, O(k) distinct terms.
        // The interned engine must report distinct_terms ≈ k, not 2^k.
        let mut e = Expr::var("x", Type::Int);
        for _ in 0..12 {
            e = Expr::bin(BinOp::Add, e.clone(), e);
        }
        let s = Simplifier::standard();
        let (_, stats) = s.simplify(&e);
        assert!(stats.size_before > 4000, "tree is exponentially large");
        assert!(
            stats.distinct_terms < 100,
            "interned engine visited {} distinct terms",
            stats.distinct_terms
        );
        assert!(stats.memo_hits > 0);
    }

    #[test]
    fn id_level_entry_point_simplifies_native_dags() {
        // Callers can skip trees entirely: build 2^40-node (virtual)
        // expressions directly in the store and simplify by id.
        let s = Simplifier::standard();
        let mut sess = s.session();
        let st = sess.store_mut();
        let x = st.var("x", Type::Int);
        let one = st.lit(&Value::Int(1));
        let mut t = x;
        for _ in 0..40 {
            let m = st.binary(BinOp::Mul, t, one);
            t = st.binary(BinOp::Add, m, m);
        }
        let (nf, stats) = sess.simplify_id(t);
        // (x*1 + x*1) → (x + x) each level; nothing folds x + x, so the
        // normal form is the doubling DAG itself — but with the *1 gone.
        assert!(stats.size_before > 1 << 40);
        assert!(stats.applications["right-identity"] >= 40);
        assert!(sess.store().size(nf) < stats.size_before as u64);
    }
}
