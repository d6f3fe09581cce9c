//! Function summaries: the abstract effect of a function on its
//! container/iterator arguments, plus the diagnostics its body produces.
//!
//! A summary is computed once per `(function, calling context)` instance
//! and reused at every call site — including across service requests,
//! through the [`SummaryCache`]. Its key is the [`gp_core::hash::Fnv`]
//! digest of what the summary is a pure function of: the function's own
//! body and context, how the body's `invoke`s resolve (which callees
//! exist, with what arity), and the value digests of its callees'
//! summaries. Keyed by callee *values*, an edit that leaves a summary
//! unchanged (a new local, say) stops there: its callers keep their keys
//! and hit. Each key carries a second digest of the same material from a
//! per-process keyed hasher, and a hit must match both. Keys
//! deliberately do **not** include function *names* (see DESIGN.md):
//! renaming a function, or re-submitting the same body under another
//! program, still hits.

use crate::analyze::{DiagnosticCode, Severity, MSG_PAST_END, MSG_SINGULAR, MSG_SORTED_LINEAR};
use crate::callgraph::ScheduleCache;
use crate::ir::{AlgorithmName, Cond, ContainerKind, FunctionDef, Name, PosExpr, Stmt};
use crate::state::{AtEnd, Sortedness, Validity};
use crate::sym::{Lat3, Sym};
use gp_core::hash::{Fnv, FnvHasher, FnvMap};
use std::borrow::Cow;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What a callee parameter is bound to, as far as the summary needs to
/// know: a container of a known kind, or an iterator (by value) that may
/// point into one of the *other* parameters.
///
/// This is everything that is resolvable **syntactically** — kinds are
/// fixed at declaration and iterators never change target container
/// across a call (containers pass by reference, iterators by value) — so
/// contexts can be discovered by a cheap pre-pass without running the
/// analysis, which is what makes the SCC-parallel bottom-up phase
/// possible.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParamBinding {
    /// A container argument of this kind.
    Container {
        /// Invalidation-semantics kind of the bound container.
        kind: ContainerKind,
    },
    /// An iterator argument; `into` is the index of the container
    /// parameter it points into, or `None` when it points into a
    /// container the callee cannot name (externals are immutable from
    /// below, so non-aliasing is sound).
    Iter {
        /// Container-parameter index the iterator aims at, if passed.
        into: Option<u8>,
    },
}

/// A calling context: one [`ParamBinding`] per parameter.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct CallCtx(pub Vec<ParamBinding>);

impl CallCtx {
    /// [`Fnv`] fingerprint, mixed into summary keys.
    pub fn hash64(&self) -> u64 {
        let mut h = Fnv::new();
        for b in &self.0 {
            match b {
                ParamBinding::Container { kind } => {
                    h.write_u8(1);
                    h.write_u8(*kind as u8);
                }
                ParamBinding::Iter { into } => {
                    h.write_u8(2);
                    match into {
                        Some(j) => {
                            h.write_u8(1);
                            h.write_u8(*j);
                        }
                        None => h.write_u8(0),
                    }
                }
            }
        }
        h.finish()
    }
}

/// One recorded analysis event inside a function body.
///
/// Concrete findings become [`Event::Diag`] immediately; checks that
/// land on symbolic (caller-dependent) values are deferred as
/// [`Event::IterCheck`]/[`Event::SortCheck`] and resolved per call site.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Event {
    /// A ready diagnostic.
    Diag {
        /// Severity at the point the finding fired.
        severity: Severity,
        /// Category.
        code: DiagnosticCode,
        /// Body-relative subject (emission prefixes the function path).
        subject: String,
        /// Ready message text; the fixed texts borrow their constants, so
        /// a cached summary holds no copy of them.
        message: Cow<'static, str>,
    },
    /// A deferred iterator-use check (`deref`/`advance`/`erase`).
    IterCheck {
        /// True for dereference-style uses.
        deref: bool,
        /// Body-relative iterator path.
        subject: String,
        /// Symbolic validity at the use.
        validity: Sym<Validity>,
        /// Symbolic end-position knowledge at the use.
        at_end: Sym<AtEnd>,
    },
    /// A deferred algorithm sortedness entry-check.
    SortCheck {
        /// The algorithm whose entry handler fired.
        alg: AlgorithmName,
        /// Ready subject (`alg(container)`, path-prefixed on compose).
        subject: String,
        /// Symbolic sortedness of the sequence at the call.
        sorted: Sym<Sortedness>,
    },
}

/// Summary effect on one container parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ContainerEffect {
    /// Did the body invalidate every iterator into this container?
    pub inval: Lat3,
    /// Sortedness at exit, relative to the entry environment.
    pub sorted_out: Sym<Sortedness>,
    /// Emptiness knowledge at exit.
    pub maybe_empty_out: Sym<bool>,
}

impl ContainerEffect {
    /// The identity effect (function did nothing to the container).
    pub fn identity(idx: u8) -> ContainerEffect {
        ContainerEffect {
            inval: Lat3::No,
            sorted_out: Sym::Entry(idx),
            maybe_empty_out: Sym::Entry(idx),
        }
    }

    fn join(self, other: ContainerEffect) -> ContainerEffect {
        ContainerEffect {
            inval: self.inval.join(other.inval),
            sorted_out: self.sorted_out.join(other.sorted_out),
            maybe_empty_out: self.maybe_empty_out.join(other.maybe_empty_out),
        }
    }
}

/// Summary effect on one iterator parameter. Iterators pass by value, so
/// the only escaping effect is positional: erasing *through* the copy
/// kills the caller's iterator too.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IterEffect {
    /// Did the body erase the position this iterator denotes?
    pub pos_erased: Lat3,
}

impl IterEffect {
    /// The identity effect.
    pub fn identity() -> IterEffect {
        IterEffect {
            pos_erased: Lat3::No,
        }
    }

    fn join(self, other: IterEffect) -> IterEffect {
        IterEffect {
            pos_erased: self.pos_erased.join(other.pos_erased),
        }
    }
}

/// Per-parameter summary effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParamEffect {
    /// Effect on a container parameter.
    Container(ContainerEffect),
    /// Effect on an iterator parameter.
    Iter(IterEffect),
}

impl ParamEffect {
    fn join(self, other: ParamEffect) -> ParamEffect {
        match (self, other) {
            (ParamEffect::Container(a), ParamEffect::Container(b)) => {
                ParamEffect::Container(a.join(b))
            }
            (ParamEffect::Iter(a), ParamEffect::Iter(b)) => ParamEffect::Iter(a.join(b)),
            // Bindings disagree between fixpoint iterates — cannot
            // happen (the context fixes them); keep self.
            (a, _) => a,
        }
    }
}

/// The abstract effect of one `(function, context)` instance.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Summary {
    /// Concrete diagnostics attributed to this instance's body
    /// (including callee checks that resolved here, path-prefixed).
    /// Emitted once per instance, *not* propagated to callers — which
    /// keeps summaries O(body), not O(call-tree).
    pub own_events: Vec<Event>,
    /// Still-symbolic checks, resolved (or re-deferred) per call site.
    pub deferred: Vec<Event>,
    /// One effect per parameter.
    pub effects: Vec<ParamEffect>,
    digest: ValueDigest,
}

/// A summary's value digests ([`FnvHasher`] and keyed), each computed
/// on first use and kept with the shared summary (0 stands for "not yet":
/// a digest that is 0 is just recomputed). Not part of the value:
/// equality and hashing ignore it, and a clone (which may then be
/// changed) starts without one. Two plain words keep it at 16 bytes,
/// which every summary the process-wide cache holds pays.
#[derive(Debug, Default)]
struct ValueDigest {
    hash: AtomicU64,
    check: AtomicU64,
}

impl ValueDigest {
    /// The digest in `slot`, computing and keeping it on first use. The
    /// value is a function of the summary alone, so racing threads store
    /// the same word.
    fn memo(slot: &AtomicU64, compute: impl FnOnce() -> u64) -> u64 {
        match slot.load(Ordering::Relaxed) {
            0 => {
                let d = compute();
                slot.store(d, Ordering::Relaxed);
                d
            }
            d => d,
        }
    }
}

impl Clone for ValueDigest {
    fn clone(&self) -> ValueDigest {
        ValueDigest::default()
    }
}

impl PartialEq for ValueDigest {
    fn eq(&self, _: &ValueDigest) -> bool {
        true
    }
}

impl Eq for ValueDigest {}

impl Hash for ValueDigest {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

impl Summary {
    /// A summary of these events and effects.
    pub fn new(own_events: Vec<Event>, deferred: Vec<Event>, effects: Vec<ParamEffect>) -> Summary {
        Summary {
            own_events,
            deferred,
            effects,
            digest: ValueDigest::default(),
        }
    }

    /// The value's [`FnvHasher`] digest, computed once per summary.
    fn value_hash(&self) -> u64 {
        ValueDigest::memo(&self.digest.hash, || {
            let mut h = FnvHasher::default();
            self.hash(&mut h);
            h.finish()
        })
    }

    /// The value's [`FnvHasher`] digest and its keyed check digest,
    /// each computed once per summary. A caller's summary key reads its
    /// callees' value digests, not their keys.
    pub(crate) fn digest(&self) -> (u64, u64) {
        let check = ValueDigest::memo(&self.digest.check, || {
            let mut k = keyed();
            self.hash(&mut k);
            k.finish()
        });
        (self.value_hash(), check)
    }

    /// The optimistic starting summary for SCC fixpoints: identity
    /// effects, no events.
    pub fn identity(ctx: &CallCtx) -> Summary {
        Summary::new(
            Vec::new(),
            Vec::new(),
            ctx.0
                .iter()
                .enumerate()
                .map(|(i, b)| match b {
                    ParamBinding::Container { .. } => {
                        ParamEffect::Container(ContainerEffect::identity(i as u8))
                    }
                    ParamBinding::Iter { .. } => ParamEffect::Iter(IterEffect::identity()),
                })
                .collect(),
        )
    }

    /// Widening join: pointwise effect join, event-list union (left
    /// order first). Forces monotone ascent in a finite lattice, so SCC
    /// fixpoints terminate even when the raw transfer oscillates.
    pub fn widen(&self, newer: &Summary) -> Summary {
        let effects = self
            .effects
            .iter()
            .zip(&newer.effects)
            .map(|(a, b)| a.join(*b))
            .collect();
        let union = |a: &Vec<Event>, b: &Vec<Event>| {
            let mut out = a.clone();
            for e in b {
                if !out.contains(e) {
                    out.push(e.clone());
                }
            }
            out
        };
        Summary::new(
            union(&self.own_events, &newer.own_events),
            union(&self.deferred, &newer.deferred),
            effects,
        )
    }
}

/// Replicates the seed checker's iterator-use decision table
/// (`check_iter_use`) on resolved values, pushing the diagnostics it
/// would report in the seed's order. Used both for concrete checks
/// during summary computation and for resolving deferred checks at call
/// sites — one table, so cached replay and cold analysis cannot drift.
pub fn iter_check_events(
    deref: bool,
    subject: &str,
    validity: Validity,
    at_end: AtEnd,
    out: &mut Vec<Event>,
) {
    match validity {
        Validity::Singular => out.push(Event::Diag {
            severity: Severity::Error,
            code: if deref {
                DiagnosticCode::DerefSingular
            } else {
                DiagnosticCode::AdvanceSingular
            },
            subject: subject.to_string(),
            message: if deref {
                MSG_SINGULAR.into()
            } else {
                format!("attempt to advance a singular iterator (`{subject}`)").into()
            },
        }),
        Validity::MaybeSingular => out.push(Event::Diag {
            severity: Severity::Warning,
            code: if deref {
                DiagnosticCode::DerefSingular
            } else {
                DiagnosticCode::AdvanceSingular
            },
            subject: subject.to_string(),
            message: if deref {
                MSG_SINGULAR.into()
            } else {
                format!("attempt to advance a possibly singular iterator (`{subject}`)").into()
            },
        }),
        Validity::Valid => {}
    }
    if validity != Validity::Singular {
        match at_end {
            AtEnd::Yes => out.push(Event::Diag {
                severity: Severity::Error,
                code: if deref {
                    DiagnosticCode::DerefPastEnd
                } else {
                    DiagnosticCode::AdvancePastEnd
                },
                subject: subject.to_string(),
                message: if deref {
                    MSG_PAST_END.into()
                } else {
                    format!("attempt to advance past the end (`{subject}`)").into()
                },
            }),
            AtEnd::Maybe if deref => out.push(Event::Diag {
                severity: Severity::Warning,
                code: DiagnosticCode::DerefPastEnd,
                subject: subject.to_string(),
                message: MSG_PAST_END.into(),
            }),
            _ => {}
        }
    }
}

/// Replicates the seed's algorithm entry handlers (sortedness checks) on
/// a resolved sortedness value.
pub fn sort_check_events(
    alg: AlgorithmName,
    subject: &str,
    sorted: Sortedness,
    out: &mut Vec<Event>,
) {
    match alg {
        AlgorithmName::Find => {
            if sorted == Sortedness::Sorted {
                out.push(Event::Diag {
                    severity: Severity::Suggestion,
                    code: DiagnosticCode::SortedLinearSearch,
                    subject: subject.to_string(),
                    message: MSG_SORTED_LINEAR.into(),
                });
            }
        }
        AlgorithmName::LowerBound | AlgorithmName::BinarySearch => match sorted {
            Sortedness::Sorted => {}
            Sortedness::Unsorted => out.push(Event::Diag {
                severity: Severity::Error,
                code: DiagnosticCode::RequiresSorted,
                subject: subject.to_string(),
                message: requires_sorted_message(alg, Sortedness::Unsorted).into(),
            }),
            Sortedness::Unknown => out.push(Event::Diag {
                severity: Severity::Warning,
                code: DiagnosticCode::RequiresSorted,
                subject: subject.to_string(),
                message: requires_sorted_message(alg, Sortedness::Unknown).into(),
            }),
        },
        AlgorithmName::Unique => {
            if sorted != Sortedness::Sorted {
                out.push(Event::Diag {
                    severity: Severity::Warning,
                    code: DiagnosticCode::RequiresSorted,
                    subject: subject.to_string(),
                    message: "algorithm `unique` removes only adjacent duplicates; on an \
                              unsorted sequence this is unlikely to be the intended full \
                              deduplication"
                        .into(),
                });
            }
        }
        AlgorithmName::Sort | AlgorithmName::MaxElement => {}
    }
}

/// The `RequiresSorted` text for a sortedness-requiring algorithm
/// (`lower_bound`, `binary_search`) on an unsorted or unknown sequence.
fn requires_sorted_message(alg: AlgorithmName, sorted: Sortedness) -> &'static str {
    match (alg, sorted) {
        (AlgorithmName::LowerBound, Sortedness::Unsorted) => {
            "algorithm `lower_bound` requires the sequence to be sorted, but it is not"
        }
        (AlgorithmName::LowerBound, _) => {
            "algorithm `lower_bound` requires the sequence to be sorted, but it may not be"
        }
        (_, Sortedness::Unsorted) => {
            "algorithm `binary_search` requires the sequence to be sorted, but it is not"
        }
        _ => "algorithm `binary_search` requires the sequence to be sorted, but it may not be",
    }
}

/// A sink for key material. Content keys ([`Fnv`]) and check digests
/// (the per-process keyed hasher, [`keyed`]) read the same words.
trait Mix {
    fn write_u8(&mut self, b: u8);
    fn write_u64(&mut self, w: u64);
    fn write_str(&mut self, s: &str);
}

impl Mix for Fnv {
    fn write_u8(&mut self, b: u8) {
        Fnv::write_u8(self, b);
    }

    fn write_u64(&mut self, w: u64) {
        Fnv::write_u64(self, w);
    }

    fn write_str(&mut self, s: &str) {
        Fnv::write_str(self, s);
    }
}

impl Mix for DefaultHasher {
    fn write_u8(&mut self, b: u8) {
        Hasher::write_u8(self, b);
    }

    fn write_u64(&mut self, w: u64) {
        Hasher::write_u64(self, w);
    }

    fn write_str(&mut self, s: &str) {
        Hasher::write_u64(self, s.len() as u64);
        Hasher::write(self, s.as_bytes());
    }
}

/// A fresh hasher keyed for this process: the second digest every
/// summary-cache hit must match. Its key is unknown outside the process,
/// so no input can be built to collide in it and in [`Fnv`] at once.
pub(crate) fn keyed() -> DefaultHasher {
    static KEY: OnceLock<RandomState> = OnceLock::new();
    KEY.get_or_init(RandomState::new).build_hasher()
}

fn hash_stmt(h: &mut impl Mix, s: &Stmt) {
    match s {
        Stmt::DeclContainer { name, kind } => {
            h.write_u8(1);
            h.write_str(name);
            h.write_u8(*kind as u8);
        }
        Stmt::DeclIter {
            name,
            container,
            pos,
        } => {
            h.write_u8(2);
            h.write_str(name);
            h.write_str(container);
            h.write_u8(match pos {
                PosExpr::Begin => 0,
                PosExpr::End => 1,
                PosExpr::SearchResult => 2,
            });
        }
        Stmt::Advance { iter } => {
            h.write_u8(3);
            h.write_str(iter);
        }
        Stmt::Deref { iter } => {
            h.write_u8(4);
            h.write_str(iter);
        }
        Stmt::Erase {
            container,
            iter,
            capture,
        } => {
            h.write_u8(5);
            h.write_str(container);
            h.write_str(iter);
            h.write_str(capture.as_deref().unwrap_or(""));
        }
        Stmt::Insert { container, iter } => {
            h.write_u8(6);
            h.write_str(container);
            h.write_str(iter);
        }
        Stmt::PushBack { container } => {
            h.write_u8(7);
            h.write_str(container);
        }
        Stmt::Clear { container } => {
            h.write_u8(8);
            h.write_str(container);
        }
        Stmt::Assign { dst, src } => {
            h.write_u8(9);
            h.write_str(dst);
            h.write_str(src);
        }
        Stmt::Call {
            algorithm,
            container,
            capture,
        } => {
            h.write_u8(10);
            h.write_u8(*algorithm as u8);
            h.write_str(container);
            h.write_str(capture.as_deref().unwrap_or(""));
        }
        Stmt::While { cond, body } => {
            h.write_u8(11);
            match cond {
                Cond::IterNotEnd { iter } => {
                    h.write_u8(1);
                    h.write_str(iter);
                }
                Cond::Unknown => h.write_u8(0),
            }
            hash_block(h, body);
        }
        Stmt::If {
            then_branch,
            else_branch,
        } => {
            h.write_u8(12);
            hash_block(h, then_branch);
            hash_block(h, else_branch);
        }
        Stmt::Invoke { function, args } => {
            h.write_u8(13);
            h.write_str(function);
            h.write_u64(args.len() as u64);
            for a in args.iter() {
                h.write_str(a);
            }
        }
    }
}

fn hash_block(h: &mut impl Mix, stmts: &[Stmt]) {
    h.write_u64(stmts.len() as u64);
    for s in stmts {
        hash_stmt(h, s);
    }
}

fn hash_def(h: &mut impl Mix, params: &[Name], body: &[Stmt]) {
    h.write_u64(params.len() as u64);
    for p in params {
        h.write_str(p);
    }
    hash_block(h, body);
}

/// Content hash of a function body: parameters and statements, **not**
/// the function's name. Callee names appearing in `invoke` statements
/// are part of the body and therefore of the hash — which is exactly
/// what ties a caller's key to its call graph shape.
pub fn content_hash(f: &FunctionDef) -> u64 {
    let mut h = Fnv::new();
    hash_def(&mut h, &f.params, &f.body);
    h.finish()
}

/// The check digest of the same material as [`content_hash`], from the
/// per-process keyed hasher (`main` passes no parameters).
pub fn content_check(params: &[Name], body: &[Stmt]) -> u64 {
    let mut h = keyed();
    hash_def(&mut h, params, body);
    h.finish()
}

/// Content hash of a bare statement list (the implicit `main`).
pub fn content_hash_stmts(stmts: &[Stmt]) -> u64 {
    let mut h = Fnv::new();
    hash_block(&mut h, stmts);
    h.finish()
}

/// A summary-cache key: the [`Fnv`] digest of the key material, and a
/// second digest of the same material from the per-process keyed hasher.
/// The hash picks the entry; a hit must match the check as well.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SummaryKey {
    /// [`Fnv`] digest (what the table is indexed by).
    pub hash: u64,
    /// Keyed digest of the same material, compared on every hit.
    pub check: u64,
}

/// Pre-resolved telemetry handles for the summary cache (hot path:
/// every instance of every request goes through get/insert).
struct CacheMetrics {
    hit: &'static gp_telemetry::Counter,
    miss: &'static gp_telemetry::Counter,
    evict: &'static gp_telemetry::Counter,
    collision: &'static gp_telemetry::Counter,
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CacheMetrics {
        hit: gp_telemetry::counter("checker.summary.hit"),
        miss: gp_telemetry::counter("checker.summary.miss"),
        evict: gp_telemetry::counter("checker.summary.evict"),
        collision: gp_telemetry::counter("checker.summary.collision"),
    })
}

struct CacheInner {
    /// Key hash → (check digest, summary).
    map: FnvMap<u64, (u64, Arc<Summary>)>,
    order: VecDeque<u64>,
    /// One shared copy per distinct summary value, by value hash. Many
    /// keys map to equal summaries (an edit elsewhere re-keys a caller
    /// whose summary does not change), and each then costs a map slot,
    /// not a copy.
    values: FnvMap<u64, Arc<Summary>>,
}

/// Lookup outcomes, published to the telemetry counters once per call.
#[derive(Default)]
struct Counts {
    hit: u64,
    miss: u64,
    collision: u64,
}

impl Counts {
    fn publish(&self) {
        let m = cache_metrics();
        m.hit.add(self.hit);
        m.miss.add(self.miss);
        m.collision.add(self.collision);
    }
}

impl CacheInner {
    /// The entry filed under `key.hash`, if its check digest matches: a
    /// mismatch is a collision, and a miss.
    fn lookup(&self, key: SummaryKey, counts: &mut Counts) -> Option<Arc<Summary>> {
        let found = match self.map.get(&key.hash) {
            Some((check, s)) if *check == key.check => Some(Arc::clone(s)),
            Some(_) => {
                counts.collision += 1;
                None
            }
            None => None,
        };
        match found {
            Some(_) => counts.hit += 1,
            None => counts.miss += 1,
        }
        found
    }

    /// The shared copy of `summary`'s value, registering it if new (a
    /// value-hash collision just replaces the slot: sharing is an
    /// optimization, lookups never depend on it).
    fn share(&mut self, summary: Arc<Summary>) -> Arc<Summary> {
        let h = summary.value_hash();
        match self.values.get(&h) {
            Some(v) if **v == *summary => Arc::clone(v),
            _ => {
                // Values no key references any more are dropped once they
                // outnumber the keys, which bounds the table by the cache.
                if self.values.len() > 2 * self.map.len() + 64 {
                    self.values.retain(|_, v| Arc::strong_count(v) > 1);
                }
                self.values.insert(h, Arc::clone(&summary));
                summary
            }
        }
    }
}

/// A bounded summary store keyed by [`SummaryKey`]. FIFO
/// eviction (deterministic, no access-order dependence), safe to share
/// across threads and requests: a key's value is a pure function of the
/// key, so concurrent inserts of the same key are idempotent. Equal
/// summaries under different keys share one allocation.
///
/// It also keeps the last few call-structure schedules (instance graph,
/// SCCs, height batches), so a request whose edit leaves the call
/// structure alone reuses its predecessor's graph.
pub struct SummaryCache {
    inner: Mutex<CacheInner>,
    cap: usize,
    pub(crate) schedules: ScheduleCache,
}

impl SummaryCache {
    /// An empty cache holding at most `cap` summaries.
    pub fn new(cap: usize) -> SummaryCache {
        SummaryCache {
            inner: Mutex::new(CacheInner {
                map: FnvMap::default(),
                order: VecDeque::new(),
                values: FnvMap::default(),
            }),
            cap: cap.max(1),
            schedules: ScheduleCache::default(),
        }
    }

    /// Look up a summary; counts `checker.summary.{hit,miss}`. An entry
    /// under the same hash whose check digest differs is a miss, counted
    /// under `checker.summary.collision` too.
    pub fn get(&self, key: SummaryKey) -> Option<Arc<Summary>> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut counts = Counts::default();
        let found = inner.lookup(key, &mut counts);
        counts.publish();
        found
    }

    /// Look up every member of each SCC of `batch` under one lock. An
    /// SCC whose members all hit gets their summaries in `finals`; any
    /// other SCC goes to `misses`. Counts as [`SummaryCache::get`] does.
    pub(crate) fn probe(
        &self,
        batch: &[usize],
        sccs: &[Vec<usize>],
        keys: &[SummaryKey],
        finals: &mut [Option<Arc<Summary>>],
        misses: &mut Vec<usize>,
    ) {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut counts = Counts::default();
        for &c in batch {
            let scc = &sccs[c];
            for &id in scc {
                finals[id] = inner.lookup(keys[id], &mut counts);
            }
            if scc.iter().any(|&id| finals[id].is_none()) {
                for &id in scc {
                    finals[id] = None;
                }
                misses.push(c);
            }
        }
        drop(inner);
        counts.publish();
    }

    /// Insert a summary, evicting oldest-inserted entries beyond
    /// capacity; counts `checker.summary.evict`. An entry under the same
    /// hash is replaced.
    pub fn insert(&self, key: SummaryKey, summary: Arc<Summary>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let summary = inner.share(summary);
        if inner.map.insert(key.hash, (key.check, summary)).is_none() {
            inner.order.push_back(key.hash);
            while inner.order.len() > self.cap {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                    cache_metrics().evict.incr();
                }
            }
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide cache behind the service `lint` path: summaries
/// survive across requests, so re-linting a program with one edited
/// function re-analyzes only that function and, where its summary
/// changed, its callers.
pub fn global_cache() -> &'static SummaryCache {
    static CACHE: OnceLock<SummaryCache> = OnceLock::new();
    CACHE.get_or_init(|| SummaryCache::new(1 << 18))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::build::*;
    use crate::ir::ContainerKind as K;

    #[test]
    fn content_keys_match_known_answers() {
        // Summary-cache keys are content hashes: a change to the hash
        // would silently invalidate (or worse, collide) cached entries.
        let grow = func("grow", &["C"], vec![push_back("C")]);
        assert_eq!(content_hash(&grow), 0xa065_80a6_babd_96d0);
        let g = func(
            "g",
            &["A", "B"],
            vec![
                container("x", K::List),
                begin("i", "x"),
                while_not_end("i", vec![deref("i"), advance("i")]),
                invoke("grow", &["A"]),
            ],
        );
        assert_eq!(content_hash(&g), 0xff7a_13f6_58fe_a0d8);
        assert_eq!(content_hash_stmts(&[]), 0xaf63_bd4c_8601_b7df);
        let ctx = CallCtx(vec![
            ParamBinding::Container { kind: K::Vector },
            ParamBinding::Iter { into: Some(0) },
        ]);
        assert_eq!(ctx.hash64(), 0xe963_c8ae_b1af_5f6b);
    }

    #[test]
    fn content_hash_ignores_name_but_not_body_or_params() {
        let a = func("a", &["c"], vec![push_back("c")]);
        let b = func("b", &["c"], vec![push_back("c")]);
        assert_eq!(content_hash(&a), content_hash(&b));
        let c = func("a", &["c"], vec![clear("c")]);
        assert_ne!(content_hash(&a), content_hash(&c));
        let d = func("a", &["d"], vec![push_back("c")]);
        assert_ne!(content_hash(&a), content_hash(&d));
    }

    #[test]
    fn content_hash_sees_invoke_targets_and_nesting() {
        let a = func("f", &[], vec![invoke("g", &[])]);
        let b = func("f", &[], vec![invoke("h", &[])]);
        assert_ne!(content_hash(&a), content_hash(&b));
        // Nesting structure matters: [while { x }] vs [while {}, x].
        let nested = func("f", &["it"], vec![while_not_end("it", vec![advance("it")])]);
        let flat = func(
            "f",
            &["it"],
            vec![while_not_end("it", vec![]), advance("it")],
        );
        assert_ne!(content_hash(&nested), content_hash(&flat));
    }

    #[test]
    fn ctx_hash_distinguishes_kinds_and_aliasing() {
        let vec_ctx = CallCtx(vec![ParamBinding::Container { kind: K::Vector }]);
        let list_ctx = CallCtx(vec![ParamBinding::Container { kind: K::List }]);
        assert_ne!(vec_ctx.hash64(), list_ctx.hash64());
        let aliased = CallCtx(vec![
            ParamBinding::Container { kind: K::List },
            ParamBinding::Iter { into: Some(0) },
        ]);
        let external = CallCtx(vec![
            ParamBinding::Container { kind: K::List },
            ParamBinding::Iter { into: None },
        ]);
        assert_ne!(aliased.hash64(), external.hash64());
    }

    fn key(hash: u64) -> SummaryKey {
        SummaryKey { hash, check: !hash }
    }

    #[test]
    fn cache_fifo_eviction_and_counters() {
        let cache = SummaryCache::new(2);
        let s = Arc::new(Summary::default());
        cache.insert(key(1), s.clone());
        cache.insert(key(2), s.clone());
        assert!(cache.get(key(1)).is_some());
        cache.insert(key(3), s.clone());
        // FIFO: key 1 (oldest inserted) evicted, not key 2.
        assert!(cache.get(key(1)).is_none());
        assert!(cache.get(key(2)).is_some());
        assert!(cache.get(key(3)).is_some());
        assert_eq!(cache.len(), 2);
        // Re-inserting an existing key must not duplicate the order
        // entry (which would over-evict later).
        cache.insert(key(3), s);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn entries_sharing_a_hash_never_answer_for_each_other() {
        let cache = SummaryCache::new(8);
        let mut a = Summary::default();
        a.effects.push(ParamEffect::Iter(IterEffect::identity()));
        let a = Arc::new(a);
        let b = Arc::new(Summary::default());
        let (ka, kb) = (
            SummaryKey { hash: 7, check: 1 },
            SummaryKey { hash: 7, check: 2 },
        );
        let collisions = || gp_telemetry::counter("checker.summary.collision").get();
        cache.insert(ka, Arc::clone(&a));
        let c0 = collisions();
        assert!(
            cache.get(kb).is_none(),
            "b's key must not return a's summary"
        );
        assert!(collisions() > c0);
        cache.insert(kb, Arc::clone(&b));
        assert!(
            cache.get(ka).is_none(),
            "a's key must not return b's summary"
        );
        assert_eq!(cache.get(kb).as_deref(), Some(&*b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn check_digests_follow_the_content() {
        let a = func("a", &["c"], vec![push_back("c")]);
        let b = func("b", &["c"], vec![push_back("c")]);
        let c = func("a", &["c"], vec![clear("c")]);
        let check = |f: &FunctionDef| content_check(&f.params, &f.body);
        assert_eq!(check(&a), check(&b));
        assert_ne!(check(&a), check(&c));
        assert_ne!(check(&a), content_hash(&a), "a second, independent digest");
    }

    #[test]
    fn widen_unions_events_and_joins_effects() {
        let ctx = CallCtx(vec![ParamBinding::Container { kind: K::Vector }]);
        let mut a = Summary::identity(&ctx);
        let mut b = Summary::identity(&ctx);
        a.own_events.push(Event::Diag {
            severity: Severity::Warning,
            code: DiagnosticCode::DerefSingular,
            subject: "it".into(),
            message: MSG_SINGULAR.into(),
        });
        b.effects[0] = ParamEffect::Container(ContainerEffect {
            inval: Lat3::Must,
            sorted_out: Sym::Const(Sortedness::Unsorted),
            maybe_empty_out: Sym::Entry(0),
        });
        let w = a.widen(&b);
        assert_eq!(w.own_events.len(), 1);
        match w.effects[0] {
            ParamEffect::Container(e) => {
                assert_eq!(e.inval, Lat3::May);
                assert_eq!(e.sorted_out, Sym::EntryJoin(0, Sortedness::Unsorted));
            }
            _ => panic!("container effect expected"),
        }
        // Widening is idempotent at the fixpoint.
        assert_eq!(w.widen(&w), w);
    }
}
