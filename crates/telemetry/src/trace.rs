//! Causal tracing: explicit-parent spans that survive thread hops.
//!
//! A request crosses the reactor thread, a router, a queue, a service
//! worker, and finally a `gp-parallel` pool thread, so no per-thread
//! notion of "the current span" sees the whole story. A [`TraceContext`]
//! instead carries an explicit parent link per span: any thread holding a
//! clone of the context can open a [`Span`] with a chosen parent
//! [`SpanId`], so the assembled tree reflects the request's causal
//! structure, not the accident of which thread ran which stage. The span
//! is the same type untraced code uses ([`mod@crate::span`]); attaching a
//! context only adds the trace record.
//!
//! Lifecycle: a context is created per sampled request ([`sample`] applies
//! the process-wide 1-in-N rate). Every span holds a clone of the context;
//! when the **last** clone drops, the finished spans are assembled and
//! published to the [`TraceStore`] claimed via
//! [`TraceContext::set_sink`] (the shard that executed the request). A
//! `trace` wire request then fetches the rendered tree by id.
//!
//! Timestamps are nanosecond offsets from the context's creation, so
//! spans recorded on different threads order consistently without any
//! cross-thread clock agreement beyond `Instant`'s own monotonicity.

use crate::span::{Span, SpanName};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifies one trace (one sampled request), chosen by the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifies one span within its trace (a per-context sequence number,
/// starting at 0 for the first span opened).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u32);

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One finished span: name, explicit parent, and start/end offsets (ns
/// since the context was created). `thread` records which OS thread
/// closed the span — the evidence that parent links survived a hop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id within the trace.
    pub id: SpanId,
    /// Parent span, `None` for a root.
    pub parent: Option<SpanId>,
    /// Region name (`reactor`, `router`, `queue`, `worker`, `engine.*`).
    pub name: &'static str,
    /// Nanoseconds from context creation to span open.
    pub start_ns: u64,
    /// Nanoseconds from context creation to span close.
    pub end_ns: u64,
    /// Name of the thread that closed the span (empty if unnamed).
    pub thread: String,
}

struct TraceInner {
    id: TraceId,
    epoch: Instant,
    next_span: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
    /// The store the finished trace publishes to; claimed once by the
    /// shard that executes the request (first claim wins).
    sink: Mutex<Option<Arc<TraceStore>>>,
}

impl Drop for TraceInner {
    fn drop(&mut self) {
        // Last clone gone: every span has finished; assemble and publish.
        if let Some(store) = self.sink.get_mut().expect("sink lock").take() {
            let spans = std::mem::take(self.spans.get_mut().expect("spans lock"));
            store.publish(self.id, spans);
        }
    }
}

/// A cloneable handle to one in-progress trace. See the module docs.
#[derive(Clone)]
pub struct TraceContext {
    inner: Arc<TraceInner>,
}

impl TraceContext {
    /// A fresh context for trace `id` (bypasses sampling; callers that
    /// want the configured rate use [`sample`]).
    pub fn new(id: u64) -> TraceContext {
        TraceContext {
            inner: Arc::new(TraceInner {
                id: TraceId(id),
                epoch: Instant::now(),
                next_span: AtomicU32::new(0),
                spans: Mutex::new(Vec::new()),
                sink: Mutex::new(None),
            }),
        }
    }

    /// The trace id.
    pub fn id(&self) -> TraceId {
        self.inner.id
    }

    /// Open a span named `name` under `parent` (`None` = root). The span
    /// may be moved across threads and closed anywhere; it records into
    /// this context when dropped (or [`Span::finish`]ed).
    pub fn span(&self, name: &'static SpanName, parent: Option<SpanId>) -> Span {
        let id = SpanId(self.inner.next_span.fetch_add(1, Ordering::Relaxed));
        Span::open(name, Some((self.clone(), id, parent)))
    }

    /// Record a closed span (called by [`Span`]'s drop).
    pub(crate) fn record(
        &self,
        id: SpanId,
        parent: Option<SpanId>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let epoch = self.inner.epoch;
        let offset = |t: Instant| {
            t.checked_duration_since(epoch)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0)
        };
        let record = SpanRecord {
            id,
            parent,
            name,
            start_ns: offset(start),
            end_ns: offset(end),
            thread: current_thread_name(),
        };
        self.inner.spans.lock().expect("spans lock").push(record);
    }

    /// Claim the store this trace publishes to when it completes. The
    /// first claim wins — the shard that executes the request owns the
    /// trace, wherever the context was created.
    pub fn set_sink(&self, store: &Arc<TraceStore>) {
        let mut sink = self.inner.sink.lock().expect("sink lock");
        if sink.is_none() {
            *sink = Some(Arc::clone(store));
        }
    }

    /// Spans recorded so far (tests and diagnostics; the published trace
    /// is the authoritative copy).
    pub fn recorded(&self) -> usize {
        self.inner.spans.lock().expect("spans lock").len()
    }
}

/// The closing thread's name, resolved through a thread-local cache —
/// span closes are hot, and `std::thread::current()` clones an `Arc`
/// and re-derives the name on every call.
fn current_thread_name() -> String {
    thread_local! {
        static NAME: String =
            std::thread::current().name().unwrap_or("").to_string();
    }
    NAME.with(|n| n.clone())
}

/// Default sampling rate: 1 in 16 trace-carrying requests.
pub const DEFAULT_SAMPLE_N: u64 = 16;

static SAMPLE_N: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_N);
static SAMPLE_TICK: AtomicU64 = AtomicU64::new(0);

/// Set the process-wide trace sampling rate: 1 in `n` trace-carrying
/// requests gets a context (`1` = every one, `0` = tracing off). Requests
/// without a wire trace field are never traced regardless — tracing is
/// strictly opt-in on the wire.
pub fn set_sampling(n: u64) {
    SAMPLE_N.store(n, Ordering::Relaxed);
}

/// The current 1-in-N sampling rate (0 = off).
pub fn sampling() -> u64 {
    SAMPLE_N.load(Ordering::Relaxed)
}

struct SampleCounters {
    sampled: &'static crate::Counter,
    unsampled: &'static crate::Counter,
}

/// The sampler's counters, resolved once — `sample` sits on the
/// per-request path, where a by-name registry lookup would be the single
/// most expensive thing it does.
fn sample_counters() -> &'static SampleCounters {
    static COUNTERS: std::sync::OnceLock<SampleCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| SampleCounters {
        sampled: crate::counter("trace.sampled"),
        unsampled: crate::counter("trace.unsampled"),
    })
}

/// Apply the sampling rate to a trace-carrying request: every `n`-th call
/// yields a context for `id`, the rest yield `None`. Counted under
/// `trace.sampled` / `trace.unsampled`.
pub fn sample(id: u64) -> Option<TraceContext> {
    let n = SAMPLE_N.load(Ordering::Relaxed);
    if n == 0 {
        return None;
    }
    if !SAMPLE_TICK
        .fetch_add(1, Ordering::Relaxed)
        .is_multiple_of(n)
    {
        sample_counters().unsampled.incr();
        return None;
    }
    sample_counters().sampled.incr();
    Some(TraceContext::new(id))
}

/// A front end's entry into tracing: apply the sampling rate to a
/// request's wire trace id and, when sampled, open the root span `name`.
/// Returns the handle the next layer parents under and the root span,
/// which the caller closes once the response is ready (closing it may
/// publish the trace).
pub fn sample_root(
    wire_trace: Option<u64>,
    name: &'static SpanName,
) -> (Option<TraceHandle>, Option<Span>) {
    let Some(ctx) = wire_trace.and_then(sample) else {
        return (None, None);
    };
    let root = ctx.span(name, None);
    let parent = root.id();
    (Some(TraceHandle { ctx, parent }), Some(root))
}

/// A context plus the caller's current parent span — the unit of trace
/// propagation through submission interfaces. Each layer opens its own
/// span under `parent` and passes a new handle (same context, its span as
/// the parent) to the next layer.
#[derive(Clone)]
pub struct TraceHandle {
    /// The shared trace context.
    pub ctx: TraceContext,
    /// The span the next layer should parent under.
    pub parent: Option<SpanId>,
}

impl TraceHandle {
    /// A root handle: the first layer's span will be a root span.
    pub fn root(ctx: TraceContext) -> TraceHandle {
        TraceHandle { ctx, parent: None }
    }

    /// Open a span under this handle's parent.
    pub fn span(&self, name: &'static SpanName) -> Span {
        self.ctx.span(name, self.parent)
    }

    /// The same context re-parented under `span` — what gets passed down.
    pub fn child_of(&self, span: &Span) -> TraceHandle {
        TraceHandle {
            ctx: self.ctx.clone(),
            parent: span.id(),
        }
    }
}

/// A bounded store of completed traces, queryable by id — one per service
/// shard. Publishing past the capacity evicts the oldest trace.
pub struct TraceStore {
    cap: usize,
    inner: Mutex<StoreInner>,
}

struct StoreInner {
    order: VecDeque<u64>,
    traces: HashMap<u64, Vec<SpanRecord>>,
}

impl TraceStore {
    /// A store holding at most `cap` completed traces (`cap >= 1`).
    pub fn new(cap: usize) -> Arc<TraceStore> {
        Arc::new(TraceStore {
            cap: cap.max(1),
            inner: Mutex::new(StoreInner {
                order: VecDeque::new(),
                traces: HashMap::new(),
            }),
        })
    }

    /// Store a completed trace (spans sorted by start offset). A repeat
    /// of the same id overwrites — the client reused the id.
    pub fn publish(&self, id: TraceId, mut spans: Vec<SpanRecord>) {
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut inner = self.inner.lock().expect("trace store lock");
        if inner.traces.insert(id.0, spans).is_none() {
            inner.order.push_back(id.0);
            if inner.order.len() > self.cap {
                if let Some(oldest) = inner.order.pop_front() {
                    inner.traces.remove(&oldest);
                }
            }
        }
        crate::counter("trace.published").incr();
    }

    /// Run `f` over the spans of the completed trace `id`, if it is
    /// (still) stored, under the store's lock: a reader renders the
    /// spans in place instead of copying them out.
    pub fn with_spans<R>(&self, id: u64, f: impl FnOnce(&[SpanRecord]) -> R) -> Option<R> {
        self.inner
            .lock()
            .expect("trace store lock")
            .traces
            .get(&id)
            .map(|spans| f(spans))
    }

    /// Whether the completed trace `id` is (still) stored.
    pub fn contains(&self, id: u64) -> bool {
        self.inner
            .lock()
            .expect("trace store lock")
            .traces
            .contains_key(&id)
    }

    /// Completed traces currently stored.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace store lock").traces.len()
    }

    /// True when no trace is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Render a completed trace as a JSON tree:
/// `{"trace_id":N,"spans":[{"id":..,"name":..,"start_ns":..,"dur_ns":..,
/// "thread":..,"children":[...]},..]}`. Roots are spans whose parent is
/// absent (or absent from the record set); children sort by start offset.
pub fn render_tree(id: TraceId, spans: &[SpanRecord]) -> String {
    let ids: std::collections::HashSet<u32> = spans.iter().map(|s| s.id.0).collect();
    let mut children: HashMap<Option<u32>, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        // A parent that never recorded (shed mid-flight) orphans its
        // subtree to the root rather than losing it.
        let key = s.parent.map(|p| p.0).filter(|p| ids.contains(p));
        children.entry(key).or_default().push(s);
    }
    for v in children.values_mut() {
        v.sort_by_key(|s| (s.start_ns, s.id));
    }
    fn escape(out: &mut String, s: &str) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
    }
    fn render_nodes(
        out: &mut String,
        parent: Option<u32>,
        children: &HashMap<Option<u32>, Vec<&SpanRecord>>,
    ) {
        out.push('[');
        for (i, s) in children
            .get(&parent)
            .map(Vec::as_slice)
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"thread\":\"",
                s.id.0,
                s.name,
                s.start_ns,
                s.end_ns.saturating_sub(s.start_ns)
            ));
            escape(out, &s.thread);
            out.push_str("\",\"children\":");
            render_nodes(out, Some(s.id.0), children);
            out.push('}');
        }
        out.push(']');
    }
    let mut out = format!("{{\"trace_id\":{},\"spans\":", id.0);
    render_nodes(&mut out, None, &children);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    static REACTOR: SpanName = SpanName::new("reactor");
    static ROUTER: SpanName = SpanName::new("router");
    static QUEUE: SpanName = SpanName::new("queue");
    static WORKER: SpanName = SpanName::new("worker");
    static ENGINE: SpanName = SpanName::new("engine");
    static ENGINE_SIMPLIFY: SpanName = SpanName::new("engine.simplify");
    static S: SpanName = SpanName::new("s");
    static OUTER: SpanName = SpanName::new("outer");
    static INNER: SpanName = SpanName::new("inner");

    #[test]
    fn spans_record_explicit_parents_across_threads() {
        let ctx = TraceContext::new(7);
        let store = TraceStore::new(8);
        ctx.set_sink(&store);
        let root = ctx.span(&REACTOR, None);
        let root_id = root.id();
        let child_ctx = ctx.clone();
        // The child opens and closes on another thread; the parent link
        // is the one we passed, not anything thread-local.
        let t = std::thread::Builder::new()
            .name("hop-thread".into())
            .spawn(move || {
                let worker = child_ctx.span(&WORKER, root_id);
                let engine = child_ctx.span(&ENGINE, worker.id());
                engine.finish();
                worker.finish();
            })
            .unwrap();
        t.join().unwrap();
        root.finish();
        drop(ctx);
        let spans = store
            .with_spans(7, <[SpanRecord]>::to_vec)
            .expect("published on last drop");
        assert_eq!(spans.len(), 3);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("reactor").parent, None);
        assert_eq!(by_name("worker").parent, Some(by_name("reactor").id));
        assert_eq!(by_name("engine").parent, Some(by_name("worker").id));
        assert_eq!(by_name("worker").thread, "hop-thread");
        assert!(by_name("engine").start_ns <= by_name("engine").end_ns);
    }

    #[test]
    fn publish_waits_for_the_last_clone() {
        let ctx = TraceContext::new(1);
        let store = TraceStore::new(8);
        ctx.set_sink(&store);
        let span = ctx.span(&S, None);
        drop(ctx);
        assert!(!store.contains(1), "a live span holds the trace open");
        drop(span);
        assert!(store.contains(1), "last clone published");
    }

    #[test]
    fn store_is_bounded_and_evicts_oldest() {
        let store = TraceStore::new(2);
        for id in 0..4u64 {
            let ctx = TraceContext::new(id);
            ctx.set_sink(&store);
            ctx.span(&S, None).finish();
        }
        assert_eq!(store.len(), 2);
        assert!(!store.contains(0));
        assert!(!store.contains(1));
        assert!(store.contains(2));
        assert!(store.contains(3));
    }

    #[test]
    fn contains_agrees_with_with_spans_across_publish_and_eviction() {
        let store = TraceStore::new(2);
        assert!(!store.contains(0), "empty store");
        for id in 0..3u64 {
            let ctx = TraceContext::new(id);
            ctx.set_sink(&store);
            let span = ctx.span(&S, None);
            drop(ctx);
            assert!(!store.contains(id), "a live span holds the trace open");
            drop(span);
            assert!(store.contains(id), "published on the last clone");
        }
        for id in 0..4u64 {
            let held = store.with_spans(id, |spans| spans.len()).is_some();
            assert_eq!(store.contains(id), held, "id {id}");
        }
        assert!(!store.contains(0), "oldest evicted");
    }

    #[test]
    fn first_sink_claim_wins() {
        let a = TraceStore::new(4);
        let b = TraceStore::new(4);
        let ctx = TraceContext::new(9);
        ctx.set_sink(&a);
        ctx.set_sink(&b);
        ctx.span(&S, None).finish();
        drop(ctx);
        assert!(a.contains(9));
        assert!(!b.contains(9));
    }

    #[test]
    fn sampling_takes_one_in_n() {
        let _guard = crate::test_flag_lock();
        let before = sampling();
        set_sampling(4);
        let sampled = (0..32).filter(|i| sample(*i).is_some()).count();
        assert_eq!(sampled, 8, "1 in 4 of 32");
        set_sampling(0);
        assert!(sample(99).is_none(), "rate 0 disables tracing");
        set_sampling(before);
    }

    #[test]
    fn render_tree_nests_children_under_parents() {
        let ctx = TraceContext::new(42);
        let root = ctx.span(&REACTOR, None);
        let mid = ctx.span(&QUEUE, root.id());
        let leaf = ctx.span(&ENGINE_SIMPLIFY, mid.id());
        leaf.finish();
        mid.finish();
        let sibling = ctx.span(&ROUTER, root.id());
        sibling.finish();
        root.finish();
        let store = TraceStore::new(2);
        ctx.set_sink(&store);
        drop(ctx);
        let json = store
            .with_spans(42, |spans| render_tree(TraceId(42), spans))
            .unwrap();
        assert!(json.starts_with("{\"trace_id\":42,\"spans\":["));
        // reactor is the only root; queue and router nest under it;
        // engine nests under queue.
        let reactor_at = json.find("\"name\":\"reactor\"").unwrap();
        let queue_at = json.find("\"name\":\"queue\"").unwrap();
        let engine_at = json.find("\"name\":\"engine.simplify\"").unwrap();
        assert!(reactor_at < queue_at && queue_at < engine_at);
        assert_eq!(json.matches("\"children\":[]").count(), 2, "two leaves");
        // Cheap well-formedness: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn handles_thread_parents_through_layers() {
        let ctx = TraceContext::new(5);
        let h = TraceHandle::root(ctx.clone());
        let outer = h.span(&OUTER);
        let h2 = h.child_of(&outer);
        let inner = h2.span(&INNER);
        inner.finish();
        outer.finish();
        let store = TraceStore::new(2);
        ctx.set_sink(&store);
        drop((h, h2, ctx));
        let spans = store.with_spans(5, <[SpanRecord]>::to_vec).unwrap();
        let outer_rec = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner_rec = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer_rec.parent, None);
        assert_eq!(inner_rec.parent, Some(outer_rec.id));
    }
}
