//! The serving core: admission control, worker threads, response cache,
//! and graceful shutdown. The TCP front end is the reactor
//! ([`Service::listen_reactor`]).
//!
//! A request's life: `submit` stamps it, counts it as **accepted**, and
//! either answers from the cache (**completed**), sheds it when the
//! bounded queue is full (**shed**, a retriable `Overloaded` — the
//! load-shedding design choice documented in DESIGN.md), or queues it.
//! A worker pops one job, runs its handler on its own thread, and replies
//! through the job's callback. The workers are the service's only
//! source of concurrency: no handler hands work to another thread.
//!
//! The conservation law `accepted == completed + shed + in_flight` holds
//! at every instant, and `in_flight == 0` after [`Service::shutdown`]
//! drains — provable from one telemetry snapshot delta, which is exactly
//! how `exp_service --smoke` and the coherence proptests check it.

use crate::cache::{CacheStats, ResponseCache};
use crate::queue::BoundedQueue;
use crate::reactor::{Reactor, ReactorConfig, ReactorHandle, ReplyFn, SubmitRequest};
use crate::request::{KindRow, Request, Response};
use gp_telemetry::flight::{self, FlightKind};
use gp_telemetry::trace::{SpanId, TraceContext, TraceHandle, TraceStore};
use gp_telemetry::{Counter, Gauge, Span, SpanName};
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for one [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bounded queue capacity; arrivals beyond it are shed.
    pub queue_depth: usize,
    /// Whether the response cache answers repeat requests.
    pub cache_enabled: bool,
    /// Mutex stripes in the cache.
    pub cache_shards: usize,
    /// Total cache entries across stripes.
    pub cache_capacity: usize,
    /// Telemetry prefix for the response cache's counters. `None` means
    /// the process-wide `service.cache`; a shard router labels each
    /// shard's cache `service.shard.<i>.cache` so partitioning is
    /// observable per shard.
    pub cache_label: Option<String>,
    /// Completed traces this shard's bounded trace store retains for
    /// `trace` queries (oldest evicted beyond it).
    pub trace_capacity: usize,
    /// Artificial per-request handler delay — the load generator's knob for
    /// making overload reproducible; `None` in production paths.
    pub handler_delay: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_depth: 64,
            cache_enabled: true,
            cache_shards: 8,
            cache_capacity: 512,
            cache_label: None,
            trace_capacity: 256,
            handler_delay: None,
        }
    }
}

/// Counter snapshot for one service instance (telemetry counters
/// aggregate the same events process-wide).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Requests that entered `submit` (sheds included).
    pub accepted: u64,
    /// Requests answered with `Ok`/`Error` (cache hits included).
    pub completed: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Always 0: the serving core runs every request on its own. Kept
    /// only because the serving benchmark (`perfbench`) still reads it.
    pub batched: u64,
    /// Cache counters (all zero when the cache is disabled).
    pub cache: CacheStats,
}

impl ServiceStats {
    /// `accepted - completed - shed`: zero at quiescence, and provably
    /// zero after a drained shutdown.
    pub fn in_flight(&self) -> i64 {
        self.accepted as i64 - self.completed as i64 - self.shed as i64
    }
}

/// One queued request plus everything needed to answer it. The reply is
/// a one-shot callback: a [`Ticket`] hands it an `mpsc` sender and waits
/// on the other end, the reactor hands it a completion push + wakeup —
/// the serving core cannot tell the difference.
struct Job {
    request: Request,
    canonical: String,
    hash: u64,
    reply: ReplyFn,
    /// When `submit` admitted the request: latency samples start here.
    admitted: Instant,
    /// Trace state riding with a sampled request (None = untraced).
    trace: Option<JobTrace>,
}

/// The per-job slice of a sampled trace: the shared context, the open
/// `queue` span (dropped when a worker picks the job up, so it measures
/// queued wait), and that span's id for parenting the `worker` span.
struct JobTrace {
    ctx: TraceContext,
    queue_id: Option<SpanId>,
    queue_span: Option<Span>,
}

/// A pending response; `wait` blocks until the worker replies.
pub struct Ticket {
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Submit `request` to `sink` with a reply that resolves the ticket.
    pub fn submit(
        sink: &dyn SubmitRequest,
        request: Request,
        trace: Option<TraceHandle>,
    ) -> Ticket {
        let (tx, rx) = mpsc::channel();
        sink.submit(request, None, trace, Box::new(move |r| drop(tx.send(r))));
        Ticket { rx }
    }

    /// Block for the response. A service that dropped the job without
    /// replying (cannot happen through public paths) reads as an error.
    pub fn wait(self) -> Response {
        self.rx.recv().unwrap_or(Response::Error {
            message: "service dropped the request without replying".into(),
        })
    }
}

struct ServiceInner {
    config: ServiceConfig,
    queue: BoundedQueue<Job>,
    cache: Option<ResponseCache>,
    trace_store: Arc<TraceStore>,
    accepting: AtomicBool,
    accepted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
}

/// The serving core's own instruments, resolved once per process.
struct ServiceMetrics {
    accepted: &'static Counter,
    completed: &'static Counter,
    shed: &'static Counter,
    queue_depth: &'static Gauge,
}

fn service_metrics() -> &'static ServiceMetrics {
    static METRICS: OnceLock<ServiceMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ServiceMetrics {
        accepted: gp_telemetry::counter("service.accepted"),
        completed: gp_telemetry::counter("service.completed"),
        shed: gp_telemetry::counter("service.shed"),
        queue_depth: gp_telemetry::gauge("service.queue.depth"),
    })
}

static CACHE_SPAN: SpanName = SpanName::new("cache");
static QUEUE_SPAN: SpanName = SpanName::new("queue");
static WORKER_SPAN: SpanName = SpanName::new("worker");

impl ServiceInner {
    fn shed_one(&self, kind: &KindRow, reply: ReplyFn) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        service_metrics().shed.incr();
        flight::record(FlightKind::Shed, kind.code, 0);
        reply(Response::Overloaded);
    }

    /// Count a completion and record its latency since `admitted`.
    fn complete_one(&self, kind: &KindRow, admitted: Instant) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        service_metrics().completed.incr();
        kind.instruments()
            .latency
            .record(admitted.elapsed().as_nanos() as u64);
    }

    /// Answer one job from a handler result: render, cache, count, reply.
    fn finish(&self, mut job: Job, result: Result<gp_core::json::Json, String>) {
        let response = match result {
            Ok(json) => {
                let payload = json.render();
                if let Some(cache) = &self.cache {
                    cache.put(job.hash, job.canonical, &payload);
                }
                Response::Ok { payload }
            }
            Err(message) => Response::Error { message },
        };
        self.complete_one(job.request.row(), job.admitted);
        // Drop the job's trace handle before replying: if these are the
        // last live clones the trace publishes here, strictly before the
        // response can reach a client — so a `trace` query issued after
        // the response always finds the completed trace.
        drop(job.trace.take());
        (job.reply)(response);
    }

    /// Run one popped job's handler and answer it.
    fn execute(&self, mut job: Job) {
        if let Some(delay) = self.config.handler_delay {
            thread::sleep(delay);
        }
        // A traced job: close its `queue` span (measuring queued wait)
        // and open `worker` → `engine.<kind>` spans here, on the shard
        // worker — the explicit parent ids are what keep the tree intact
        // across the hop from the submitting thread.
        let stage_spans = job.trace.as_mut().map(|t| {
            t.queue_span.take();
            let worker = t.ctx.span(&WORKER_SPAN, t.queue_id);
            let engine = t
                .ctx
                .span(&job.request.row().instruments().engine, worker.id());
            (worker, engine)
        });
        let _span = Span::enter(&job.request.row().instruments().handler);
        let result = catch_unwind(AssertUnwindSafe(|| job.request.handle()))
            .unwrap_or_else(|_| Err("handler panicked".into()));
        drop(stage_spans); // engine/worker spans end with the handler
        self.finish(job, result);
    }

    /// Worker loop: pop one job and run it here, so worker count bounds
    /// service concurrency and shutdown-join implies no in-flight work.
    fn worker_loop(&self) {
        while let Some(job) = self.queue.pop() {
            service_metrics().queue_depth.sub(1);
            flight::record(
                FlightKind::Dequeue,
                job.request.row().code,
                job.admitted.elapsed().as_micros() as u64,
            );
            self.execute(job);
        }
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            batched: 0,
            cache: self
                .cache
                .as_ref()
                .map(ResponseCache::stats)
                .unwrap_or_default(),
        }
    }
}

impl SubmitRequest for ServiceInner {
    /// The one submission path: admission control, cache, queue. `reply`
    /// is invoked exactly once — synchronously for sheds, cache hits, and
    /// inline kinds, from a worker otherwise. `canonical` is the
    /// request's canonical form if the caller rendered it already; it is
    /// rendered here otherwise, and then moves into the job and the cache
    /// without another copy.
    fn submit(
        &self,
        request: Request,
        canonical: Option<String>,
        mut trace: Option<TraceHandle>,
        reply: ReplyFn,
    ) {
        // Every latency sample runs from here: admission to reply, on
        // the inline, cache-hit and queued paths alike.
        let admitted = Instant::now();
        let kind = request.row();
        self.accepted.fetch_add(1, Ordering::Relaxed);
        service_metrics().accepted.incr();
        kind.instruments().requests.incr();

        // Inline kinds answer even while draining — the whole point of
        // introspection is inspecting a server that is misbehaving.
        if let Some(result) = request.answer_inline(&self.trace_store) {
            drop(trace);
            self.complete_one(kind, admitted);
            reply(match result {
                Ok(json) => Response::Ok {
                    payload: json.render(),
                },
                Err(message) => Response::Error { message },
            });
            return;
        }

        if !self.accepting.load(Ordering::Acquire) {
            drop(trace);
            self.shed_one(kind, reply);
            return;
        }
        let canonical = canonical.unwrap_or_else(|| request.canonical());
        let hash = gp_core::hash::fnv1a_bytes(&canonical);
        if let Some(cache) = &self.cache {
            if let Some(payload) = cache.get(hash, &canonical) {
                flight::record(FlightKind::CacheHit, kind.code, hash & 0xffff_ffff);
                if let Some(t) = trace.take() {
                    // The hit never reaches a queue; a lone `cache` span
                    // under the caller's parent is the whole story. Drop
                    // the handle before replying so the trace publishes
                    // strictly before the response can be observed.
                    t.ctx.set_sink(&self.trace_store);
                    t.span(&CACHE_SPAN).finish();
                }
                self.complete_one(kind, admitted);
                reply(Response::Ok { payload });
                return;
            }
            flight::record(FlightKind::CacheMiss, kind.code, hash & 0xffff_ffff);
        }
        let job_trace = trace.take().map(|t| {
            // The executing shard owns the completed trace (first claim
            // wins, so a failover retry landing elsewhere re-claims).
            t.ctx.set_sink(&self.trace_store);
            let queue_span = t.span(&QUEUE_SPAN);
            JobTrace {
                queue_id: queue_span.id(),
                ctx: t.ctx,
                queue_span: Some(queue_span),
            }
        });
        let job = Job {
            request,
            canonical,
            hash,
            reply,
            admitted,
            trace: job_trace,
        };
        match self.queue.try_push(job) {
            Ok(()) => {
                service_metrics().queue_depth.add(1);
                flight::record(FlightKind::Enqueue, kind.code, self.queue.len() as u64);
            }
            Err(mut job) => {
                // Drop the trace (publishing the partial trace: the queue
                // span never opened past this point) before replying.
                drop(job.trace.take());
                self.shed_one(kind, job.reply);
            }
        }
    }
}

/// The concept-query server. Construct with [`Service::start`], query
/// in-process with [`Service::call`] (or [`Service::submit`] for
/// pipelining), optionally expose over TCP with
/// [`Service::listen_reactor`], and stop with [`Service::shutdown`].
pub struct Service {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
    reactor: Option<ReactorHandle>,
}

impl Service {
    /// Start workers and (optionally) the cache.
    pub fn start(config: ServiceConfig) -> Service {
        let cache = config.cache_enabled.then(|| {
            ResponseCache::with_label(
                config.cache_shards,
                config.cache_capacity,
                config.cache_label.as_deref().unwrap_or("service.cache"),
            )
        });
        let inner = Arc::new(ServiceInner {
            queue: BoundedQueue::new(config.queue_depth),
            cache,
            trace_store: TraceStore::new(config.trace_capacity),
            accepting: AtomicBool::new(true),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            config,
        });
        let workers = (0..inner.config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                #[allow(clippy::expect_used, reason = "start-up only, as thread::spawn")]
                thread::Builder::new()
                    .name(format!("gp-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn a shard worker")
            })
            .collect();
        Service {
            inner,
            workers,
            reactor: None,
        }
    }

    /// This service as a request sink for a [`Reactor`], a shard router,
    /// or any other front end.
    pub fn submitter(&self) -> Arc<dyn SubmitRequest> {
        Arc::clone(&self.inner) as Arc<dyn SubmitRequest>
    }

    /// Submit without waiting; the [`Ticket`] resolves to the response.
    pub fn submit(&self, request: Request) -> Ticket {
        self.submit_traced(request, None)
    }

    /// Submit carrying a trace handle: the service opens `queue` →
    /// `worker` → `engine.<kind>` spans under the handle's parent and
    /// publishes the completed trace to this shard's store. `None`
    /// behaves exactly like [`Service::submit`].
    pub fn submit_traced(&self, request: Request, trace: Option<TraceHandle>) -> Ticket {
        Ticket::submit(&*self.inner, request, trace)
    }

    /// This shard's bounded store of completed traces (what `trace`
    /// queries read).
    pub fn trace_store(&self) -> Arc<TraceStore> {
        Arc::clone(&self.inner.trace_store)
    }

    /// The in-process client: submit and block for the answer — same
    /// admission control, cache, and workers as the socket path, minus
    /// the socket.
    pub fn call(&self, request: Request) -> Response {
        self.submit(request).wait()
    }

    /// Serve TCP on `addr` with the readiness-polled reactor front end
    /// (Linux): one event-loop thread multiplexing every connection,
    /// incremental frame decoding, request pipelining with in-order
    /// response delivery, and per-connection write backpressure. The
    /// serving core behind it — admission control, cache, workers — is
    /// the one [`Service::call`] uses, so responses are byte-identical
    /// between the two paths. Use port 0 for an ephemeral port; returns
    /// the bound address.
    pub fn listen_reactor(&mut self, addr: &str, config: ReactorConfig) -> io::Result<SocketAddr> {
        let handle = Reactor::start(addr, self.submitter(), config)?;
        let local = handle.local_addr();
        self.reactor = Some(handle);
        Ok(local)
    }

    /// This instance's counters (telemetry carries the same events
    /// process-wide).
    pub fn stats(&self) -> ServiceStats {
        self.inner.stats()
    }

    /// Graceful shutdown: refuse new work, stop the reactor, drain every
    /// admitted job, join the workers. On return `in_flight == 0` and the
    /// conservation law has collapsed to `accepted == completed + shed`.
    pub fn shutdown(&mut self) -> ServiceStats {
        if self.inner.accepting.swap(false, Ordering::Release) {
            // First shutdown call: the black box records that a drain
            // began, with the admission count so far.
            flight::record(
                FlightKind::Drain,
                self.inner.accepted.load(Ordering::Relaxed),
                self.inner.queue.len() as u64,
            );
        }
        if let Some(mut reactor) = self.reactor.take() {
            reactor.shutdown();
        }
        self.inner.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.inner.stats()
    }

    /// [`Service::shutdown`], then dump the process-wide flight recorder
    /// — the drained server's black box, with the `drain` event and the
    /// enqueue/dequeue history leading up to it.
    pub fn shutdown_with_dump(&mut self) -> (ServiceStats, String) {
        let stats = self.shutdown();
        (stats, flight::dump_json())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::LintRequest;
    use crate::wire::{read_frame, write_frame, TcpClient};
    use gp_core::json::Json;
    use std::net::TcpStream;

    /// Sample `salt` of the `k`-th kind in table order, skipping `trace`
    /// (its lookups fail for an id no test traced).
    fn sample(k: usize, salt: usize) -> Request {
        let mut kinds = Request::samples(salt);
        kinds.retain(|r| !matches!(r, Request::Trace(_)));
        kinds.swap_remove(k)
    }

    #[test]
    fn every_kind_answers_in_process_and_conservation_holds() {
        let mut svc = Service::start(ServiceConfig::default());
        for kind in 0..6 {
            match svc.call(sample(kind, kind)) {
                Response::Ok { payload } => {
                    Json::parse(&payload).expect("payload is valid JSON");
                }
                other => panic!("kind {kind} answered {other:?}"),
            }
        }
        let stats = svc.shutdown();
        assert_eq!(stats.accepted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.in_flight(), 0);
    }

    #[test]
    fn repeat_requests_hit_the_cache_with_identical_bytes() {
        let mut svc = Service::start(ServiceConfig::default());
        let req = sample(2, 0);
        let first = match svc.call(req.clone()) {
            Response::Ok { payload } => payload,
            other => panic!("{other:?}"),
        };
        let second = match svc.call(req) {
            Response::Ok { payload } => payload,
            other => panic!("{other:?}"),
        };
        assert_eq!(first, second, "cached response must be byte-identical");
        let stats = svc.shutdown();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.completed, 2, "a cache hit still completes");
    }

    #[test]
    fn handler_errors_are_responses_not_cache_entries() {
        let mut svc = Service::start(ServiceConfig::default());
        let bad = Request::Lint(LintRequest {
            name: "bad".into(),
            program: "container x vectorr\n".into(),
        });
        for _ in 0..2 {
            match svc.call(bad.clone()) {
                Response::Error { message } => assert!(message.starts_with("parse:")),
                other => panic!("{other:?}"),
            }
        }
        let stats = svc.shutdown();
        assert_eq!(stats.cache.hits, 0, "errors are never cached");
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn overload_sheds_with_overloaded_not_collapse() {
        let mut svc = Service::start(ServiceConfig {
            workers: 1,
            queue_depth: 1,
            cache_enabled: false,
            handler_delay: Some(Duration::from_millis(20)),
            ..ServiceConfig::default()
        });
        // Distinct lint requests flood a 1-deep queue.
        let tickets: Vec<Ticket> = (0..32).map(|i| svc.submit(sample(0, i))).collect();
        let responses: Vec<Response> = tickets.into_iter().map(Ticket::wait).collect();
        let sheds = responses
            .iter()
            .filter(|r| matches!(r, Response::Overloaded))
            .count();
        let served = responses
            .iter()
            .filter(|r| matches!(r, Response::Ok { .. }))
            .count();
        assert!(sheds > 0, "a 1-deep queue under flood must shed");
        assert!(served > 0, "shedding must not starve admitted work");
        let stats = svc.shutdown();
        assert_eq!(stats.accepted, 32);
        assert_eq!(stats.shed as usize, sheds);
        assert_eq!(stats.completed as usize, served);
        assert_eq!(stats.in_flight(), 0);
    }

    #[test]
    fn shutdown_drains_admitted_work_before_returning() {
        let mut svc = Service::start(ServiceConfig {
            workers: 2,
            queue_depth: 64,
            cache_enabled: false,
            handler_delay: Some(Duration::from_millis(5)),
            ..ServiceConfig::default()
        });
        let tickets: Vec<Ticket> = (0..12).map(|i| svc.submit(sample(i % 4, i))).collect();
        let stats = svc.shutdown();
        assert_eq!(stats.in_flight(), 0, "shutdown drained: {stats:?}");
        for t in tickets {
            assert!(
                matches!(t.wait(), Response::Ok { .. }),
                "admitted work is finished, not dropped"
            );
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn tcp_round_trip_and_malformed_frames() {
        let mut svc = Service::start(ServiceConfig::default());
        let addr = svc
            .listen_reactor("127.0.0.1:0", ReactorConfig::default())
            .unwrap();
        let mut client = TcpClient::connect(addr).unwrap();
        for kind in 0..6 {
            match client.call(&sample(kind, kind)).unwrap() {
                Response::Ok { payload } => {
                    Json::parse(&payload).expect("payload is valid JSON");
                }
                other => panic!("kind {kind} answered {other:?}"),
            }
        }
        // A malformed frame gets an error reply (id 0), not a hangup.
        let mut raw = TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, "this is not a request").unwrap();
        let reply = read_frame(&mut raw).unwrap().unwrap();
        let j = Json::parse(&reply).unwrap();
        assert_eq!(j.get("status").and_then(Json::as_str), Some("error"));
        drop(raw);
        let stats = svc.shutdown();
        assert_eq!(stats.in_flight(), 0);
    }
}
