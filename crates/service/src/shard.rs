//! The consistent-hash shard router: N [`Service`] instances, each
//! owning a true partition of the response cache.
//!
//! One big service instance shares one cache and one queue between all
//! workers; under heavy load the cache stripes and the queue lock
//! contend. The router splits the tier into `shards` independent
//! `Service` instances and routes each request by a **routing key**
//! hashed onto a consistent ring ([`HashRing`], `vnodes` virtual nodes
//! per shard so a shard's arc is spread across the key space and
//! adding/removing a shard moves only `1/n` of the keys). Every kind
//! routes by the hash of its **canonical form** (the cache key),
//! spreading load uniformly — except a `trace` query, which goes to the
//! shard whose store holds the trace.
//!
//! Each kind states its policy as a [`Route`]; the router has no
//! per-kind code.
//!
//! The map from canonical form to shard is deterministic, so
//! the per-shard caches partition the key space with zero cross-shard
//! duplication: `service.shard.<i>.cache.{hit,miss}` counters make the
//! partition observable, and the E14 experiment checks that the union of
//! shard caches holds each key at most once.

use crate::reactor::{Reactor, ReactorConfig, ReactorHandle, ReplyFn, SubmitRequest};
use crate::request::{Request, Response, Route};
use crate::server::{Service, ServiceConfig, ServiceStats, Ticket};
use gp_core::hash::hash_str;
use gp_telemetry::trace::{TraceHandle, TraceStore};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Span over a traced request's routing decision and shard hand-off.
static ROUTER_SPAN: gp_telemetry::SpanName = gp_telemetry::SpanName::new("router");

/// A consistent-hash ring over shard indices.
///
/// Points are `(hash, shard)` pairs sorted by hash; a key routes to the
/// first point clockwise from its own hash. With `vnodes` points per
/// shard the expected fraction of keys moved by adding or removing one
/// shard is `1/n`, not the `(n-1)/n` a modulo hash pays.
pub struct HashRing {
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// A ring of `shards` shards with `vnodes` virtual nodes each.
    pub fn new(shards: usize, vnodes: usize) -> Self {
        let mut points: Vec<(u64, u32)> = (0..shards.max(1))
            .flat_map(|s| {
                (0..vnodes.max(1))
                    .map(move |v| (hash_str(&format!("shard-{s}-vnode-{v}")), s as u32))
            })
            .collect();
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        HashRing { points }
    }

    /// The shard owning `key`.
    pub fn route(&self, key: u64) -> usize {
        let idx = self.points.partition_point(|&(h, _)| h < key);
        let (_, shard) = self.points[idx % self.points.len()];
        shard as usize
    }

    /// The first *eligible* shard clockwise from `key`: a dead shard's
    /// vnode ranges fall through to the next live point on the ring, so a
    /// failover moves only the dead shard's arcs — exactly the property
    /// consistent hashing buys. Falls back to plain [`route`](Self::route)
    /// if no point is eligible.
    pub fn route_where(&self, key: u64, eligible: impl Fn(usize) -> bool) -> usize {
        let start = self.points.partition_point(|&(h, _)| h < key);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if eligible(shard as usize) {
                return shard as usize;
            }
        }
        self.route(key)
    }

    /// Number of ring points owned by `shard` — the vnode ranges that move
    /// when the shard dies.
    pub fn points_of(&self, shard: usize) -> usize {
        self.points
            .iter()
            .filter(|&&(_, s)| s as usize == shard)
            .count()
    }

    /// Number of virtual-node points on the ring.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Rings are never empty (shards and vnodes are clamped to ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Tuning for a [`ShardRouter`].
#[derive(Clone, Debug)]
pub struct ShardRouterConfig {
    /// Independent `Service` instances.
    pub shards: usize,
    /// Virtual nodes per shard on the ring.
    pub vnodes: usize,
    /// Per-shard service configuration (the router overrides each
    /// shard's `cache_label` with `service.shard.<i>.cache`).
    pub base: ServiceConfig,
}

impl Default for ShardRouterConfig {
    fn default() -> Self {
        ShardRouterConfig {
            shards: 2,
            vnodes: 64,
            base: ServiceConfig::default(),
        }
    }
}

/// The control plane's hook into the routing table: whoever is elected
/// leader calls [`mark_dead`](FailoverTarget::mark_dead) to re-route a
/// crashed shard's vnode ranges to survivors. Implemented by the router's
/// shared inner state so reactors and control-plane nodes see one table.
pub trait FailoverTarget: Send + Sync {
    /// Take `shard` out of the routing table; its vnode ranges fall
    /// through to the next live shards clockwise. Returns the number of
    /// ring points reassigned — 0 if the shard was already dead, and 0
    /// (refusing the operation) if it is the last live shard.
    fn mark_dead(&self, shard: usize) -> usize;

    /// Bitmask of live shards (bit `i` set = shard `i` routable).
    fn alive_mask(&self) -> u64;
}

/// The routing state shared with reactors and the control plane: ring,
/// per-shard submitters, and the live-shard mask.
struct RouterInner {
    ring: HashRing,
    submitters: Vec<Arc<dyn SubmitRequest>>,
    /// Each shard's completed-trace store, in shard order: a `trace`
    /// query must probe all of them, because the trace lives on whichever
    /// shard *executed* the original request.
    trace_stores: Vec<Arc<TraceStore>>,
    /// Bit `i` set = shard `i` is routable. The mask caps the tier at 64
    /// shards, enforced in [`ShardRouter::start`].
    alive: AtomicU64,
}

impl RouterInner {
    /// Route among live shards only.
    fn route(&self, key: u64) -> usize {
        let alive = self.alive.load(Ordering::Acquire);
        self.ring.route_where(key, |s| alive & (1 << s) != 0)
    }

    /// The shard that should answer `request`, by its kind's [`Route`].
    /// Every key is a function of the canonical form, so the cache
    /// partition is deterministic. A canonical form rendered here is left
    /// in `canonical` for the shard to key its cache with, so a request
    /// is rendered once.
    fn shard_for(&self, request: &Request, canonical: &mut Option<String>) -> usize {
        if let Route::Trace(id) = request.route() {
            if let Some(shard) = self.trace_stores.iter().position(|s| s.contains(id)) {
                return shard;
            }
            // No store holds it: the routed shard reports not-found.
        }
        self.route(hash_str(
            canonical.get_or_insert_with(|| request.canonical()),
        ))
    }
}

impl FailoverTarget for RouterInner {
    fn mark_dead(&self, shard: usize) -> usize {
        let bit = 1u64 << shard;
        let mut cur = self.alive.load(Ordering::Acquire);
        loop {
            if cur & bit == 0 {
                return 0; // already dead: assignment floods are idempotent
            }
            let next = cur & !bit;
            if next == 0 {
                return 0; // never un-route the last live shard
            }
            match self
                .alive
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return self.ring.points_of(shard),
                Err(seen) => cur = seen,
            }
        }
    }

    fn alive_mask(&self) -> u64 {
        self.alive.load(Ordering::Acquire)
    }
}

impl SubmitRequest for RouterInner {
    fn submit(
        &self,
        request: Request,
        mut canonical: Option<String>,
        trace: Option<TraceHandle>,
        reply: ReplyFn,
    ) {
        let shard = self.shard_for(&request, &mut canonical);
        // The `router` span brackets the routing decision and the
        // hand-off into the shard's admission path; the shard's spans
        // parent under it.
        let span = trace.as_ref().map(|h| h.span(&ROUTER_SPAN));
        let child = trace.zip(span.as_ref()).map(|(h, span)| h.child_of(span));
        self.submitters[shard].submit(request, canonical, child, reply);
        drop(span);
    }
}

/// A fleet of [`Service`] shards behind one consistent-hash front door.
pub struct ShardRouter {
    services: Vec<Service>,
    inner: Arc<RouterInner>,
    reactor: Option<ReactorHandle>,
}

impl ShardRouter {
    /// Start `config.shards` service instances, each with its own
    /// workers, queue, and cache partition.
    pub fn start(config: ShardRouterConfig) -> ShardRouter {
        assert!(
            config.shards <= 64,
            "the live-shard mask supports at most 64 shards"
        );
        let services: Vec<Service> = (0..config.shards.max(1))
            .map(|i| {
                Service::start(ServiceConfig {
                    cache_label: Some(format!("service.shard.{i}.cache")),
                    ..config.base.clone()
                })
            })
            .collect();
        let inner = Arc::new(RouterInner {
            ring: HashRing::new(services.len(), config.vnodes),
            submitters: services.iter().map(Service::submitter).collect(),
            trace_stores: services.iter().map(Service::trace_store).collect(),
            alive: AtomicU64::new(if services.len() == 64 {
                u64::MAX
            } else {
                (1u64 << services.len()) - 1
            }),
        });
        ShardRouter {
            services,
            inner,
            reactor: None,
        }
    }

    /// Which shard `request` routes to (stable for its canonical form
    /// while the live-shard set is stable; a failover re-routes only the
    /// dead shard's vnode ranges). A `trace` query routes to the shard
    /// whose store holds the trace.
    pub fn shard_of(&self, request: &Request) -> usize {
        self.inner.shard_for(request, &mut None)
    }

    /// Submit without waiting; the [`Ticket`] resolves to the response.
    pub fn submit(&self, request: Request) -> Ticket {
        self.submit_traced(request, None)
    }

    /// Submit carrying a trace handle: the router opens a `router` span
    /// and the chosen shard's spans nest under it.
    pub fn submit_traced(&self, request: Request, trace: Option<TraceHandle>) -> Ticket {
        Ticket::submit(&*self.inner, request, trace)
    }

    /// Route, submit, and block for the answer.
    pub fn call(&self, request: Request) -> Response {
        self.submit(request).wait()
    }

    /// This router as a reactor request sink.
    pub fn submitter(&self) -> Arc<dyn SubmitRequest> {
        Arc::clone(&self.inner) as Arc<dyn SubmitRequest>
    }

    /// This router's assignment table as a control-plane hook: the
    /// elected leader re-routes a dead shard's vnodes through it.
    pub fn failover_target(&self) -> Arc<dyn FailoverTarget> {
        Arc::clone(&self.inner) as Arc<dyn FailoverTarget>
    }

    /// Crash-stop shard `i` *without touching the routing table*: the
    /// shard drains and joins, and until the control plane detects the
    /// death and re-floods the assignment, requests routed to it shed as
    /// retriable [`Response::Overloaded`] — the real detection window.
    /// Returns the dead shard's final stats (its conservation law holds:
    /// `accepted = completed + shed`).
    ///
    /// [`Response::Overloaded`]: crate::request::Response::Overloaded
    pub fn kill_shard(&mut self, i: usize) -> ServiceStats {
        self.services[i].shutdown()
    }

    /// Serve the whole fleet over one reactor front end on `addr`.
    pub fn listen_reactor(&mut self, addr: &str, config: ReactorConfig) -> io::Result<SocketAddr> {
        let handle = Reactor::start(addr, self.submitter(), config)?;
        let local = handle.local_addr();
        self.reactor = Some(handle);
        Ok(local)
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.services.len()
    }

    /// Per-shard counter snapshots.
    pub fn stats(&self) -> Vec<ServiceStats> {
        self.services.iter().map(Service::stats).collect()
    }

    /// Fleet-wide totals (sum over shards).
    pub fn aggregate_stats(&self) -> ServiceStats {
        let mut total = ServiceStats::default();
        for s in self.stats() {
            total.accepted += s.accepted;
            total.completed += s.completed;
            total.shed += s.shed;
            total.cache.hits += s.cache.hits;
            total.cache.misses += s.cache.misses;
            total.cache.evictions += s.cache.evictions;
        }
        total
    }

    /// Stop the reactor (if any), then drain and join every shard.
    /// Returns per-shard stats; the conservation law holds per shard and
    /// therefore in aggregate.
    pub fn shutdown(&mut self) -> Vec<ServiceStats> {
        if let Some(mut reactor) = self.reactor.take() {
            reactor.shutdown();
        }
        self.services.iter_mut().map(Service::shutdown).collect()
    }
}

impl Drop for ShardRouter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prove::ProveRequest;
    use crate::request::RequestKind;
    use crate::simplify::SimplifyRequest;
    use gp_core::json::Json;

    fn simplify_req(i: usize) -> Request {
        Request::Simplify(SimplifyRequest::sample(i))
    }

    fn prove_req(i: usize) -> Request {
        Request::Prove(ProveRequest::sample(i))
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let ring = HashRing::new(4, 64);
        assert_eq!(ring.len(), 4 * 64);
        let mut hit = [false; 4];
        for k in 0..10_000u64 {
            let s = ring.route(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            assert_eq!(s, ring.route(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            hit[s] = true;
        }
        assert!(hit.iter().all(|h| *h), "64 vnodes reach every shard");
    }

    /// Fraction of the 64-bit key space each shard owns: a point owns
    /// the arc from its predecessor (exclusive) up to itself, and the
    /// first point also owns the wrap-around arc.
    fn ring_shares(ring: &HashRing, shards: usize) -> Vec<f64> {
        let mut shares = vec![0.0; shards];
        let last = ring.points.last().expect("rings are never empty").0;
        let mut prev = last;
        for &(h, s) in &ring.points {
            shares[s as usize] += h.wrapping_sub(prev) as f64 / 2f64.powi(64);
            prev = h;
        }
        shares
    }

    #[test]
    fn every_shard_owns_a_fair_share_of_the_ring() {
        for n in (2..=16).chain([64]) {
            let shares = ring_shares(&HashRing::new(n, 64), n);
            assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for (s, &share) in shares.iter().enumerate() {
                let fair = 1.0 / n as f64;
                assert!(
                    (0.5 * fair..=2.0 * fair).contains(&share),
                    "n={n}: shard {s} owns {:.3}x its fair share",
                    share / fair
                );
            }
        }
    }

    #[test]
    fn adding_a_shard_moves_a_minority_of_keys() {
        let before = HashRing::new(4, 64);
        let after = HashRing::new(5, 64);
        let keys = 10_000u64;
        let moved = (0..keys)
            .filter(|k| {
                let h = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                before.route(h) != after.route(h)
            })
            .count();
        // Ideal is 1/5 = 20%; allow slack for hash unevenness. A modulo
        // hash would move ~80%.
        assert!(
            moved < keys as usize * 2 / 5,
            "only a minority of keys move: {moved}/{keys}"
        );
    }

    #[test]
    fn distinct_standard_env_simplify_requests_reach_every_shard() {
        let router = ShardRouter::start(ShardRouterConfig {
            shards: 4,
            ..ShardRouterConfig::default()
        });
        let mut hit = [false; 4];
        for i in 0..64 {
            hit[router.shard_of(&simplify_req(i))] = true;
        }
        assert!(
            hit.iter().all(|h| *h),
            "simplify routes by canonical form, so one environment spreads: {hit:?}"
        );
    }

    #[test]
    fn routing_is_stable_so_caches_partition() {
        let mut router = ShardRouter::start(ShardRouterConfig {
            shards: 3,
            ..ShardRouterConfig::default()
        });
        // A mixed stream: each distinct request repeats; the repeat must
        // hit the same shard's cache.
        let reqs: Vec<Request> = (0..6).map(prove_req).collect();
        let mut first = Vec::new();
        for r in &reqs {
            match router.call(r.clone()) {
                Response::Ok { payload } => first.push(payload),
                other => panic!("{other:?}"),
            }
        }
        for (r, f) in reqs.iter().zip(&first) {
            match router.call(r.clone()) {
                Response::Ok { payload } => {
                    assert_eq!(&payload, f, "repeat answered byte-identically")
                }
                other => panic!("{other:?}"),
            }
        }
        let stats = router.shutdown();
        let hits: u64 = stats.iter().map(|s| s.cache.hits).sum();
        assert_eq!(hits, reqs.len() as u64, "every repeat was a cache hit");
        let total: u64 = stats.iter().map(|s| s.accepted).sum();
        assert_eq!(total, 2 * reqs.len() as u64);
        for s in &stats {
            assert_eq!(s.in_flight(), 0, "each shard drained: {s:?}");
        }
    }

    #[test]
    fn failover_moves_only_the_dead_shards_keys() {
        let router = ShardRouter::start(ShardRouterConfig {
            shards: 3,
            ..ShardRouterConfig::default()
        });
        let reqs: Vec<Request> = (0..64).map(prove_req).collect();
        let before: Vec<usize> = reqs.iter().map(|r| router.shard_of(r)).collect();
        assert!(
            (0..3).all(|s| before.contains(&s)),
            "64 keys reach all 3 shards"
        );

        let target = router.failover_target();
        let dead = before[0];
        let moved = target.mark_dead(dead);
        assert!(moved > 0, "vnode points were reassigned");
        assert_eq!(target.mark_dead(dead), 0, "idempotent: already dead");
        assert_eq!(target.alive_mask().count_ones(), 2);

        for (r, &was) in reqs.iter().zip(&before) {
            let now = router.shard_of(r);
            assert_ne!(now, dead, "nothing routes to the dead shard");
            if was != dead {
                assert_eq!(now, was, "live shards keep their keys");
            }
        }
    }

    #[test]
    fn the_last_live_shard_cannot_be_marked_dead() {
        let router = ShardRouter::start(ShardRouterConfig {
            shards: 2,
            ..ShardRouterConfig::default()
        });
        let target = router.failover_target();
        assert!(target.mark_dead(0) > 0);
        assert_eq!(target.mark_dead(1), 0, "refused: last live shard");
        assert_eq!(target.alive_mask(), 0b10);
        assert_eq!(router.shard_of(&prove_req(3)), 1);
    }

    #[test]
    fn killed_shard_sheds_retriably_then_failover_restores_service() {
        let mut router = ShardRouter::start(ShardRouterConfig {
            shards: 2,
            ..ShardRouterConfig::default()
        });
        let reqs: Vec<Request> = (0..32).map(prove_req).collect();
        let victim = router.shard_of(&reqs[0]);

        // The detection window: the shard is down but still routed to.
        let dead_stats = router.kill_shard(victim);
        assert_eq!(dead_stats.in_flight(), 0, "victim drained cleanly");
        let mut shed = 0;
        for r in &reqs {
            if router.shard_of(r) != victim {
                continue;
            }
            match router.call(r.clone()) {
                Response::Overloaded => shed += 1, // retriable by contract
                other => panic!("expected shed, got {other:?}"),
            }
        }
        assert!(shed > 0, "the window is observable");

        // Failover: the leader (here, the test) re-routes the vnodes.
        assert!(router.failover_target().mark_dead(victim) > 0);
        for r in &reqs {
            match router.call(r.clone()) {
                Response::Ok { .. } => {}
                other => panic!("post-failover request failed: {other:?}"),
            }
        }
        let agg = router.aggregate_stats();
        assert_eq!(
            agg.accepted,
            agg.completed + agg.shed,
            "conservation holds across the failover"
        );
        router.shutdown();
    }

    #[test]
    fn router_answers_all_kinds_and_conserves() {
        let mut router = ShardRouter::start(ShardRouterConfig::default());
        for i in 0..8 {
            match router.call(simplify_req(i)) {
                Response::Ok { payload } => {
                    Json::parse(&payload).expect("valid JSON");
                }
                other => panic!("{other:?}"),
            }
        }
        let agg = {
            let stats = router.shutdown();
            stats.iter().fold(0i64, |acc, s| acc + s.in_flight())
        };
        assert_eq!(agg, 0);
    }
}
