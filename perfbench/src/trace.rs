//! The traced replay: the same seeded stream, one request at a time,
//! through each layer's public entry point, with an in-memory span
//! around every call. Spans are written out at exit and each layer's
//! self time is derived from them.

use crate::alloc;
use crate::gen::{Inputs, Workload, LANE_REPLAY};
use crate::load::{Conn, Server};
use gp_checker::{CheckConfig, SummaryCache};
use gp_core::json::Json;
use gp_service::{
    decode_request, encode_request, encode_response, Request, Response, ResponseCache,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One recorded span: name, interval, the span that caused it, and the
/// request it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log; span ids are indices into it.
pub struct Recorder {
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u32>, req: u64) -> u32 {
        let id = self.spans.len() as u32;
        let t = now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            req,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = now_ns();
    }

    /// Run `f` inside a span; returns its result and duration in µs.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        (out, self.spans[id as usize].dur_ns() as f64 / 1e3)
    }

    /// Per span name: `(count, total µs, self µs)`, where self time is
    /// the span's duration minus the time its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let e = table.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns() as f64 / 1e3;
            e.2 += s.dur_ns().saturating_sub(*child) as f64 / 1e3;
        }
        table
    }

    /// JSON lines, one span each, ids being line numbers from 0.
    pub fn to_jsonl(&self, out: &mut String) {
        for s in &self.spans {
            let parent = s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)));
            let line = Json::obj()
                .field("name", s.name)
                .field("start_ns", s.start_ns as f64)
                .field("end_ns", s.end_ns as f64)
                .field("parent", parent)
                .field("req", s.req as f64)
                .render();
            let _ = writeln!(out, "{line}");
        }
    }
}

/// Timings gathered by the replay, in µs unless named otherwise.
#[derive(Default)]
pub struct Layers {
    pub requests: u64,
    pub decode_us: Vec<f64>,
    pub decode_allocs: Vec<f64>,
    pub canonical_us: Vec<f64>,
    pub canonical_allocs: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub route_us: Vec<f64>,
    pub cache_get_us: Vec<f64>,
    pub cache_put_us: Vec<f64>,
    pub queue_wait_us: Vec<f64>,
    pub tcp_us: Vec<f64>,
    pub call_hit_us: Vec<f64>,
    pub parse_us: Vec<f64>,
    pub analyze_us: Vec<f64>,
    pub simplify_us: Vec<f64>,
    pub optimize_us: Vec<f64>,
    pub egraph_nodes: Vec<f64>,
    pub prove_us: Vec<f64>,
    pub select_us: Vec<f64>,
    /// Replayed responses that differed from the served ones.
    pub mismatches: u64,
}

/// Request-id lane of the pool requests timed for absent kinds.
const POOL_LANE: u64 = 0xff;

/// Run `f`, returning its result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let a = alloc::thread();
    let out = f();
    (out, (alloc::thread() - a) as f64)
}

/// The response cache's hash (FNV-1a over the canonical form).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn egraph_nodes(resp: &Response) -> Option<f64> {
    let Response::Ok { payload } = resp else {
        return None;
    };
    Json::parse(payload)
        .ok()?
        .get("stats")?
        .get("nodes")?
        .as_f64()
}

/// Replay up to `max` requests of the replay lane, within `budget`.
pub fn replay(
    server: &Server,
    inputs: &Arc<Inputs>,
    max: u64,
    budget: Duration,
    rec: &mut Recorder,
) -> Layers {
    let router = &server.router;
    // Mirrors of the server's caches, owned here so their calls can be
    // timed from outside: a response cache sized like each shard's, and
    // a summary cache that has seen the base program as the server's has.
    let own_cache = ResponseCache::new(8, 512);
    let own_summaries = SummaryCache::new(1 << 18);
    let cfg = CheckConfig {
        parallel: true,
        ..CheckConfig::default()
    };
    if let Some(Request::Lint(base)) = crate::gen::base_request(inputs) {
        let p = gp_checker::parse::parse(&base.name, &base.program).expect("base parses");
        let _ = gp_checker::analyze_program_with_cache(&p, &cfg, &own_summaries);
    }
    let mut conn = Conn::connect(server.addr).expect("replay connects");
    let mut stream = inputs.lane(LANE_REPLAY);
    let mut l = Layers::default();
    let t0 = Instant::now();
    for n in 0..max {
        if t0.elapsed() > budget {
            break;
        }
        let request = stream.next_request();
        let id = n + 1;
        let rid = (LANE_REPLAY << 40) | n;
        let root = rec.open("request", None, rid);
        let p = Some(root);

        let (frame, _) = rec.time("wire.encode_request", p, rid, || {
            encode_request(id, &request)
        });
        let ((decoded, allocs), us) = rec.time("request.decode", p, rid, || {
            counted(|| decode_request(&frame))
        });
        l.decode_allocs.push(allocs);
        l.decode_us.push(us);
        let Ok((_, req)) = decoded else {
            l.mismatches += 1;
            rec.close(root);
            continue;
        };
        let ((canon, allocs), us) =
            rec.time("request.canonical", p, rid, || counted(|| req.canonical()));
        l.canonical_allocs.push(allocs);
        l.canonical_us.push(us);
        let hash = fnv1a(&canon);
        let (_, us) = rec.time("shard.route", p, rid, || router.shard_of(&req));
        l.route_us.push(us);
        let (cached, get_us) = rec.time("cache.get", p, rid, || own_cache.get(hash, &canon));
        l.cache_get_us.push(get_us);

        let hits0 = router.aggregate_stats().cache.hits;
        let (resp, call_us) = rec.time("server.call", p, rid, || router.call(req.clone()));
        let server_hit = router.aggregate_stats().cache.hits > hits0;

        // The engine, called directly: the work the server did on a miss.
        let engine_us = direct_engine(&req, &own_summaries, &cfg, rec, p, rid, &mut l);
        if let Some(n) = matches!(req, Request::Optimize(_))
            .then(|| egraph_nodes(&resp))
            .flatten()
        {
            l.egraph_nodes.push(n);
        }
        if cached.is_none() {
            if let Response::Ok { payload } = &resp {
                let (_, us) =
                    rec.time("cache.put", p, rid, || own_cache.put(hash, &canon, payload));
                l.cache_put_us.push(us);
            }
        }
        let (_, us) = rec.time("request.encode", p, rid, || encode_response(id, &resp));
        l.encode_us.push(us);
        l.queue_wait_us
            .push(call_us - if server_hit { get_us } else { engine_us });
        rec.close(root);

        // The same request once more over TCP and once in process, both
        // now cache hits: their difference is the reactor and the wire.
        let (tcp, us) = rec.time("tcp.roundtrip", None, rid, || {
            conn.roundtrip(frame.as_bytes()).map(<[u8]>::to_vec)
        });
        l.tcp_us.push(us);
        let (hit, us) = rec.time("server.call_hit", None, rid, || router.call(req.clone()));
        l.call_hit_us.push(us);
        let served = encode_response(id, &hit).into_bytes();
        if tcp.ok().as_deref() != Some(served.as_slice()) || hit != resp {
            l.mismatches += 1;
        }
        l.requests += 1;
    }
    // A workload that sends no request of some kind (lint-edits sends
    // only lint) still reports that engine, timed on the `hot-repeat`
    // pool's requests of the kind, so every layer metric is measured.
    let missing: Vec<&str> = [
        ("simplify", l.simplify_us.is_empty()),
        ("optimize", l.optimize_us.is_empty()),
        ("prove", l.prove_us.is_empty()),
        ("select", l.select_us.is_empty()),
    ]
    .into_iter()
    .filter_map(|(kind, empty)| empty.then_some(kind))
    .collect();
    if !missing.is_empty() {
        let pool = Inputs::new(Workload::HotRepeat, inputs.seed).pool.clone();
        for (i, req) in pool.iter().enumerate() {
            if !missing.contains(&req.kind()) {
                continue;
            }
            let rid = (POOL_LANE << 40) | i as u64;
            direct_engine(req, &own_summaries, &cfg, rec, None, rid, &mut l);
            if let (Request::Optimize(_), Ok(out)) = (req, req.handle()) {
                let served = Response::Ok {
                    payload: out.render(),
                };
                l.egraph_nodes.extend(egraph_nodes(&served));
            }
        }
    }
    l
}

/// Time the engine behind `req` directly; returns its µs.
fn direct_engine(
    req: &Request,
    summaries: &SummaryCache,
    cfg: &CheckConfig,
    rec: &mut Recorder,
    parent: Option<u32>,
    rid: u64,
    l: &mut Layers,
) -> f64 {
    match req {
        Request::Lint(lint) => {
            let outer = rec.open("engine.lint", parent, rid);
            let (program, us) = rec.time("checker.parse", Some(outer), rid, || {
                gp_checker::parse::parse(&lint.name, &lint.program)
            });
            l.parse_us.push(us);
            if let Ok(program) = program {
                let (_, us) = rec.time("checker.analyze", Some(outer), rid, || {
                    gp_checker::analyze_program_with_cache(&program, cfg, summaries)
                });
                l.analyze_us.push(us);
            }
            rec.close(outer);
            rec.spans[outer as usize].dur_ns() as f64 / 1e3
        }
        other => {
            let (name, into): (&'static str, &mut Vec<f64>) = match other {
                Request::Simplify(_) => ("engine.simplify", &mut l.simplify_us),
                Request::Optimize(_) => ("engine.optimize", &mut l.optimize_us),
                Request::Prove(_) => ("engine.prove", &mut l.prove_us),
                _ => ("engine.select", &mut l.select_us),
            };
            let (_, us) = rec.time(name, parent, rid, || other.handle());
            into.push(us);
            us
        }
    }
}
