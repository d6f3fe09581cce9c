//! E16: the observability plane — causal tracing, its overhead, and the
//! flight recorder.
//!
//! Part A is the anatomy check: one sampled request through the sharded
//! reactor front end must assemble into the five-span causal chain
//! `reactor → router → queue → worker → engine.*` with correct parent
//! links, fetched back over the wire by the `trace` request kind.
//!
//! Part B is the bar: tracing is only shippable if it is ~free when off
//! and cheap when on. A single-threaded cache-hot loop over pre-encoded
//! wire frames exercises the full per-request serving path (traced
//! decode → root span → submit → encode, i.e. `serve_connection` minus
//! the socket) at four configurations — untraced frames (baseline),
//! traced frames with sampling off, the default 1-in-16, and
//! every-request sampling — with rotated round order (the E11t
//! interleave discipline) and judged on the median of within-round
//! ratios, so host-wide slow phases hit adjacent measurements alike and
//! cancel. The gate is PR 3's enabled-vs-disabled analogue: identical
//! traced frames with the sampler at the default 1-in-16 vs off must
//! stay within **5%**; the wire envelope's parse cost (tagged frames
//! are longer) is reported separately.
//!
//! Part C drains a served workload through [`Service::shutdown_with_dump`]
//! and checks the flight recorder's black-box story: enqueues, dequeues,
//! and the final drain marker all present. (The failover dump is E15's
//! drill in `exp_control`.)
//!
//! Emits `results/BENCH_tracing.json`; `--smoke` shrinks the workload
//! for a fast CI pass.

use gp_bench::{banner, flatten_trace, write_results, Json, Table};
use gp_rewrite::{BinOp, Expr, Type};
use gp_service::introspect::{StatsRequest, TraceQuery};
use gp_service::simplify::{EnvSpec, SimplifyRequest};
use gp_service::{
    ReactorConfig, Request, Response, Service, ServiceConfig, ShardRouter, ShardRouterConfig,
    TcpClient,
};
use std::time::Instant;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let a = part_a_anatomy();
    let b = part_b_overhead(smoke);
    let c = part_c_flight_recorder(smoke);

    let report = Json::obj()
        .field("experiment", "E16_tracing")
        .field("smoke", smoke)
        .field("anatomy", a)
        .field("overhead", b)
        .field("flight_recorder", c);
    let path = write_results("BENCH_tracing.json", &report);
    println!();
    println!("wrote {}", path.display());
}

fn simplify_pool(size: usize) -> Vec<Request> {
    (0..size)
        .map(|i| {
            Request::Simplify(SimplifyRequest {
                expr: Expr::bin(
                    BinOp::Add,
                    Expr::bin(
                        BinOp::Mul,
                        Expr::var(format!("x{i}"), Type::Int),
                        Expr::int(1),
                    ),
                    Expr::int(i as i64 % 7),
                ),
                env: EnvSpec::Standard,
            })
        })
        .collect()
}

fn expect_ok(resp: Response) -> String {
    match resp {
        Response::Ok { payload } => payload,
        other => panic!("expected ok, got {other:?}"),
    }
}

/// E16a: the assembled trace of one sampled request, fetched over the
/// wire, is the causal chain with correct parent links across threads.
fn part_a_anatomy() -> Json {
    banner(
        "E16a",
        "Trace anatomy: reactor → router → queue → worker → engine",
        "explicit-parent spans survive thread hops; assembled on last drop",
    );
    let prev = gp_telemetry::trace::sampling();
    gp_telemetry::trace::set_sampling(1);
    let mut router = ShardRouter::start(ShardRouterConfig {
        shards: 2,
        base: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        ..ShardRouterConfig::default()
    });
    let addr = router
        .listen_reactor("127.0.0.1:0", ReactorConfig::default())
        .expect("reactor listens");
    let mut client = TcpClient::connect(addr).unwrap();

    let trace_id = 0xE16A;
    expect_ok(
        client
            .call_traced(&simplify_pool(1)[0], Some(trace_id))
            .unwrap(),
    );
    let payload = expect_ok(
        client
            .call(&Request::Trace(TraceQuery { id: trace_id }))
            .unwrap(),
    );
    let tree = Json::parse(&payload).expect("trace tree parses");
    let spans = flatten_trace(&tree);

    let t = Table::new(&[("depth", 6), ("span", 20), ("thread", 24)]);
    for (d, name, thread) in &spans {
        t.row(&[
            format!("{}{}", "  ".repeat(*d), d),
            name.clone(),
            thread.clone(),
        ]);
    }
    let chain: Vec<(usize, &str)> = spans.iter().map(|(d, n, _)| (*d, n.as_str())).collect();
    assert_eq!(
        chain,
        vec![
            (0, "reactor"),
            (1, "router"),
            (2, "queue"),
            (3, "worker"),
            (4, "engine.simplify"),
        ],
        "parent links must encode the causal chain"
    );
    let mut threads: Vec<&String> = spans.iter().map(|(_, _, t)| t).collect();
    threads.sort();
    threads.dedup();
    println!();
    println!(
        "  5 spans, correct parent links, {} distinct closing threads",
        threads.len()
    );

    // `stats` answers on the same connection with live percentiles.
    let stats = expect_ok(
        client
            .call(&Request::Stats(StatsRequest {
                prefix: "service.".into(),
            }))
            .unwrap(),
    );
    assert!(Json::parse(&stats).is_ok(), "stats payload is valid JSON");
    drop(client);
    router.shutdown();
    gp_telemetry::trace::set_sampling(prev);

    Json::obj()
        .field("trace_id", trace_id)
        .field("spans", spans.len() as u64)
        .field(
            "chain",
            Json::Arr(
                spans
                    .iter()
                    .map(|(_, n, _)| Json::from(n.as_str()))
                    .collect(),
            ),
        )
        .field("distinct_threads", threads.len() as u64)
        .field("chain_correct", true)
}

/// One timed pass over pre-encoded frames through the serving core's
/// request path — exactly what `serve_connection` does per frame
/// (traced decode, optional root span, submit, encode), minus the
/// socket syscalls. Single-threaded and cache-hot, so the measurement
/// is deterministic even on a one-CPU host where any cross-thread
/// timing is a scheduler lottery.
fn serve_frames_once(svc: &Service, frames: &[String]) -> f64 {
    use gp_service::{decode_request_traced, encode_response};
    static SERVER_SPAN: gp_telemetry::SpanName = gp_telemetry::SpanName::new("server");
    let t0 = Instant::now();
    for frame in frames {
        let (id, request, wire_trace) = decode_request_traced(frame).unwrap();
        let (handle, root) = gp_telemetry::trace::sample_root(wire_trace, &SERVER_SPAN);
        let response = svc.submit_traced(request, handle).wait();
        drop(root);
        std::hint::black_box(encode_response(id, &response));
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// E16b: overhead across sampling rates vs untraced frames.
fn part_b_overhead(smoke: bool) -> Json {
    banner(
        "E16b",
        "Tracing overhead: untraced vs off / 1-in-16 / every-request",
        "the observability plane must cost ≤5% at the default sampling rate",
    );
    // Many short rounds beat few long ones here: on a small host a
    // single preemption inside a round skews that round's ratio, so the
    // robust play is rounds short enough that most dodge preemption
    // entirely and a median over dozens of them ignores the rest.
    let requests = if smoke { 500 } else { 1_000 };
    let reps = if smoke { 41 } else { 61 };
    let pool = simplify_pool(64);
    let stream: Vec<Request> = (0..requests)
        .map(|i| pool[(i * 31) % pool.len()].clone())
        .collect();

    let mut svc = Service::start(ServiceConfig {
        workers: 2,
        queue_depth: 64,
        ..ServiceConfig::default()
    });

    // Pre-encode each variant's wire frames once; the timed loops then
    // measure only the serving path, not frame construction.
    use gp_service::encode_request_traced;
    let frames_for = |traced: bool| -> Vec<String> {
        stream
            .iter()
            .enumerate()
            .map(|(i, req)| {
                encode_request_traced(i as u64 + 1, req, traced.then_some(0x5000_0000 + i as u64))
            })
            .collect()
    };
    let untraced_frames = frames_for(false);
    let traced_frames = frames_for(true);

    // Warm: page in code paths, fill the cache to steady state.
    let prev = gp_telemetry::trace::sampling();
    serve_frames_once(&svc, &untraced_frames);

    let variants: [(&str, bool, u64); 4] = [
        ("baseline (untraced)", false, 16),
        ("traced, sampling off", true, 0),
        ("traced, 1-in-16 (default)", true, 16),
        ("traced, every request", true, 1),
    ];
    // Every round times all four variants back to back, and the bar is
    // judged on the *median of within-round ratios* against that round's
    // own baseline: host-wide drift (frequency scaling, noisy
    // neighbors) hits adjacent measurements alike and cancels in the
    // ratio, where a best-of-N minimum would need every variant to
    // catch a quiet moment independently.
    let mut best = [f64::INFINITY; 4];
    let mut ratios: [Vec<f64>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let published_before = gp_telemetry::snapshot().counter("trace.published");
    for rep in 0..reps {
        // Rotate the starting variant so no variant systematically runs
        // first (cold) or last (post-warmup/throttled) in its round.
        let mut round = [0.0f64; 4];
        for k in 0..4 {
            let i = (rep + k) % 4;
            let (_, traced, rate) = variants[i];
            gp_telemetry::trace::set_sampling(rate);
            let frames = if traced {
                &traced_frames
            } else {
                &untraced_frames
            };
            round[i] = serve_frames_once(&svc, frames);
            best[i] = best[i].min(round[i]);
        }
        for i in 0..4 {
            ratios[i].push(round[i] / round[0]);
        }
    }
    gp_telemetry::trace::set_sampling(prev);
    let published = gp_telemetry::snapshot().counter("trace.published") - published_before;

    // Median of within-round ratios against the chosen reference
    // variant: paired measurements share the round, so host drift
    // cancels in the ratio.
    let median_pct = |i: usize, vs: usize| -> f64 {
        let mut rs: Vec<f64> = ratios[i]
            .iter()
            .zip(&ratios[vs])
            .map(|(a, b)| a / b)
            .collect();
        rs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (rs[rs.len() / 2] - 1.0) * 100.0
    };
    let t = Table::new(&[("variant", 28), ("best ms", 10), ("median vs baseline", 18)]);
    for (i, (label, _, _)) in variants.iter().enumerate() {
        t.row(&[
            (*label).into(),
            format!("{:.2}", best[i]),
            if i == 0 {
                "-".into()
            } else {
                format!("{:+.1}%", median_pct(i, 0))
            },
        ]);
    }
    // PR 3's bar measured the *machinery*: telemetry enabled vs disabled
    // on identical traffic. The tracing analogue compares identical
    // traced frames with the sampler at the default rate vs off — the
    // cost of sampling decisions, span assembly, and publication. The
    // off-vs-untraced delta is the wire envelope's parse cost (the
    // frames are ~15% longer), reported separately: it is payload size,
    // not machinery, and a client pays it only on frames it tags.
    let wire_field_pct = median_pct(1, 0);
    let default_pct = median_pct(2, 1);
    let every_pct = median_pct(3, 1);
    let within = default_pct <= 5.0;
    println!();
    println!(
        "  {requests} cache-hot requests/round through the serving core, \
         {reps} interleaved rounds; {published} traces published during timing"
    );
    println!(
        "  wire envelope (`\"trace\":N` field, untagged vs tagged frames): {wire_field_pct:+.1}%"
    );
    println!(
        "  tracing machinery at the default rate (sampling 1-in-16 vs off, \
         identical frames): {default_pct:+.1}% vs the 5% bar → {}",
        if within { "within" } else { "EXCEEDED" }
    );
    assert!(
        within,
        "default sampling rate must stay within 5% of sampling-off ({default_pct:+.1}%)"
    );
    let stats = svc.shutdown();
    assert_eq!(stats.accepted, stats.completed + stats.shed);

    Json::obj()
        .field("requests_per_round", requests as u64)
        .field("reps", reps as u64)
        .field("baseline_ms", best[0])
        .field("sampling_off_ms", best[1])
        .field("default_rate_ms", best[2])
        .field("every_request_ms", best[3])
        .field("wire_field_pct", wire_field_pct)
        .field("default_rate_pct", default_pct)
        .field("every_request_pct", every_pct)
        .field("traces_published", published)
        .field("within_5pct", within)
}

/// E16c: the drain dump — the server's own black box.
fn part_c_flight_recorder(smoke: bool) -> Json {
    banner(
        "E16c",
        "Flight recorder: structured events dumped on graceful drain",
        "a lock-free ring of recent events, readable without stopping writers",
    );
    let requests = if smoke { 64 } else { 512 };
    let mut svc = Service::start(ServiceConfig {
        workers: 2,
        queue_depth: 64,
        ..ServiceConfig::default()
    });
    let pool = simplify_pool(16);
    for i in 0..requests {
        let resp = svc.call(pool[i % pool.len()].clone());
        assert!(matches!(resp, Response::Ok { .. }));
    }
    let (stats, dump) = svc.shutdown_with_dump();
    assert_eq!(stats.accepted, stats.completed + stats.shed);

    let parsed = Json::parse(&dump).expect("flight dump parses");
    let events = parsed
        .get("events")
        .and_then(Json::as_arr)
        .expect("events array");
    let count_kind = |kind: &str| {
        events
            .iter()
            .filter(|e| e.get("kind").and_then(Json::as_str) == Some(kind))
            .count() as u64
    };
    let (enq, deq, hits, drains) = (
        count_kind("enqueue"),
        count_kind("dequeue"),
        count_kind("cache_hit"),
        count_kind("drain"),
    );
    println!(
        "  {} events in the drain dump: {enq} enqueues, {deq} dequeues, \
         {hits} cache hits, {drains} drain marker",
        events.len()
    );
    assert!(!events.is_empty(), "drain dump must not be empty");
    assert!(enq > 0 && deq > 0, "serving traffic leaves a wake");
    // The recorder is process-wide: part B's drained service left a
    // marker too. At least one belongs to this shutdown.
    assert!(drains >= 1, "the drain marker is in the dump");

    Json::obj()
        .field("events", events.len() as u64)
        .field("enqueue_events", enq)
        .field("dequeue_events", deq)
        .field("cache_hit_events", hits)
        .field("drain_events", drains)
        .field("non_empty", !events.is_empty())
}
