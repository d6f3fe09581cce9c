//! End-to-end causal tracing and live introspection over real sockets.
//!
//! The acceptance surface for the observability plane: a sampled
//! request's assembled span tree must show the full causal chain —
//! `reactor → router → queue → worker → engine.*` on the sharded reactor
//! path — with correct parent links even though the spans open and close
//! on different threads, and the `stats`/`trace` request kinds must be
//! answerable on both front ends.
//!
//! Lives in its own test binary: the sampling knob and the telemetry
//! registry are process-wide.

#![cfg(target_os = "linux")]

use gp_bench::flatten_trace;
use gp_core::json::Json;
use gp_rewrite::{BinOp, Expr, Type};
use gp_service::introspect::{StatsRequest, TraceQuery};
use gp_service::simplify::{EnvSpec, SimplifyRequest};
use gp_service::{
    ReactorConfig, Request, Response, Service, ServiceConfig, ShardRouter, ShardRouterConfig,
    TcpClient,
};

fn simplify(n: i64) -> Request {
    Request::Simplify(SimplifyRequest {
        expr: Expr::bin(BinOp::Add, Expr::var("x", Type::Int), Expr::int(n)),
        env: EnvSpec::Standard,
    })
}

/// Serialize the tests in this binary: the sampling knob is
/// process-wide, and each test pins it for its whole body.
fn sampling_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap()
}

fn expect_ok(resp: Response) -> String {
    match resp {
        Response::Ok { payload } => payload,
        other => panic!("expected ok, got {other:?}"),
    }
}

#[test]
fn sampled_traces_assemble_and_introspection_serves_both_front_ends() {
    let _guard = sampling_lock();
    let prev = gp_telemetry::trace::sampling();
    gp_telemetry::trace::set_sampling(1);

    // --- Sharded reactor path: the full five-span causal chain. ---
    let mut router = ShardRouter::start(ShardRouterConfig {
        shards: 2,
        base: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        ..ShardRouterConfig::default()
    });
    let raddr = router
        .listen_reactor("127.0.0.1:0", ReactorConfig::default())
        .unwrap();
    let mut client = TcpClient::connect(raddr).unwrap();

    let trace_id = 424_242u64;
    expect_ok(client.call_traced(&simplify(1), Some(trace_id)).unwrap());

    // The response-ordering invariant: the trace publishes strictly
    // before the response reaches the client, so the very next query
    // must find it — no retry loop.
    let payload = expect_ok(
        client
            .call(&Request::Trace(TraceQuery { id: trace_id }))
            .unwrap(),
    );
    let tree = Json::parse(&payload).expect("trace tree parses");
    assert_eq!(
        tree.get("trace_id").and_then(Json::as_f64),
        Some(trace_id as f64)
    );
    let spans = flatten_trace(&tree);
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

    // An unknown id answers with a retriable error, not a hang.
    let err = client
        .call(&Request::Trace(TraceQuery { id: 999_999_999 }))
        .unwrap();
    assert!(matches!(err, Response::Error { .. }));

    // `stats` on the reactor front end.
    let stats = expect_ok(
        client
            .call(&Request::Stats(StatsRequest {
                prefix: "service.".into(),
            }))
            .unwrap(),
    );
    let parsed = Json::parse(&stats).expect("stats payload parses");
    assert!(parsed.get("metrics").is_some());
    assert!(parsed.get("percentiles").is_some());
    assert_eq!(parsed.get("sampling").and_then(Json::as_f64), Some(1.0));
    drop(client);
    router.shutdown();

    // --- Blocking path: root is `server`, and the engine span closes on
    // a pool worker while the root closes on the connection thread — the
    // recorded thread names are the cross-thread evidence. ---
    let mut svc = Service::start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let baddr = svc.listen("127.0.0.1:0").unwrap();
    let mut bclient = TcpClient::connect(baddr).unwrap();

    let btrace = 515_151u64;
    expect_ok(bclient.call_traced(&simplify(2), Some(btrace)).unwrap());
    let payload = expect_ok(
        bclient
            .call(&Request::Trace(TraceQuery { id: btrace }))
            .unwrap(),
    );
    let spans = flatten_trace(&Json::parse(&payload).unwrap());
    let chain: Vec<(usize, &str)> = spans.iter().map(|(d, n, _)| (*d, n.as_str())).collect();
    assert_eq!(
        chain,
        vec![
            (0, "server"),
            (1, "queue"),
            (2, "worker"),
            (3, "engine.simplify"),
        ]
    );
    let root_thread = &spans[0].2;
    let engine_thread = &spans[3].2;
    assert_ne!(
        root_thread, engine_thread,
        "the root closes on the connection thread, the engine span on a \
         pool worker — same thread would mean the hop never happened"
    );

    // `stats` on the blocking front end.
    let stats = expect_ok(
        bclient
            .call(&Request::Stats(StatsRequest { prefix: "".into() }))
            .unwrap(),
    );
    assert!(Json::parse(&stats).is_ok());
    drop(bclient);

    // --- Drain dump: the flight recorder saw this test's traffic. ---
    let (stats, dump) = svc.shutdown_with_dump();
    assert_eq!(stats.accepted, stats.completed + stats.shed);
    let dump = Json::parse(&dump).expect("flight dump parses");
    let kinds: Vec<String> = dump
        .get("events")
        .and_then(Json::as_arr)
        .expect("events array")
        .iter()
        .map(|e| e.get("kind").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert!(kinds.iter().any(|k| k == "enqueue"), "dump has enqueues");
    assert!(kinds.iter().any(|k| k == "dequeue"), "dump has dequeues");
    assert!(kinds.iter().any(|k| k == "drain"), "drain marker recorded");
    // (The recorder is process-wide, so other suites' events may appear
    // too — presence, not exclusivity, is the contract.)

    gp_telemetry::trace::set_sampling(prev);
}

/// A cache hit is traced as a single `cache` span — the hit never
/// reaches the queue, and its trace says so.
#[test]
fn cache_hits_trace_as_a_lone_cache_span() {
    let _guard = sampling_lock();
    let prev = gp_telemetry::trace::sampling();
    gp_telemetry::trace::set_sampling(1);
    let mut svc = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    // Prime the cache untraced, then hit it traced.
    let req = simplify(77);
    assert!(matches!(svc.call(req.clone()), Response::Ok { .. }));
    let ticket = svc.submit_traced(
        req,
        gp_telemetry::trace::sample(616_161)
            .map(|ctx| gp_telemetry::trace::TraceHandle { ctx, parent: None }),
    );
    assert!(matches!(ticket.wait(), Response::Ok { .. }));
    let names: Vec<&str> = svc
        .trace_store()
        .with_spans(616_161, |spans| spans.iter().map(|s| s.name).collect())
        .expect("cache-hit trace published");
    assert_eq!(names, ["cache"]);
    svc.shutdown();
    gp_telemetry::trace::set_sampling(prev);
}
