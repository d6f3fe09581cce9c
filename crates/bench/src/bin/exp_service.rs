//! E12s: the gp-service concept-query server — smoke checks plus a
//! closed-loop load sweep.
//!
//! Smoke phase (always runs; CI gate): all four request kinds answered
//! over TCP loopback through the reactor front end, repeat requests
//! answered from the cache with byte-identical payloads, a tiny queue
//! under flood shedding `Overloaded` instead of collapsing, and the
//! conservation law `accepted == completed + shed` proved from one
//! telemetry snapshot delta across the phase.
//!
//! Sweep phase: a closed-loop generator (each client issues its next
//! request when the previous answer lands) over the reactor, across
//! worker counts × client counts × cache on/off, reporting throughput,
//! p50/p99 latency, shed rate, and cache hit rate. Emits
//! `results/BENCH_service.json`; `--smoke` shrinks the sweep for a fast
//! CI pass.

use gp_bench::{banner, write_results, Json, Table};
use gp_rewrite::{BinOp, Expr, Type};
use gp_service::lint::LintRequest;
use gp_service::prove::ProveRequest;
use gp_service::select::SelectRequest;
use gp_service::simplify::{EnvSpec, SimplifyRequest};
use gp_service::{ReactorConfig, Request, Response, Service, ServiceConfig, TcpClient};
use std::time::{Duration, Instant};

/// A deterministic request pool: distinct requests across all four kinds.
/// Clients index into it with an LCG, so runs are reproducible and the
/// cache sees genuine repeats.
fn request_pool(size: usize) -> Vec<Request> {
    (0..size)
        .map(|i| match i % 4 {
            0 => Request::Simplify(SimplifyRequest {
                expr: Expr::bin(
                    BinOp::Add,
                    Expr::bin(BinOp::Mul, Expr::var(format!("x{i}"), Type::Int), Expr::int(1)),
                    Expr::int(0),
                ),
                env: EnvSpec::Standard,
            }),
            1 => Request::Lint(LintRequest {
                name: format!("p{i}"),
                program: "container xs vector\niter it = begin xs\nderef it\n".into(),
            }),
            2 => Request::Prove(ProveRequest {
                theory: "monoid".into(),
                instance: format!("inst{i}"),
                model: vec![("op".into(), format!("op{i}")), ("e".into(), "zero".into())],
            }),
            _ => Request::Select(
                SelectRequest::from_json(
                    &Json::parse(
                        r#"{"problem":"leader-election","topology":"bi-ring","timing":"asynchronous"}"#,
                    )
                    .unwrap(),
                )
                .unwrap(),
            ),
        })
        .collect()
}

fn expect_ok(resp: Result<Response, String>, what: &str) -> String {
    match resp {
        Ok(Response::Ok { payload }) => payload,
        other => panic!("{what}: expected Ok, got {other:?}"),
    }
}

/// The CI gate: every claim in the module docs, asserted.
fn smoke_phase() -> Json {
    println!("-- smoke: wire, cache, shedding, conservation --");
    let before = gp_telemetry::snapshot();

    // 1. All four kinds over TCP loopback, then a repeat to hit the cache.
    let mut svc = Service::start(ServiceConfig::default());
    let addr = svc
        .listen_reactor("127.0.0.1:0", ReactorConfig::default())
        .expect("bind loopback");
    let mut client = TcpClient::connect(addr).expect("connect");
    let pool = request_pool(4);
    let mut kinds = Vec::new();
    let mut fresh_payloads = Vec::new();
    for req in &pool {
        let payload = expect_ok(client.call(req), req.kind());
        Json::parse(&payload).expect("payload is valid JSON");
        kinds.push(req.kind());
        fresh_payloads.push(payload);
    }
    assert_eq!(kinds, ["simplify", "lint", "prove", "select"]);
    // Repeat every request: answered from the cache, byte-identical to
    // the fresh responses above.
    for (req, fresh) in pool.iter().zip(&fresh_payloads) {
        let cached = expect_ok(client.call(req), "cached repeat");
        assert_eq!(&cached, fresh, "cached response must be bit-identical");
    }
    let tcp_stats = svc.shutdown();
    assert!(
        tcp_stats.cache.hits >= 4,
        "repeats hit the cache: {tcp_stats:?}"
    );
    println!("   four kinds over 127.0.0.1 + bit-identical cache hits: ok");

    // 2. Load shedding: a 1-deep queue under flood sheds Overloaded but
    //    still serves admitted work.
    let mut tiny = Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 1,
        cache_enabled: false,
        handler_delay: Some(Duration::from_millis(5)),
        ..ServiceConfig::default()
    });
    let flood = request_pool(64);
    let tickets: Vec<_> = flood.into_iter().map(|r| tiny.submit(r)).collect();
    let mut sheds = 0u64;
    let mut served = 0u64;
    for t in tickets {
        match t.wait() {
            Response::Overloaded => sheds += 1,
            _ => served += 1,
        }
    }
    let tiny_stats = tiny.shutdown();
    assert!(sheds > 0, "tiny queue under flood must shed");
    assert!(served > 0, "shedding must not starve admitted work");
    assert_eq!(tiny_stats.in_flight(), 0);
    println!("   1-deep queue: {served} served, {sheds} shed (retriable), 0 dropped");

    // 3. Conservation, from one registry snapshot delta across both
    //    services: accepted == completed + shed (in_flight drained to 0).
    let delta = gp_telemetry::snapshot().delta(&before);
    let accepted = delta.counter("service.accepted");
    let completed = delta.counter("service.completed");
    let shed = delta.counter("service.shed");
    assert_eq!(
        accepted,
        completed + shed,
        "conservation law from snapshot delta"
    );
    assert!(accepted > 0);
    println!("   conservation: accepted {accepted} == completed {completed} + shed {shed}");

    Json::obj()
        .field("four_kinds_over_loopback", true)
        .field("cache_bit_identical", true)
        .field("sheds_under_flood", sheds)
        .field("served_under_flood", served)
        .field(
            "conservation",
            Json::obj()
                .field("accepted", accepted)
                .field("completed", completed)
                .field("shed", shed)
                .field("holds", accepted == completed + shed),
        )
}

/// One closed-loop sweep cell: `clients` threads over TCP loopback, each
/// issuing `per_client` requests drawn from a shared pool.
fn sweep_cell(
    workers: usize,
    clients: usize,
    cache: bool,
    per_client: usize,
    pool: &[Request],
) -> Json {
    // Queue depth 4: with up to 8 closed-loop clients the high-load cells
    // push past capacity, so the sweep exercises the shed axis, not just
    // throughput/latency.
    let mut svc = Service::start(ServiceConfig {
        workers,
        queue_depth: 4,
        cache_enabled: cache,
        handler_delay: Some(Duration::from_micros(300)),
        ..ServiceConfig::default()
    });
    let addr = svc
        .listen_reactor("127.0.0.1:0", ReactorConfig::default())
        .expect("bind loopback");
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let pool = pool.to_vec();
            std::thread::spawn(move || {
                let mut client = TcpClient::connect(addr).expect("connect");
                // Per-client LCG; requests repeat across clients, so the
                // cache has a working set to exploit.
                let mut state = (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut latencies = Vec::with_capacity(per_client);
                let mut sheds = 0u64;
                for _ in 0..per_client {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let req = &pool[(state >> 33) as usize % pool.len()];
                    let start = Instant::now();
                    match client.call(req) {
                        Ok(Response::Overloaded) => sheds += 1,
                        Ok(_) => latencies.push(start.elapsed().as_secs_f64() * 1e3),
                        Err(e) => panic!("client {c}: {e}"),
                    }
                }
                (latencies, sheds)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut sheds = 0u64;
    for h in handles {
        let (l, s) = h.join().expect("client thread");
        latencies.extend(l);
        sheds += s;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = svc.shutdown();
    assert_eq!(stats.in_flight(), 0, "sweep cell drained: {stats:?}");
    assert_eq!(stats.accepted, stats.completed + stats.shed);

    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        latencies[((latencies.len() - 1) as f64 * p) as usize]
    };
    let issued = (clients * per_client) as u64;
    Json::obj()
        .field("workers", workers)
        .field("clients", clients)
        .field("cache", cache)
        .field("issued", issued)
        .field("throughput_rps", latencies.len() as f64 / wall_s)
        .field("p50_ms", pct(0.50))
        .field("p99_ms", pct(0.99))
        .field("shed_rate", sheds as f64 / issued as f64)
        .field(
            "cache_hit_rate",
            stats.cache.hits as f64 / issued.max(1) as f64,
        )
}

fn sweep_phase(smoke: bool) -> Json {
    println!();
    println!("-- closed-loop sweep: workers x clients x cache --");
    let worker_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let client_counts: &[usize] = if smoke { &[2] } else { &[1, 4, 8] };
    let per_client = if smoke { 40 } else { 250 };
    let pool = request_pool(32);

    let table = Table::new(&[
        ("workers", 8),
        ("clients", 8),
        ("cache", 6),
        ("rps", 10),
        ("p50 ms", 9),
        ("p99 ms", 9),
        ("shed %", 8),
        ("hit %", 8),
    ]);
    let mut cells = Vec::new();
    for &workers in worker_counts {
        for &clients in client_counts {
            for cache in [false, true] {
                let cell = sweep_cell(workers, clients, cache, per_client, &pool);
                let get = |k: &str| cell.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                table.row(&[
                    workers.to_string(),
                    clients.to_string(),
                    if cache { "on" } else { "off" }.to_string(),
                    format!("{:.0}", get("throughput_rps")),
                    format!("{:.3}", get("p50_ms")),
                    format!("{:.3}", get("p99_ms")),
                    format!("{:.1}", get("shed_rate") * 100.0),
                    format!("{:.1}", get("cache_hit_rate") * 100.0),
                ]);
                cells.push(cell);
            }
        }
    }
    Json::obj()
        .field("per_client_requests", per_client)
        .field("pool_size", 32usize)
        .field("cells", Json::Arr(cells))
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "E12s",
        "gp-service: cached, load-shedding concept-query server",
        "service front end over the checker, rewriter, prover, and taxonomy",
    );
    let smoke_checks = smoke_phase();
    let sweep = sweep_phase(smoke);
    let report = Json::obj()
        .field("experiment", "E12s")
        .field("smoke", smoke)
        .field("smoke_checks", smoke_checks)
        .field("sweep", sweep)
        .field(
            "telemetry",
            Json::Raw(gp_telemetry::snapshot().filter("service.").to_json()),
        );
    let path = write_results("BENCH_service.json", &report);
    println!();
    println!("wrote {}", path.display());
}
