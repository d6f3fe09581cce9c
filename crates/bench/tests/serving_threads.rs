//! The serving path runs every request on the shard worker that popped
//! it: no handler and no worker hands work to the `gp-parallel` pool.
//!
//! Every compute kind is served through an in-process `Service` and
//! through a reactor-fronted `ShardRouter`, including a lint program
//! whose first sight has several SCCs at one call-graph height (a shape
//! that once fanned out) and a burst of same-environment simplify
//! requests queued behind one busy worker, and the pool's submit
//! counters must not move. Every answer must equal a solo `handle()` of
//! the same request.
//!
//! Lives in its own test binary: the pool counters are process-wide.

#![cfg(target_os = "linux")]

use gp_core::json::Json;
use gp_rewrite::{BinOp, Expr, Type};
use gp_service::lint::LintRequest;
use gp_service::optimize::{CostSpec, OptimizeRequest};
use gp_service::prove::ProveRequest;
use gp_service::select::SelectRequest;
use gp_service::simplify::{EnvSpec, SimplifyRequest};
use gp_service::{
    ReactorConfig, Request, Response, Service, ServiceConfig, ShardRouter, ShardRouterConfig,
    TcpClient, Ticket,
};
use std::time::Duration;

const POOL_SUBMITS: [&str; 2] = ["pool.submit_injector", "pool.submit_local"];

/// Three leaf functions at call-graph height 0 and a caller of all
/// three: on first sight the leaves are three summary-cache misses in one
/// height batch. `salt` varies the leaf bodies so each front end sees
/// them fresh.
fn wide_lint(salt: usize) -> Request {
    let pushes = "  push_back A\n".repeat(salt + 1);
    Request::Lint(LintRequest {
        name: format!("wide{salt}"),
        program: format!(
            "fn fa(A) {{\n{pushes}}}\n\
             fn fb(A) {{\n{pushes}  call sort A\n}}\n\
             fn fc(A) {{\n  call sort A\n{pushes}}}\n\
             fn top(A) {{\n  invoke fa(A)\n  invoke fb(A)\n  invoke fc(A)\n}}\n\
             container V vector\ninvoke top(V)\ncall find V -> i\n"
        ),
    })
}

fn simplify(i: usize) -> Request {
    Request::Simplify(SimplifyRequest {
        expr: Expr::bin(
            BinOp::Add,
            Expr::bin(
                BinOp::Mul,
                Expr::var(format!("v{i}"), Type::Int),
                Expr::int(1),
            ),
            Expr::int(0),
        ),
        env: EnvSpec::Standard,
    })
}

/// One request of every compute kind.
fn every_kind(salt: usize) -> Vec<Request> {
    vec![
        wide_lint(salt),
        Request::Lint(LintRequest {
            name: format!("flat{salt}"),
            program: format!("container xs{salt} vector\niter it = begin xs{salt}\nderef it\n"),
        }),
        simplify(1000 + salt),
        Request::Optimize(OptimizeRequest {
            expr: Expr::bin(
                BinOp::Mul,
                Expr::var("x", Type::Int),
                Expr::int(salt as i64),
            ),
            env: EnvSpec::Standard,
            cost: CostSpec::Annotation,
            max_nodes: Some(512),
            max_iters: Some(4),
        }),
        Request::Prove(ProveRequest {
            theory: "group".into(),
            instance: format!("i{salt}"),
            model: vec![("op".into(), "plus".into())],
        }),
        Request::Select(
            SelectRequest::from_json(
                &Json::parse(
                    r#"{"problem":"leader-election","topology":"bi-ring","timing":"asynchronous"}"#,
                )
                .unwrap(),
            )
            .unwrap(),
        ),
    ]
}

/// A same-environment simplify burst: one request to occupy the single
/// worker for `handler_delay`, then eight that queue behind it.
fn same_env_burst(salt: usize) -> Vec<Request> {
    (0..9).map(|i| simplify(100 * salt + i)).collect()
}

fn one_worker() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        cache_enabled: false,
        handler_delay: Some(Duration::from_millis(20)),
        ..ServiceConfig::default()
    }
}

fn assert_solo(served: &[(Request, Response)]) {
    for (req, resp) in served {
        let solo = match req.handle() {
            Ok(json) => Response::Ok {
                payload: json.render(),
            },
            Err(message) => Response::Error { message },
        };
        assert_eq!(resp, &solo, "served answer differs from solo for {req:?}");
        assert!(
            matches!(resp, Response::Ok { .. }),
            "{req:?} answered {resp:?}"
        );
    }
}

fn pool_submits() -> Vec<u64> {
    let snap = gp_telemetry::snapshot();
    POOL_SUBMITS.iter().map(|c| snap.counter(c)).collect()
}

#[test]
fn no_served_request_touches_the_global_pool() {
    let before = pool_submits();
    let mut served: Vec<(Request, Response)> = Vec::new();

    // In-process service: every kind, then a burst on one worker.
    let mut svc = Service::start(ServiceConfig::default());
    for req in every_kind(0) {
        served.push((req.clone(), svc.call(req)));
    }
    svc.shutdown();
    let mut svc = Service::start(one_worker());
    let burst = same_env_burst(0);
    let tickets: Vec<Ticket> = burst.iter().map(|r| svc.submit(r.clone())).collect();
    served.extend(burst.into_iter().zip(tickets.into_iter().map(Ticket::wait)));
    svc.shutdown();

    // Reactor-fronted shard router: the same, over loopback TCP.
    let mut router = ShardRouter::start(ShardRouterConfig {
        shards: 2,
        base: ServiceConfig::default(),
        ..ShardRouterConfig::default()
    });
    let addr = router
        .listen_reactor("127.0.0.1:0", ReactorConfig::default())
        .unwrap();
    let mut client = TcpClient::connect(addr).unwrap();
    for req in every_kind(1) {
        served.push((req.clone(), client.call(&req).unwrap()));
    }
    drop(client);
    router.shutdown();
    let mut router = ShardRouter::start(ShardRouterConfig {
        shards: 2,
        base: one_worker(),
        ..ShardRouterConfig::default()
    });
    let addr = router
        .listen_reactor("127.0.0.1:0", ReactorConfig::default())
        .unwrap();
    let mut client = TcpClient::connect(addr).unwrap();
    let burst = same_env_burst(1);
    let responses = client.call_pipelined(&burst).unwrap();
    served.extend(burst.into_iter().zip(responses));
    drop(client);
    router.shutdown();

    assert_eq!(
        pool_submits(),
        before,
        "serving submitted work to the global pool ({POOL_SUBMITS:?})"
    );
    assert_solo(&served);
}
