//! Wire-level contract for the `optimize` request kind: the e-graph is a
//! new engine, but on the wire it is just another cacheable, sheddable,
//! conservation-counted request.
//!
//! * decode/encode round-trip through real frames, including the
//!   canonical-form stability that keys the shared response cache;
//! * malformed optimize frames are rejected at decode, not at dispatch;
//! * a repeat request is answered from the cache with byte-identical
//!   payload — over TCP through the reactor, against a live service;
//! * a flood against a tiny queue sheds `Overloaded` (retriable, the
//!   server did no e-graph work) and the conservation law holds.

use gp_rewrite::{BinOp, Expr, Type, UnOp};
use gp_service::optimize::{CostSpec, OptimizeRequest};
use gp_service::simplify::EnvSpec;
use gp_service::{
    decode_request, encode_request, ReactorConfig, Request, Response, Service, ServiceConfig,
    TcpClient,
};
use std::time::Duration;

fn cancellation(tag: u32) -> Expr {
    let x = Expr::var(format!("x{tag}"), Type::Int);
    let y = Expr::var(format!("y{tag}"), Type::Int);
    Expr::bin(
        BinOp::Add,
        Expr::bin(BinOp::Add, x, y.clone()),
        Expr::un(UnOp::Neg, y),
    )
}

fn optimize_request(tag: u32) -> Request {
    Request::Optimize(OptimizeRequest {
        expr: cancellation(tag),
        env: EnvSpec::Standard,
        cost: CostSpec::Measured,
        max_nodes: Some(4096),
        max_iters: None,
    })
}

#[test]
fn optimize_frames_round_trip_and_share_canonical_form() {
    let req = optimize_request(0);
    let frame = encode_request(9, &req);
    let (id, back) = decode_request(&frame).unwrap();
    assert_eq!(id, 9);
    assert_eq!(back, req);
    assert_eq!(back.canonical(), req.canonical());
    assert!(back.canonical().starts_with("optimize:"));

    // Field order on the wire does not change the canonical form: the
    // decoder re-canonicalizes, so reordered clients share cache entries.
    let reordered = frame.replace(
        "\"cost-model\":\"measured\",\"max-nodes\":4096",
        "\"max-nodes\":4096,\"cost-model\":\"measured\"",
    );
    assert_ne!(
        reordered, frame,
        "replacement must have rewritten the frame"
    );
    let (_, from_reordered) = decode_request(&reordered).unwrap();
    assert_eq!(from_reordered.canonical(), req.canonical());
}

#[test]
fn malformed_optimize_frames_are_rejected_at_decode() {
    for req in [
        r#"{"cost-model":"annotation"}"#,
        r#"{"expr":{"var":["x","int"]},"cost-model":"genetic"}"#,
        r#"{"expr":{"var":["x","int"]},"max-nodes":0}"#,
        r#"{"expr":{"var":["x","int"]},"max-iters":9999}"#,
    ] {
        let frame = format!(r#"{{"id":1,"kind":"optimize","req":{req}}}"#);
        assert!(decode_request(&frame).is_err(), "accepted {frame}");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn served_optimize_is_cached_byte_identically() {
    let mut svc = Service::start(ServiceConfig::default());
    let addr = svc
        .listen_reactor("127.0.0.1:0", ReactorConfig::default())
        .unwrap();
    let mut client = TcpClient::connect(addr).unwrap();
    let req = optimize_request(1);
    let fresh = match client.call(&req).unwrap() {
        Response::Ok { payload } => payload,
        other => panic!("fresh optimize: {other:?}"),
    };
    // The superoptimizer found the cancellation the directed engine
    // cannot: (x1 + y1) + (-y1) extracts to the bare variable.
    assert!(fresh.contains("\"display\":\"x1\""), "payload: {fresh}");
    // A second client, same question: cache hit, byte-identical.
    let mut other = TcpClient::connect(addr).unwrap();
    match other.call(&req).unwrap() {
        Response::Ok { payload } => assert_eq!(payload, fresh),
        resp => panic!("cached optimize: {resp:?}"),
    }
    let stats = svc.shutdown();
    assert!(stats.cache.hits >= 1, "{stats:?}");
    assert_eq!(stats.accepted, stats.completed + stats.shed);
}

#[test]
fn optimize_flood_sheds_retriable_overloaded_and_conserves() {
    let mut svc = Service::start(ServiceConfig {
        workers: 1,
        queue_depth: 1,
        cache_enabled: false,
        handler_delay: Some(Duration::from_millis(5)),
        ..ServiceConfig::default()
    });
    let tickets: Vec<_> = (0..48).map(|i| svc.submit(optimize_request(i))).collect();
    let mut served = 0u64;
    let mut shed = 0u64;
    for t in tickets {
        match t.wait() {
            Response::Ok { payload } => {
                assert!(payload.contains("\"display\":\"x"));
                served += 1;
            }
            Response::Overloaded => shed += 1,
            Response::Error { message } => panic!("optimize errored under load: {message}"),
        }
    }
    let stats = svc.shutdown();
    assert!(shed > 0, "tiny queue under optimize flood must shed");
    assert!(
        served > 0,
        "shedding must not starve admitted optimize work"
    );
    assert_eq!(served + shed, 48);
    assert_eq!(stats.accepted, stats.completed + stats.shed);
    assert_eq!(stats.in_flight(), 0);
}
