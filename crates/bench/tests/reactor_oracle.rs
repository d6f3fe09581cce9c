//! The blocking front end (`gp_bench::oracle::blocking`) is the
//! reactor's correctness oracle.
//!
//! Both front ends sit on the same serving core, and the reactor's
//! reorder buffer emits responses in request order — so for any request
//! stream, written to the socket in any chunking, the two paths must
//! produce **byte-identical** response streams. Not "equivalent JSON":
//! the same bytes. Conservation (`accepted == completed + shed`) must
//! also survive the pipelined path, where every request on a connection
//! is in the queue at once.

#![cfg(target_os = "linux")]

use gp_bench::oracle::blocking::BlockingServer;
use gp_rewrite::{BinOp, Expr, Type, UnOp};
use gp_service::lint::LintRequest;
use gp_service::optimize::{CostSpec, OptimizeRequest};
use gp_service::prove::ProveRequest;
use gp_service::simplify::{EnvSpec, SimplifyRequest};
use gp_service::wire::encode_frame;
use gp_service::{
    encode_request, encode_request_traced, ReactorConfig, Request, Service, ServiceConfig,
    ShardRouter, ShardRouterConfig,
};
use proptest::prelude::*;
use proptest::Strategy;
use rand::rngs::StdRng;
use rand::Rng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn arb_expr(rng: &mut StdRng, depth: usize) -> Expr {
    match rng.gen_range(0u32..if depth == 0 { 2 } else { 5 }) {
        0 => Expr::int(rng.gen_range(-4i64..5)),
        1 => Expr::var(format!("v{}", rng.gen_range(0u32..4)), Type::Int),
        2 => Expr::un(UnOp::Neg, arb_expr(rng, depth - 1)),
        _ => {
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][rng.gen_range(0usize..3)];
            Expr::bin(op, arb_expr(rng, depth - 1), arb_expr(rng, depth - 1))
        }
    }
}

fn arb_request(rng: &mut StdRng) -> Request {
    match rng.gen_range(0u32..6) {
        0..=2 => Request::Simplify(SimplifyRequest {
            expr: arb_expr(rng, 3),
            env: EnvSpec::Standard,
        }),
        5 => Request::Optimize(OptimizeRequest {
            expr: arb_expr(rng, 3),
            env: EnvSpec::Standard,
            cost: if rng.gen_bool(0.5) {
                CostSpec::Annotation
            } else {
                CostSpec::Measured
            },
            // Tight budgets keep saturation of random terms bounded; the
            // oracle property only needs byte-equal answers, not optimal
            // ones.
            max_nodes: Some(512),
            max_iters: Some(4),
        }),
        3 => Request::Lint(LintRequest {
            name: format!("p{}", rng.gen_range(0u32..3)),
            program: if rng.gen_bool(0.7) {
                "container xs vector\niter it = begin xs\nderef it\n".into()
            } else {
                "container xs vectorr\n".into() // handler errors too
            },
        }),
        _ => Request::Prove(ProveRequest {
            theory: ["monoid", "group", "nonexistent"][rng.gen_range(0usize..3)].into(),
            instance: format!("i{}", rng.gen_range(0u32..3)),
            model: vec![("op".into(), format!("op{}", rng.gen_range(0u32..3)))],
        }),
    }
}

/// A request stream plus a random chunking of its encoded bytes.
struct PipelinedStream {
    pool: usize,
    len: usize,
}

impl Strategy for PipelinedStream {
    type Value = (Vec<Request>, Vec<usize>);

    fn sample(&self, rng: &mut StdRng) -> (Vec<Request>, Vec<usize>) {
        let pool: Vec<Request> = (0..self.pool).map(|_| arb_request(rng)).collect();
        let stream: Vec<Request> = (0..rng.gen_range(1..=self.len))
            .map(|_| pool[rng.gen_range(0..pool.len())].clone())
            .collect();
        let mut buf = Vec::new();
        for (i, req) in stream.iter().enumerate() {
            encode_frame(&mut buf, &encode_request(i as u64 + 1, req));
        }
        let bytes = buf.len();
        let cuts = rng.gen_range(0..12);
        let mut points: Vec<usize> = (0..cuts).map(|_| rng.gen_range(0..=bytes)).collect();
        points.push(0);
        points.push(bytes);
        points.sort_unstable();
        points.dedup();
        (stream, points)
    }
}

/// Write the whole pipelined stream in the given chunking, half-close,
/// and read every response byte to EOF.
fn drive(addr: SocketAddr, stream: &[Request], cuts: &[usize]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (i, req) in stream.iter().enumerate() {
        encode_frame(&mut bytes, &encode_request(i as u64 + 1, req));
    }
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_nodelay(true).unwrap();
    for w in cuts.windows(2) {
        sock.write_all(&bytes[w[0]..w[1]]).expect("write chunk");
    }
    sock.shutdown(std::net::Shutdown::Write).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut out = Vec::new();
    sock.read_to_end(&mut out).expect("read responses");
    out
}

fn deep_config() -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        // Deeper than any generated stream: the reactor pipelines every
        // request into the queue at once, and a shed here would (correctly)
        // diverge from the one-at-a-time blocking client.
        queue_depth: 256,
        ..ServiceConfig::default()
    }
}

proptest! {
    /// For any request stream and any write chunking, the reactor's
    /// response byte stream equals the blocking path's.
    #[test]
    fn reactor_responses_are_byte_identical_to_blocking(
        (stream, cuts) in PipelinedStream { pool: 5, len: 16 }
    ) {
        let mut blocking = BlockingServer::start(deep_config(), 1024);
        let baddr = blocking.listen("127.0.0.1:0").unwrap();
        let mut reactor = Service::start(deep_config());
        let raddr = reactor
            .listen_reactor("127.0.0.1:0", ReactorConfig::default())
            .unwrap();

        let expected = drive(baddr, &stream, &[0, cuts[cuts.len() - 1]]);
        let got = drive(raddr, &stream, &cuts);
        prop_assert_eq!(
            &got,
            &expected,
            "reactor bytes diverge for {} requests",
            stream.len()
        );

        let rs = reactor.shutdown();
        prop_assert_eq!(rs.accepted, stream.len() as u64);
        prop_assert_eq!(rs.accepted, rs.completed + rs.shed);
        prop_assert_eq!(rs.shed, 0, "deep queue must not shed");
        prop_assert_eq!(rs.in_flight(), 0);
        let bs = blocking.shutdown();
        prop_assert_eq!(bs.accepted, bs.completed + bs.shed);
        prop_assert_eq!(bs.in_flight(), 0);
    }

    /// The shard router behind a reactor is *also* byte-identical to a
    /// single blocking service: routing may scatter requests over shards,
    /// but every response still comes back in request order with the
    /// same bytes.
    #[test]
    fn sharded_reactor_matches_the_single_blocking_service(
        (stream, cuts) in PipelinedStream { pool: 5, len: 12 }
    ) {
        let mut blocking = BlockingServer::start(deep_config(), 1024);
        let baddr = blocking.listen("127.0.0.1:0").unwrap();
        let mut router = ShardRouter::start(ShardRouterConfig {
            shards: 3,
            base: deep_config(),
            ..ShardRouterConfig::default()
        });
        let raddr = router
            .listen_reactor("127.0.0.1:0", ReactorConfig::default())
            .unwrap();

        let expected = drive(baddr, &stream, &[0, cuts[cuts.len() - 1]]);
        let got = drive(raddr, &stream, &cuts);
        prop_assert_eq!(&got, &expected, "sharded bytes diverge");

        let shard_stats = router.shutdown();
        let accepted: u64 = shard_stats.iter().map(|s| s.accepted).sum();
        let completed: u64 = shard_stats.iter().map(|s| s.completed).sum();
        let shed: u64 = shard_stats.iter().map(|s| s.shed).sum();
        prop_assert_eq!(accepted, stream.len() as u64);
        prop_assert_eq!(accepted, completed + shed);
        for s in &shard_stats {
            prop_assert_eq!(s.in_flight(), 0);
        }
        blocking.shutdown();
    }
}

/// Write a pipelined stream whose frames carry the given per-request
/// wire trace ids, half-close, and read every response byte to EOF.
fn drive_traced(addr: SocketAddr, stream: &[(Request, Option<u64>)]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (i, (req, trace)) in stream.iter().enumerate() {
        encode_frame(
            &mut bytes,
            &encode_request_traced(i as u64 + 1, req, *trace),
        );
    }
    let mut sock = TcpStream::connect(addr).expect("connect");
    sock.set_nodelay(true).unwrap();
    sock.write_all(&bytes).expect("write stream");
    sock.shutdown(std::net::Shutdown::Write).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut out = Vec::new();
    sock.read_to_end(&mut out).expect("read responses");
    out
}

proptest! {
    /// Tracing is strictly opt-in on the wire and invisible in the
    /// response bytes: a stream where requests randomly carry a
    /// `"trace":N` envelope field, served by the reactor with sampling
    /// forced to every-request, is byte-identical to the same stream
    /// served untraced by the blocking oracle. (PR 6's oracle property,
    /// preserved under the tracing machinery.)
    #[test]
    fn traced_requests_answer_byte_identically_to_the_untraced_oracle(
        (stream, _) in PipelinedStream { pool: 5, len: 12 },
        raw_tags in proptest::collection::vec(0u64..2_000, 12..13)
    ) {
        // Half the draws become `Some(trace_id)`, half stay untraced.
        let tags: Vec<Option<u64>> = raw_tags
            .iter()
            .map(|&t| (t >= 1_000).then_some(t))
            .collect();
        let mut blocking = BlockingServer::start(deep_config(), 1024);
        let baddr = blocking.listen("127.0.0.1:0").unwrap();
        let mut reactor = Service::start(deep_config());
        let raddr = reactor
            .listen_reactor("127.0.0.1:0", ReactorConfig::default())
            .unwrap();

        let tagged: Vec<(Request, Option<u64>)> = stream
            .iter()
            .cloned()
            .zip(tags.iter().cycle().cloned())
            .collect();
        let untraced: Vec<(Request, Option<u64>)> =
            stream.iter().cloned().map(|r| (r, None)).collect();

        // Force every tagged request through the full span machinery.
        let prev = gp_telemetry::trace::sampling();
        gp_telemetry::trace::set_sampling(1);
        let got = drive_traced(raddr, &tagged);
        gp_telemetry::trace::set_sampling(prev);
        let expected = drive_traced(baddr, &untraced);

        prop_assert_eq!(&got, &expected, "trace field leaked into responses");

        let rs = reactor.shutdown();
        prop_assert_eq!(rs.accepted, rs.completed + rs.shed);
        prop_assert_eq!(rs.in_flight(), 0);
        blocking.shutdown();
    }
}

/// Conservation under the reactor path across several pipelined
/// connections: every request admitted through the reactor is either
/// completed or shed, nothing leaks in flight. (The process-wide
/// `service.conn.open` gauge check lives in `exp_service_reactor`,
/// which runs single-threaded — here parallel test cases would race
/// on the global registry.)
#[test]
fn conservation_holds_under_the_reactor_path() {
    let mut svc = Service::start(deep_config());
    let addr = svc
        .listen_reactor("127.0.0.1:0", ReactorConfig::default())
        .unwrap();
    let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(7);
    for _ in 0..4 {
        let stream: Vec<Request> = (0..12).map(|_| arb_request(&mut rng)).collect();
        let mut bytes = 0;
        for (i, req) in stream.iter().enumerate() {
            let mut buf = Vec::new();
            encode_frame(&mut buf, &encode_request(i as u64 + 1, req));
            bytes += buf.len();
        }
        assert!(bytes > 0);
        let out = drive(addr, &stream, &[0, bytes]);
        assert!(!out.is_empty());
    }
    let stats = svc.shutdown();
    assert_eq!(stats.accepted, 48);
    assert_eq!(stats.accepted, stats.completed + stats.shed);
    assert_eq!(stats.in_flight(), 0);
}
