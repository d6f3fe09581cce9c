//! Cache-coherence and conservation properties for `gp-service`.
//!
//! Coherence: for random request streams (heavy with duplicates, so the
//! cache actually fires), a cached server must answer byte-for-byte
//! identically to a cacheless reference server — a cache that changes any
//! answer is a bug, not a tuning knob. Conservation: after a drained
//! shutdown, `accepted == completed + shed` exactly, including under a
//! tiny queue that sheds most of the stream.

use gp_core::json::Json;
use gp_rewrite::{BinOp, Expr, Type, UnOp};
use gp_service::lint::LintRequest;
use gp_service::prove::ProveRequest;
use gp_service::select::SelectRequest;
use gp_service::simplify::{EnvSpec, SimplifyRequest};
use gp_service::{Request, Response, Service, ServiceConfig};
use proptest::prelude::*;
use proptest::Strategy;
use rand::rngs::StdRng;
use rand::Rng;
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
        // Simplify dominates the mix: it exercises batching and the
        // largest codec surface.
        0..=2 => Request::Simplify(SimplifyRequest {
            expr: arb_expr(rng, 3),
            env: EnvSpec::Standard,
        }),
        3 => Request::Lint(LintRequest {
            name: format!("p{}", rng.gen_range(0u32..3)),
            program: if rng.gen_bool(0.7) {
                "container xs vector\niter it = begin xs\nderef it\n".into()
            } else {
                // A source-level parse error: handler errors must also be
                // coherent between cached and cacheless servers.
                "container xs vectorr\n".into()
            },
        }),
        4 => Request::Prove(ProveRequest {
            theory: ["monoid", "group", "ring", "nonexistent"][rng.gen_range(0usize..4)].into(),
            instance: format!("i{}", rng.gen_range(0u32..3)),
            model: vec![("op".into(), format!("op{}", rng.gen_range(0u32..3)))],
        }),
        _ => {
            let problems = ["leader-election", "broadcast", "spanning-tree"];
            let topologies = ["bi-ring", "tree", "arbitrary", "complete"];
            Request::Select(
                SelectRequest::from_json(
                    &Json::parse(&format!(
                        r#"{{"problem":"{}","topology":"{}","timing":"asynchronous"}}"#,
                        problems[rng.gen_range(0usize..problems.len())],
                        topologies[rng.gen_range(0usize..topologies.len())],
                    ))
                    .unwrap(),
                )
                .unwrap(),
            )
        }
    }
}

/// A random request stream: a small pool of distinct requests, then a
/// stream drawn from it with replacement — duplicates are the point.
struct RequestStream {
    pool: usize,
    len: usize,
}

impl Strategy for RequestStream {
    type Value = Vec<Request>;

    fn sample(&self, rng: &mut StdRng) -> Vec<Request> {
        let pool: Vec<Request> = (0..self.pool).map(|_| arb_request(rng)).collect();
        (0..self.len)
            .map(|_| pool[rng.gen_range(0..pool.len())].clone())
            .collect()
    }
}

proptest! {
    #[test]
    fn cached_server_is_byte_identical_to_cacheless_reference(
        stream in RequestStream { pool: 6, len: 24 }
    ) {
        let mut cached = Service::start(ServiceConfig {
            cache_shards: 2,
            cache_capacity: 8, // small enough that eviction also happens
            ..ServiceConfig::default()
        });
        let mut reference = Service::start(ServiceConfig {
            cache_enabled: false,
            ..ServiceConfig::default()
        });
        for req in &stream {
            let a = cached.call(req.clone());
            let b = reference.call(req.clone());
            prop_assert_eq!(&a, &b, "cached vs reference for {:?}", req.kind());
            // Every answer, from either path, is a well-formed payload or
            // a handler error — never a shed (queues are deep enough).
            match a {
                Response::Ok { payload } => { Json::parse(&payload).unwrap(); }
                Response::Error { .. } => {}
                Response::Overloaded => panic!("unloaded server shed a request"),
            }
        }
        let cs = cached.shutdown();
        let rs = reference.shutdown();
        prop_assert_eq!(cs.in_flight(), 0);
        prop_assert_eq!(rs.in_flight(), 0);
        prop_assert_eq!(rs.cache.hits + rs.cache.misses, 0, "reference has no cache");
    }

    #[test]
    fn conservation_holds_at_drain_without_shedding(
        stream in RequestStream { pool: 8, len: 20 }
    ) {
        let mut svc = Service::start(ServiceConfig::default());
        let n = stream.len() as u64;
        let tickets: Vec<_> = stream.into_iter().map(|r| svc.submit(r)).collect();
        let mut replies = 0u64;
        for t in tickets {
            t.wait();
            replies += 1;
        }
        let stats = svc.shutdown();
        prop_assert_eq!(stats.accepted, n);
        prop_assert_eq!(replies, n, "every submit gets exactly one reply");
        prop_assert_eq!(stats.accepted, stats.completed + stats.shed);
        prop_assert_eq!(stats.in_flight(), 0);
    }

    #[test]
    fn conservation_holds_at_drain_under_forced_shedding(
        stream in RequestStream { pool: 4, len: 30 }
    ) {
        let mut svc = Service::start(ServiceConfig {
            workers: 1,
            queue_depth: 2,
            cache_enabled: false, // hits would bypass the queue
            handler_delay: Some(Duration::from_millis(2)),
            ..ServiceConfig::default()
        });
        let n = stream.len() as u64;
        let tickets: Vec<_> = stream.into_iter().map(|r| svc.submit(r)).collect();
        let mut shed_replies = 0u64;
        for t in tickets {
            if matches!(t.wait(), Response::Overloaded) {
                shed_replies += 1;
            }
        }
        let stats = svc.shutdown();
        prop_assert_eq!(stats.accepted, n);
        prop_assert_eq!(stats.shed, shed_replies);
        prop_assert_eq!(stats.accepted, stats.completed + stats.shed);
        prop_assert_eq!(stats.in_flight(), 0);
        prop_assert!(stats.shed > 0, "30 submits into a 2-deep slow queue must shed");
    }
}
