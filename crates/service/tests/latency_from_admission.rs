//! `service.latency.<kind>.ns` measures every request from admission to
//! reply, whichever path answers it. A cache hit does real work after
//! admission (rendering the canonical request, hashing it, comparing it
//! with the cached entry's), and its sample must include that work.
//!
//! The latency histograms are process-wide, so this test has its own
//! binary: no other request can land in the same histogram meanwhile.

use gp_service::lint::LintRequest;
use gp_service::{Request, Response, Service, ServiceConfig};
use std::time::Instant;

#[test]
fn a_cache_hit_records_its_latency_from_admission() {
    // A comment-only program: trivial to check, but megabytes of
    // canonical text to hash and compare on the hit.
    let request = Request::Lint(LintRequest {
        name: "big".into(),
        program: format!("#{}\n", "x".repeat(4 << 20)),
    });
    // The fastest of several hashes after a warm-up pass: a slow phase
    // of the host can only raise a timing, never lower this bound.
    let hash_ns = {
        let canonical = request.canonical();
        std::hint::black_box(gp_core::hash::fnv1a_bytes(&canonical));
        (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(gp_core::hash::fnv1a_bytes(&canonical));
                t.elapsed().as_nanos() as u64
            })
            .min()
            .expect("five timings")
    };
    let mut svc = Service::start(ServiceConfig::default());
    assert!(matches!(svc.call(request.clone()), Response::Ok { .. }));
    let latency = gp_telemetry::histogram("service.latency.lint.ns");
    let before = latency.snapshot();
    assert!(matches!(svc.call(request), Response::Ok { .. }));
    let hit = latency.snapshot().delta(&before);
    let stats = svc.shutdown();
    assert_eq!(stats.completed, 2);
    assert_eq!(hit.count, 1, "the hit records one sample");
    assert!(
        hit.sum >= hash_ns / 2,
        "a hit's sample ({} ns) must cover hashing its request after admission (~{hash_ns} ns)",
        hit.sum
    );
}
