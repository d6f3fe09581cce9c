//! # gp-telemetry — the observability substrate
//!
//! The paper's §3 systems all hinge on *seeing inside* generic components:
//! Simplicissimus reports which algebraic rewrites fired, STLlint reports
//! what its abstract execution explored. This crate is the single
//! substrate every layer of the reproduction reports through — the
//! work-stealing executor, the data-parallel primitives, the rewrite
//! engine, the checker, and the distributed simulator all publish into one
//! process-wide registry, so an experiment can snapshot the world before
//! and after a run and attribute exactly what the abstraction executed.
//!
//! Design constraints (measured in experiment E11t):
//!
//! * **Always compiled, cheap when idle.** Hot-path instrumentation is a
//!   single relaxed atomic increment on a pre-resolved [`Counter`]; there
//!   is no feature gate to get wrong, and the registry lock is touched
//!   only at name-resolution time (cold) and snapshot time.
//! * **Runtime kill switch.** [`set_enabled`]`(false)` turns untraced
//!   [`Span`]s into no-ops (no clock reads); counters keep counting
//!   because a relaxed increment is cheaper than a branch misprediction
//!   profile worth worrying about.
//! * **Lock-free reads.** [`Registry::snapshot`] reads every metric with
//!   relaxed loads; it never stops writers. Snapshots support
//!   [`Snapshot::delta`] so concurrent runs can be measured differentially,
//!   a fixed-width [`Snapshot::report`], and [`Snapshot::to_json`] whose
//!   output is spliceable into `gp_bench::Json::Raw` so metrics land in
//!   `results/BENCH_*.json` artifacts.
//!
//! Modules: [`metric`] (the atomic instruments), [`registry`] (the global
//! name → instrument map and snapshots), [`mod@span`] (the one RAII span
//! type: a `span.<name>.ns` histogram always, a trace record when a
//! context is attached), [`trace`] (causal traces with explicit parents
//! that survive thread hops), [`flight`] (a lock-free flight recorder of
//! recent structured events).

pub mod flight;
pub mod metric;
pub mod registry;
pub mod span;
pub mod trace;

pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use metric::{Counter, Gauge, HistSnapshot, Histogram};
pub use registry::{global, Registry, Snapshot};
pub use span::{Span, SpanName};
pub use trace::{SpanId, TraceContext, TraceHandle, TraceId, TraceStore};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turn span timing on or off at runtime. Disabled spans never read the
/// clock and never touch the registry; counters are unaffected (a relaxed
/// increment is the documented always-on cost).
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether span timing is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Convenience: the counter named `name` in the global registry
/// (resolving by name takes the registry lock — cache the returned
/// reference on hot paths).
pub fn counter(name: &str) -> &'static Counter {
    global().counter(name)
}

/// Convenience: the gauge named `name` in the global registry.
pub fn gauge(name: &str) -> &'static Gauge {
    global().gauge(name)
}

/// Convenience: the histogram named `name` in the global registry.
pub fn histogram(name: &str) -> &'static Histogram {
    global().histogram(name)
}

/// Convenience: snapshot the global registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Serializes unit tests that flip the global enable flag (or depend on
/// it staying on) against each other; `cargo test` runs tests in
/// parallel threads within this process.
#[cfg(test)]
pub(crate) fn test_flag_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_flag_round_trips() {
        let _guard = crate::test_flag_lock();
        assert!(enabled(), "telemetry starts enabled");
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }

    #[test]
    fn convenience_accessors_hit_the_global_registry() {
        counter("lib.test.counter").add(3);
        gauge("lib.test.gauge").set(-7);
        histogram("lib.test.hist").record(100);
        let s = snapshot();
        assert_eq!(s.counter("lib.test.counter"), 3);
        assert_eq!(s.gauge("lib.test.gauge"), -7);
        assert_eq!(s.histogram("lib.test.hist").unwrap().count, 1);
    }
}
