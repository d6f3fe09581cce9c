//! Spans: one RAII type for timed regions, traced or not.
//!
//! A [`Span`] measures one region of work. When it closes it records the
//! elapsed wall time (nanoseconds) into the histogram `span.<name>.ns`
//! (having bumped `span.<name>.calls` on open), and — only when it was
//! opened through a [`TraceContext`] — it also records a
//! [`SpanRecord`](crate::trace::SpanRecord) with its explicit parent link
//! into that trace.
//!
//! A span's name is a `static` [`SpanName`] that resolves its two metric
//! handles once per process, so opening a span on a request path costs
//! no formatting and no registry lock. [`span!`](crate::span!) declares
//! the static inline for a literal name; call sites that share a name
//! (the service's per-kind tables) declare their own.
//!
//! When telemetry is disabled ([`crate::set_enabled`]`(false)`) an
//! untraced span is a no-op (no clock read, no metric update). A traced
//! span still records into its trace: the client asked for that trace.

use crate::metric::{Counter, Histogram};
use crate::registry::global;
use crate::trace::{SpanId, TraceContext};
use std::sync::OnceLock;
use std::time::Instant;

/// A span name with its `span.<name>.ns` / `span.<name>.calls` handles,
/// resolved on first use. Declare one as a `static`.
pub struct SpanName {
    name: &'static str,
    metrics: OnceLock<(&'static Histogram, &'static Counter)>,
}

impl SpanName {
    /// A name whose metrics resolve lazily.
    pub const fn new(name: &'static str) -> SpanName {
        SpanName {
            name,
            metrics: OnceLock::new(),
        }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn metrics(&self) -> (&'static Histogram, &'static Counter) {
        *self.metrics.get_or_init(|| {
            (
                global().histogram(&format!("span.{}.ns", self.name)),
                global().counter(&format!("span.{}.calls", self.name)),
            )
        })
    }
}

/// Open an untraced span over a literal name, declaring its [`SpanName`]
/// static in place: `let _span = gp_telemetry::span!("par_map");`.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static NAME: $crate::SpanName = $crate::SpanName::new($name);
        $crate::Span::enter(&NAME)
    }};
}

/// An open span; see the module docs. `Send`, so a traced span may be
/// moved into a queue, a boxed job, or a callback on another thread and
/// closed there.
pub struct Span {
    name: &'static SpanName,
    /// Open time; `None` when the span records nowhere.
    start: Option<Instant>,
    /// Whether the close feeds `span.<name>.ns` (telemetry was enabled
    /// at open).
    timed: bool,
    trace: Option<(TraceContext, SpanId, Option<SpanId>)>,
}

impl Span {
    /// Open an untraced span (a no-op while telemetry is disabled).
    pub fn enter(name: &'static SpanName) -> Span {
        Span::open(name, None)
    }

    /// Open a span, recording into `trace` (context, this span's id, its
    /// parent) when one is attached.
    pub(crate) fn open(
        name: &'static SpanName,
        trace: Option<(TraceContext, SpanId, Option<SpanId>)>,
    ) -> Span {
        let timed = crate::enabled();
        if timed {
            name.metrics().1.incr();
        }
        let start = (timed || trace.is_some()).then(Instant::now);
        Span {
            name,
            start,
            timed,
            trace,
        }
    }

    /// This span's id within its trace (`None` when untraced) — the
    /// parent link for child spans.
    pub fn id(&self) -> Option<SpanId> {
        self.trace.as_ref().map(|t| t.1)
    }

    /// Close the span now (drop does the same; this spells out intent).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let end = Instant::now();
        if self.timed {
            self.name
                .metrics()
                .0
                .record(end.duration_since(start).as_nanos() as u64);
        }
        if let Some((ctx, id, parent)) = self.trace.take() {
            ctx.record(id, parent, self.name.name, start, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot;

    #[test]
    fn span_records_duration_and_call_count() {
        let _guard = crate::test_flag_lock();
        let before = snapshot();
        {
            let s = crate::span!("span_unit_test");
            assert_eq!(s.id(), None, "untraced spans have no trace id");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let d = snapshot().delta(&before);
        assert_eq!(d.counter("span.span_unit_test.calls"), 1);
        let h = d.histogram("span.span_unit_test.ns").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.sum >= 1_000_000, "slept 2ms, recorded {}ns", h.sum);
    }

    #[test]
    fn names_resolve_once_and_are_shared_across_opens() {
        static NAME: SpanName = SpanName::new("span_shared_name_test");
        let _guard = crate::test_flag_lock();
        let before = snapshot();
        for _ in 0..3 {
            Span::enter(&NAME).finish();
        }
        let (hist, calls) = NAME.metrics();
        assert!(std::ptr::eq(hist, NAME.metrics().0), "one handle");
        let d = snapshot().delta(&before);
        assert_eq!(calls.get(), 3);
        assert_eq!(
            d.histogram("span.span_shared_name_test.ns").unwrap().count,
            3
        );
    }

    #[test]
    fn disabled_spans_are_no_ops() {
        let _guard = crate::test_flag_lock();
        crate::set_enabled(false);
        let before = snapshot();
        {
            let s = crate::span!("disabled_span_test");
            assert!(s.start.is_none(), "disabled span must not read the clock");
        }
        let d = snapshot().delta(&before);
        assert_eq!(d.counter("span.disabled_span_test.calls"), 0);
        assert!(d.histogram("span.disabled_span_test.ns").is_none());
        crate::set_enabled(true);
    }

    #[test]
    fn traced_spans_feed_both_the_histogram_and_the_trace() {
        static NAME: SpanName = SpanName::new("span_traced_test");
        let _guard = crate::test_flag_lock();
        let before = snapshot();
        let ctx = TraceContext::new(11);
        let s = ctx.span(&NAME, None);
        assert_eq!(s.id(), Some(SpanId(0)));
        s.finish();
        assert_eq!(ctx.recorded(), 1);
        let d = snapshot().delta(&before);
        assert_eq!(d.counter("span.span_traced_test.calls"), 1);
        assert_eq!(d.histogram("span.span_traced_test.ns").unwrap().count, 1);
    }
}
