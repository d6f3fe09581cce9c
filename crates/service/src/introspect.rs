//! The live introspection plane: `stats` and `trace` wire requests.
//!
//! A running cluster must be inspectable without restart. Two request
//! kinds ride the existing envelope:
//!
//! * `stats` — `{"prefix": "..."}` — a snapshot of the process-wide
//!   telemetry registry (optionally filtered by metric-name prefix), with
//!   p50/p95/p99 derived from each histogram's log2 buckets via
//!   [`gp_telemetry::HistSnapshot::percentile`].
//! * `trace` — `{"id": N}` — the assembled span tree of a completed
//!   sampled trace, fetched from the serving shard's bounded
//!   [`gp_telemetry::TraceStore`] (a router probes every shard's store).
//!
//! Both are answered synchronously at admission — they never enter the
//! work queue, are never cached, and work identically in process and on
//! every front end because all of them funnel through the same
//! submission path.

use crate::request::{RequestKind, Route};
use gp_core::json::Json;
use gp_telemetry::trace::{render_tree, TraceId, TraceStore};

/// The `stats` request: export the telemetry registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsRequest {
    /// Restrict the export to metrics whose name starts with this prefix
    /// (empty = everything).
    pub prefix: String,
}

impl RequestKind for StatsRequest {
    const NAME: &'static str = "stats";
    const CODE: u64 = 5;

    /// A missing prefix means "everything".
    fn from_json(j: &Json) -> Result<StatsRequest, String> {
        Ok(StatsRequest {
            prefix: j
                .get("prefix")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        })
    }

    fn to_json(&self) -> Json {
        Json::obj().field("prefix", self.prefix.as_str())
    }

    fn handle(&self) -> Result<Json, String> {
        Ok(Json::Raw(stats_payload(&self.prefix)))
    }

    fn answer_inline(&self, _traces: &TraceStore) -> Option<Result<Json, String>> {
        Some(self.handle())
    }

    #[cfg(test)]
    fn sample(_salt: usize) -> Self {
        StatsRequest {
            prefix: "service.".into(),
        }
    }
}

/// The `trace` request: fetch one assembled trace tree by id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceQuery {
    /// The trace id the client sent in its original request's `trace`
    /// field.
    pub id: u64,
}

impl RequestKind for TraceQuery {
    const NAME: &'static str = "trace";
    const CODE: u64 = 6;

    fn from_json(j: &Json) -> Result<TraceQuery, String> {
        Ok(TraceQuery {
            id: crate::request::wire_u64(j.get("id")).ok_or("trace: missing numeric field 'id'")?,
        })
    }

    fn to_json(&self) -> Json {
        Json::obj().field("id", self.id)
    }

    /// Trace lookups need a serving shard's store, which only
    /// [`answer_inline`](RequestKind::answer_inline) has.
    fn handle(&self) -> Result<Json, String> {
        Err("trace lookup requires a running service".into())
    }

    fn answer_inline(&self, traces: &TraceStore) -> Option<Result<Json, String>> {
        let tree = traces.with_spans(self.id, |spans| render_tree(TraceId(self.id), spans));
        Some(match tree {
            Some(tree) => Ok(Json::Raw(tree)),
            None => Err(format!(
                "trace {} not found (unsampled, still in flight, or evicted)",
                self.id
            )),
        })
    }

    /// The shard that executed the traced request holds the trace.
    fn route(&self) -> Route {
        Route::Trace(self.id)
    }

    #[cfg(test)]
    fn sample(salt: usize) -> Self {
        TraceQuery { id: salt as u64 }
    }
}

/// Render the `stats` payload: the registry snapshot (exact-integer JSON
/// from [`gp_telemetry::Snapshot::to_json`]) plus derived percentiles for
/// every non-empty histogram:
/// `{"enabled":bool,"sampling":N,"metrics":{...},"percentiles":
/// {"<hist>":{"p50":N,"p95":N,"p99":N},..}}`.
pub fn stats_payload(prefix: &str) -> String {
    let snap = gp_telemetry::snapshot();
    let snap = if prefix.is_empty() {
        snap
    } else {
        snap.filter(prefix)
    };
    let mut out = format!(
        "{{\"enabled\":{},\"sampling\":{},\"metrics\":{},\"percentiles\":{{",
        gp_telemetry::enabled(),
        gp_telemetry::trace::sampling(),
        snap.to_json()
    );
    let mut first = true;
    for (name, hist) in &snap.histograms {
        if hist.count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        // Metric names are registry-controlled identifiers (no quotes or
        // control characters), so they embed directly.
        out.push_str(&format!(
            "\"{}\":{{\"p50\":{},\"p95\":{},\"p99\":{}}}",
            name,
            hist.percentile(0.50),
            hist.percentile(0.95),
            hist.percentile(0.99)
        ));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_prefix_defaults_to_everything_and_trace_requires_an_id() {
        let empty = Json::parse("{}").unwrap();
        assert_eq!(StatsRequest::from_json(&empty).unwrap().prefix, "");
        assert!(TraceQuery::from_json(&empty).is_err());
    }

    #[test]
    fn stats_payload_is_valid_json_with_percentiles() {
        gp_telemetry::histogram("introspect.test.lat.ns").record(1000);
        gp_telemetry::histogram("introspect.test.lat.ns").record(2000);
        let payload = stats_payload("introspect.test.");
        let parsed = Json::parse(&payload).expect("stats payload parses");
        let p50 = parsed
            .get("percentiles")
            .and_then(|p| p.get("introspect.test.lat.ns"))
            .and_then(|h| h.get("p50"))
            .and_then(Json::as_f64)
            .expect("p50 present");
        assert!((500.0..=4000.0).contains(&p50), "p50 {p50} within 2x");
        assert!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("histograms"))
                .is_some(),
            "snapshot spliced under 'metrics'"
        );
        // Prefix filtering drops unrelated metrics.
        assert!(payload.contains("introspect.test.lat.ns"));
        assert!(!payload.contains("\"pool."));
    }
}
