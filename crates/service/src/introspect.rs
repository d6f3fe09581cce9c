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
//! work queue, are never cached, and work identically on the blocking
//! and reactor front ends because both funnel through the same
//! submission path.

use gp_core::json::Json;

/// The `stats` request: export the telemetry registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsRequest {
    /// Restrict the export to metrics whose name starts with this prefix
    /// (empty = everything).
    pub prefix: String,
}

impl StatsRequest {
    /// Canonical `req` object.
    pub fn to_json(&self) -> Json {
        Json::obj().field("prefix", self.prefix.as_str())
    }

    /// Decode from a `req` object (a missing prefix means "everything").
    pub fn from_json(j: &Json) -> Result<StatsRequest, String> {
        Ok(StatsRequest {
            prefix: j
                .get("prefix")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        })
    }
}

/// The `trace` request: fetch one assembled trace tree by id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceQuery {
    /// The trace id the client sent in its original request's `trace`
    /// field.
    pub id: u64,
}

impl TraceQuery {
    /// Canonical `req` object.
    pub fn to_json(&self) -> Json {
        Json::obj().field("id", self.id)
    }

    /// Decode from a `req` object.
    pub fn from_json(j: &Json) -> Result<TraceQuery, String> {
        Ok(TraceQuery {
            id: crate::request::wire_u64(j.get("id")).ok_or("trace: missing numeric field 'id'")?,
        })
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
    fn stats_request_round_trips_and_defaults_prefix() {
        let r = StatsRequest {
            prefix: "service.".into(),
        };
        let back = StatsRequest::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        let empty = StatsRequest::from_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(empty.prefix, "");
    }

    #[test]
    fn trace_query_round_trips_and_requires_id() {
        let q = TraceQuery { id: 42 };
        assert_eq!(TraceQuery::from_json(&q.to_json()).unwrap(), q);
        assert!(TraceQuery::from_json(&Json::parse("{}").unwrap()).is_err());
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
