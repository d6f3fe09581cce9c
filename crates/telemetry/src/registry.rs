//! The process-wide metric registry and point-in-time snapshots.
//!
//! Name resolution (`counter("pool.steal_hit")`) takes a mutex and looks
//! the name up, allocating only when it registers a new name. Hot paths
//! still resolve once: instruments are leaked into `'static` storage so
//! the returned references can be cached in `OnceLock`s next to the hot
//! loops that bump them. Snapshots walk the
//! name map under the same mutex but read each instrument with relaxed
//! loads, so they never block writers.

use crate::metric::{Counter, Gauge, HistSnapshot, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, &'static Counter>,
    gauges: BTreeMap<String, &'static Gauge>,
    histograms: BTreeMap<String, &'static Histogram>,
}

/// The instrument registered as `name`, leaking a fresh one on first use.
/// An existing name is found by `&str` lookup: only a first registration
/// allocates (the key and the instrument).
fn resolve<T>(
    map: &mut BTreeMap<String, &'static T>,
    name: &str,
    new: impl FnOnce() -> T,
) -> &'static T {
    if let Some(&found) = map.get(name) {
        return found;
    }
    let leaked: &'static T = Box::leak(Box::new(new()));
    map.insert(name.to_string(), leaked);
    leaked
}

/// A named collection of instruments. Most code uses the process-wide
/// [`global`] instance; tests can build private registries.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

/// The process-wide registry every subsystem reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    /// A fresh, empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use. The reference is
    /// `'static`: resolve once, cache, and increment lock-free after.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut inner = self.inner.lock().expect("registry lock");
        resolve(&mut inner.counters, name, Counter::new)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut inner = self.inner.lock().expect("registry lock");
        resolve(&mut inner.gauges, name, Gauge::new)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut inner = self.inner.lock().expect("registry lock");
        resolve(&mut inner.histograms, name, Histogram::new)
    }

    /// Point-in-time view of every registered instrument.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry lock");
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time view of a [`Registry`]: plain owned maps, safe to keep,
/// diff, print, or serialize long after the writers have moved on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Counter value, 0 if the counter does not exist in this snapshot.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge level, 0 if absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram state, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms.get(name)
    }

    /// What happened between `earlier` and `self`: counter and histogram
    /// values subtract (saturating — instruments are monotone, so a
    /// negative difference only means `earlier` isn't actually earlier);
    /// gauges are levels, not totals, so the delta keeps the later level.
    /// Instruments born after `earlier` appear with their full value.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| match earlier.histograms.get(k) {
                    Some(e) => (k.clone(), h.delta(e)),
                    None => (k.clone(), h.clone()),
                })
                .collect(),
        }
    }

    /// The sub-snapshot of instruments whose name starts with `prefix`.
    pub fn filter(&self, prefix: &str) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Sum of all counters matching `prefix` (per-worker rollups).
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Fixed-width text report: one line per instrument, zero-valued
    /// counters elided (they are registered, just silent).
    pub fn report(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<44} {:>16}", "counter", "value");
        for (k, v) in &self.counters {
            if *v > 0 {
                let _ = writeln!(out, "{k:<44} {v:>16}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "{:<44} {:>16}", "gauge", "level");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "{k:<44} {v:>16}");
            }
        }
        if self.histograms.values().any(|h| h.count > 0) {
            let _ = writeln!(
                out,
                "{:<44} {:>10} {:>12} {:>10} {:>10}",
                "histogram", "count", "mean", "min", "max"
            );
            for (k, h) in &self.histograms {
                if h.count > 0 {
                    let _ = writeln!(
                        out,
                        "{:<44} {:>10} {:>12.1} {:>10} {:>10}",
                        k,
                        h.count,
                        h.mean(),
                        h.min,
                        h.max
                    );
                }
            }
        }
        out
    }

    /// Compact JSON rendering:
    /// `{"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,
    /// "sum":..,"min":..,"max":..,"buckets":[[lo,count],..]}}}`.
    ///
    /// The output is a self-contained JSON object, designed to be spliced
    /// verbatim into a `gp_bench::Json::Raw` so registry snapshots land in
    /// the `results/BENCH_*.json` artifacts. Names are metric identifiers
    /// (dots, digits, ASCII letters), but escaping is applied anyway so
    /// arbitrary names stay valid JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, k);
            // An empty histogram's min is the u64::MAX sentinel; render 0
            // so consumers never see the sentinel.
            let min = if h.count == 0 { 0 } else { h.min };
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                h.count, h.sum, min, h.max
            );
            for (j, (lo, c)) in h.nonzero_buckets().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lo},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// Append `s` as a JSON string literal (quotes, backslashes, and control
/// characters escaped).
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_returns_the_same_instrument() {
        let r = Registry::new();
        let a = r.counter("x") as *const Counter;
        let b = r.counter("x") as *const Counter;
        assert_eq!(a, b);
        let c = r.counter("y") as *const Counter;
        assert_ne!(a, c);
    }

    #[test]
    fn snapshot_sees_all_kinds() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.gauge("b").set(-1);
        r.histogram("c").record(7);
        let s = r.snapshot();
        assert_eq!(s.counter("a"), 2);
        assert_eq!(s.gauge("b"), -1);
        assert_eq!(s.histogram("c").unwrap().count, 1);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_new_ones() {
        let r = Registry::new();
        r.counter("a").add(5);
        let before = r.snapshot();
        r.counter("a").add(3);
        r.counter("born.later").add(11);
        let after = r.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.counter("a"), 3);
        assert_eq!(d.counter("born.later"), 11);
    }

    #[test]
    fn filter_and_sum_select_by_prefix() {
        let r = Registry::new();
        r.counter("pool.worker0.jobs").add(4);
        r.counter("pool.worker1.jobs").add(6);
        r.counter("other").add(100);
        let s = r.snapshot();
        assert_eq!(s.counter_sum("pool.worker"), 10);
        let f = s.filter("pool.");
        assert_eq!(f.counters.len(), 2);
        assert_eq!(f.counter("other"), 0);
    }

    #[test]
    fn report_is_fixed_width_and_elides_zeros() {
        let r = Registry::new();
        r.counter("seen").add(1);
        r.counter("silent");
        r.histogram("h").record(1000);
        let text = r.snapshot().report();
        assert!(text.contains("seen"));
        assert!(!text.contains("silent"));
        assert!(text.contains("histogram"));
        // Every line pads the name column to the same width.
        let name_cols: Vec<usize> = text
            .lines()
            .filter(|l| l.contains("seen") || l.contains("counter"))
            .map(|l| l.find(char::is_whitespace).unwrap_or(0))
            .collect();
        assert!(!name_cols.is_empty());
    }

    #[test]
    fn json_is_well_formed_and_escapes_names() {
        let r = Registry::new();
        r.counter("plain").add(1);
        r.counter("weird\"name\\with\nctrl\u{1}").add(2);
        r.histogram("h").record(3);
        r.histogram("empty");
        let j = r.snapshot().to_json();
        assert!(j.starts_with("{\"counters\":{"));
        assert!(j.contains("\\\"name\\\\with\\nctrl\\u0001"));
        // The empty histogram renders min 0, not the u64::MAX sentinel.
        assert!(j.contains("\"empty\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]}"));
        assert!(j.contains("\"h\":{\"count\":1,\"sum\":3,\"min\":3,\"max\":3,\"buckets\":[[2,1]]}"));
        // Balanced braces/brackets (cheap well-formedness check; the bench
        // crate's round-trip tests parse it fully).
        let open = j.chars().filter(|c| *c == '{').count();
        let close = j.chars().filter(|c| *c == '}').count();
        assert_eq!(open, close);
    }
}
