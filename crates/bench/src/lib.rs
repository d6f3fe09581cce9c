//! # gp-bench — experiment harness
//!
//! One binary per experiment (E1–E12 of `DESIGN.md`/`EXPERIMENTS.md`) that
//! prints the table/series the paper's claim corresponds to, plus Criterion
//! benches (`benches/`) for the timing-sensitive claims. Shared workload
//! generators and table formatting live here, and so do the frozen
//! reference engines ([`oracle`]) that tests and baselines compare the
//! library against.

pub mod oracle;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The JSON value behind every `results/BENCH_*.json` artifact and the
/// `gp-service` wire protocol. The implementation (builder, compact
/// renderer, and the validating [`Json::parse`] reader that grew out of
/// this crate's escaping test suite) lives in [`gp_core::json`] so the
/// service crate can share it without a dependency cycle; this re-export
/// keeps `gp_bench::Json` the canonical spelling in experiment code.
pub use gp_core::json::{Json, JsonParseError};

/// Deterministic random integer workload.
pub fn random_ints(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.gen_range(-1_000_000..1_000_000))
        .collect()
}

/// Deterministic sorted workload.
pub fn sorted_ints(n: usize) -> Vec<i64> {
    (0..n as i64).map(|x| x * 3).collect()
}

/// Write a machine-readable artifact to `results/<file_name>`, creating
/// the `results/` directory first (a fresh checkout has none, and failing
/// at the end of a long run is the worst possible time). Every `exp_*`
/// binary emits its `BENCH_*.json` through this helper. A `--smoke` run
/// writes `BENCH_<x>.smoke.json` instead, so it never overwrites the
/// committed full-run artifact. Returns the path written.
pub fn write_results(file_name: &str, report: &Json) -> std::path::PathBuf {
    let out_dir = std::path::Path::new("results");
    std::fs::create_dir_all(out_dir)
        .unwrap_or_else(|e| panic!("create {}: {e}", out_dir.display()));
    let path = out_dir.join(if std::env::args().any(|a| a == "--smoke") {
        smoke_name(file_name)
    } else {
        file_name.to_string()
    });
    std::fs::write(&path, report.render() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    path
}

/// `BENCH_x.json` → `BENCH_x.smoke.json`.
fn smoke_name(file_name: &str) -> String {
    format!("{}.smoke.json", file_name.trim_end_matches(".json"))
}

/// Minimal fixed-width table printer for the experiment binaries.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Start a table and print the header row.
    pub fn new(headers: &[(&str, usize)]) -> Self {
        let widths: Vec<usize> = headers.iter().map(|(_, w)| *w).collect();
        let t = Table { widths };
        t.row(
            &headers
                .iter()
                .map(|(h, _)| h.to_string())
                .collect::<Vec<_>>(),
        );
        t.rule();
        t
    }

    /// Print one row.
    pub fn row(&self, cells: &[String]) {
        let line: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:<w$}", w = w))
            .collect();
        println!("{}", line.join("  "));
    }

    /// Print a horizontal rule.
    pub fn rule(&self) {
        let line: Vec<String> = self.widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("{}", line.join("  "));
    }
}

/// Spin for `units` of synthetic work (opaque to the optimizer): the
/// skewed per-element cost of the E11 scheduling workloads.
pub fn busy(units: u64) -> u64 {
    let mut acc = units;
    for _ in 0..units {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        acc = std::hint::black_box(acc);
    }
    acc
}

/// Depth-first `(depth, name, thread)` walk of a rendered span tree
/// (`gp_telemetry::trace::render_tree` output), in visit order.
pub fn flatten_trace(tree: &Json) -> Vec<(usize, String, String)> {
    fn walk(span: &Json, depth: usize, out: &mut Vec<(usize, String, String)>) {
        let field = |k: &str| span.get(k).and_then(Json::as_str).unwrap().to_string();
        out.push((depth, field("name"), field("thread")));
        for c in span.get("children").and_then(Json::as_arr).unwrap_or(&[]) {
            walk(c, depth + 1, out);
        }
    }
    let mut out = Vec::new();
    for root in tree.get("spans").and_then(Json::as_arr).expect("spans") {
        walk(root, 0, &mut out);
    }
    out
}

/// Best-of-`reps` wall time of `f` in milliseconds, after one warm-up
/// call.
pub fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Median wall time of `reps` calls of `f` in milliseconds (no warm-up).
pub fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Section banner used by every experiment binary.
pub fn banner(id: &str, title: &str, paper_ref: &str) {
    println!();
    println!("=== {id}: {title}");
    println!("    paper: {paper_ref}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        assert_eq!(random_ints(100, 7), random_ints(100, 7));
        assert_ne!(random_ints(100, 7), random_ints(100, 8));
        let s = sorted_ints(50);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn json_renders_valid_compact_output() {
        let j = Json::obj()
            .field("name", "exp \"quoted\"")
            .field("n", 1_000_000usize)
            .field("ms", 1.5f64)
            .field("ok", true)
            .field("series", Json::Arr(vec![Json::Num(1.0), Json::Null]));
        assert_eq!(
            j.render(),
            r#"{"name":"exp \"quoted\"","n":1000000,"ms":1.5,"ok":true,"series":[1,null]}"#
        );
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn smoke_artifacts_never_take_the_full_run_name() {
        assert_eq!(smoke_name("BENCH_control.json"), "BENCH_control.smoke.json");
    }
}
