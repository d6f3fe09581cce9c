//! Serving benchmark for the concept-query server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hot-repeat --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Drives `gp-service` over loopback TCP (reactor → shard router →
//! queue → cache → engines) with two closed-loop connections, checks
//! every answer it can against references that hold no cache state, and
//! prints each metric by name with its unit. The last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. Any wrong answer makes the
//! exit code non-zero. See `perfbench/README.md` for the workloads and
//! the map from layer metrics to end-to-end metrics.

mod alloc;
mod check;
mod gen;
mod host;
mod load;
mod trace;

use gen::{Inputs, Workload};
use load::{Conn, HotFrames, WindowOut};
use std::process::{Command, ExitCode};
use std::time::Duration;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Cold set-ups measured in child processes per run (plus the run's
/// own); `setup_s` is their median. A child starts with empty
/// process-wide caches, which repeated set-ups in one process would not.
const SETUP_PROBES: usize = 6;
/// Most requests the traced replay sends.
const REPLAY_MAX: u64 = 4000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => trace = value()? == "1",
            "--setup-probe" => setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload
            .ok_or("--workload is required (hot-repeat, engine-unique, lint-edits)")?,
        seed,
        seconds,
        trace,
        setup_probe,
    })
}

fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of `xs` (of all of
/// them when there are fewer than four). Like the median it ignores the
/// slowest and fastest quarter of a run's slices, but it averages the
/// rest instead of picking one, so it moves less from run to run.
fn iqm(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let cut = xs.len() / 4;
    let mid = &xs[cut..xs.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Nearest-rank percentile of sorted nanosecond samples, in ms.
fn percentile_ms(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1]) / 1e6
}

fn inputs_for(args: &Args) -> Result<(std::sync::Arc<Inputs>, Option<HotFrames>), String> {
    let inputs = Inputs::new(args.workload, args.seed);
    let hot = match args.workload {
        Workload::HotRepeat => Some(HotFrames::new(&inputs)?),
        _ => None,
    };
    Ok((inputs, hot))
}

/// `--setup-probe`: one cold set-up in this fresh process.
fn probe(args: &Args) -> Result<(), String> {
    let (inputs, hot) = inputs_for(args)?;
    let setup = load::setup(&inputs, hot.as_ref()).map_err(|e| e.to_string())?;
    if setup.warm_failures > 0 {
        return Err(format!("{} warm-up requests failed", setup.warm_failures));
    }
    println!("setup_s {}", setup.seconds);
    Ok(())
}

fn spawn_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("set-up probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    text.lines()
        .filter_map(|l| l.strip_prefix("setup_s "))
        .next_back()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("set-up probe printed no time: {text}"))
}

/// Counter readings taken around a window.
#[derive(Clone, Copy, Default)]
struct Counters {
    accepted: u64,
    batched: u64,
    shed: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    summary_hit: u64,
    summary_miss: u64,
    fn_analyzed: u64,
    /// Accepted per shard (two shards by default; extra ones fold in).
    shard_accepted: [u64; 2],
}

impl Counters {
    fn read(router: &gp_service::ShardRouter) -> Counters {
        let agg = router.aggregate_stats();
        let mut shard_accepted = [0u64; 2];
        for (i, s) in router.stats().iter().enumerate() {
            shard_accepted[i.min(1)] += s.accepted;
        }
        let c = |n: &str| gp_telemetry::counter(n).get();
        Counters {
            accepted: agg.accepted,
            batched: agg.batched,
            shed: agg.shed,
            hits: agg.cache.hits,
            misses: agg.cache.misses,
            evictions: agg.cache.evictions,
            summary_hit: c("checker.summary.hit"),
            summary_miss: c("checker.summary.miss"),
            fn_analyzed: c("checker.fn.analyzed"),
            shard_accepted,
        }
    }

    fn since(self, b: Counters) -> Counters {
        Counters {
            accepted: self.accepted - b.accepted,
            batched: self.batched - b.batched,
            shed: self.shed - b.shed,
            hits: self.hits - b.hits,
            misses: self.misses - b.misses,
            evictions: self.evictions - b.evictions,
            summary_hit: self.summary_hit - b.summary_hit,
            summary_miss: self.summary_miss - b.summary_miss,
            fn_analyzed: self.fn_analyzed - b.fn_analyzed,
            shard_accepted: [
                self.shard_accepted[0] - b.shard_accepted[0],
                self.shard_accepted[1] - b.shard_accepted[1],
            ],
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: note.into(),
    }
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<30} {:>16.4} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Tallies the correctness gate keeps.
#[derive(Default)]
struct Gate {
    problems: Vec<String>,
    checked: usize,
}

impl Gate {
    fn fail(&mut self, p: impl Into<String>) {
        self.problems.push(p.into());
    }

    fn window(&mut self, w: &WindowOut) {
        let c = &w.client;
        if c.wrong > 0 {
            let first = c.first_wrong.clone().unwrap_or_default();
            self.fail(format!("{} wrong responses; first: {first}", c.wrong));
        }
        let (n, bad) = check::verify_samples(&c.samples);
        self.checked += n;
        if let Some(b) = bad {
            self.fail(b);
        }
    }
}

/// Slices of at least this many seconds; each end-to-end number is the
/// interquartile mean over a run's quiet slices (see [`quiet`], [`iqm`]),
/// so a few slow seconds on a shared host move it less than a
/// whole-window mean.
const SLICE_S: f64 = 1.0;
/// A slice is quiet when the hypervisor stole at most this share of the
/// host's CPU time during it.
const STEAL_QUIET: f64 = 0.01;

/// The slices the metrics are taken over: those with little steal, or,
/// when fewer than half the slices qualify, the least-stolen half. Steal
/// is time another guest ran on our CPUs; it is read from `/proc/stat`,
/// independently of what the slice measured.
fn quiet(mut slices: Vec<load::Slice>) -> (Vec<load::Slice>, usize) {
    let n = slices.len();
    let half = n.div_ceil(2);
    if slices.iter().filter(|s| s.steal <= STEAL_QUIET).count() >= half {
        slices.retain(|s| s.steal <= STEAL_QUIET);
    } else {
        slices.sort_by(|a, b| a.steal.total_cmp(&b.steal));
        slices.truncate(half);
    }
    (slices, n)
}
/// Latency samples a slice needs for its p99 (ten beyond it).
const P99_SAMPLES: usize = 1000;

fn end_to_end(w: &WindowOut, setups: &mut [f64]) -> Vec<Metric> {
    let (slices, all) = quiet(w.slices(SLICE_S));
    let pick = |f: &dyn Fn(&load::Slice) -> f64| iqm(&mut slices.iter().map(f).collect::<Vec<_>>());
    let n = slices.len();
    let lat_n: usize = slices.iter().map(|s| s.latencies_ns.len()).sum();
    // Percentiles come from slices holding samples (the buffer is sized
    // so that all do); p99 slices are widened until each holds enough.
    let quantile = |slices: &[load::Slice], q: f64| {
        let mut xs: Vec<f64> = slices
            .iter()
            .filter(|s| !s.latencies_ns.is_empty())
            .map(|s| percentile_ms(&s.latencies_ns, q))
            .collect();
        (iqm(&mut xs), xs.len())
    };
    let per_slice = (lat_n / n.max(1)).max(1);
    let widen = P99_SAMPLES.div_ceil(per_slice).max(1);
    let (p50, _) = quantile(&slices, 0.5);
    let (p99, p99_n) = quantile(&quiet(w.slices(SLICE_S * widen as f64)).0, 0.99);
    vec![
        metric(
            "setup_s",
            median(setups),
            "s",
            format!("median of {} cold set-ups {:.3?}", setups.len(), setups),
        ),
        metric(
            "throughput_rps",
            pick(&|s| s.rps),
            "1/s",
            format!(
                "IQM of {n} quiet of {all} {SLICE_S}-s slices, {} ok in {:.3} s",
                w.client.ok, w.window_s
            ),
        ),
        metric(
            "p50_ms",
            p50,
            "ms",
            format!("IQM of {n} slice p50s, n={lat_n}"),
        ),
        metric(
            "p99_ms",
            p99,
            "ms",
            format!(
                "IQM of {p99_n} {}-s slice p99s, >= {} beyond each",
                SLICE_S * widen as f64,
                per_slice * widen / 100
            ),
        ),
        metric(
            "cpu_us_per_req",
            pick(&|s| s.cpu_us_per_req),
            "us",
            "server threads, user+sys, IQM of slices",
        ),
        metric(
            "allocs_per_req",
            pick(&|s| s.allocs_per_req),
            "count",
            "server threads, IQM of slices",
        ),
        metric("peak_rss_mb", host::peak_rss_mb(), "MiB", "VmHWM"),
    ]
}

fn med(xs: &[f64]) -> f64 {
    median(&mut xs.to_vec())
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn per_layer(w: &WindowOut, d: Counters, l: &trace::Layers, overhead_pct: f64) -> Vec<Metric> {
    let ok = w.client.ok.max(1);
    let n = |xs: &[f64]| format!("median of {}", xs.len());
    let served = d.hits + d.misses;
    vec![
        metric(
            "reactor.overhead_us",
            med(&l.tcp_us) - med(&l.call_hit_us),
            "us",
            format!(
                "p50 TCP {:.1} - p50 call {:.1}, n={}",
                med(&l.tcp_us),
                med(&l.call_hit_us),
                l.tcp_us.len()
            ),
        ),
        metric(
            "wire.req_bytes",
            ratio(w.client.req_bytes, w.client.attempted),
            "bytes",
            "mean per request",
        ),
        metric(
            "wire.resp_bytes",
            ratio(w.client.resp_bytes, w.client.attempted),
            "bytes",
            "mean per response",
        ),
        metric(
            "request.decode_us",
            med(&l.decode_us),
            "us",
            n(&l.decode_us),
        ),
        metric(
            "request.decode_allocs",
            med(&l.decode_allocs),
            "count",
            n(&l.decode_allocs),
        ),
        metric(
            "request.canonical_us",
            med(&l.canonical_us),
            "us",
            n(&l.canonical_us),
        ),
        metric(
            "request.canonical_allocs",
            med(&l.canonical_allocs),
            "count",
            n(&l.canonical_allocs),
        ),
        metric(
            "request.encode_us",
            med(&l.encode_us),
            "us",
            n(&l.encode_us),
        ),
        metric("shard.route_us", med(&l.route_us), "us", n(&l.route_us)),
        metric(
            "shard.max_share",
            ratio(d.shard_accepted[0].max(d.shard_accepted[1]), d.accepted),
            "ratio",
            "busiest shard's share",
        ),
        metric(
            "cache.hit_ratio",
            ratio(d.hits, served),
            "ratio",
            format!("{} of {served}", d.hits),
        ),
        metric(
            "cache.evictions_per_req",
            ratio(d.evictions, ok),
            "count",
            format!("{} evictions", d.evictions),
        ),
        metric(
            "cache.get_us",
            med(&l.cache_get_us),
            "us",
            n(&l.cache_get_us),
        ),
        metric(
            "cache.put_us",
            med(&l.cache_put_us),
            "us",
            n(&l.cache_put_us),
        ),
        metric(
            "server.queue_wait_us",
            med(&l.queue_wait_us),
            "us",
            n(&l.queue_wait_us),
        ),
        metric(
            "server.batched_share",
            ratio(d.batched, ok),
            "ratio",
            format!("{} batched", d.batched),
        ),
        metric("server.shed", d.shed as f64, "count", "over the window"),
        metric("checker.parse_us", med(&l.parse_us), "us", n(&l.parse_us)),
        metric(
            "checker.analyze_us",
            med(&l.analyze_us),
            "us",
            n(&l.analyze_us),
        ),
        metric(
            "checker.summary_hit_ratio",
            ratio(d.summary_hit, d.summary_hit + d.summary_miss),
            "ratio",
            format!("{} hits, {} misses", d.summary_hit, d.summary_miss),
        ),
        metric(
            "checker.fn_analyzed_per_req",
            ratio(d.fn_analyzed, ok),
            "count",
            format!("{} analyzed", d.fn_analyzed),
        ),
        metric(
            "rewrite.simplify_us",
            med(&l.simplify_us),
            "us",
            n(&l.simplify_us),
        ),
        metric(
            "rewrite.optimize_us",
            med(&l.optimize_us),
            "us",
            n(&l.optimize_us),
        ),
        metric(
            "rewrite.egraph_nodes",
            mean(&l.egraph_nodes),
            "count",
            format!("mean of {}", l.egraph_nodes.len()),
        ),
        metric("proofs.prove_us", med(&l.prove_us), "us", n(&l.prove_us)),
        metric(
            "taxonomy.select_us",
            med(&l.select_us),
            "us",
            n(&l.select_us),
        ),
        metric(
            "trace.overhead_pct",
            overhead_pct,
            "%",
            "throughput lost with client spans on",
        ),
    ]
}

fn run(args: &Args) -> Result<bool, String> {
    let (inputs, hot) = inputs_for(args)?;
    let jiffies0 = host::cpu_jiffies();
    let probe0 = host::cpu_probe_ms();
    let mut gate = Gate::default();

    let mut setups = Vec::new();
    if !args.trace {
        for _ in 0..SETUP_PROBES {
            setups.push(spawn_probe(args)?);
        }
    }
    let setup = load::setup(&inputs, hot.as_ref()).map_err(|e| format!("set-up: {e}"))?;
    setups.push(setup.seconds);
    if setup.warm_failures > 0 {
        gate.fail(format!("{} warm-up requests failed", setup.warm_failures));
    }
    let server = setup.server;
    let mut conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    match check::known_answers(&mut conn) {
        Ok(n) => gate.checked += n,
        Err(e) => gate.fail(format!("known answer: {e}")),
    }
    drop(conn);

    let streams = (0..load::CONNECTIONS as u64)
        .map(|l| inputs.lane(l))
        .collect();
    let before = Counters::read(&server.router);
    // The traced run splits the window four ways: untraced, traced,
    // traced, untraced, so that a host drifting in speed over the run
    // biases neither side of the overhead estimate.
    let seconds = if args.trace {
        args.seconds * 0.175
    } else {
        args.seconds
    };
    let (win, streams) = load::window(&server, streams, hot.as_ref(), seconds, false);
    let delta = Counters::read(&server.router).since(before);
    gate.window(&win);
    let mut attempted = win.client.attempted;
    let mut failed = win.client.failed();

    let mut layer_metrics = Vec::new();
    let mut spans_out = String::new();
    let mut self_times = String::new();
    if args.trace {
        let (traced, streams) = load::window(&server, streams, hot.as_ref(), seconds, true);
        let (traced2, streams) = load::window(&server, streams, hot.as_ref(), seconds, true);
        let (plain2, _) = load::window(&server, streams, hot.as_ref(), seconds, false);
        for w in [&traced, &traced2, &plain2] {
            gate.window(w);
            attempted += w.client.attempted;
            failed += w.client.failed();
        }
        let rps = |w: &WindowOut| w.client.ok as f64 / w.window_s;
        let plain = rps(&win) + rps(&plain2);
        let overhead = 100.0 * (plain - rps(&traced) - rps(&traced2)) / plain;
        let mut rec = trace::Recorder::new();
        let budget = Duration::from_secs_f64(args.seconds * 0.3);
        let layers = trace::replay(&server, &inputs, REPLAY_MAX, budget, &mut rec);
        if layers.mismatches > 0 {
            gate.fail(format!(
                "{} replayed responses differ from served ones",
                layers.mismatches
            ));
        }
        self_times = format!(
            "self time per span over {} replayed requests:\n  {:<22} {:>8} {:>14} {:>14} {:>10}\n",
            layers.requests, "span", "count", "total_us", "self_us", "self/req"
        );
        for (name, (count, total, own)) in rec.self_times() {
            self_times.push_str(&format!(
                "  {name:<22} {count:>8} {total:>14.1} {own:>14.1} {:>10.2}\n",
                own / layers.requests.max(1) as f64
            ));
        }
        layer_metrics = per_layer(&win, delta, &layers, overhead);
        rec.to_jsonl(&mut spans_out);
        if let Some(r) = &traced.client.recorder {
            let mut tail = trace::Recorder::new();
            tail.spans = r.spans.iter().take(20_000).cloned().collect();
            tail.to_jsonl(&mut spans_out);
        }
    }

    let stats = server.router.aggregate_stats();
    if let Err(e) = check::conservation(&stats) {
        gate.fail(e);
    }
    let e2e = end_to_end(&win, &mut setups);
    let steal = host::steal_share(jiffies0, host::cpu_jiffies());
    let probe1 = host::cpu_probe_ms();
    drop(server);

    println!(
        "perfbench {} seed={} seconds={} trace={} connections={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        load::CONNECTIONS
    );
    print_table("end to end (untraced window):", &e2e);
    println!(
        "  {:<30} {:>16.4} {:<8} {} failed of {} attempted",
        "error_rate",
        ratio(failed, attempted),
        "ratio",
        failed,
        attempted
    );
    println!(
        "window: cache hit ratio {:.4} ({} hits / {} misses), summary hit ratio {:.4}, shed {}",
        ratio(delta.hits, delta.hits + delta.misses),
        delta.hits,
        delta.misses,
        ratio(delta.summary_hit, delta.summary_hit + delta.summary_miss),
        delta.shed
    );
    println!(
        "host: steal_share={steal:.4} cpu_probe_ms before={probe0:.3} after={probe1:.3} (not gated)"
    );
    let per_slice: Vec<String> = win
        .slices(SLICE_S)
        .iter()
        .map(|s| {
            format!(
                "{:.0}/{:.1}/{:.2}/{:.3}",
                s.rps,
                percentile_ms(&s.latencies_ns, 0.5) * 1e3,
                s.cpu_us_per_req,
                s.steal
            )
        })
        .collect();
    println!(
        "throughput/p50_us/cpu_us_per_req/steal per slice: {}",
        per_slice.join(" ")
    );
    if args.trace {
        print_table("per layer:", &layer_metrics);
        print!("{self_times}");
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        let path = format!("{dir}/{}-seed{}.jsonl", args.workload.name(), args.seed);
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &spans_out)) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => println!("spans not written: {e}"),
        }
    }
    println!(
        "correctness: {} checks, {} problems{}",
        gate.checked,
        gate.problems.len(),
        gate.problems
            .first()
            .map(|p| format!("; first: {p}"))
            .unwrap_or_default()
    );
    let correct = gate.problems.is_empty();
    let shown = if args.trace { &layer_metrics } else { &e2e };
    println!("{}", json_line(correct, attempted.max(1), failed, shown));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        return match probe(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::iqm;

    #[test]
    fn iqm_averages_the_middle_half() {
        assert_eq!(iqm(&mut []), 0.0);
        assert_eq!(iqm(&mut [3.0, 1.0, 2.0]), 2.0);
        // Quarters of eight are two: 1, 2 and 90, 100 are dropped.
        let mut xs = [100.0, 4.0, 1.0, 6.0, 2.0, 5.0, 90.0, 3.0];
        assert_eq!(iqm(&mut xs), 4.5);
    }
}
