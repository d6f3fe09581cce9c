//! E11t: the gp-telemetry observability layer, exercised through all four
//! instrumented subsystems — the work-stealing executor + `par_*`
//! primitives, the rewrite engine, the STLlint checker, and the
//! distributed simulator — plus the enabled-vs-disabled overhead
//! measurement on `par_reduce` against an uninstrumented baseline replica
//! of the PR 1 recursion. Emits `results/BENCH_telemetry.json`.
//! `--smoke` shrinks every workload for a fast CI pass.

use gp_bench::{banner, random_ints, write_results, Json, Table};
use gp_checker::analyze::analyze;
use gp_checker::ir::build::{
    advance, begin, branch, call, call_into, container, deref, erase, push_back, while_not_end,
};
use gp_checker::ir::{AlgorithmName, ContainerKind, Program};
use gp_core::algebra::AddOp;
use gp_core::order::NaturalLess;
use gp_distsim::algorithms::echo_nodes;
use gp_distsim::engine::AsyncRunner;
use gp_distsim::topology::Topology;
use gp_parallel::par::{par_map, par_reduce, par_scan, par_sort};
use gp_parallel::pool::{self, ThreadPool};
use gp_rewrite::{BinOp, Expr, Simplifier, Type, UnOp};
use gp_telemetry::Snapshot;
use std::time::Instant;

/// One timed call (no warmup, no repetition) — the building block for
/// interleaved comparisons where sequential best-of-N would fold slow
/// phases of the host (frequency scaling, noisy neighbors) into whichever
/// variant happened to run then.
fn time_once_ms<T>(f: &mut impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed().as_secs_f64() * 1e3
}

/// Uninstrumented replica of the PR 1 `par_reduce` recursion (same grain
/// policy, same `join` splitting, no counters, no spans): the overhead
/// baseline that shows what the instrumentation costs.
fn baseline_reduce(pool: &ThreadPool, input: &[i64], grain: usize) -> i64 {
    if input.len() <= grain {
        return input.iter().sum();
    }
    let mid = input.len() / 2;
    let (l, r) = input.split_at(mid);
    let (a, b) = pool.join(
        || baseline_reduce(pool, l, grain),
        || baseline_reduce(pool, r, grain),
    );
    a + b
}

fn counters_json(delta: &Snapshot, prefix: &str) -> Json {
    let mut obj = Json::obj();
    for (k, v) in &delta.filter(prefix).counters {
        obj = obj.field(k.clone(), *v);
    }
    obj
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("(host reports {hw} hardware threads{})", {
        if smoke {
            "; --smoke"
        } else {
            ""
        }
    });
    let mut report = Json::obj()
        .field("experiment", "E11t")
        .field("host_threads", hw)
        .field("smoke", smoke);

    // --- Executor + primitives ----------------------------------------
    banner(
        "E11t",
        "Telemetry through the work-stealing executor and par_* primitives",
        "observability for §4's data-parallel layer",
    );
    let n = if smoke { 400_000 } else { 4_000_000 };
    let data = random_ints(n, 3);
    let th = 8usize;
    let before = gp_telemetry::snapshot();
    let sum = par_reduce(&data, th, &AddOp);
    assert_eq!(sum, data.iter().sum::<i64>());
    let _ = par_map(&data, th, |x| x ^ 3);
    let _ = par_scan(&data, th, &AddOp);
    let mut v = data.clone();
    par_sort(&mut v, th, &NaturalLess);
    let pool_delta = gp_telemetry::snapshot().delta(&before);

    let t = Table::new(&[("pool counter", 24), ("value", 12)]);
    for key in [
        "pool.local_pop",
        "pool.injector_pop",
        "pool.steal_hit",
        "pool.steal_retry",
        "pool.park",
        "pool.unpark",
        "pool.joins",
        "pool.join_help_iters",
        "par.splits",
    ] {
        t.row(&[key.into(), pool_delta.counter(key).to_string()]);
    }
    let worker_jobs = pool_delta.counter_sum("pool.worker");
    let help_jobs = pool_delta.counter("pool.help_jobs");
    println!();
    println!(
        "  jobs executed: {worker_jobs} on workers + {help_jobs} by helping joiners; \
         every job was found locally, in the injector, or stolen:"
    );
    let found = pool_delta.counter("pool.local_pop")
        + pool_delta.counter("pool.injector_pop")
        + pool_delta.counter("pool.steal_hit");
    println!(
        "  local_pop + injector_pop + steal_hit = {found} vs jobs = {}",
        worker_jobs + help_jobs
    );
    if let Some(h) = pool_delta.histogram("par.leaf_len") {
        println!(
            "  adaptive leaves: {} leaves, len min {} / mean {:.0} / max {}",
            h.count,
            h.min,
            h.mean(),
            h.max
        );
    }
    report = report.field(
        "pool",
        Json::obj()
            .field("n", n)
            .field("threads", th)
            .field("jobs_on_workers", worker_jobs)
            .field("jobs_while_helping", help_jobs)
            .field("delta", Json::Raw(pool_delta.filter("pool.").to_json()))
            .field("par_delta", Json::Raw(pool_delta.filter("par.").to_json())),
    );

    // --- Rewrite engine ------------------------------------------------
    banner(
        "E11t-rw",
        "Per-rule fire counters through the rewrite engine",
        "Simplicissimus reports which algebraic rewrites fired (§3.2)",
    );
    let before = gp_telemetry::snapshot();
    let s = Simplifier::standard();
    let x = Expr::var("x", Type::Int);
    let y = Expr::var("y", Type::Int);
    let mut stats_total = 0usize;
    let reps = if smoke { 20 } else { 200 };
    for _ in 0..reps {
        // ((x*1) + (y + -y)) nested under further identity noise.
        let mut e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, x.clone(), Expr::int(1)),
            Expr::bin(BinOp::Add, y.clone(), Expr::un(UnOp::Neg, y.clone())),
        );
        for _ in 0..10 {
            e = Expr::bin(BinOp::Mul, e, Expr::int(1));
        }
        let (out, st) = s.simplify(&e);
        assert_eq!(out, x);
        stats_total += st.total();
    }
    let rw_delta = gp_telemetry::snapshot().delta(&before);
    let t = Table::new(&[("rule counter", 40), ("fires", 10)]);
    for (k, v) in &rw_delta.filter("rewrite.rule.").counters {
        if *v > 0 {
            t.row(&[k.clone(), v.to_string()]);
        }
    }
    let fires = rw_delta.counter_sum("rewrite.rule.");
    println!();
    println!(
        "  registry fires {fires} == SimplifyStats total {stats_total}; \
         {} fixpoint passes over {} runs",
        rw_delta.counter("rewrite.passes"),
        rw_delta.counter("rewrite.runs"),
    );
    assert_eq!(
        fires as usize, stats_total,
        "registry mirrors SimplifyStats"
    );
    report = report.field(
        "rewrite",
        Json::obj()
            .field("runs", rw_delta.counter("rewrite.runs"))
            .field("passes", rw_delta.counter("rewrite.passes"))
            .field("stats_total", stats_total)
            .field("rule_fires", counters_json(&rw_delta, "rewrite.rule.")),
    );

    // --- Checker --------------------------------------------------------
    banner(
        "E11t-chk",
        "Diagnostics-by-category and abstract-execution counters",
        "what STLlint's symbolic execution explored (§3.1)",
    );
    let fig4 = Program::new(
        "fig4-buggy",
        vec![
            container("students", ContainerKind::List),
            container("failures", ContainerKind::List),
            begin("iter", "students"),
            while_not_end(
                "iter",
                vec![
                    deref("iter"),
                    branch(
                        vec![
                            deref("iter"),
                            push_back("failures"),
                            erase("students", "iter"),
                        ],
                        vec![advance("iter")],
                    ),
                ],
            ),
        ],
    );
    let sorted_find = Program::new(
        "sorted-find",
        vec![
            container("v", ContainerKind::Vector),
            call(AlgorithmName::Sort, "v"),
            call_into(AlgorithmName::Find, "v", "i"),
        ],
    );
    let before = gp_telemetry::snapshot();
    let reps = if smoke { 5 } else { 50 };
    let mut diag_count = 0usize;
    for _ in 0..reps {
        diag_count += analyze(&fig4).len() + analyze(&sorted_find).len();
    }
    let chk_delta = gp_telemetry::snapshot().delta(&before);
    let t = Table::new(&[("checker counter", 40), ("value", 10)]);
    for (k, v) in &chk_delta.filter("checker.").counters {
        if *v > 0 {
            t.row(&[k.clone(), v.to_string()]);
        }
    }
    println!();
    println!(
        "  {} analyze() runs executed {} IR statements over {} loop passes; \
         {} diagnostics returned",
        chk_delta.counter("checker.runs"),
        chk_delta.counter("checker.stmts"),
        chk_delta.counter("checker.loop_passes"),
        diag_count
    );
    assert_eq!(
        chk_delta.counter_sum("checker.diag.") as usize,
        diag_count,
        "every returned diagnostic is tallied by category"
    );
    report = report.field(
        "checker",
        Json::obj()
            .field("runs", chk_delta.counter("checker.runs"))
            .field("stmts", chk_delta.counter("checker.stmts"))
            .field("loop_passes", chk_delta.counter("checker.loop_passes"))
            .field("states", chk_delta.counter("checker.states"))
            .field("diagnostics", counters_json(&chk_delta, "checker.diag.")),
    );

    // --- Distributed simulator ------------------------------------------
    banner(
        "E11t-ds",
        "Fault-event tallies through the simulator bridge",
        "message conservation, observable from registry deltas alone",
    );
    let before = gp_telemetry::snapshot();
    let (w, h) = if smoke { (3, 3) } else { (5, 5) };
    let nodes = w * h;
    let mut runner = AsyncRunner::new(Topology::grid(w, h), echo_nodes(nodes, 0), 5, 42);
    runner
        .drop_messages(0.1)
        .duplicate_messages(0.1)
        .crash(1, 3)
        .recover(1, 40);
    let stats = runner.run(1_000_000);
    let ds_delta = gp_telemetry::snapshot().delta(&before);
    let t = Table::new(&[("distsim counter", 26), ("value", 10)]);
    for (k, v) in &ds_delta.filter("distsim.").counters {
        t.row(&[k.clone(), v.to_string()]);
    }
    let lhs = ds_delta.counter("distsim.sent") + ds_delta.counter("distsim.duplicated");
    let rhs = ds_delta.counter("distsim.delivered")
        + ds_delta.counter("distsim.dropped")
        + ds_delta.counter("distsim.lost_to_crash")
        + ds_delta.counter("distsim.undelivered");
    println!();
    println!("  conservation from the registry: sent + duplicated = {lhs}, ");
    println!("  delivered + dropped + lost_to_crash + undelivered = {rhs}");
    assert_eq!(lhs, rhs, "registry delta obeys the conservation law");
    assert!(stats.conserves_messages());
    assert_eq!(ds_delta.counter("distsim.sent"), stats.sent_total());
    assert_eq!(ds_delta.counter("distsim.delivered"), stats.messages);
    report = report.field(
        "distsim",
        Json::obj()
            .field("nodes", nodes)
            .field("tallies", counters_json(&ds_delta, "distsim."))
            .field("conserves_messages", lhs == rhs)
            .field(
                "matches_run_stats",
                ds_delta.counter("distsim.sent") == stats.sent_total(),
            ),
    );

    // --- Overhead --------------------------------------------------------
    banner(
        "E11t-ovh",
        "Instrumentation overhead on par_reduce: enabled / disabled vs baseline",
        "always-compiled telemetry must stay within noise of PR 1",
    );
    let n = if smoke { 1_000_000 } else { 8_000_000 };
    let reps: usize = if smoke { 7 } else { 25 };
    let data = random_ints(n, 7);
    let pool = pool::global();
    let grain = (n / (th * 8)).max(256);
    // Warm the pool and page in the data once before any timing.
    let expect: i64 = data.iter().sum();
    assert_eq!(baseline_reduce(pool, &data, grain), expect);
    assert_eq!(par_reduce(&data, th, &AddOp), expect);
    // Interleave the variants round-robin and take each one's best round,
    // so host-wide slow phases cannot bias any single variant.
    let (mut baseline_ms, mut enabled_ms, mut disabled_ms) =
        (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        baseline_ms = baseline_ms.min(time_once_ms(&mut || baseline_reduce(pool, &data, grain)));
        enabled_ms = enabled_ms.min(time_once_ms(&mut || par_reduce(&data, th, &AddOp)));
        gp_telemetry::set_enabled(false);
        disabled_ms = disabled_ms.min(time_once_ms(&mut || par_reduce(&data, th, &AddOp)));
        gp_telemetry::set_enabled(true);
    }
    let pct = |ms: f64| (ms - baseline_ms) / baseline_ms * 100.0;
    let t = Table::new(&[("variant", 26), ("ms", 10), ("vs baseline", 12)]);
    t.row(&[
        "baseline (no telemetry)".into(),
        format!("{baseline_ms:.2}"),
        "-".into(),
    ]);
    t.row(&[
        "par_reduce (enabled)".into(),
        format!("{enabled_ms:.2}"),
        format!("{:+.1}%", pct(enabled_ms)),
    ]);
    t.row(&[
        "par_reduce (disabled)".into(),
        format!("{disabled_ms:.2}"),
        format!("{:+.1}%", pct(disabled_ms)),
    ]);
    println!();
    println!("  baseline = uninstrumented replica of the PR 1 reduce recursion on");
    println!("  the same executor; disabled mode turns spans into no-ops while the");
    println!("  relaxed counter increments stay (the documented always-on cost).");
    report = report.field(
        "overhead",
        Json::obj()
            .field("n", n)
            .field("threads", th)
            .field("reps", reps)
            .field("baseline_ms", baseline_ms)
            .field("enabled_ms", enabled_ms)
            .field("disabled_ms", disabled_ms)
            .field("enabled_overhead_pct", pct(enabled_ms))
            .field("disabled_overhead_pct", pct(disabled_ms))
            .field("disabled_within_5pct", pct(disabled_ms) <= 5.0),
    );

    // --- Machine-readable artifact -------------------------------------
    let path = write_results("BENCH_telemetry.json", &report);
    println!();
    println!("wrote {}", path.display());
}
