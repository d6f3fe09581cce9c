//! E11: the concept-constrained data-parallel library on the
//! work-stealing executor — speedup tables for reduce/scan/sort, the
//! spawn-per-call vs pooled executor comparison, static vs adaptive
//! chunking on a skewed workload, sequential vs parallel BFS on CSR, and
//! the Monoid-obligation ablation. Emits `results/BENCH_parallel.json`.

use gp_bench::oracle::{spawn_map, spawn_reduce};
use gp_bench::{banner, best_ms, busy, random_ints, write_results, Json, Table};
use gp_core::algebra::AddOp;
use gp_core::order::NaturalLess;
use gp_graphs::algo::{bfs_distances, par_bfs_distances};
use gp_graphs::CsrGraph;
use gp_parallel::par::{
    par_map, par_map_static, par_reduce, par_reduce_unchecked, par_scan, par_sort,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("(host reports {hw} hardware threads)");
    let mut report = Json::obj()
        .field("experiment", "E11")
        .field("host_threads", hw);

    // --- Primitives: speedup vs thread count ---------------------------
    banner(
        "E11",
        "Data-parallel primitives: speedup vs thread count",
        "§4 'data-parallel programs … expressed at a higher level of abstraction'",
    );
    let n = 8_000_000usize;
    let data = random_ints(n, 3);
    let threads_list = [1usize, 2, 4, 8];
    let mut primitives = Vec::new();

    let t = Table::new(&[
        ("primitive", 12),
        ("threads", 8),
        ("ms", 10),
        ("speedup vs 1T", 14),
        ("matches sequential", 18),
    ]);

    // Reduce.
    let seq_sum: i64 = data.iter().sum();
    let mut base = 0.0;
    for &th in &threads_list {
        let ms = best_ms(5, || par_reduce(&data, th, &AddOp));
        if th == 1 {
            base = ms;
        }
        let ok = par_reduce(&data, th, &AddOp) == seq_sum;
        t.row(&[
            "par_reduce".into(),
            th.to_string(),
            format!("{ms:.1}"),
            format!("{:.2}x", base / ms),
            ok.to_string(),
        ]);
        primitives.push(
            Json::obj()
                .field("name", "par_reduce")
                .field("n", n)
                .field("threads", th)
                .field("ms", ms)
                .field("matches_sequential", ok),
        );
    }

    // Scan.
    let mut seq_scan = Vec::with_capacity(n);
    let mut acc = 0i64;
    for x in &data {
        acc += x;
        seq_scan.push(acc);
    }
    let mut base = 0.0;
    for &th in &threads_list {
        let ms = best_ms(3, || par_scan(&data, th, &AddOp));
        if th == 1 {
            base = ms;
        }
        let ok = par_scan(&data, th, &AddOp) == seq_scan;
        t.row(&[
            "par_scan".into(),
            th.to_string(),
            format!("{ms:.1}"),
            format!("{:.2}x", base / ms),
            ok.to_string(),
        ]);
        primitives.push(
            Json::obj()
                .field("name", "par_scan")
                .field("n", n)
                .field("threads", th)
                .field("ms", ms)
                .field("matches_sequential", ok),
        );
    }

    // Sort (smaller n; sorting is heavier).
    let sort_n = 2_000_000usize;
    let sort_data = random_ints(sort_n, 4);
    let mut expect = sort_data.clone();
    expect.sort_unstable();
    let mut base = 0.0;
    for &th in &threads_list {
        let ms = best_ms(3, || {
            let mut v = sort_data.clone();
            par_sort(&mut v, th, &NaturalLess);
            v
        });
        if th == 1 {
            base = ms;
        }
        let mut v = sort_data.clone();
        par_sort(&mut v, th, &NaturalLess);
        let ok = v == expect;
        t.row(&[
            "par_sort".into(),
            th.to_string(),
            format!("{ms:.1}"),
            format!("{:.2}x", base / ms),
            ok.to_string(),
        ]);
        primitives.push(
            Json::obj()
                .field("name", "par_sort")
                .field("n", sort_n)
                .field("threads", th)
                .field("ms", ms)
                .field("matches_sequential", ok),
        );
    }
    report = report.field("primitives", Json::Arr(primitives));

    // --- Executor: spawn-per-call vs pooled work stealing --------------
    banner(
        "E11c",
        "Executor: spawn-per-call vs pooled work-stealing, 1M cheap items",
        "the library mechanism behind §4's 'performance of low-level code'",
    );
    let n = 1_000_000usize;
    let cheap = random_ints(n, 9);
    let th = 8usize;
    let spawn_map_ms = best_ms(10, || spawn_map(&cheap, th, |x| x + 1));
    let pooled_map_ms = best_ms(10, || par_map(&cheap, th, |x| x + 1));
    let spawn_red_ms = best_ms(10, || spawn_reduce(&cheap, th, &AddOp));
    let pooled_red_ms = best_ms(10, || par_reduce(&cheap, th, &AddOp));
    let t = Table::new(&[
        ("op", 8),
        ("spawn ms", 10),
        ("pooled ms", 10),
        ("pooled speedup", 14),
    ]);
    t.row(&[
        "map".into(),
        format!("{spawn_map_ms:.2}"),
        format!("{pooled_map_ms:.2}"),
        format!("{:.2}x", spawn_map_ms / pooled_map_ms),
    ]);
    t.row(&[
        "reduce".into(),
        format!("{spawn_red_ms:.2}"),
        format!("{pooled_red_ms:.2}"),
        format!("{:.2}x", spawn_red_ms / pooled_red_ms),
    ]);
    println!();
    println!("  spawn-per-call pays OS thread creation and a Vec<Vec<_>> gather");
    println!("  every call; the pooled executor reuses parked workers and writes");
    println!("  map output straight into the pre-sized buffer.");
    report = report.field(
        "executor_comparison",
        Json::obj()
            .field("n", n)
            .field("threads", th)
            .field("spawn_map_ms", spawn_map_ms)
            .field("pooled_map_ms", pooled_map_ms)
            .field("pooled_map_speedup", spawn_map_ms / pooled_map_ms)
            .field("spawn_reduce_ms", spawn_red_ms)
            .field("pooled_reduce_ms", pooled_red_ms)
            .field("pooled_reduce_speedup", spawn_red_ms / pooled_red_ms),
    );

    // --- Chunking: static vs adaptive on a skewed workload -------------
    banner(
        "E11d",
        "Chunking on a skewed workload: static even chunks vs adaptive splitting",
        "work stealing balances what static decomposition cannot",
    );
    let n = 200_000usize;
    // 90% cheap items, then a heavy tail: static chunking strands the
    // tail on the last worker; adaptive splitting lets idle workers
    // steal halves of it.
    let units: Vec<u64> = (0..n)
        .map(|i| if i >= n - n / 10 { 400 } else { 1 })
        .collect();
    let static_ms = best_ms(5, || par_map_static(&units, th, |&u| busy(u)));
    let adaptive_ms = best_ms(5, || par_map(&units, th, |&u| busy(u)));
    let t = Table::new(&[("schedule", 10), ("ms", 10), ("speedup", 10)]);
    t.row(&["static".into(), format!("{static_ms:.2}"), "1.00x".into()]);
    t.row(&[
        "adaptive".into(),
        format!("{adaptive_ms:.2}"),
        format!("{:.2}x", static_ms / adaptive_ms),
    ]);
    if hw == 1 {
        println!();
        println!("  (single hardware thread: scheduling cannot change wall time here;");
        println!("   on a multicore host the adaptive row wins on this workload)");
    }
    report = report.field(
        "chunking",
        Json::obj()
            .field("n", n)
            .field("threads", th)
            .field("workload", "90% weight-1 items, 10% weight-400 tail")
            .field("static_ms", static_ms)
            .field("adaptive_ms", adaptive_ms)
            .field("adaptive_speedup", static_ms / adaptive_ms),
    );

    // --- Graph kernels: sequential vs parallel BFS on CSR --------------
    banner(
        "E11e",
        "Level-synchronous parallel BFS on CSR vs sequential BFS",
        "§2-3 generic graph algorithms + §4 parallelism, composed",
    );
    let nv = 200_000u32;
    let mut rng = StdRng::seed_from_u64(11);
    let mut edges: Vec<(u32, u32)> = (0..nv - 1).map(|i| (i, i + 1)).collect();
    for _ in 0..(nv as usize * 8) {
        edges.push((rng.gen_range(0..nv), rng.gen_range(0..nv)));
    }
    let csr = CsrGraph::from_edges(nv as usize, &edges);
    let seq_ms = best_ms(5, || bfs_distances(&csr, 0));
    let t = Table::new(&[("bfs", 14), ("threads", 8), ("ms", 10), ("matches seq", 12)]);
    t.row(&[
        "sequential".into(),
        "1".into(),
        format!("{seq_ms:.2}"),
        "-".into(),
    ]);
    let seq_d = bfs_distances(&csr, 0);
    let mut bfs_rows = vec![Json::obj()
        .field("kind", "sequential")
        .field("threads", 1usize)
        .field("ms", seq_ms)];
    for &th in &[2usize, 4, 8] {
        let ms = best_ms(5, || par_bfs_distances(&csr, 0, th));
        let ok = par_bfs_distances(&csr, 0, th).as_slice() == seq_d.as_slice();
        t.row(&[
            "par_frontier".into(),
            th.to_string(),
            format!("{ms:.2}"),
            ok.to_string(),
        ]);
        bfs_rows.push(
            Json::obj()
                .field("kind", "par_frontier")
                .field("threads", th)
                .field("ms", ms)
                .field("matches_sequential", ok),
        );
    }
    report = report.field(
        "bfs",
        Json::obj()
            .field("vertices", nv as usize)
            .field("edges", edges.len())
            .field("runs", Json::Arr(bfs_rows)),
    );

    // --- Ablation ------------------------------------------------------
    banner(
        "E11b",
        "Ablation: dropping the Monoid concept obligation corrupts results",
        "§4 + §3: semantic requirements are what make the parallelism safe",
    );
    let small: Vec<i64> = (1..=100_000).collect();
    let seq = small.iter().fold(0i64, |a, b| a - b);
    let t = Table::new(&[
        ("threads", 8),
        ("unchecked par (a-b)", 20),
        ("sequential", 12),
        ("agree", 6),
    ]);
    let mut ablation = Vec::new();
    for th in [1usize, 2, 4, 8] {
        let par = par_reduce_unchecked(&small, th, 0i64, |a, b| a - b);
        t.row(&[
            th.to_string(),
            par.to_string(),
            seq.to_string(),
            (par == seq).to_string(),
        ]);
        ablation.push(
            Json::obj()
                .field("threads", th)
                .field("unchecked_result", par)
                .field("sequential_result", seq)
                .field("agree", par == seq),
        );
    }
    println!();
    println!("  Subtraction is not associative: every chunked run disagrees");
    println!("  with the sequential fold. The Monoid bound on par_reduce makes this");
    println!("  a compile error instead of a silent wrong answer.");
    report = report.field("ablation", Json::Arr(ablation));

    // --- Machine-readable artifact -------------------------------------
    let path = write_results("BENCH_parallel.json", &report);
    println!();
    println!("wrote {}", path.display());
}
