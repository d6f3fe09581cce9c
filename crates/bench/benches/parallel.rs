//! E11 bench: data-parallel reduce/scan/sort vs sequential by thread
//! count, plus the two executor experiments — spawn-per-call vs the
//! pooled work-stealing executor, and static vs adaptive chunking on a
//! skewed workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gp_bench::busy;
use gp_bench::oracle::{spawn_map, spawn_reduce};
use gp_core::algebra::{monoid_fold, AddOp};
use gp_core::order::NaturalLess;
use gp_parallel::par::{par_map, par_map_static, par_reduce, par_scan, par_sort};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random(n: usize) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(5);
    (0..n).map(|_| rng.gen_range(-1000..1000)).collect()
}

/// A skewed workload: 90% cheap items, then a heavy tail. Static even
/// chunks strand the whole tail on the last worker; adaptive splitting
/// lets idle workers steal halves of it.
fn skewed_units(n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| if i >= n - n / 10 { 400 } else { 1 })
        .collect()
}

fn bench(c: &mut Criterion) {
    // Executor: spawn-per-call (seed baseline: fresh OS threads each
    // call) vs the pooled work-stealing executor, 1M cheap items.
    let n = 1_000_000usize;
    let cheap = random(n);
    let th = 8usize;
    let mut g = c.benchmark_group("executor");
    g.sample_size(15);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("spawn_map/8", |b| {
        b.iter(|| spawn_map(&cheap, th, |x| x + 1))
    });
    g.bench_function("pooled_map/8", |b| {
        b.iter(|| par_map(&cheap, th, |x| x + 1))
    });
    g.bench_function("spawn_reduce/8", |b| {
        b.iter(|| spawn_reduce(&cheap, th, &AddOp))
    });
    g.bench_function("pooled_reduce/8", |b| {
        b.iter(|| par_reduce(&cheap, th, &AddOp))
    });
    g.finish();

    // Chunking: static even chunks vs adaptive splitting on the skewed
    // workload (both on the pooled executor; only scheduling differs).
    let units = skewed_units(200_000);
    let mut g = c.benchmark_group("chunking_skewed");
    g.sample_size(10);
    g.bench_function("static/8", |b| {
        b.iter(|| par_map_static(&units, th, |&u| busy(u)))
    });
    g.bench_function("adaptive/8", |b| {
        b.iter(|| par_map(&units, th, |&u| busy(u)))
    });
    g.finish();

    let n = 4_000_000usize;
    let data = random(n);

    let mut g = c.benchmark_group("reduce");
    g.sample_size(15);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("sequential", |b| b.iter(|| monoid_fold(&AddOp, &data)));
    for &th in &[2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("par", th), &th, |b, &th| {
            b.iter(|| par_reduce(&data, th, &AddOp))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("scan");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("sequential", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            data.iter()
                .map(|x| {
                    acc += x;
                    acc
                })
                .collect::<Vec<_>>()
        })
    });
    for &th in &[2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("par", th), &th, |b, &th| {
            b.iter(|| par_scan(&data, th, &AddOp))
        });
    }
    g.finish();

    let sort_data = random(1_000_000);
    let mut g = c.benchmark_group("sort");
    g.sample_size(10);
    g.bench_function("sequential_introsort", |b| {
        b.iter(|| {
            let mut v = sort_data.clone();
            gp_sequences::sort::introsort(&mut v, &NaturalLess);
            v
        })
    });
    for &th in &[2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("par", th), &th, |b, &th| {
            b.iter(|| {
                let mut v = sort_data.clone();
                par_sort(&mut v, th, &NaturalLess);
                v
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
