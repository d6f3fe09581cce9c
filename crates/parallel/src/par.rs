//! Data-parallel primitives over slices, running on the process-wide
//! work-stealing executor ([`crate::pool::global`]).
//!
//! All primitives are deterministic: given the same input, operation
//! witness, and any thread count, they return exactly what the sequential
//! algorithm returns — that is the point of keying them on concepts whose
//! axioms license the reordering.
//!
//! Work is split by **recursive adaptive splitting** (rayon-style
//! [`crate::pool::ThreadPool::join`]): a range is halved, one half is
//! pushed where idle workers can steal it, the other half is recursed on
//! inline, down to a sequential cutoff. Under load imbalance the idle
//! workers steal the *largest* outstanding subranges, so skewed workloads
//! balance without any static chunk tuning. The `threads` parameter is a
//! parallelism-width hint that sets the sequential cutoff (and, for the
//! chunk-structured `par_scan` / `par_reduce_unchecked`, the chunk
//! boundaries); `threads <= 1` runs the sequential algorithm directly.
//! The seed's spawn-per-call implementations survive in
//! `gp_bench::oracle` as the benchmark baseline.

use crate::pool::{self, ThreadPool};
use gp_core::algebra::Monoid;
use gp_core::order::StrictWeakOrder;
use gp_sequences::sort::introsort;
use gp_telemetry::{Counter, Histogram};
use std::mem::{ManuallyDrop, MaybeUninit};
use std::sync::OnceLock;

/// Telemetry handles for the adaptive splitter, resolved once per process
/// (resolution takes the registry lock; the hot-path cost is one relaxed
/// increment per split / per leaf).
struct ParMetrics {
    /// Times an adaptive recursion split a range in two.
    splits: &'static Counter,
    /// Lengths of the sequential leaves the splitter bottomed out on.
    leaf_len: &'static Histogram,
}

fn par_metrics() -> &'static ParMetrics {
    static METRICS: OnceLock<ParMetrics> = OnceLock::new();
    METRICS.get_or_init(|| ParMetrics {
        splits: gp_telemetry::counter("par.splits"),
        leaf_len: gp_telemetry::histogram("par.leaf_len"),
    })
}

/// Fixed even chunk length for the chunk-structured primitives.
pub(crate) fn chunk_len(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1)).max(1)
}

/// Smallest range worth a task of its own; below this, task bookkeeping
/// outweighs the work for cheap per-element operations.
const MIN_GRAIN: usize = 256;

/// Sequential cutoff for adaptive splitting: aim for ~8 stealable leaves
/// per requested thread, but never finer than [`MIN_GRAIN`].
fn grain(n: usize, threads: usize) -> usize {
    (n / (threads.max(1) * 8)).max(MIN_GRAIN)
}

/// Reinterpret a fully initialized `Vec<MaybeUninit<U>>` as `Vec<U>`.
///
/// SAFETY (caller): every element must have been written.
unsafe fn assume_init_vec<U>(v: Vec<MaybeUninit<U>>) -> Vec<U> {
    let mut v = ManuallyDrop::new(v);
    let (ptr, len, cap) = (v.as_mut_ptr(), v.len(), v.capacity());
    // SAFETY: MaybeUninit<U> and U have the same layout; all elements are
    // initialized per the caller contract.
    unsafe { Vec::from_raw_parts(ptr.cast::<U>(), len, cap) }
}

/// An uninitialized output buffer of length `n`.
fn uninit_vec<U>(n: usize) -> Vec<MaybeUninit<U>> {
    let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit requires no initialization.
    unsafe { out.set_len(n) };
    out
}

/// Parallel map preserving order: `out[i] = f(&input[i])`.
///
/// Writes directly into a pre-sized output buffer — no per-chunk `Vec`
/// intermediates. If `f` panics, the panic propagates once all in-flight
/// subtasks finish (already-produced elements are leaked, not dropped).
pub fn par_map<T, U, F>(input: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if input.is_empty() {
        return Vec::new();
    }
    if threads <= 1 {
        return input.iter().map(&f).collect();
    }
    let _span = gp_telemetry::span!("par_map");
    let mut out = uninit_vec::<U>(input.len());
    map_rec(
        pool::global(),
        input,
        &mut out,
        &f,
        grain(input.len(), threads),
    );
    // SAFETY: map_rec covers the full index range exactly once.
    unsafe { assume_init_vec(out) }
}

fn map_rec<T, U, F>(pool: &ThreadPool, input: &[T], out: &mut [MaybeUninit<U>], f: &F, grain: usize)
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if input.len() <= grain {
        let m = par_metrics();
        m.leaf_len.record(input.len() as u64);
        for (slot, x) in out.iter_mut().zip(input) {
            slot.write(f(x));
        }
        return;
    }
    par_metrics().splits.incr();
    let mid = input.len() / 2;
    let (il, ir) = input.split_at(mid);
    let (ol, or_) = out.split_at_mut(mid);
    pool.join(
        || map_rec(pool, il, ol, f, grain),
        || map_rec(pool, ir, or_, f, grain),
    );
}

/// Crate-internal: parallel map with an explicit grain, for callers whose
/// elements are themselves coarse tasks (e.g. [`crate::dist::BlockVec`]
/// blocks, where grain 1 is right because each element is a whole block).
pub(crate) fn par_map_grain<T, U, F>(input: &[T], grain: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if input.is_empty() {
        return Vec::new();
    }
    let mut out = uninit_vec::<U>(input.len());
    map_rec(pool::global(), input, &mut out, &f, grain.max(1));
    // SAFETY: map_rec covers the full index range exactly once.
    unsafe { assume_init_vec(out) }
}

/// Parallel map with **static even chunking**: exactly
/// `ceil(n / threads)`-sized chunks, one task per chunk, no splitting
/// below chunk granularity. Same output as [`par_map`]; exists so the
/// E11 benches can measure static vs. adaptive scheduling on skewed
/// workloads — use [`par_map`] otherwise.
pub fn par_map_static<T, U, F>(input: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if input.is_empty() {
        return Vec::new();
    }
    if threads <= 1 {
        return input.iter().map(&f).collect();
    }
    let cl = chunk_len(input.len(), threads);
    let mut out = uninit_vec::<U>(input.len());
    map_chunks_rec(pool::global(), input, &mut out, cl, &f);
    // SAFETY: map_chunks_rec covers the full index range exactly once.
    unsafe { assume_init_vec(out) }
}

/// Recurse over whole chunks (boundaries at multiples of `cl`); each leaf
/// is exactly one statically assigned chunk.
fn map_chunks_rec<T, U, F>(
    pool: &ThreadPool,
    input: &[T],
    out: &mut [MaybeUninit<U>],
    cl: usize,
    f: &F,
) where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if input.len() <= cl {
        for (slot, x) in out.iter_mut().zip(input) {
            slot.write(f(x));
        }
        return;
    }
    let chunks = input.len().div_ceil(cl);
    let mid = (chunks / 2) * cl;
    let (il, ir) = input.split_at(mid);
    let (ol, or_) = out.split_at_mut(mid);
    pool.join(
        || map_chunks_rec(pool, il, ol, cl, f),
        || map_chunks_rec(pool, ir, or_, cl, f),
    );
}

/// Parallel in-place transform.
pub fn par_apply<T, F>(data: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    if data.is_empty() {
        return;
    }
    if threads <= 1 {
        for x in data {
            f(x);
        }
        return;
    }
    let _span = gp_telemetry::span!("par_apply");
    let g = grain(data.len(), threads);
    apply_rec(pool::global(), data, &f, g);
}

fn apply_rec<T, F>(pool: &ThreadPool, data: &mut [T], f: &F, grain: usize)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    if data.len() <= grain {
        par_metrics().leaf_len.record(data.len() as u64);
        for x in data {
            f(x);
        }
        return;
    }
    par_metrics().splits.incr();
    let mid = data.len() / 2;
    let (l, r) = data.split_at_mut(mid);
    pool.join(
        || apply_rec(pool, l, f, grain),
        || apply_rec(pool, r, f, grain),
    );
}

/// Parallel tree reduction under a [`Monoid`] witness.
///
/// **Concept obligation:** associativity licenses the tree reordering;
/// the identity makes empty input (and leaf seeds) well-defined. Both are
/// checkable ([`gp_core::algebra::check_associativity`]) and provable
/// (`gp_proofs::theories::monoid`). Result is bit-identical to the
/// sequential left fold for associative operations, for every thread
/// count and every adaptive split.
pub fn par_reduce<T, O>(input: &[T], threads: usize, op: &O) -> T
where
    T: Clone + Send + Sync,
    O: Monoid<T> + Sync,
{
    if input.is_empty() {
        return op.identity();
    }
    if threads <= 1 {
        return fold_chunk(input, op);
    }
    let _span = gp_telemetry::span!("par_reduce");
    reduce_rec(pool::global(), input, op, grain(input.len(), threads))
}

fn fold_chunk<T: Clone, O: Monoid<T>>(chunk: &[T], op: &O) -> T {
    let mut acc = op.identity();
    for x in chunk {
        acc = op.op(&acc, x);
    }
    acc
}

fn reduce_rec<T, O>(pool: &ThreadPool, input: &[T], op: &O, grain: usize) -> T
where
    T: Clone + Send + Sync,
    O: Monoid<T> + Sync,
{
    if input.len() <= grain {
        par_metrics().leaf_len.record(input.len() as u64);
        return fold_chunk(input, op);
    }
    par_metrics().splits.incr();
    let mid = input.len() / 2;
    let (l, r) = input.split_at(mid);
    let (a, b) = pool.join(
        || reduce_rec(pool, l, op, grain),
        || reduce_rec(pool, r, op, grain),
    );
    op.op(&a, &b)
}

/// The ablation escape hatch: reduce with an **arbitrary closure** and no
/// concept obligation. Used by tests and the ablation benchmark to show
/// that dropping the Monoid requirement silently corrupts results for
/// non-associative operations. Not part of the supported API surface.
///
/// Chunking is static (`ceil(n / threads)` even chunks, seed semantics):
/// each chunk folds from a clone of `init`, then the per-chunk partials
/// fold left-to-right — so for a given `threads` the corruption pattern
/// of a non-associative `f` is reproducible.
pub fn par_reduce_unchecked<T, F>(input: &[T], threads: usize, init: T, f: F) -> T
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
{
    if input.is_empty() {
        return init;
    }
    let cl = chunk_len(input.len(), threads);
    let n_chunks = input.len().div_ceil(cl);
    let mut partials = uninit_vec::<T>(n_chunks);
    unchecked_totals_rec(pool::global(), input, &mut partials, cl, &init, &f);
    // SAFETY: one partial is written per chunk, covering all chunks.
    let partials = unsafe { assume_init_vec(partials) };
    let mut acc = init;
    for p in &partials {
        acc = f(&acc, p);
    }
    acc
}

fn unchecked_totals_rec<T, F>(
    pool: &ThreadPool,
    input: &[T],
    out: &mut [MaybeUninit<T>],
    cl: usize,
    init: &T,
    f: &F,
) where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> T + Sync,
{
    if out.len() == 1 {
        let mut acc = init.clone();
        for x in input {
            acc = f(&acc, x);
        }
        out[0].write(acc);
        return;
    }
    let mid_chunks = out.len() / 2;
    let (ol, or_) = out.split_at_mut(mid_chunks);
    let (il, ir) = input.split_at(mid_chunks * cl);
    pool.join(
        || unchecked_totals_rec(pool, il, ol, cl, init, f),
        || unchecked_totals_rec(pool, ir, or_, cl, init, f),
    );
}

/// Parallel inclusive prefix scan under a [`Monoid`] (three-phase Blelloch
/// scheme: chunk totals → sequential exclusive scan of totals → offset
/// local scans). `out[i] = x0 ⊕ x1 ⊕ … ⊕ xi`. Phases run on the pooled
/// executor; chunk boundaries are `ceil(n / threads)` so the phase-2
/// sequential scan stays one element per chunk.
pub fn par_scan<T, O>(input: &[T], threads: usize, op: &O) -> Vec<T>
where
    T: Clone + Send + Sync,
    O: Monoid<T> + Sync,
{
    if input.is_empty() {
        return Vec::new();
    }
    if threads <= 1 {
        let mut acc = op.identity();
        return input
            .iter()
            .map(|x| {
                acc = op.op(&acc, x);
                acc.clone()
            })
            .collect();
    }
    let _span = gp_telemetry::span!("par_scan");
    let pool = pool::global();
    let cl = chunk_len(input.len(), threads);
    let n_chunks = input.len().div_ceil(cl);

    // Phase 1: per-chunk totals, in parallel.
    let mut totals = uninit_vec::<T>(n_chunks);
    totals_rec(pool, input, &mut totals, cl, op);
    // SAFETY: one total is written per chunk.
    let totals = unsafe { assume_init_vec(totals) };

    // Phase 2: sequential exclusive scan of the totals (cheap: one
    // element per chunk).
    let mut offsets = Vec::with_capacity(totals.len());
    let mut acc = op.identity();
    for t in &totals {
        offsets.push(acc.clone());
        acc = op.op(&acc, t);
    }

    // Phase 3: local inclusive scans seeded with the chunk offset,
    // written straight into the pre-sized output.
    let mut out = uninit_vec::<T>(input.len());
    scan_chunks_rec(pool, input, &offsets, &mut out, cl, op);
    // SAFETY: phase 3 writes every output element exactly once.
    unsafe { assume_init_vec(out) }
}

fn totals_rec<T, O>(pool: &ThreadPool, input: &[T], out: &mut [MaybeUninit<T>], cl: usize, op: &O)
where
    T: Clone + Send + Sync,
    O: Monoid<T> + Sync,
{
    if out.len() == 1 {
        out[0].write(fold_chunk(input, op));
        return;
    }
    let mid_chunks = out.len() / 2;
    let (ol, or_) = out.split_at_mut(mid_chunks);
    let (il, ir) = input.split_at(mid_chunks * cl);
    pool.join(
        || totals_rec(pool, il, ol, cl, op),
        || totals_rec(pool, ir, or_, cl, op),
    );
}

fn scan_chunks_rec<T, O>(
    pool: &ThreadPool,
    input: &[T],
    offsets: &[T],
    out: &mut [MaybeUninit<T>],
    cl: usize,
    op: &O,
) where
    T: Clone + Send + Sync,
    O: Monoid<T> + Sync,
{
    if offsets.len() == 1 {
        let mut acc = offsets[0].clone();
        for (slot, x) in out.iter_mut().zip(input) {
            acc = op.op(&acc, x);
            slot.write(acc.clone());
        }
        return;
    }
    let mid_chunks = offsets.len() / 2;
    let (fl, fr) = offsets.split_at(mid_chunks);
    let (il, ir) = input.split_at(mid_chunks * cl);
    let (ol, or_) = out.split_at_mut(mid_chunks * cl);
    pool.join(
        || scan_chunks_rec(pool, il, fl, ol, cl, op),
        || scan_chunks_rec(pool, ir, fr, or_, cl, op),
    );
}

/// Parallel merge sort: recursive adaptive splitting down to
/// introsort-sorted leaves (the concept-dispatched random-access
/// algorithm), merging halves on the way back up. Stability across equal
/// elements is **not** guaranteed (introsort leaves are unstable),
/// matching the sequential `sort` contract.
pub fn par_sort<T, O>(data: &mut [T], threads: usize, ord: &O)
where
    T: Clone + Send + Sync,
    O: StrictWeakOrder<T> + Sync,
{
    let n = data.len();
    if n <= 1 {
        return;
    }
    if threads <= 1 {
        introsort(data, ord);
        return;
    }
    let _span = gp_telemetry::span!("par_sort");
    let g = grain(n, threads).max(1024);
    sort_rec(pool::global(), data, ord, g);
}

fn sort_rec<T, O>(pool: &ThreadPool, data: &mut [T], ord: &O, grain: usize)
where
    T: Clone + Send + Sync,
    O: StrictWeakOrder<T> + Sync,
{
    if data.len() <= grain {
        par_metrics().leaf_len.record(data.len() as u64);
        introsort(data, ord);
        return;
    }
    par_metrics().splits.incr();
    let mid = data.len() / 2;
    {
        let (l, r) = data.split_at_mut(mid);
        pool.join(
            || sort_rec(pool, l, ord, grain),
            || sort_rec(pool, r, ord, grain),
        );
    }
    merge_in_place(data, mid, ord);
}

/// Merge `data[..mid]` and `data[mid..]` (each sorted) using a clone of
/// the left run as scratch. Writes never overtake unread right-run
/// elements: the write index trails the right read index whenever a left
/// element is chosen.
fn merge_in_place<T: Clone, O: StrictWeakOrder<T>>(data: &mut [T], mid: usize, ord: &O) {
    let left: Vec<T> = data[..mid].to_vec();
    let (mut i, mut j, mut k) = (0, mid, 0);
    while i < left.len() && j < data.len() {
        if ord.less(&data[j], &left[i]) {
            data[k] = data[j].clone();
            j += 1;
        } else {
            data[k] = left[i].clone();
            i += 1;
        }
        k += 1;
    }
    while i < left.len() {
        data[k] = left[i].clone();
        i += 1;
        k += 1;
    }
    // Any remaining right-run elements are already in place.
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::algebra::{monoid_fold, AddOp, MaxOp, MulOp};
    use gp_core::archetype::{ArchetypeElem, ArchetypeOp};
    use gp_core::order::NaturalLess;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(n: usize, seed: u64) -> Vec<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1000..1000)).collect()
    }

    #[test]
    fn par_map_preserves_order() {
        let v = random(10_000, 1);
        for threads in [1, 2, 4, 7] {
            let out = par_map(&v, threads, |x| x * 2);
            let expect: Vec<i64> = v.iter().map(|x| x * 2).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
        assert_eq!(par_map::<i64, i64, _>(&[], 4, |x| *x), Vec::<i64>::new());
    }

    #[test]
    fn par_map_static_matches_adaptive() {
        let v = random(5000, 11);
        for threads in [1, 2, 4, 16] {
            assert_eq!(
                par_map_static(&v, threads, |x| x - 7),
                par_map(&v, threads, |x| x - 7),
                "threads={threads}"
            );
        }
        assert_eq!(
            par_map_static::<i64, i64, _>(&[], 4, |x| *x),
            Vec::<i64>::new()
        );
    }

    #[test]
    fn par_apply_mutates_everything() {
        let mut v = random(5000, 2);
        let expect: Vec<i64> = v.iter().map(|x| x + 1).collect();
        par_apply(&mut v, 4, |x| *x += 1);
        assert_eq!(v, expect);
    }

    #[test]
    fn par_reduce_equals_sequential_for_any_thread_count() {
        let v = random(10_001, 3); // deliberately not divisible
        let seq = monoid_fold(&AddOp, &v);
        for threads in [1, 2, 3, 8, 33] {
            assert_eq!(par_reduce(&v, threads, &AddOp), seq, "threads={threads}");
        }
        assert_eq!(par_reduce(&v, 4, &MaxOp), monoid_fold(&MaxOp, &v));
        // Empty input yields the identity.
        assert_eq!(par_reduce::<i64, _>(&[], 4, &AddOp), 0);
        assert_eq!(par_reduce::<i64, _>(&[], 4, &MulOp), 1);
    }

    #[test]
    fn par_reduce_works_against_the_monoid_archetype() {
        // Compile-time proof that par_reduce needs only the Monoid concept.
        let items: Vec<ArchetypeElem> = (1..=100).map(ArchetypeElem::new).collect();
        let total = par_reduce(&items, 4, &ArchetypeOp);
        assert_eq!(total.get(), 5050);
    }

    #[test]
    fn unchecked_reduce_with_non_associative_op_corrupts_results() {
        // The ablation: subtraction is not associative; chunked reduction
        // disagrees with the sequential fold — exactly the failure the
        // Monoid concept constraint rules out at compile time.
        let v: Vec<i64> = (1..=1000).collect();
        let seq = v.iter().fold(0i64, |a, b| a - b);
        let par = par_reduce_unchecked(&v, 8, 0i64, |a, b| a - b);
        assert_ne!(par, seq, "non-associative op must break chunked reduce");
        // Whereas for an associative op the unchecked version agrees.
        let par_ok = par_reduce_unchecked(&v, 8, 0i64, |a, b| a + b);
        assert_eq!(par_ok, v.iter().sum::<i64>());
    }

    #[test]
    fn par_scan_matches_sequential_prefix_sums() {
        let v = random(4321, 4);
        let mut expect = Vec::with_capacity(v.len());
        let mut acc = 0i64;
        for x in &v {
            acc += x;
            expect.push(acc);
        }
        for threads in [1, 2, 5, 16] {
            assert_eq!(par_scan(&v, threads, &AddOp), expect, "threads={threads}");
        }
        assert_eq!(par_scan::<i64, _>(&[], 4, &AddOp), Vec::<i64>::new());
    }

    #[test]
    fn par_scan_works_for_non_commutative_monoids() {
        // Concatenation is associative but not commutative: the scan must
        // still be correct (associativity is the only requirement).
        use gp_core::algebra::ConcatOp;
        let words: Vec<String> = ["a", "b", "c", "d", "e", "f", "g"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = par_scan(&words, 3, &ConcatOp);
        assert_eq!(out.last().unwrap(), "abcdefg");
        assert_eq!(out[2], "abc");
    }

    #[test]
    fn par_sort_sorts_like_sequential() {
        for seed in 0..3 {
            let orig = random(20_000, seed);
            let mut expect = orig.clone();
            expect.sort_unstable();
            for threads in [1, 2, 4, 6] {
                let mut v = orig.clone();
                par_sort(&mut v, threads, &NaturalLess);
                assert_eq!(v, expect, "seed={seed} threads={threads}");
            }
        }
        let mut empty: Vec<i64> = vec![];
        par_sort(&mut empty, 4, &NaturalLess);
        assert!(empty.is_empty());
    }

    #[test]
    fn tiny_and_odd_inputs_for_every_primitive() {
        for n in [0usize, 1, 2, 3, 7] {
            let v = random(n, 99);
            for threads in [1usize, 2, 3, 8] {
                assert_eq!(
                    par_map(&v, threads, |x| x * 5),
                    v.iter().map(|x| x * 5).collect::<Vec<_>>(),
                    "map n={n} threads={threads}"
                );
                assert_eq!(
                    par_reduce(&v, threads, &AddOp),
                    monoid_fold(&AddOp, &v),
                    "reduce n={n} threads={threads}"
                );
                let mut acc = 0i64;
                let expect: Vec<i64> = v
                    .iter()
                    .map(|x| {
                        acc += x;
                        acc
                    })
                    .collect();
                assert_eq!(
                    par_scan(&v, threads, &AddOp),
                    expect,
                    "scan n={n} threads={threads}"
                );
                let mut s = v.clone();
                par_sort(&mut s, threads, &NaturalLess);
                let mut e = v.clone();
                e.sort_unstable();
                assert_eq!(s, e, "sort n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn map_panic_propagates_cleanly() {
        let v: Vec<i64> = (0..10_000).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&v, 8, |x| {
                if *x == 7777 {
                    panic!("poison element");
                }
                x + 1
            })
        });
        assert!(result.is_err());
        // The executor survives for subsequent calls.
        assert_eq!(par_reduce(&v, 8, &AddOp), v.iter().sum::<i64>());
    }
}
