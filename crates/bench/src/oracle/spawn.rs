//! The seed's spawn-per-call data-parallel primitives: the measured
//! baseline for the pooled executor in `gp_parallel::par`.
//!
//! Every call spawns fresh OS threads via `std::thread::scope` and uses
//! static even chunking — the two costs the work-stealing executor
//! removes. E11 (`exp_parallel`, `benches/parallel.rs`) compares the two,
//! and the pooled-equals-spawn test pins their outputs together.

use gp_core::algebra::Monoid;

fn chunk_len(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1)).max(1)
}

/// Spawn-per-call parallel map (seed implementation: fresh threads, a
/// `Vec<Vec<U>>` intermediate, then a re-extend into the output).
pub fn spawn_map<T, U, F>(input: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if input.is_empty() {
        return Vec::new();
    }
    let cl = chunk_len(input.len(), threads);
    let mut parts: Vec<Vec<U>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = input
            .chunks(cl)
            .map(|chunk| s.spawn(|| chunk.iter().map(&f).collect::<Vec<U>>()))
            .collect();
        parts = handles
            .into_iter()
            .map(|h| h.join().expect("map worker"))
            .collect();
    });
    let mut out = Vec::with_capacity(input.len());
    for p in parts {
        out.extend(p);
    }
    out
}

/// Spawn-per-call parallel Monoid reduction (seed implementation).
pub fn spawn_reduce<T, O>(input: &[T], threads: usize, op: &O) -> T
where
    T: Clone + Send + Sync,
    O: Monoid<T> + Sync,
{
    if input.is_empty() {
        return op.identity();
    }
    let cl = chunk_len(input.len(), threads);
    let mut partials: Vec<T> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = input
            .chunks(cl)
            .map(|chunk| {
                s.spawn(move || {
                    let mut acc = op.identity();
                    for x in chunk {
                        acc = op.op(&acc, x);
                    }
                    acc
                })
            })
            .collect();
        partials = handles
            .into_iter()
            .map(|h| h.join().expect("reduce worker"))
            .collect();
    });
    let mut acc = op.identity();
    for p in &partials {
        acc = op.op(&acc, p);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_core::algebra::{monoid_fold, AddOp};

    #[test]
    fn spawn_baseline_matches_sequential() {
        let v: Vec<i64> = (1..=10_001).collect();
        assert_eq!(spawn_reduce(&v, 4, &AddOp), monoid_fold(&AddOp, &v));
        let out = spawn_map(&v, 4, |x| x * 3);
        assert_eq!(out, v.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(spawn_map::<i64, i64, _>(&[], 4, |x| *x), Vec::<i64>::new());
        assert_eq!(spawn_reduce::<i64, _>(&[], 4, &AddOp), 0);
    }

    #[test]
    fn pooled_equals_spawn_baseline() {
        use gp_parallel::par::{par_map, par_reduce};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let v: Vec<i64> = (0..30_000).map(|_| rng.gen_range(-1000..1000)).collect();
        for threads in [2, 4, 8] {
            assert_eq!(
                par_map(&v, threads, |x| x ^ 3),
                spawn_map(&v, threads, |x| x ^ 3)
            );
            assert_eq!(
                par_reduce(&v, threads, &AddOp),
                spawn_reduce(&v, threads, &AddOp)
            );
        }
    }
}
