//! E2: the Fig. 3 / CLACRM mixed-precision claim — modeling the scalar as
//! an associated type of the vector forces promotion to complex×complex,
//! which costs 2× the multiplications of the direct mixed kernel.

use gp_bench::{banner, best_ms, Table};
use gp_core::algebra::AlgEq;
use gp_core::numeric::{
    clacrm_mixed, clacrm_mixed_mults, clacrm_promoted, clacrm_promoted_mults, Complex, Matrix,
};

fn main() {
    banner(
        "E2",
        "Complex-by-real matrix multiply: mixed kernel vs forced promotion",
        "Fig. 3 Vector Space multi-type concept; §2.4 CLACRM",
    );
    let t = Table::new(&[
        ("n (n×n · n×n)", 14),
        ("mixed real-mults", 17),
        ("promoted real-mults", 20),
        ("mixed ms", 10),
        ("promoted ms", 12),
        ("speedup", 8),
        ("equal?", 7),
    ]);
    for &n in &[32usize, 64, 128, 192] {
        let a = Matrix::from_fn(n, n, |i, j| {
            Complex::new((i as f32 * 0.37).sin(), (j as f32 * 0.11).cos())
        });
        let b = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 17) as f32 * 0.25 - 2.0);
        let reps = if n <= 64 { 9 } else { 3 };
        let mixed_ms = best_ms(reps, || clacrm_mixed(&a, &b));
        let promoted_ms = best_ms(reps, || clacrm_promoted(&a, &b));
        let equal = clacrm_mixed(&a, &b).alg_eq(&clacrm_promoted(&a, &b));
        t.row(&[
            n.to_string(),
            clacrm_mixed_mults(n, n, n).to_string(),
            clacrm_promoted_mults(n, n, n).to_string(),
            format!("{mixed_ms:.2}"),
            format!("{promoted_ms:.2}"),
            format!("{:.2}x", promoted_ms / mixed_ms),
            equal.to_string(),
        ]);
    }
    println!();
    println!("  Paper claim: mixed complex×real products are 'significantly more");
    println!("  efficient than converting the second argument to a complex number'.");
    println!("  Shape check: promoted does exactly 2x the real multiplications; the");
    println!("  wall-clock speedup should sit between 1x and 2x (memory traffic).");
}
