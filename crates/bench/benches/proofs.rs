//! E8 bench: proof-checking cost — the Fig. 6 theory, its per-instance
//! re-check (the amortization unit), the same instance renamed from the
//! theory checked once, and the algebraic theories.

use criterion::{criterion_group, criterion_main, Criterion};
use gp_proofs::logic::SymbolMap;
use gp_proofs::theories::{group, monoid, order, CheckedTheory};

fn bench(c: &mut Criterion) {
    let swo = order::theory();
    c.bench_function("check/swo_theory", |b| b.iter(|| swo.check().unwrap()));

    let map = SymbolMap::new([("lt", "int_lt"), ("eqv", "int_eqv")]);
    c.bench_function("instantiate_and_check/swo_instance", |b| {
        b.iter(|| swo.instantiate("i32", &map).check().unwrap())
    });
    let checked = CheckedTheory::new(swo.clone()).unwrap();
    c.bench_function("rename_statements/swo_instance", |b| {
        b.iter(|| checked.rename_statements(&map).unwrap())
    });

    let grp = group::theory();
    c.bench_function("check/group_theory", |b| b.iter(|| grp.check().unwrap()));

    let mon = monoid::identity_uniqueness_theory();
    c.bench_function("check/identity_uniqueness", |b| {
        b.iter(|| mon.check().unwrap())
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
