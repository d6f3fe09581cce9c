//! E8: proof checking for generic libraries — the Fig. 6 derivations, the
//! generic-proof amortization table, and the bridge to the executable
//! axiom checks.
//!
//! E8b also times the served `prove` handler (each theory checked once
//! per process, a request answered by renaming the checked statements)
//! against the always-re-check reference, per theory, and checks that
//! the two payloads are byte-identical. Emits `results/BENCH_proofs.json`;
//! `--smoke` times fewer calls and writes `BENCH_proofs.smoke.json`,
//! whose `"renamed_identical":true` CI greps.

use gp_bench::oracle::prove_recheck;
use gp_bench::{banner, median_ms, write_results, Json, Table};
use gp_core::order::{check_strict_weak_order, CaseInsensitive, NaturalLess, NonStrictLeq};
use gp_proofs::logic::SymbolMap;
use gp_proofs::theories::{group, monoid, order, ring};
use gp_service::prove::ProveRequest;
use gp_service::RequestKind;
use std::time::Instant;

/// One `prove` request per packaged theory, each onto a model whose map
/// renames the theory's symbols bijectively.
const SERVED: [(&str, &[(&str, &str)]); 5] = [
    ("monoid", &[("e", "zero"), ("op", "add")]),
    ("monoid-identity-uniqueness", &[("e", "one"), ("op", "mul")]),
    ("group", &[("e", "zero"), ("inv", "neg"), ("op", "add")]),
    (
        "ring",
        &[
            ("add", "plus"),
            ("mul", "times"),
            ("one", "1"),
            ("zero", "0"),
        ],
    ),
    ("order", &[("eqv", "int_eqv"), ("lt", "int_lt")]),
];

/// E8b's served row: median µs per `prove` served (checked once,
/// renamed) and re-checked, and whether the payloads are byte-identical.
fn served_vs_rechecked(calls: usize) -> (Vec<Json>, bool) {
    let tab = Table::new(&[
        ("theory", 28),
        ("served µs", 10),
        ("re-checked µs", 14),
        ("speed-up", 9),
        ("identical", 9),
    ]);
    let mut rows = Vec::new();
    let mut all_identical = true;
    for (theory, model) in SERVED {
        let req = ProveRequest {
            theory: theory.into(),
            instance: "model".into(),
            model: model
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
        };
        let served = req.handle().map(|j| j.render());
        let identical = served.is_ok() && served == prove_recheck(&req).map(|j| j.render());
        all_identical &= identical;
        let us = |ms: f64| (ms * 1e4).round() / 10.0;
        let served_us = us(median_ms(calls, || req.handle()));
        let rechecked_us = us(median_ms(calls, || prove_recheck(&req)));
        tab.row(&[
            theory.to_string(),
            format!("{served_us:.1}"),
            format!("{rechecked_us:.1}"),
            format!("{:.1}×", rechecked_us / served_us),
            identical.to_string(),
        ]);
        rows.push(
            Json::obj()
                .field("theory", theory)
                .field("served_us", served_us)
                .field("rechecked_us", rechecked_us)
                .field("identical", identical),
        );
    }
    println!(
        "\n  median of {calls} calls each; served = checked once per process, \
         statements renamed."
    );
    (rows, all_identical)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "E8",
        "Fig. 6: deriving symmetry and reflexivity of E from the SWO axioms",
        "§3.3; Fig. 6",
    );
    let t = order::theory();
    println!("  axioms asserted:");
    for a in &t.axioms {
        println!("    {a}");
    }
    let t0 = Instant::now();
    let proved = t.check().expect("SWO proofs check");
    let us = t0.elapsed().as_secs_f64() * 1e6;
    println!(
        "\n  theorems proved (checked in {us:.0} µs, {} deduction nodes):",
        t.proof_size()
    );
    for (thm, p) in t.theorems.iter().zip(&proved) {
        println!("    [{}] {p}", thm.name);
    }

    banner(
        "E8b",
        "Generic proofs amortize over instances",
        "§3.3 'instantiate it many times … amortization over the many possible instances'",
    );
    let tab = Table::new(&[
        ("instance", 22),
        ("operator mapping", 34),
        ("re-check µs", 12),
        ("verdict", 8),
    ]);
    let instances: Vec<(&str, SymbolMap)> = vec![
        (
            "(i32, <)",
            SymbolMap::new([("lt", "int_lt"), ("eqv", "int_eqv")]),
        ),
        (
            "(String, ci_less)",
            SymbolMap::new([("lt", "ci_lt"), ("eqv", "ci_eqv")]),
        ),
        (
            "(f64-total, total_lt)",
            SymbolMap::new([("lt", "total_lt"), ("eqv", "total_eqv")]),
        ),
        (
            "(pairs, by_key)",
            SymbolMap::new([("lt", "key_lt"), ("eqv", "key_eqv")]),
        ),
    ];
    for (name, map) in &instances {
        let inst = t.instantiate(name, map);
        let t0 = Instant::now();
        let ok = inst.check().is_ok();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        tab.row(&[
            name.to_string(),
            format!("lt↦{}, eqv↦{}", map.apply("lt"), map.apply("eqv")),
            format!("{us:.0}"),
            if ok { "OK" } else { "FAIL" }.to_string(),
        ]);
    }
    println!(
        "\n  one proof authored; {} instances checked.\n",
        instances.len()
    );
    let calls = if smoke { 200 } else { 5_000 };
    let (served_rows, renamed_identical) = served_vs_rechecked(calls);

    banner(
        "E8c",
        "Algebraic theories behind the Fig. 5 rewrites",
        "§3.2-3.3: rules 'derivable from the axioms governing Monoid and Group'",
    );
    for theory in [
        monoid::theory(),
        group::theory(),
        monoid::identity_uniqueness_theory(),
        ring::theory(),
    ] {
        let proved = theory.check().expect("theory checks");
        println!("  {}:", theory.name);
        for (thm, p) in theory.theorems.iter().zip(&proved) {
            println!("    [{}] {p}", thm.name);
        }
    }

    banner(
        "E8d",
        "The same axioms, checked executably on concrete models",
        "§3 semantic concepts are machine-checkable end to end",
    );
    let ints: Vec<i64> = vec![3, -1, 4, 1, 5, 9, 2, 6, 5, 3];
    let strs: Vec<String> = ["Apple", "apple", "Banana", "cherry", "APPLE"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    println!(
        "  (i64, <)            : {} checks passed",
        check_strict_weak_order(&NaturalLess, &ints).expect("holds")
    );
    println!(
        "  (String, ci_less)   : {} checks passed",
        check_strict_weak_order(&CaseInsensitive, &strs).expect("holds")
    );
    match check_strict_weak_order(&NonStrictLeq, &ints) {
        Err(e) => println!("  (i64, <=) REJECTED  : {e}"),
        Ok(_) => println!("  (i64, <=) unexpectedly passed?!"),
    }

    let report = Json::obj()
        .field("experiment", "E8_proofs")
        .field("smoke", smoke)
        .field(
            "host_threads",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .field("calls", calls)
        .field("served_vs_rechecked", Json::Arr(served_rows))
        .field("renamed_identical", renamed_identical);
    let path = write_results("BENCH_proofs.json", &report);
    println!();
    println!("wrote {}", path.display());
}
