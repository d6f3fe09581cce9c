//! Property tests pinning the served `prove` handler to the always-re-check
//! reference ([`gp_bench::oracle::prove_recheck`]): for random symbol maps
//! over every packaged theory — hostile ones included — the two render
//! byte-identical payloads (or the same handler error), and both serving
//! paths (renamed statements, full re-check) are exercised.
//!
//! No map makes a packaged proof improper (none uses ∃-elimination or
//! mentions `false`), so every verdict here reads `ok: true`; `gp-proofs`'s
//! own tests cover a witness that a map un-freshens
//! (`theories::tests::witness_theory`).

use gp_bench::oracle::prove_recheck;
use gp_proofs::theories::{group, monoid, order, ring, CheckedTheory, Theory};
use gp_service::prove::ProveRequest;
use gp_service::RequestKind;
use rand::rngs::StdRng;
use rand::Rng;

/// Request names, the `strict-weak-order` alias and one unknown name.
const THEORIES: [&str; 7] = [
    "monoid",
    "monoid-identity-uniqueness",
    "group",
    "ring",
    "order",
    "strict-weak-order",
    "field",
];

/// Requests drawn per proptest case (the shim runs 64 cases).
const PER_CASE: usize = 40;

fn theory_of(name: &str) -> Option<Theory> {
    Some(match name {
        "monoid" => monoid::theory(),
        "monoid-identity-uniqueness" => monoid::identity_uniqueness_theory(),
        "group" => group::theory(),
        "ring" => ring::theory(),
        "order" | "strict-weak-order" => order::theory(),
        _ => return None,
    })
}

fn pick<'a>(rng: &mut StdRng, from: &'a [String]) -> &'a str {
    &from[rng.gen_range(0..from.len())]
}

/// A symbol map over `symbols`: some of them renamed to new names, plus
/// one hostile case — a swap, two keys onto one name, a value equal to an
/// unmapped theory symbol, `false` as key or value, a witness name, keys
/// outside the theory — or no map at all.
fn sample_model(rng: &mut StdRng, symbols: &[String]) -> Vec<(String, String)> {
    let mut model: Vec<(String, String)> = Vec::new();
    for _ in 0..rng.gen_range(0..4) {
        let k = pick(rng, symbols);
        model.push((k.to_string(), format!("{k}_{}", rng.gen_range(0..3))));
    }
    let a = pick(rng, symbols).to_string();
    let b = pick(rng, symbols).to_string();
    match rng.gen_range(0..9) {
        0 => {
            model.push((a.clone(), b.clone()));
            model.push((b, a));
        }
        1 => {
            model.push((a, "dup".into()));
            model.push((b, "dup".into()));
        }
        2 => model.push((a, b)),
        3 => model.push((a, "false".into())),
        4 => model.push(("false".into(), a)),
        5 => model.push((a, "w".into())),
        6 => {
            model.push(("outside".into(), a));
            model.push(("elsewhere".into(), "w".into()));
        }
        7 => model.clear(),
        _ => {}
    }
    // The wire decoder hands the handler a key-sorted model.
    model.sort();
    model
}

fn sample_request(rng: &mut StdRng) -> ProveRequest {
    let theory = THEORIES[rng.gen_range(0..THEORIES.len())];
    let mut symbols: Vec<String> = theory_of(theory)
        .map(|t| {
            CheckedTheory::new(t)
                .unwrap()
                .symbols()
                .iter()
                .cloned()
                .collect()
        })
        .unwrap_or_else(|| vec!["op".into(), "e".into()]);
    symbols.push("w".into());
    ProveRequest {
        theory: theory.into(),
        instance: if rng.gen_bool(0.25) {
            String::new()
        } else {
            format!("m{}", rng.gen_range(0..100))
        },
        model: sample_model(rng, &symbols),
    }
}

fn render(r: Result<gp_core::json::Json, String>) -> Result<String, String> {
    r.map(|j| j.render())
}

#[test]
fn served_prove_payloads_match_the_full_recheck() {
    let renamed = gp_telemetry::counter("proofs.prove.renamed");
    let rechecked = gp_telemetry::counter("proofs.prove.rechecked");
    let (renamed0, rechecked0) = (renamed.get(), rechecked.get());
    let (mut requests, mut failed_verdicts) = (0usize, 0usize);
    let mut agree = |req: &ProveRequest| {
        let served = render(req.handle());
        assert_eq!(
            served,
            render(prove_recheck(req)),
            "payloads differ for {req:?}"
        );
        requests += 1;
        failed_verdicts += usize::from(served.is_ok_and(|p| p.contains("\"ok\":false")));
    };
    // `op ↦ e` collides with the unmapped identity constant.
    agree(&ProveRequest {
        theory: "monoid".into(),
        instance: "i".into(),
        model: vec![("op".into(), "e".into())],
    });
    proptest::test_runner::run("served_prove_payloads_match_the_full_recheck", |rng| {
        for _ in 0..PER_CASE {
            agree(&sample_request(rng));
        }
    });
    let (renamed, rechecked) = (renamed.get() - renamed0, rechecked.get() - rechecked0);
    eprintln!(
        "prove equivalence: {requests} requests, {renamed} renamed, {rechecked} re-checked, \
         {failed_verdicts} ok:false verdicts"
    );
    assert!(renamed > 0, "no request took the renaming path");
    assert!(rechecked > 0, "no request took the re-check path");
}
