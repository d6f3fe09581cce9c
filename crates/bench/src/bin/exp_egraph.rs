//! E17: the concept superoptimizer — equality saturation with cost-based
//! extraction vs the directed rewrite engine, end to end through the
//! `optimize` service kind.
//!
//! Four phases:
//!
//! 1. **Selection** — workloads where the directed engine is provably
//!    stuck (no rule's left-hand side matches any subterm) but bounded
//!    saturation under the exploration equalities reaches a strictly
//!    cheaper equivalent, extracted under the taxonomy's measured cost
//!    model. The CI gate: at least one workload must beat the directed
//!    engine's cost.
//! 2. **Budget** — an explosive commutativity/associativity workload at a
//!    deliberately tiny node budget: terminates, reports `budget_hit` as
//!    a flag (not a panic), and extraction still returns a no-worse-cost
//!    term.
//! 3. **Cost models** — the asymptotic annotation model and the E9-style
//!    measured model re-derived from the same catalog must rank every
//!    operator pair identically at the nominal size.
//! 4. **Service** — a mixed `optimize` + `simplify` stream over TCP
//!    loopback: optimize p50/p99, byte-identical cache hits, the
//!    `accepted == completed + shed` conservation law from one telemetry
//!    snapshot delta, and the directed `simplify` path re-timed against
//!    the `BENCH_rewrite.json` baseline when present (the e-graph must
//!    not tax the fast path).
//!
//! Every selection, budget and LiDIA run is repeated on the frozen
//! full-sweep engine (`gp_bench::oracle::optimize_full_sweep`): the
//! report gives nodes e-matched per iteration for both, and
//! `optimize_identical` records that statistics and extracted terms
//! agree on every workload.
//!
//! Emits `results/BENCH_egraph.json`; `--smoke` shrinks counts for CI.

use gp_bench::oracle::{optimize_full_sweep, optimize_payload_rebuild, KeyedCost};
use gp_bench::{banner, median_ms, write_results, Json, Table};
use gp_rewrite::egraph::{op_key, CostModel, EGraph, EGraphConfig, MeasuredCost, OptimizeStats};
use gp_rewrite::rules::LidiaInverse;
use gp_rewrite::{BinOp, Expr, Simplifier, Type, UnOp};
use gp_service::optimize::{CostSpec, OptimizeRequest};
use gp_service::simplify::{EnvSpec, SimplifyRequest};
use gp_service::{ReactorConfig, Request, Response, Service, ServiceConfig, TcpClient};
use std::time::Instant;

/// Tree cost of an expression under a model: intern into a fresh store
/// and fold — the yardstick both engines' outputs are measured with.
fn tree_cost_of(e: &Expr, cost: &dyn CostModel) -> u64 {
    let s = Simplifier::standard();
    let mut sess = s.session();
    let root = sess.store_mut().intern_expr(e);
    EGraph::new(&s, sess.store_mut()).tree_cost(cost, root)
}

/// One workload on both engines: the library's semi-naive run (on a
/// fresh session, as `Session::optimize` runs it) and the frozen full
/// sweep under the same weights looked up by `op_key` string.
struct Compared {
    out: Expr,
    stats: OptimizeStats,
    /// Nodes e-matched per iteration: library, then full sweep.
    matched_per_iter: (f64, f64),
    /// Statistics and extracted term agree.
    identical: bool,
    /// Wall time of the library run, in milliseconds.
    wall_ms: f64,
}

fn compare_engines(
    simp: &Simplifier,
    e: &Expr,
    cfg: &EGraphConfig,
    cost: &dyn CostModel,
    oracle_cost: &KeyedCost,
) -> Compared {
    let t0 = Instant::now();
    let mut sess = simp.session();
    let root = sess.store_mut().intern_expr(e);
    let mut g = EGraph::new(simp, sess.store_mut());
    let (out, stats) = g.optimize(root, cfg, cost);
    let matched = g.matched();
    let out = sess.store().extract(out);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (full_out, full_stats, full_matched) = optimize_full_sweep(simp, e, cfg, oracle_cost);
    let per_iter = |m: usize| m as f64 / stats.iters.max(1) as f64;
    Compared {
        identical: out == full_out && stats == full_stats,
        matched_per_iter: (per_iter(matched), per_iter(full_matched)),
        out,
        stats,
        wall_ms,
    }
}

// --- Phase 1: extraction past the directed engine ------------------------

/// Workloads on which every directed rule's left-hand side misses: the
/// cancellation is only visible after re-association, an *equality* the
/// directed engine cannot apply without looping.
fn selection_workloads() -> Vec<(&'static str, Expr)> {
    use BinOp::Add;
    let x = Expr::var("x", Type::Int);
    let y = Expr::var("y", Type::Int);
    let a = Expr::var("a", Type::Int);
    let b = Expr::var("b", Type::Int);
    vec![
        // (x + y) + (-y): associate to x + (y + (-y)), cancel, extract x.
        (
            "cancel",
            Expr::bin(
                Add,
                Expr::bin(Add, x.clone(), y.clone()),
                Expr::un(UnOp::Neg, y.clone()),
            ),
        ),
        // ((x + a) + b) + (-b): same shape one level deeper.
        (
            "nested-cancel",
            Expr::bin(
                Add,
                Expr::bin(Add, Expr::bin(Add, x.clone(), a), b.clone()),
                Expr::un(UnOp::Neg, b),
            ),
        ),
        // ((x + y) + (-y)) * 1: the cancellation *under* a directed
        // rewrite — the monoid rule strips the * 1, the e-graph also
        // finds the cancellation beneath it.
        (
            "cancel-under-monoid",
            Expr::bin(
                BinOp::Mul,
                Expr::bin(Add, Expr::bin(Add, x, y.clone()), Expr::un(UnOp::Neg, y)),
                Expr::int(1),
            ),
        ),
    ]
}

fn selection_phase(reps: usize, identical: &mut bool) -> (Vec<Json>, bool) {
    println!("-- selection: extraction past the directed engine --");
    let cost = MeasuredCost::from_counts(gp_taxonomy::measured_op_counts());
    let directed = Simplifier::standard();
    let superopt = Simplifier::superopt(gp_rewrite::ConceptEnv::standard());
    let cfg = EGraphConfig::default();
    let t = Table::new(&[
        ("workload", 20),
        ("directed", 24),
        ("extracted", 12),
        ("cost dir", 9),
        ("cost ext", 9),
        ("iters", 6),
        ("classes", 8),
        ("dir ms", 9),
        ("egraph ms", 10),
        ("match/it", 9),
        ("full/it", 8),
    ]);
    let mut rows = Vec::new();
    let mut any_beat = false;
    for (name, e) in selection_workloads() {
        let (dir_out, _) = directed.simplify(&e);
        let run = compare_engines(&superopt, &e, &cfg, &cost, &KeyedCost::measured());
        *identical &= run.identical;
        let (ext_out, stats) = (run.out, run.stats);
        let (matched, full_matched) = run.matched_per_iter;
        let cost_dir = tree_cost_of(&dir_out, &cost);
        let cost_ext = stats.cost_after;
        assert!(
            cost_ext <= stats.cost_before,
            "{name}: extraction must never regress the input"
        );
        assert!(stats.saturated, "{name}: tiny workloads must saturate");
        let beats = cost_ext < cost_dir;
        any_beat |= beats;
        let directed_ms = median_ms(reps, || directed.simplify(&e));
        let egraph_ms = median_ms(reps, || superopt.session().optimize(&e, &cfg, &cost));
        t.row(&[
            name.to_string(),
            dir_out.to_string(),
            ext_out.to_string(),
            cost_dir.to_string(),
            cost_ext.to_string(),
            stats.iters.to_string(),
            stats.classes.to_string(),
            format!("{directed_ms:.3}"),
            format!("{egraph_ms:.3}"),
            format!("{matched:.1}"),
            format!("{full_matched:.1}"),
        ]);
        rows.push(
            Json::obj()
                .field("workload", name)
                .field("input", e.to_string())
                .field("directed", dir_out.to_string())
                .field("extracted", ext_out.to_string())
                .field("cost_input", stats.cost_before)
                .field("cost_directed", cost_dir)
                .field("cost_extracted", cost_ext)
                .field("beats_directed", beats)
                .field("iters", stats.iters)
                .field("classes", stats.classes)
                .field("nodes", stats.nodes)
                .field("unions", stats.unions)
                .field("saturated", stats.saturated)
                .field("directed_ms", directed_ms)
                .field("egraph_ms", egraph_ms)
                .field("matched_per_iter", matched)
                .field("full_sweep_matched_per_iter", full_matched)
                .field("identical_to_full_sweep", run.identical),
        );
    }
    assert!(
        any_beat,
        "at least one workload must extract strictly cheaper than the directed engine"
    );
    println!("   extraction beats the directed engine on >= 1 workload: ok");
    (rows, any_beat)
}

// --- Phase 2: budgets hold -----------------------------------------------

fn budget_phase(vars: usize, identical: &mut bool) -> Json {
    println!();
    println!("-- budget: explosive comm+assoc workload at a tiny node cap --");
    // An add-chain of distinct variables: commutativity and associativity
    // give it superexponentially many equivalent forms, so unbounded
    // saturation would never stop growing.
    let mut e = Expr::var("v0", Type::Int);
    for i in 1..vars {
        e = Expr::bin(BinOp::Add, e, Expr::var(format!("v{i}"), Type::Int));
    }
    let superopt = Simplifier::superopt(gp_rewrite::ConceptEnv::standard());
    let cost = MeasuredCost::from_counts(gp_taxonomy::measured_op_counts());
    let cfg = EGraphConfig {
        max_nodes: 300,
        max_classes: 300,
        max_iters: 12,
    };
    let run = compare_engines(&superopt, &e, &cfg, &cost, &KeyedCost::measured());
    *identical &= run.identical;
    let (out, stats, wall_ms) = (run.out, run.stats, run.wall_ms);
    assert!(stats.budget_hit, "the cap must trip on {vars} variables");
    assert!(!stats.saturated);
    assert!(
        stats.cost_after <= stats.cost_before,
        "budget-stopped extraction is still no-worse"
    );
    println!(
        "   {vars}-variable chain: stopped at {} nodes / {} classes after {} iter(s) \
         in {wall_ms:.2} ms; cost {} -> {} (no worse); budget_hit flag, no panic",
        stats.nodes, stats.classes, stats.iters, stats.cost_before, stats.cost_after
    );
    let respected = stats.budget_hit && stats.cost_after <= stats.cost_before;
    Json::obj()
        .field("variables", vars)
        .field("max_nodes", cfg.max_nodes)
        .field("max_iters", cfg.max_iters)
        .field("nodes", stats.nodes)
        .field("classes", stats.classes)
        .field("iters", stats.iters)
        .field("budget_hit", stats.budget_hit)
        .field("cost_before", stats.cost_before)
        .field("cost_after", stats.cost_after)
        .field("extracted", out.to_string())
        .field("wall_ms", wall_ms)
        .field("respected", respected)
        .field("matched_per_iter", run.matched_per_iter.0)
        .field("full_sweep_matched_per_iter", run.matched_per_iter.1)
        .field("identical_to_full_sweep", run.identical)
}

// --- Phase 3: the two cost models agree on ranking -----------------------

fn cost_model_phase() -> Json {
    println!();
    println!("-- cost models: annotation vs measured ranking --");
    // Re-derive measured counts from the catalog at runtime (the E9
    // methodology: evaluate each annotation at the nominal size) and
    // check the two models rank every operator pair identically.
    let catalog = gp_taxonomy::op_cost_catalog();
    let annotation = CostSpec::Annotation.build();
    let measured = CostSpec::Measured.build();
    let mut store = gp_rewrite::TermStore::new();
    let f = store.var("f", Type::BigFloat);
    let one = store.lit(&gp_rewrite::Value::BigFloat(1.0));
    // Representative nodes for the keys both models can see on real terms.
    let probes = [
        ("bigfloat.add", store.binary(BinOp::Add, f, f)),
        ("bigfloat.mul", store.binary(BinOp::Mul, f, f)),
        ("bigfloat.div", store.binary(BinOp::Div, one, f)),
        ("call.Inverse", store.call("Inverse", Type::BigFloat, &[f])),
    ];
    let mut agree = true;
    for (i, (ka, ia)) in probes.iter().enumerate() {
        assert_eq!(&op_key(&store, *ia), ka, "probe key mismatch");
        for (kb, ib) in probes.iter().skip(i + 1) {
            let ann = annotation
                .node_cost(&store, *ia)
                .cmp(&annotation.node_cost(&store, *ib));
            let mea = measured
                .node_cost(&store, *ia)
                .cmp(&measured.node_cost(&store, *ib));
            if ann != mea {
                println!("   DISAGREE on {ka} vs {kb}: {ann:?} vs {mea:?}");
                agree = false;
            }
        }
    }
    assert!(
        agree,
        "annotation and measured models must rank identically"
    );
    println!(
        "   {} catalog entries; annotation and measured models rank all probed \
         operator pairs identically at nominal size {}",
        catalog.len(),
        gp_taxonomy::costs::NOMINAL_SIZE
    );
    let lidia_win = {
        let div = measured.node_cost(&store, probes[2].1);
        let inv = measured.node_cost(&store, probes[3].1);
        div > inv
    };
    assert!(lidia_win, "the LiDIA rewrite must be a measured cost win");
    Json::obj()
        .field("catalog_entries", catalog.len())
        .field("nominal_size", gp_taxonomy::costs::NOMINAL_SIZE)
        .field("models_agree_on_ranking", agree)
        .field("lidia_inverse_is_cost_win", lidia_win)
}

// --- Phase 4: served end to end ------------------------------------------

fn optimize_pool(size: usize) -> Vec<Request> {
    (0..size)
        .map(|i| {
            let x = Expr::var(format!("x{}", i % 8), Type::Int);
            let y = Expr::var(format!("y{}", i % 8), Type::Int);
            Request::Optimize(OptimizeRequest {
                expr: Expr::bin(
                    BinOp::Add,
                    Expr::bin(BinOp::Add, x, y.clone()),
                    Expr::un(UnOp::Neg, y),
                ),
                env: EnvSpec::Standard,
                cost: if i % 2 == 0 {
                    CostSpec::Measured
                } else {
                    CostSpec::Annotation
                },
                max_nodes: Some(4096),
                max_iters: None,
            })
        })
        .collect()
}

fn service_phase(requests_per_kind: usize, reps: usize, identical: &mut bool) -> (Json, bool) {
    println!();
    println!("-- service: optimize over TCP, cache, conservation, fast path --");
    let before = gp_telemetry::snapshot();
    let mut svc = Service::start(ServiceConfig::default());
    let addr = svc
        .listen_reactor("127.0.0.1:0", ReactorConfig::default())
        .expect("bind loopback");
    let mut client = TcpClient::connect(addr).expect("connect");

    let pool = optimize_pool(requests_per_kind);
    let mut opt_latencies = Vec::new();
    let mut fresh = Vec::new();
    for req in &pool {
        let t0 = Instant::now();
        match client.call(req).expect("optimize call") {
            Response::Ok { payload } => {
                opt_latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                assert!(
                    payload.contains("\"display\":\"x"),
                    "served optimize must extract the cancellation: {payload}"
                );
                if let Request::Optimize(r) = req {
                    *identical &= payload == optimize_payload_rebuild(r).render();
                }
                fresh.push(payload);
            }
            other => panic!("optimize: {other:?}"),
        }
    }
    // Repeats: cache hits, byte-identical.
    for (req, f) in pool.iter().zip(&fresh) {
        match client.call(req).expect("cached optimize") {
            Response::Ok { payload } => assert_eq!(&payload, f, "cache hit must be byte-identical"),
            other => panic!("cached optimize: {other:?}"),
        }
    }
    // The directed fast path, served alongside.
    let mut simp_latencies = Vec::new();
    for i in 0..requests_per_kind {
        let req = Request::Simplify(SimplifyRequest {
            expr: Expr::bin(
                BinOp::Add,
                Expr::bin(
                    BinOp::Mul,
                    Expr::var(format!("s{i}"), Type::Int),
                    Expr::int(1),
                ),
                Expr::int(0),
            ),
            env: EnvSpec::Standard,
        });
        let t0 = Instant::now();
        match client.call(&req).expect("simplify call") {
            Response::Ok { .. } => simp_latencies.push(t0.elapsed().as_secs_f64() * 1e3),
            other => panic!("simplify: {other:?}"),
        }
    }
    let stats = svc.shutdown();
    let delta = gp_telemetry::snapshot().delta(&before);
    let accepted = delta.counter("service.accepted");
    let completed = delta.counter("service.completed");
    let shed = delta.counter("service.shed");
    let conserves = accepted == completed + shed && accepted > 0;
    assert!(
        conserves,
        "accepted {accepted} == completed {completed} + shed {shed}"
    );
    assert!(
        stats.cache.hits >= pool.len() as u64,
        "optimize repeats must hit the cache: {stats:?}"
    );
    let egraph_iters = delta.counter("rewrite.egraph.iters");
    assert!(egraph_iters > 0, "served optimize must run the e-graph");
    println!(
        "   conservation: accepted {accepted} == completed {completed} + shed {shed}; \
         {} cache hits; rewrite.egraph.iters +{egraph_iters}",
        stats.cache.hits
    );

    let pct = |lat: &mut Vec<f64>, p: f64| -> f64 {
        lat.sort_by(f64::total_cmp);
        if lat.is_empty() {
            0.0
        } else {
            lat[((lat.len() - 1) as f64 * p) as usize]
        }
    };
    let opt_p50 = pct(&mut opt_latencies, 0.50);
    let opt_p99 = pct(&mut opt_latencies, 0.99);
    let simp_p99 = pct(&mut simp_latencies, 0.99);
    println!(
        "   optimize p50 {opt_p50:.3} ms, p99 {opt_p99:.3} ms (fresh, over TCP); \
         simplify p99 {simp_p99:.3} ms"
    );

    // The fast path untaxed: re-time the directed engine in-process on
    // the E13r shared-subterm workload and compare to the recorded
    // BENCH_rewrite.json figure when one exists, rebuilding the workload
    // at the *recorded run's* size (E13r uses 16 doubling levels in full
    // mode, 10 in smoke). Reported, not gated — cross-run wall-clock
    // comparisons are advisory.
    let recorded = std::fs::read_to_string("results/BENCH_rewrite.json")
        .ok()
        .and_then(|text| Json::parse(&text).ok());
    let levels: usize = match recorded
        .as_ref()
        .and_then(|j| j.get("smoke"))
        .and_then(Json::as_bool)
    {
        Some(false) => 16,
        _ => 10,
    };
    let mut shared = Expr::bin(
        BinOp::Add,
        Expr::bin(BinOp::Mul, Expr::var("x", Type::Int), Expr::int(1)),
        Expr::int(0),
    );
    for _ in 0..levels {
        let half = Expr::bin(BinOp::Mul, shared, Expr::int(1));
        shared = Expr::bin(BinOp::Add, half.clone(), half);
    }
    let s = Simplifier::standard();
    let now_ms = median_ms(reps, || s.simplify(&shared));
    let baseline_ms = recorded.and_then(|j| {
        j.get("workloads").and_then(Json::as_arr).and_then(|ws| {
            ws.iter()
                .find(|w| w.get("workload").and_then(Json::as_str) == Some("shared"))
                .and_then(|w| w.get("interned_ms"))
                .and_then(Json::as_f64)
        })
    });
    match baseline_ms {
        Some(b) => println!(
            "   directed shared-workload: {now_ms:.3} ms now vs {b:.3} ms recorded \
             (ratio {:.2}; advisory)",
            now_ms / b
        ),
        None => println!(
            "   directed shared-workload: {now_ms:.3} ms now \
             (no BENCH_rewrite.json baseline to compare)"
        ),
    }

    let report = Json::obj()
        .field("optimize_requests", pool.len())
        .field("optimize_p50_ms", opt_p50)
        .field("optimize_p99_ms", opt_p99)
        .field("simplify_p99_ms", simp_p99)
        .field("cache_hits", stats.cache.hits)
        .field("egraph_iters_counter_delta", egraph_iters)
        .field(
            "conservation",
            Json::obj()
                .field("accepted", accepted)
                .field("completed", completed)
                .field("shed", shed)
                .field("holds", conserves),
        )
        .field(
            "directed_fast_path",
            match baseline_ms {
                Some(b) => Json::obj()
                    .field("shared_levels", levels)
                    .field("shared_ms_now", now_ms)
                    .field("shared_ms_recorded", b)
                    .field("ratio", now_ms / b),
                None => Json::obj()
                    .field("shared_levels", levels)
                    .field("shared_ms_now", now_ms),
            },
        );
    (report, conserves)
}

// --- E17b: the LiDIA extension as a *cost* win ---------------------------

fn lidia_phase(identical: &mut bool) -> Json {
    println!();
    println!("-- LiDIA: 1.0/f vs Inverse(f) decided by cost, not rule order --");
    let mut superopt = Simplifier::superopt(gp_rewrite::ConceptEnv::standard());
    superopt.add_rule(Box::new(LidiaInverse));
    let cost = CostSpec::Annotation.build();
    let e = Expr::bin(
        BinOp::Div,
        Expr::bigfloat(1.0),
        Expr::var("f", Type::BigFloat),
    );
    let run = compare_engines(
        &superopt,
        &e,
        &EGraphConfig::default(),
        cost,
        &KeyedCost::annotation(),
    );
    *identical &= run.identical;
    let (out, stats) = (run.out, run.stats);
    assert_eq!(out.to_string(), "Inverse(f)");
    assert!(stats.cost_after < stats.cost_before);
    println!(
        "   {e} -> {out}: cost {} -> {} under the annotation model \
         (quadratic divide vs O(b log b) Newton reciprocal)",
        stats.cost_before, stats.cost_after
    );
    Json::obj()
        .field("input", e.to_string())
        .field("extracted", out.to_string())
        .field("cost_before", stats.cost_before)
        .field("cost_after", stats.cost_after)
        .field("matched_per_iter", run.matched_per_iter.0)
        .field("full_sweep_matched_per_iter", run.matched_per_iter.1)
        .field("identical_to_full_sweep", run.identical)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    banner(
        "E17",
        "Equality-saturation e-graph with cost-based extraction, served as `optimize`",
        "§3.2 Simplicissimus taken past directed rewriting; taxonomy cost attributes",
    );
    let (reps, budget_vars, per_kind) = if smoke { (3, 8, 12) } else { (7, 10, 60) };
    let mut identical = true;
    let (workloads, beats) = selection_phase(reps, &mut identical);
    let budget = budget_phase(budget_vars, &mut identical);
    let budget_respected = budget.get("respected").and_then(Json::as_bool) == Some(true);
    let cost_models = cost_model_phase();
    let lidia = lidia_phase(&mut identical);
    let (service, conserves) = service_phase(per_kind, reps, &mut identical);
    assert!(
        identical,
        "semi-naive saturation and the shared engines must match the full sweep \
         and per-request builds on every workload and served payload"
    );
    println!();
    println!(
        "   semi-naive runs and served payloads identical to the full sweep \
         with per-request engines: ok"
    );

    let report = Json::obj()
        .field("experiment", "E17")
        .field("smoke", smoke)
        .field("workloads", Json::Arr(workloads))
        .field("extraction_beats_directed", beats)
        .field("budget", budget)
        .field("budget_respected", budget_respected)
        .field("cost_models", cost_models)
        .field("lidia", lidia)
        .field("optimize_identical", identical)
        .field("service", service)
        .field("conserves", conserves)
        .field(
            "telemetry",
            Json::Raw(gp_telemetry::snapshot().filter("rewrite.egraph.").to_json()),
        );
    let path = write_results("BENCH_egraph.json", &report);
    println!();
    println!("wrote {}", path.display());
}
