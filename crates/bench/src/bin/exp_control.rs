//! E15: sim-to-real — the distributed catalog leaves the simulator.
//!
//! Part A cross-validates the socket-backed [`NetRunner`] against the
//! in-memory [`AsyncRunner`] on the same (seed, topology): identical
//! stats, identical structured event traces, identical consensus — one
//! algorithm source, two runtimes, event-for-event agreement.
//!
//! Part B is the failover drill: a 3-shard concept-query router with a
//! control plane of *unmodified* catalog processes (heartbeat detection,
//! epoch-fenced FT-FloodMax election) meshed over real TCP. Killing one
//! shard mid-workload must trigger detection → re-election → vnode
//! reassignment while closed-loop retrying clients observe **zero**
//! non-retriable errors, and the post-failover ledger must conserve:
//! `accepted == completed + shed` summed across dead and surviving
//! shards.
//!
//! Emits `results/BENCH_control.json`; `--smoke` shrinks the workload
//! for a fast CI pass.

use gp_bench::{banner, write_results, Json, Table};
use gp_distsim::algorithms::{
    consensus, expected_leader, ft_floodmax_nodes, reliable_echo_nodes, reliable_lcr_nodes,
};
use gp_distsim::{AsyncRunner, BoxProcess, NetRunner, Topology};
use gp_service::prove::ProveRequest;
use gp_service::reactor::SubmitRequest;
use gp_service::{
    ControlConfig, ControlPlane, Request, Response, ServiceConfig, ShardRouter, ShardRouterConfig,
    Ticket,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let a_rows = part_a_cross_validation(smoke);
    let b = part_b_failover(smoke);

    let report = Json::obj()
        .field("experiment", "E15_control_plane")
        .field("smoke", smoke)
        .field("cross_validation", Json::Arr(a_rows))
        .field("failover", b);
    let path = write_results("BENCH_control.json", &report);
    println!();
    println!("wrote {}", path.display());
}

/// One sim-vs-socket deployment: run both runtimes, assert agreement,
/// return the measured row.
#[allow(clippy::too_many_arguments)]
fn cross_validate(
    label: &str,
    topo: &Topology,
    make: &dyn Fn() -> Vec<BoxProcess>,
    max_delay: u64,
    seed: u64,
    drop_rate: f64,
    dup_rate: f64,
    budget: u64,
    t: &Table,
) -> Json {
    let mut sim = AsyncRunner::new(topo.clone(), make(), max_delay, seed);
    sim.drop_messages(drop_rate)
        .duplicate_messages(dup_rate)
        .record_trace();
    let sim_stats = sim.run(budget);

    let wall = Instant::now();
    let mut net = NetRunner::new(topo.clone(), make(), max_delay, seed);
    net.drop_messages(drop_rate)
        .duplicate_messages(dup_rate)
        .record_trace();
    let net_stats = net.run(budget);
    let net_ms = wall.elapsed().as_secs_f64() * 1e3;

    assert_eq!(sim_stats, net_stats, "stats diverge on {}", topo.name());
    assert_eq!(
        sim.trace(),
        net.trace(),
        "traces diverge on {}",
        topo.name()
    );
    assert!(sim_stats.conserves_messages());
    let elected = consensus(&sim_stats);
    assert_eq!(elected, consensus(&net_stats));

    t.row(&[
        label.into(),
        topo.name().into(),
        format!("{drop_rate:.2}"),
        format!("{dup_rate:.2}"),
        sim_stats.messages.to_string(),
        sim.trace().len().to_string(),
        "yes".into(),
        format!("{net_ms:.0}ms"),
    ]);
    Json::obj()
        .field("algorithm", label)
        .field("topology", topo.name())
        .field("drop_rate", drop_rate)
        .field("dup_rate", dup_rate)
        .field("wire_messages", sim_stats.messages)
        .field("trace_events", sim.trace().len())
        .field(
            "elected",
            elected.map(|v| v.to_string()).unwrap_or("-".into()),
        )
        .field("traces_identical", true)
        .field("socket_ms", net_ms)
}

/// E15a: the acceptance matrix — three topology families, catalog
/// algorithms unmodified, faults on; sim and sockets agree everywhere.
fn part_a_cross_validation(smoke: bool) -> Vec<Json> {
    banner(
        "E15a",
        "Sim-to-real cross-validation: NetRunner ≡ AsyncRunner, event for event",
        "one algorithm source, two runtimes (in-memory sim vs real TCP)",
    );
    let t = Table::new(&[
        ("algorithm", 12),
        ("topology", 22),
        ("drop", 5),
        ("dup", 5),
        ("wire msgs", 9),
        ("trace evs", 9),
        ("identical", 9),
        ("socket", 7),
    ]);
    let budget = if smoke { 200_000 } else { 1_000_000 };
    let mut rows = Vec::new();

    let uids: Vec<u64> = vec![17, 4, 29, 8, 23];
    let topo = Topology::complete(5);
    let row = cross_validate(
        "FT-FloodMax",
        &topo,
        &|| ft_floodmax_nodes(&uids, 8, 4),
        4,
        7,
        0.0,
        0.0,
        budget,
        &t,
    );
    rows.push(row);

    let topo = Topology::grid(2, 3);
    rows.push(cross_validate(
        "ReliableEcho",
        &topo,
        &|| reliable_echo_nodes(6, 0, 10, 12),
        5,
        13,
        0.15,
        0.1,
        budget,
        &t,
    ));

    let ring_uids: Vec<u64> = vec![17, 4, 29, 8];
    let topo = Topology::ring_bidirectional(4);
    rows.push(cross_validate(
        "RetransLCR",
        &topo,
        &|| reliable_lcr_nodes(&ring_uids, 10, 20),
        4,
        3,
        0.2,
        0.0,
        budget,
        &t,
    ));
    println!();
    println!(
        "  all {} deployments: stats, traces, and leaders identical across runtimes",
        rows.len()
    );
    println!(
        "  clean-network leader matches the oracle: {}",
        expected_leader(&uids)
            .map(|v| v.to_string())
            .unwrap_or("-".into())
    );
    rows
}

/// E15b: kill a shard under load; the control plane must detect it,
/// re-elect, and reassign its vnodes with zero non-retriable errors.
fn part_b_failover(smoke: bool) -> Json {
    banner(
        "E15b",
        "Failover drill: elected leader reassigns a dead shard's vnodes",
        "heartbeat + epoch-fenced FT-FloodMax over TCP drive the hash ring",
    );
    let shards = 3;
    let clients: usize = if smoke { 4 } else { 8 };
    let per_client: usize = if smoke { 60 } else { 400 };
    let dead_shard = 2usize;

    let pool: Vec<Request> = (0..64)
        .map(|i| {
            Request::Prove(ProveRequest {
                theory: "monoid".into(),
                instance: format!("ctrl{i}"),
                model: vec![("op".into(), format!("op{i}")), ("e".into(), "zero".into())],
            })
        })
        .collect();

    let before = gp_telemetry::snapshot();
    let mut router = ShardRouter::start(ShardRouterConfig {
        shards,
        base: ServiceConfig {
            workers: 2,
            queue_depth: 128,
            ..ServiceConfig::default()
        },
        ..ShardRouterConfig::default()
    });
    let plane = ControlPlane::start(
        shards,
        router.failover_target(),
        ControlConfig {
            tick: Duration::from_millis(5),
            ..ControlConfig::default()
        },
    )
    .expect("control mesh starts");

    // Wait for the epoch-0 election to settle before applying load.
    let deadline = Instant::now() + Duration::from_secs(10);
    while (0..shards).any(|v| plane.status(v).leader.is_none()) {
        assert!(Instant::now() < deadline, "epoch-0 election never settled");
        std::thread::sleep(Duration::from_millis(2));
    }
    let epoch0_leader = plane.status(0).leader;
    println!("  epoch 0 settled: leader {epoch0_leader:?}");

    // Closed-loop clients: retry `Overloaded` (the shed contract says
    // retriable), count anything non-retriable as a failure.
    let submit = router.submitter();
    let ok = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let non_retriable = AtomicU64::new(0);
    let t0 = Instant::now();
    let (failover_ms, dead_stats) = std::thread::scope(|scope| {
        for c in 0..clients {
            let submit = Arc::clone(&submit);
            let (pool, ok, retries, non_retriable) = (&pool, &ok, &retries, &non_retriable);
            scope.spawn(move || {
                let mut state = (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                for _ in 0..per_client {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let req = pool[(state >> 33) as usize % pool.len()].clone();
                    // Pace the closed loop so the workload spans the
                    // kill and the detection window instead of racing
                    // past them.
                    std::thread::sleep(Duration::from_millis(1));
                    let mut attempts = 0u32;
                    loop {
                        match call(&submit, req.clone()) {
                            Response::Ok { .. } => {
                                ok.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                            Response::Overloaded => {
                                retries.fetch_add(1, Ordering::Relaxed);
                                attempts += 1;
                                assert!(attempts < 20_000, "retry loop never drained");
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Response::Error { .. } => {
                                non_retriable.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }
            });
        }

        // Mid-workload: crash-stop one shard AND its control node. The
        // router keeps routing to it until the leader floods the
        // reassignment — that window is the detection latency clients
        // ride out via retries.
        std::thread::sleep(Duration::from_millis(if smoke { 30 } else { 100 }));
        plane.kill(dead_shard);
        let dead_stats = router.kill_shard(dead_shard);
        let kill_at = Instant::now();
        let live: Vec<usize> = (0..shards).filter(|&v| v != dead_shard).collect();
        assert!(
            plane.await_failover(dead_shard, &live, Duration::from_secs(10)),
            "survivors must detect, re-elect, and reassign"
        );
        let failover_ms = kill_at.elapsed().as_secs_f64() * 1e3;
        let st = plane.status(live[0]);
        println!(
            "  failover complete in {failover_ms:.0}ms: epoch {} leader {:?}, dead mask {:#05b}",
            st.epoch, st.leader, st.dead_mask
        );
        (failover_ms, dead_stats)
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "  dead shard at kill: accepted {} = completed {} + shed {}",
        dead_stats.accepted, dead_stats.completed, dead_stats.shed
    );

    // The black box: applying the failover snapshotted the process-wide
    // flight recorder into the survivor's status. The dump must contain
    // the forensic chain — crash detection, the settled election, and
    // the vnode reassignment — alongside ordinary serving traffic.
    let flight_dump = plane
        .status(0)
        .flight_dump
        .expect("survivor 0 captured a flight dump on failover");
    let flight = Json::parse(&flight_dump).expect("flight dump parses");
    let event_kinds: Vec<&str> = flight
        .get("events")
        .and_then(Json::as_arr)
        .expect("events array")
        .iter()
        .filter_map(|e| e.get("kind").and_then(Json::as_str))
        .collect();
    for needed in ["crash_detect", "election", "reassign"] {
        assert!(
            event_kinds.contains(&needed),
            "flight dump must record a {needed} event"
        );
    }
    println!(
        "  flight recorder: {} events in the failover dump (crash_detect, election, reassign all present)",
        event_kinds.len()
    );

    // The ledger. `shutdown` re-reports every shard's final totals —
    // the dead shard's included (its post-kill sheds land there too),
    // so the sum below already covers the whole fleet.
    let final_stats = router.shutdown();
    plane.shutdown();
    let accepted: u64 = final_stats.iter().map(|s| s.accepted).sum();
    let completed: u64 = final_stats.iter().map(|s| s.completed).sum();
    let shed: u64 = final_stats.iter().map(|s| s.shed).sum();
    let conserves = accepted == completed + shed;
    let after = gp_telemetry::snapshot();
    let elections = after.counter("control.elections") - before.counter("control.elections");
    let failovers = after.counter("control.failovers") - before.counter("control.failovers");
    let reassigned =
        after.counter("control.reassigned_vnodes") - before.counter("control.reassigned_vnodes");

    let total = clients as u64 * per_client as u64;
    println!();
    println!(
        "  {total} requests from {clients} retrying clients in {wall_ms:.0}ms: \
         ok {} / non-retriable {} / retries {}",
        ok.load(Ordering::Relaxed),
        non_retriable.load(Ordering::Relaxed),
        retries.load(Ordering::Relaxed),
    );
    println!(
        "  conservation across failover: accepted {accepted} == completed {completed} + shed {shed} → {conserves}"
    );
    println!(
        "  control.elections {elections}, control.failovers {failovers}, control.reassigned_vnodes {reassigned}"
    );

    assert_eq!(
        non_retriable.load(Ordering::Relaxed),
        0,
        "failover must be invisible modulo retriable sheds"
    );
    assert_eq!(ok.load(Ordering::Relaxed), total, "every request completed");
    assert!(
        conserves,
        "accepted == completed + shed must survive failover"
    );
    assert!(
        elections >= 2,
        "epoch 0 and the post-kill epoch both settle"
    );
    assert!(failovers >= 1, "the leader flooded at least one assignment");
    assert!(reassigned >= 1, "the dead shard's vnodes actually moved");

    Json::obj()
        .field("shards", shards)
        .field("dead_shard", dead_shard)
        .field("clients", clients)
        .field("requests", total)
        .field("ok", ok.load(Ordering::Relaxed))
        .field(
            "non_retriable_errors",
            non_retriable.load(Ordering::Relaxed),
        )
        .field("retries", retries.load(Ordering::Relaxed))
        .field("failover_ms", failover_ms)
        .field("accepted", accepted)
        .field("completed", completed)
        .field("shed", shed)
        .field("conserves", conserves)
        .field("elections", elections)
        .field("failovers", failovers)
        .field("reassigned_vnodes", reassigned)
        .field(
            "flight",
            Json::obj()
                .field("events", event_kinds.len() as u64)
                .field(
                    "crash_detect_events",
                    event_kinds.iter().filter(|k| **k == "crash_detect").count() as u64,
                )
                .field(
                    "election_events",
                    event_kinds.iter().filter(|k| **k == "election").count() as u64,
                )
                .field(
                    "reassign_events",
                    event_kinds.iter().filter(|k| **k == "reassign").count() as u64,
                ),
        )
        .field("wall_ms", wall_ms)
}

/// Synchronous call through the router's submitter handle (the handle
/// keeps the router itself free for `kill_shard`).
fn call(submit: &Arc<dyn SubmitRequest>, req: Request) -> Response {
    Ticket::submit(submit.as_ref(), req, None).wait()
}
