//! Sim-to-real cross-validation: the socket-backed [`NetRunner`] must be
//! observationally identical to the in-memory [`AsyncRunner`] on the same
//! (seed, topology) — same stats, same structured event trace, same
//! delivered-message multiset, same elected leader. This is the paper's
//! composition claim made falsifiable: one algorithm source, two runtimes,
//! event-for-event agreement.

use gp_distsim::algorithms::{
    consensus, expected_leader, ft_floodmax_nodes, reliable_echo_nodes, reliable_lcr_nodes,
};
use gp_distsim::{required_diameter, AsyncRunner, BoxProcess, NetRunner, Topology, TraceEvent};
use proptest::prelude::*;

const BUDGET: u64 = 300_000;

/// The multiset of delivered messages as (seq, from, to) triples — `seq`
/// correlates a delivery with its send, so equality here means the two
/// runtimes delivered the *same* messages, not merely the same number.
fn delivered(trace: &[TraceEvent]) -> Vec<(u64, usize, usize)> {
    let mut d: Vec<_> = trace
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::Deliver { seq, from, to, .. } => Some((seq, from, to)),
            _ => None,
        })
        .collect();
    d.sort_unstable();
    d
}

/// Run the same deployment under both runtimes and assert event-for-event
/// agreement. `crash` is an optional `(node, crash_at, recover_at)`
/// schedule. Returns the (identical) consensus value.
fn cross_validate(
    topo: &Topology,
    make: &dyn Fn() -> Vec<BoxProcess>,
    max_delay: u64,
    seed: u64,
    drop_rate: f64,
    dup_rate: f64,
    crash: Option<(usize, u64, u64)>,
) -> Option<u64> {
    let mut sim = AsyncRunner::new(topo.clone(), make(), max_delay, seed);
    sim.drop_messages(drop_rate)
        .duplicate_messages(dup_rate)
        .record_trace();
    let mut net = NetRunner::new(topo.clone(), make(), max_delay, seed);
    net.drop_messages(drop_rate)
        .duplicate_messages(dup_rate)
        .record_trace();
    if let Some((node, at, back)) = crash {
        sim.crash(node, at).recover(node, back);
        net.crash(node, at).recover(node, back);
    }
    let sim_stats = sim.run(BUDGET);
    let net_stats = net.run(BUDGET);

    assert_eq!(sim_stats, net_stats, "stats diverge on {}", topo.name());
    assert_eq!(
        sim.trace(),
        net.trace(),
        "traces diverge on {}",
        topo.name()
    );
    assert_eq!(
        delivered(sim.trace()),
        delivered(net.trace()),
        "delivered multisets diverge on {}",
        topo.name()
    );
    assert!(sim_stats.conserves_messages());
    let c = consensus(&sim_stats);
    assert_eq!(
        c,
        consensus(&net_stats),
        "leaders diverge on {}",
        topo.name()
    );
    c
}

/// The acceptance matrix: three distinct topology families, catalog
/// algorithms unmodified, faults on — sim and sockets agree everywhere.
#[test]
fn cross_validation_matrix_on_three_topologies() {
    let uids: Vec<u64> = vec![17, 4, 29, 8];

    // 1. FT-FloodMax on the complete graph, clean network.
    let topo = Topology::complete(4);
    let elected = cross_validate(
        &topo,
        &|| ft_floodmax_nodes(&uids, 8, 4),
        4,
        7,
        0.0,
        0.0,
        None,
    );
    assert_eq!(elected, expected_leader(&uids));

    // 2. Reliable Echo on a grid, under drops and duplicates.
    let topo = Topology::grid(2, 3);
    let done = cross_validate(
        &topo,
        &|| reliable_echo_nodes(6, 0, 10, 12),
        5,
        13,
        0.15,
        0.1,
        None,
    );
    assert_eq!(done, Some(1), "echo terminates despite loss");

    // 3. Reliable LCR on the bidirectional ring, under drops.
    let topo = Topology::ring_bidirectional(4);
    let elected = cross_validate(
        &topo,
        &|| reliable_lcr_nodes(&uids, 10, 20),
        4,
        3,
        0.2,
        0.0,
        None,
    );
    assert_eq!(elected, expected_leader(&uids));
}

/// Crash-recovery schedules cross-validate too: the coordinator replays
/// the same control events the simulator would.
#[test]
fn crash_recovery_schedule_cross_validates() {
    let uids: Vec<u64> = vec![6, 31, 12, 25, 9];
    let topo = Topology::complete(5);
    let run = |net: bool| {
        let procs = ft_floodmax_nodes(&uids, 8, 5);
        if net {
            let mut r = NetRunner::new(topo.clone(), procs, 4, 21);
            r.crash(1, 5).recover(1, 60).record_trace();
            let stats = r.run(BUDGET);
            (stats, r.trace().to_vec())
        } else {
            let mut r = AsyncRunner::new(topo.clone(), procs, 4, 21);
            r.crash(1, 5).recover(1, 60).record_trace();
            let stats = r.run(BUDGET);
            (stats, r.trace().to_vec())
        }
    };
    let (sim_stats, sim_trace) = run(false);
    let (net_stats, net_trace) = run(true);
    assert_eq!(sim_stats, net_stats);
    assert_eq!(sim_trace, net_trace);
    // Node 1 crashed mid-election and came back; the survivors' maximum
    // still wins in both worlds.
    assert_eq!(consensus(&sim_stats), expected_leader(&uids));
}

proptest! {
    /// Property: for random small topologies, seeds, fault rates and
    /// crash/recover schedules, the socket runner and the simulator yield
    /// identical delivered-message multisets and agree on the elected
    /// leader.
    #[test]
    fn socket_and_sim_agree_on_random_deployments(
        kind in 0usize..4,
        n in 3usize..=5,
        seed in 0u64..10_000,
        drop_pct in 0u32..=25,
        dup_pct in 0u32..=25,
        crash in (0usize..8, 1u64..=16, 1u64..=24),
    ) {
        let topo = match kind {
            0 => Topology::complete(n),
            1 => Topology::ring_bidirectional(n),
            2 => Topology::star(n),
            _ => Topology::random_connected(n, 2, seed),
        };
        let uids: Vec<u64> = (0..n as u64).map(|i| (i * 131 + 7) % 997).collect();
        // About half the cases crash one node (none when `crash.0` is out
        // of range). The crash comes after the initial flood has reached
        // every node (`diameter · max_delay`), so every node already holds
        // the maximum and a clean network still elects it; the node comes
        // back `crash.2` later, while the others run or after they halted.
        let settled = required_diameter(&topo).expect("connected") * 4;
        let crash = (crash.0 < n).then(|| {
            let at = settled + crash.1;
            (crash.0, at, at + crash.2)
        });
        let elected = cross_validate(
            &topo,
            &|| ft_floodmax_nodes(&uids, 6, 3),
            4,
            seed,
            f64::from(drop_pct) / 100.0,
            f64::from(dup_pct) / 100.0,
            crash,
        );
        // Agreement between runtimes is asserted inside cross_validate;
        // on a clean network the leader must also be the max uid.
        if drop_pct == 0 {
            prop_assert_eq!(elected, expected_leader(&uids));
        }
    }
}
