//! The distributed-algorithm catalog and taxonomy-driven selection.
//!
//! Every record classifies one `gp-distsim` implementation on all seven
//! dimensions and carries **three** complexity attributes: messages, time,
//! and local computation per node — the last being what the paper says the
//! literature omits and "a designer should be aware of" when "local
//! computation is at a premium" (mobile and sensor networks).

use crate::dimensions::{Fault, Problem, ProcessMgmt, Sharing, Strategy, Timing, Topology};
use gp_core::complexity::Complexity;

/// One classified algorithm.
#[derive(Clone, Debug)]
pub struct DistAlgorithm {
    /// Algorithm name.
    pub name: &'static str,
    /// Dimension 1: problem.
    pub problem: Problem,
    /// Dimension 2: topology class the algorithm requires.
    pub topology: Topology,
    /// Dimension 3: faults tolerated.
    pub fault_tolerance: Fault,
    /// Dimension 4: information sharing.
    pub sharing: Sharing,
    /// Dimension 5: strategy.
    pub strategy: Strategy,
    /// Dimension 6: timing the algorithm requires.
    pub timing: Timing,
    /// Dimension 7: process management supported.
    pub process_mgmt: ProcessMgmt,
    /// Worst-case message complexity.
    pub messages: Complexity,
    /// Time (rounds / virtual time) complexity.
    pub time: Complexity,
    /// Local computation per node.
    pub local_computation: Complexity,
    /// Entry point in `gp-distsim` that regenerates the measurements.
    pub impl_id: &'static str,
}

/// The built-in catalog: every algorithm implemented in `gp-distsim`.
pub fn catalog() -> Vec<DistAlgorithm> {
    vec![
        DistAlgorithm {
            name: "LCR",
            problem: Problem::LeaderElection,
            topology: Topology::UniRing,
            fault_tolerance: Fault::None,
            sharing: Sharing::MessagePassing,
            strategy: Strategy::DistributedControl,
            timing: Timing::Asynchronous,
            process_mgmt: ProcessMgmt::Static,
            messages: Complexity::poly("n", 2),
            time: Complexity::linear("n"),
            local_computation: Complexity::linear("n"),
            impl_id: "gp_distsim::algorithms::lcr_nodes",
        },
        DistAlgorithm {
            name: "Hirschberg-Sinclair",
            problem: Problem::LeaderElection,
            topology: Topology::BiRing,
            fault_tolerance: Fault::None,
            sharing: Sharing::MessagePassing,
            strategy: Strategy::ProbeEcho,
            timing: Timing::Asynchronous,
            process_mgmt: ProcessMgmt::Static,
            messages: Complexity::n_log_n("n"),
            time: Complexity::linear("n"),
            local_computation: Complexity::log("n"),
            impl_id: "gp_distsim::algorithms::hs_nodes",
        },
        DistAlgorithm {
            name: "FloodMax",
            problem: Problem::LeaderElection,
            topology: Topology::Arbitrary,
            fault_tolerance: Fault::None,
            sharing: Sharing::MessagePassing,
            strategy: Strategy::Flooding,
            timing: Timing::Synchronous,
            process_mgmt: ProcessMgmt::Static,
            messages: Complexity::product(&[("D", 1, 0), ("E", 1, 0)]),
            time: Complexity::linear("D"),
            local_computation: Complexity::product(&[("D", 1, 0)]),
            impl_id: "gp_distsim::algorithms::floodmax_nodes",
        },
        DistAlgorithm {
            name: "AsyncMax",
            problem: Problem::LeaderElection,
            topology: Topology::Arbitrary,
            fault_tolerance: Fault::None,
            sharing: Sharing::MessagePassing,
            strategy: Strategy::Flooding,
            timing: Timing::Asynchronous,
            process_mgmt: ProcessMgmt::Static,
            messages: Complexity::product(&[("n", 1, 0), ("E", 1, 0)]),
            time: Complexity::linear("D"),
            local_computation: Complexity::linear("n"),
            impl_id: "gp_distsim::algorithms::asyncmax_nodes",
        },
        DistAlgorithm {
            name: "Echo",
            problem: Problem::Broadcast,
            topology: Topology::Arbitrary,
            fault_tolerance: Fault::None,
            sharing: Sharing::MessagePassing,
            strategy: Strategy::ProbeEcho,
            timing: Timing::Asynchronous,
            process_mgmt: ProcessMgmt::Static,
            messages: Complexity::linear("E"),
            time: Complexity::linear("D"),
            local_computation: Complexity::constant(),
            impl_id: "gp_distsim::algorithms::echo_nodes",
        },
        DistAlgorithm {
            name: "Heartbeat",
            problem: Problem::FailureDetection,
            topology: Topology::Arbitrary,
            fault_tolerance: Fault::Crash,
            sharing: Sharing::MessagePassing,
            strategy: Strategy::HeartBeat,
            timing: Timing::Synchronous,
            process_mgmt: ProcessMgmt::Static,
            messages: Complexity::product(&[("T", 1, 0), ("E", 1, 0)]),
            time: Complexity::linear("T"),
            local_computation: Complexity::linear("deg"),
            impl_id: "gp_distsim::algorithms::heartbeat_nodes",
        },
        DistAlgorithm {
            // Echo under the reliable channel: sequence numbers, acks, and
            // timeout retransmission (bounded by R attempts) mask message
            // omission. Honestly classified: Omission, *not* Crash — a dead
            // peer never acks, and the wrapper eventually gives up.
            name: "ReliableEcho",
            problem: Problem::Broadcast,
            topology: Topology::Arbitrary,
            fault_tolerance: Fault::Omission,
            sharing: Sharing::MessagePassing,
            strategy: Strategy::ProbeEcho,
            timing: Timing::Asynchronous,
            process_mgmt: ProcessMgmt::Static,
            // Each of the O(E) app messages costs up to R frames plus acks.
            messages: Complexity::product(&[("E", 1, 0), ("R", 1, 0)]),
            time: Complexity::product(&[("D", 1, 0), ("R", 1, 0)]),
            local_computation: Complexity::linear("deg"),
            impl_id: "gp_distsim::algorithms::reliable_echo_nodes",
        },
        DistAlgorithm {
            // LCR under the reliable channel. Needs the *bidirectional*
            // ring — acknowledgments travel the reverse links — unlike raw
            // LCR's unidirectional requirement.
            name: "RetransLCR",
            problem: Problem::LeaderElection,
            topology: Topology::BiRing,
            fault_tolerance: Fault::Omission,
            sharing: Sharing::MessagePassing,
            strategy: Strategy::DistributedControl,
            timing: Timing::Asynchronous,
            process_mgmt: ProcessMgmt::Static,
            // LCR's O(n²) candidates, each retransmitted up to R times.
            messages: Complexity::product(&[("n", 2, 0), ("R", 1, 0)]),
            time: Complexity::product(&[("n", 1, 0), ("R", 1, 0)]),
            local_computation: Complexity::linear("n"),
            impl_id: "gp_distsim::algorithms::reliable_lcr_nodes",
        },
        DistAlgorithm {
            // Crash-tolerant max-consensus: flood improvements immediately
            // and re-flood the current maximum on a periodic timer, so no
            // value is stranded by the crash of its carrier. Survives any
            // f < n crash-stop failures on a complete graph; partially
            // synchronous because the quiet-period termination rule needs
            // delays bounded by the re-flood period.
            name: "FT-FloodMax",
            problem: Problem::Consensus,
            topology: Topology::Complete,
            fault_tolerance: Fault::Crash,
            sharing: Sharing::MessagePassing,
            strategy: Strategy::Flooding,
            timing: Timing::PartiallySynchronous,
            process_mgmt: ProcessMgmt::Static,
            // n improvement floods plus K periodic re-floods over E links.
            messages: Complexity::product(&[("n", 1, 0), ("E", 1, 0)]),
            time: Complexity::linear("K"),
            local_computation: Complexity::linear("n"),
            impl_id: "gp_distsim::algorithms::ft_floodmax_nodes",
        },
        DistAlgorithm {
            name: "SyncBFS",
            problem: Problem::SpanningTree,
            topology: Topology::Arbitrary,
            fault_tolerance: Fault::None,
            sharing: Sharing::MessagePassing,
            strategy: Strategy::Flooding,
            timing: Timing::Synchronous,
            process_mgmt: ProcessMgmt::Static,
            messages: Complexity::linear("E"),
            time: Complexity::linear("D"),
            local_computation: Complexity::constant(),
            impl_id: "gp_distsim::algorithms::bfs_tree_nodes",
        },
    ]
}

/// A deployment's requirements — what the system designer knows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Requirement {
    /// Problem to solve.
    pub problem: Problem,
    /// The network's actual topology.
    pub topology: Topology,
    /// The network's timing guarantee.
    pub network_timing: Timing,
    /// Fault tolerance the deployment needs.
    pub fault_needed: Fault,
    /// Sharing mechanism available.
    pub sharing: Sharing,
    /// Process management needed.
    pub process_mgmt: ProcessMgmt,
}

impl Requirement {
    /// A common default: asynchronous message passing, no faults, static
    /// membership, over the given topology.
    pub fn basic(problem: Problem, topology: Topology, network_timing: Timing) -> Self {
        Requirement {
            problem,
            topology,
            network_timing,
            fault_needed: Fault::None,
            sharing: Sharing::MessagePassing,
            process_mgmt: ProcessMgmt::Static,
        }
    }
}

/// True if the algorithm can serve the deployment: problem matches, the
/// deployment's topology refines the algorithm's required class, the
/// network's timing satisfies the algorithm's assumption, and tolerance /
/// sharing / process-management cover the needs.
pub fn applicable(alg: &DistAlgorithm, req: &Requirement) -> bool {
    alg.problem == req.problem
        && req.topology.refines(alg.topology)
        && req.network_timing.satisfies(alg.timing)
        && alg.fault_tolerance.covers(req.fault_needed)
        && alg.sharing == req.sharing
        && alg.process_mgmt.covers(req.process_mgmt)
}

/// Select the best applicable algorithm: smallest asymptotic message
/// complexity, breaking ties by local computation ("when deciding between
/// algorithms, a designer should be aware of how much local computation is
/// involved").
pub fn select_best<'a>(
    algorithms: &'a [DistAlgorithm],
    req: &Requirement,
) -> Option<&'a DistAlgorithm> {
    let mut best: Option<&DistAlgorithm> = None;
    for alg in algorithms.iter().filter(|a| applicable(a, req)) {
        best = Some(match best {
            None => alg,
            Some(cur) => {
                use std::cmp::Ordering::*;
                match alg.messages.cmp_growth(&cur.messages) {
                    Some(Less) => alg,
                    Some(Greater) => cur,
                    // Equal or incomparable message growth: compare local
                    // computation.
                    _ => match alg.local_computation.cmp_growth(&cur.local_computation) {
                        Some(Less) => alg,
                        _ => cur,
                    },
                }
            }
        });
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bidirectional_ring_prefers_hirschberg_sinclair() {
        // The headline selection: on a bidirectional ring, HS's O(n log n)
        // messages beat LCR's O(n²) (LCR is inapplicable anyway: it needs a
        // unidirectional ring; FloodMax needs synchrony).
        let cat = catalog();
        let req = Requirement::basic(
            Problem::LeaderElection,
            Topology::BiRing,
            Timing::Asynchronous,
        );
        let best = select_best(&cat, &req).unwrap();
        assert_eq!(best.name, "Hirschberg-Sinclair");
    }

    #[test]
    fn unidirectional_ring_admits_lcr_and_the_generic_fallback() {
        let cat = catalog();
        let req = Requirement::basic(
            Problem::LeaderElection,
            Topology::UniRing,
            Timing::Asynchronous,
        );
        let names: Vec<&str> = cat
            .iter()
            .filter(|a| applicable(a, &req))
            .map(|a| a.name)
            .collect();
        // The ring specialist plus the arbitrary-topology fallback; HS does
        // not apply (it needs a *bidirectional* ring), nor does FloodMax
        // (synchrony).
        assert_eq!(names, vec!["LCR", "AsyncMax"]);
        // On a ring E = n, so both are Θ(n²) messages; the growth orders are
        // formally incomparable (different size variables) and the selector
        // keeps the specialist.
        assert_eq!(select_best(&cat, &req).unwrap().name, "LCR");
    }

    #[test]
    fn synchronous_arbitrary_network_admits_floodmax_and_asyncmax() {
        let cat = catalog();
        let req = Requirement::basic(Problem::LeaderElection, Topology::Grid, Timing::Synchronous);
        let names: Vec<&str> = cat
            .iter()
            .filter(|a| applicable(a, &req))
            .map(|a| a.name)
            .collect();
        // A synchronous network runs asynchronous algorithms too.
        assert_eq!(names, vec!["FloodMax", "AsyncMax"]);
    }

    #[test]
    fn asyncmax_fills_the_async_arbitrary_gap() {
        // The paper: taxonomies help "in the design of new ones (based on
        // situations where no known algorithms for a particular concept
        // refinement exist)". Without AsyncMax the cell is empty; with it,
        // selection succeeds — the gap drove the design.
        let req = Requirement::basic(
            Problem::LeaderElection,
            Topology::Grid,
            Timing::Asynchronous,
        );
        let without: Vec<DistAlgorithm> = catalog()
            .into_iter()
            .filter(|a| a.name != "AsyncMax")
            .collect();
        assert!(select_best(&without, &req).is_none(), "the historical gap");
        let full = catalog();
        assert_eq!(select_best(&full, &req).unwrap().name, "AsyncMax");
    }

    #[test]
    fn fault_requirements_filter_everything_out() {
        let cat = catalog();
        let mut req = Requirement::basic(
            Problem::Broadcast,
            Topology::Arbitrary,
            Timing::Asynchronous,
        );
        assert!(select_best(&cat, &req).is_some());
        req.fault_needed = Fault::Crash;
        assert!(
            select_best(&cat, &req).is_none(),
            "no broadcast algorithm tolerates crashes: retransmission \
             (ReliableEcho) masks omissions, not dead peers — and the \
             simulator's crash tests confirm it"
        );
    }

    #[test]
    fn omission_tolerant_broadcast_is_reliable_echo() {
        // Before the reliable channel this cell was empty; now the wrapper
        // fills it. Without the fault requirement, raw Echo still wins on
        // message complexity — the taxonomy records the retransmission
        // overhead honestly.
        let cat = catalog();
        let mut req = Requirement::basic(
            Problem::Broadcast,
            Topology::Arbitrary,
            Timing::Asynchronous,
        );
        req.fault_needed = Fault::Omission;
        assert_eq!(select_best(&cat, &req).unwrap().name, "ReliableEcho");
        req.fault_needed = Fault::None;
        assert_eq!(select_best(&cat, &req).unwrap().name, "Echo");
    }

    #[test]
    fn lossy_ring_election_needs_the_bidirectional_retransmitter() {
        // Omission-tolerant leader election exists only on the
        // bidirectional ring (acks need reverse links); the unidirectional
        // ring cell stays empty.
        let cat = catalog();
        let mut req = Requirement::basic(
            Problem::LeaderElection,
            Topology::BiRing,
            Timing::Asynchronous,
        );
        req.fault_needed = Fault::Omission;
        assert_eq!(select_best(&cat, &req).unwrap().name, "RetransLCR");
        req.topology = Topology::UniRing;
        assert!(select_best(&cat, &req).is_none());
    }

    #[test]
    fn crash_tolerant_consensus_is_ft_floodmax() {
        let cat = catalog();
        let mut req = Requirement::basic(
            Problem::Consensus,
            Topology::Complete,
            Timing::PartiallySynchronous,
        );
        req.fault_needed = Fault::Crash;
        assert_eq!(select_best(&cat, &req).unwrap().name, "FT-FloodMax");
        // But not under omission: periodic re-flooding assumes reliable
        // links between live nodes. Crash and omission stay incomparable.
        req.fault_needed = Fault::Omission;
        assert!(select_best(&cat, &req).is_none());
        // And not on a fully asynchronous network: the quiet-period
        // termination rule needs bounded delays.
        req.fault_needed = Fault::Crash;
        req.network_timing = Timing::Asynchronous;
        assert!(select_best(&cat, &req).is_none());
    }

    #[test]
    fn broadcast_and_spanning_tree_have_owners() {
        let cat = catalog();
        let req = Requirement::basic(Problem::Broadcast, Topology::Complete, Timing::Asynchronous);
        assert_eq!(select_best(&cat, &req).unwrap().name, "Echo");
        let req = Requirement::basic(Problem::SpanningTree, Topology::Grid, Timing::Synchronous);
        assert_eq!(select_best(&cat, &req).unwrap().name, "SyncBFS");
    }

    #[test]
    fn catalog_is_fully_classified() {
        for alg in catalog() {
            // Every record carries all three performance attributes.
            assert!(!alg.messages.to_string().is_empty());
            assert!(!alg.time.to_string().is_empty());
            assert!(!alg.local_computation.to_string().is_empty());
            assert!(alg.impl_id.contains("gp_distsim"));
        }
    }

    #[test]
    fn crash_tolerant_failure_detection_exists() {
        // The one catalog entry that covers Fault::Crash — and only for the
        // failure-detection problem, matching the simulator's crash tests.
        let cat = catalog();
        let mut req = Requirement::basic(
            Problem::FailureDetection,
            Topology::Complete,
            Timing::Synchronous,
        );
        req.fault_needed = Fault::Crash;
        assert_eq!(select_best(&cat, &req).unwrap().name, "Heartbeat");
        // But it needs synchrony (silence is only meaningful with bounds).
        req.network_timing = Timing::Asynchronous;
        assert!(select_best(&cat, &req).is_none());
    }
}
