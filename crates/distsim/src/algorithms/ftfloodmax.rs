//! FT-FloodMax: crash-tolerant max-consensus by periodic re-flooding.
//!
//! The taxonomy asked for this entry too: the catalog's consensus cell
//! under `fault = crash` was empty — every seed algorithm stalls when a
//! relay dies (their own tests prove it). FT-FloodMax fills the cell with
//! the simplest honest design: flood improvements immediately *and*
//! re-flood the current maximum on a periodic timer, so a value is never
//! stranded by the crash of whoever was carrying it. On a completely
//! connected topology this survives any `f < n` crash-stop failures:
//! every live node rebroadcasts directly to every other live node until
//! it has seen `quiet_ticks` periods without improvement.
//!
//! Taxonomy position: problem = consensus (on the maximum uid that
//! entered the live network); topology = completely connected (liveness
//! needs the live nodes to stay mutually reachable); fault tolerance =
//! **crash** (crash-stop; see the recovery limit below); sharing =
//! message passing; strategy = flooding; timing = partially synchronous
//! (the quiet-period termination rule needs delays bounded by
//! `quiet_ticks · period`); process management = static.
//!
//! **Recovery limit.** A recovered node re-floods its maximum and takes
//! up a newer one only while its peers still re-flood. A node that
//! crashes before the maximum reaches it, and stays down past its peers'
//! quiet window, recovers into halted peers and decides its stale
//! maximum, so the run reaches no consensus. An `AsyncRunner` sweep of
//! the cross-validation deployment (period 6, quiet 3, max delay 4)
//! found such runs on complete, star and ring topologies for early
//! crashes with long outages. Off a complete graph a short outage can
//! suffice: on `random_connected`, n = 5, seed 5, node 2 down at
//! [3, 4), the outputs are `[531, 531, 400, 531, 531]`.
//!
//! Complexity guarantees: `O((n + K)·|E|)` messages for `K` total timer
//! ticks (each node improves at most `n` times and re-floods `≤ K`
//! times); `O(K · period)` time; `O(n + K)` local computation per node.

use crate::engine::{BoxProcess, Ctx, Payload, Process};
use crate::topology::NodeId;

/// Per-node FT-FloodMax state.
pub struct FtFloodMax {
    best: u64,
    /// Timer period between re-floods.
    period: u64,
    /// Consecutive quiet (improvement-free) ticks required to decide
    /// the current maximum is final and halt.
    quiet_ticks: u64,
    quiet: u64,
}

impl FtFloodMax {
    /// A node with the given uid, re-flooding every `period` time units
    /// and halting after `quiet_ticks` improvement-free periods.
    /// `quiet_ticks · period` must exceed the network's maximum delay for
    /// the termination rule to be safe.
    pub fn new(uid: u64, period: u64, quiet_ticks: u64) -> Self {
        assert!(period >= 1 && quiet_ticks >= 1);
        FtFloodMax {
            best: uid,
            period,
            quiet_ticks,
            quiet: 0,
        }
    }

    /// The node's current estimate of the maximum.
    pub fn best(&self) -> u64 {
        self.best
    }
}

impl Process for FtFloodMax {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.decide(self.best);
        ctx.send_all(Payload::Max(self.best));
        ctx.set_timer(self.period, 0);
    }

    fn on_message(&mut self, _from: NodeId, msg: &Payload, ctx: &mut Ctx) {
        if let Payload::Max(u) = msg {
            ctx.charge(1); // one comparison
            if *u > self.best {
                self.best = *u;
                self.quiet = 0;
                ctx.decide(self.best);
                ctx.send_all(Payload::Max(self.best));
            }
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx) {
        self.quiet += 1;
        ctx.decide(self.best);
        if self.quiet >= self.quiet_ticks {
            ctx.halt();
        } else {
            // Re-flood: the periodic resend is what tolerates crashes —
            // any value a live node holds keeps propagating even if its
            // original carrier died mid-flood.
            ctx.send_all(Payload::Max(self.best));
            ctx.set_timer(self.period, 0);
        }
    }

    fn on_recover(&mut self, ctx: &mut Ctx) {
        // Fresh start for the quiet counter: announce our (possibly
        // stale) maximum, listen for the live network's newer one.
        self.quiet = 0;
        ctx.decide(self.best);
        ctx.send_all(Payload::Max(self.best));
        ctx.set_timer(self.period, 0);
    }
}

/// One FT-FloodMax process per uid.
pub fn ft_floodmax_nodes(uids: &[u64], period: u64, quiet_ticks: u64) -> Vec<BoxProcess> {
    uids.iter()
        .map(|&u| Box::new(FtFloodMax::new(u, period, quiet_ticks)) as BoxProcess)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::consensus;
    use crate::engine::AsyncRunner;
    use crate::topology::Topology;

    fn uids(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 37 + 11) % 1009).collect()
    }

    #[test]
    fn agrees_without_faults() {
        let ids = uids(10);
        let max = *ids.iter().max().unwrap();
        let mut r = AsyncRunner::new(Topology::complete(10), ft_floodmax_nodes(&ids, 10, 3), 5, 3);
        let stats = r.run(10_000_000);
        assert_eq!(consensus(&stats), Some(max));
        assert_eq!(stats.deciders_of(max), 10);
        assert_eq!(stats.undelivered, 0, "quiesced, not budget-capped");
    }

    #[test]
    fn survives_a_third_of_the_nodes_crashing() {
        // f = n/3 staggered crash-stop failures; the live majority still
        // agrees. Crashed nodes may or may not have spread their uids —
        // the live nodes must agree on *some* value ≥ their own maximum.
        let n = 12;
        let ids = uids(n);
        for seed in 0..5u64 {
            let mut r = AsyncRunner::new(
                Topology::complete(n),
                ft_floodmax_nodes(&ids, 10, 4),
                5,
                seed,
            );
            // Crash 4 nodes at spread-out times.
            let crashed = [1usize, 4, 7, 10];
            for (i, &v) in crashed.iter().enumerate() {
                r.crash(v, 5 * i as u64);
            }
            let stats = r.run(10_000_000);
            let live: Vec<usize> = (0..n).filter(|v| !crashed.contains(v)).collect();
            let live_max = live.iter().map(|&v| ids[v]).max().unwrap();
            let decided: Vec<u64> = live.iter().map(|&v| stats.outputs[v].unwrap()).collect();
            assert!(
                decided.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: live nodes disagree: {decided:?}"
            );
            assert!(decided[0] >= live_max, "seed {seed}: below the live max");
        }
    }

    #[test]
    fn recovered_node_rejoins_the_agreement() {
        let n = 8;
        let ids = uids(n);
        let max = *ids.iter().max().unwrap();
        assert_ne!(ids[2], max, "test needs the crashed node non-maximal");
        let mut r = AsyncRunner::new(Topology::complete(n), ft_floodmax_nodes(&ids, 10, 4), 5, 2);
        // Node 2 is out for t ∈ [1, 15): it misses the first flood wave,
        // then resynchronizes from its peers' periodic re-floods.
        r.crash(2, 1);
        r.recover(2, 15);
        let stats = r.run(10_000_000);
        assert_eq!(consensus(&stats), Some(max), "recovered node caught up");
        assert_eq!(stats.deciders_of(max), n);
    }
}
