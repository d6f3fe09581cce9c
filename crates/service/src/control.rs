//! The shard tier's control plane: unmodified distsim catalog algorithms
//! coordinating real services over real sockets.
//!
//! One control node runs alongside each shard, meshed over TCP by
//! [`LiveMesh`]. Each node composes two *unmodified* catalog processes
//! through the public [`Ctx`] sub-context idiom (the same composition
//! technique as `gp_distsim::channel::Reliable`):
//!
//! * [`Heartbeat`] — failure detection. Every node beats every round;
//!   `heartbeat_timeout` silent rounds make a peer a suspect. The horizon
//!   is `u64::MAX`: the detector never halts.
//! * [`FtFloodMax`] — leader election, one fresh instance per *epoch*.
//!   Epochs are encoded into the uid (`uid = epoch << 16 | node_id`), so
//!   max-consensus itself fences stale epochs: any vote from a newer
//!   epoch outranks every vote from an older one, and a node receiving a
//!   newer-epoch vote adopts that epoch on the spot.
//!
//! When a node's detector suspects a new death it bumps its epoch and
//! starts a fresh election. When an election settles (`FtFloodMax` goes
//! quiet and halts) the winner *owns the assignment table*: it floods
//! [`Payload::Assign`] carrying its epoch and the dead-shard bitmask, and
//! every receiver (leader included) applies it to the
//! [`FailoverTarget`] — the shard router's live mask — re-routing the
//! dead shard's vnode ranges to survivors. `mark_dead` is idempotent, so
//! duplicate floods and re-elections are harmless.
//!
//! Telemetry: `control.elections` (settled elections, counted at the
//! winner), `control.failovers` (assignment floods issued), and
//! `control.reassigned_vnodes` (ring points actually moved).

use crate::shard::FailoverTarget;
use gp_distsim::algorithms::{FtFloodMax, Heartbeat};
use gp_distsim::topology::NodeId;
use gp_distsim::{BoxProcess, Ctx, LiveMesh, Payload, Process, RunStats};
use gp_telemetry::flight::{self, FlightKind};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct ControlMetrics {
    elections: &'static gp_telemetry::Counter,
    failovers: &'static gp_telemetry::Counter,
    reassigned_vnodes: &'static gp_telemetry::Counter,
}

fn control_metrics() -> &'static ControlMetrics {
    static METRICS: std::sync::OnceLock<ControlMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| ControlMetrics {
        elections: gp_telemetry::counter("control.elections"),
        failovers: gp_telemetry::counter("control.failovers"),
        reassigned_vnodes: gp_telemetry::counter("control.reassigned_vnodes"),
    })
}

/// Epoch-encoded election uid: newer epochs outrank every older vote,
/// ties within an epoch go to the highest node id.
fn uid(epoch: u64, id: usize) -> u64 {
    (epoch << 16) | id as u64
}

/// Control-plane tuning. All durations are in [`LiveMesh`] ticks except
/// `tick` itself.
#[derive(Clone, Debug)]
pub struct ControlConfig {
    /// Wall-clock length of one round.
    pub tick: Duration,
    /// Silent rounds before a peer becomes a suspect.
    pub heartbeat_timeout: u64,
    /// FT-FloodMax re-flood period.
    pub election_period: u64,
    /// Quiet periods before an election settles.
    pub election_quiet: u64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            tick: Duration::from_millis(10),
            heartbeat_timeout: 3,
            election_period: 2,
            election_quiet: 3,
        }
    }
}

/// One control node's externally visible state, updated every round.
#[derive(Clone, Debug, Default)]
pub struct NodeStatus {
    /// Current election epoch.
    pub epoch: u64,
    /// The settled leader of the current epoch, if the election is done.
    pub leader: Option<usize>,
    /// Bitmask of shards this node believes dead.
    pub dead_mask: u64,
    /// Settled elections this node has won.
    pub elections_won: u64,
    /// The process-wide flight-recorder dump captured the last time this
    /// node applied a failover assignment (the forensic record of what
    /// led up to the reassignment).
    pub flight_dump: Option<String>,
}

/// The per-shard control process: heartbeat + epoch-fenced FT-FloodMax +
/// assignment flooding, composed from unmodified catalog algorithms.
struct ControlProc {
    id: usize,
    epoch: u64,
    hb: Heartbeat,
    elect: FtFloodMax,
    elect_halted: bool,
    /// Shards this node believes dead (suspects or applied assignments).
    dead_mask: u64,
    /// Dead bits this node has already flooded as leader.
    flooded_mask: u64,
    /// Dead bits already applied to the failover target.
    applied_mask: u64,
    /// Epoch whose settled election was already counted.
    counted_epoch: Option<u64>,
    election_period: u64,
    election_quiet: u64,
    target: Arc<dyn FailoverTarget>,
    status: Arc<Mutex<NodeStatus>>,
}

/// Run one step of the wrapped election against a sub-context: its halt
/// is captured (a settled election must not halt the control node), its
/// decisions are discarded (tracked via [`FtFloodMax::best`]), its sends
/// pass through, and its timers are re-issued with the current epoch as
/// the token so stale-epoch timers can be fenced on arrival.
fn run_elect(
    elect: &mut FtFloodMax,
    elect_halted: &mut bool,
    epoch: u64,
    cx: &mut Ctx,
    f: impl FnOnce(&mut FtFloodMax, &mut Ctx),
) {
    let mut sends: Vec<(NodeId, Payload, bool)> = Vec::new();
    let mut timers: Vec<(u64, u64)> = Vec::new();
    let mut scratch = RunStats::default();
    let mut discarded_output = None;
    {
        let mut sub = Ctx::new(
            cx.node,
            cx.neighbors,
            &mut sends,
            &mut timers,
            &mut scratch,
            &mut discarded_output,
            elect_halted,
        );
        f(elect, &mut sub);
    }
    for (to, pl, _) in sends {
        cx.send(to, pl);
    }
    for (delay, _inner_token) in timers {
        cx.set_timer(delay, epoch);
    }
}

impl ControlProc {
    /// Begin a fresh election at the current epoch.
    fn start_election(&mut self, cx: &mut Ctx) {
        self.elect = FtFloodMax::new(
            uid(self.epoch, self.id),
            self.election_period,
            self.election_quiet,
        );
        self.elect_halted = false;
        run_elect(
            &mut self.elect,
            &mut self.elect_halted,
            self.epoch,
            cx,
            |e, sub| e.on_start(sub),
        );
    }

    /// Apply an assignment (ours or a received flood): route every newly
    /// dead shard's vnodes to survivors. Idempotent through both the
    /// `applied_mask` and the target's own mark.
    fn apply_dead(&mut self, dead: u64) {
        let fresh = dead & !self.applied_mask;
        self.applied_mask |= dead;
        self.dead_mask |= dead;
        for shard in 0..64 {
            if fresh & (1 << shard) != 0 {
                let moved = self.target.mark_dead(shard as usize);
                control_metrics().reassigned_vnodes.add(moved as u64);
                flight::record(FlightKind::Reassign, shard as u64, moved as u64);
            }
        }
        if fresh != 0 {
            // Failover applied: snapshot the flight recorder so the drill
            // (and any operator) can see the event chain that led here.
            crate::lock(&self.status).flight_dump = Some(flight::dump_json());
        }
    }

    /// The settled leader of the current epoch, if any.
    fn settled_leader(&self) -> Option<usize> {
        if !self.elect_halted {
            return None;
        }
        let w = self.elect.best();
        (w >> 16 == self.epoch).then_some((w & 0xffff) as usize)
    }

    /// Post-step bookkeeping: leader duties and the status snapshot.
    fn after_step(&mut self, cx: &mut Ctx) {
        if let Some(leader) = self.settled_leader() {
            if leader == self.id && self.counted_epoch != Some(self.epoch) {
                self.counted_epoch = Some(self.epoch);
                control_metrics().elections.incr();
                flight::record(FlightKind::Election, self.epoch, leader as u64);
                crate::lock(&self.status).elections_won += 1;
            }
            let unflooded = self.dead_mask & !self.flooded_mask;
            if leader == self.id && unflooded != 0 {
                // The leader owns the table: flood the assignment and
                // apply it locally. Receivers apply the same flood; the
                // shared target makes the application idempotent.
                cx.send_all(Payload::Assign {
                    epoch: self.epoch,
                    dead: self.dead_mask,
                });
                self.flooded_mask = self.dead_mask;
                control_metrics().failovers.incr();
                self.apply_dead(self.dead_mask);
            }
        }
        let mut st = crate::lock(&self.status);
        st.epoch = self.epoch;
        st.leader = self.settled_leader();
        st.dead_mask = self.dead_mask;
    }
}

impl Process for ControlProc {
    fn on_start(&mut self, cx: &mut Ctx) {
        self.hb.on_start(cx);
        self.start_election(cx);
        self.after_step(cx);
    }

    fn on_message(&mut self, from: NodeId, msg: &Payload, cx: &mut Ctx) {
        match msg {
            Payload::Uid(_) => self.hb.on_message(from, msg, cx),
            Payload::Max(u) => {
                let msg_epoch = u >> 16;
                if msg_epoch > self.epoch {
                    // A peer is ahead (it detected a death we haven't):
                    // adopt its epoch and join the newer election.
                    self.epoch = msg_epoch;
                    self.start_election(cx);
                }
                if msg_epoch == self.epoch && !self.elect_halted {
                    run_elect(
                        &mut self.elect,
                        &mut self.elect_halted,
                        self.epoch,
                        cx,
                        |e, sub| e.on_message(from, msg, sub),
                    );
                }
                // Stale epochs are fenced: silently dropped.
            }
            // Apply current-or-newer assignments; a stale leader's
            // flood is ignored (its dead set is a subset of a newer
            // epoch's anyway, but the fence keeps the rule uniform).
            Payload::Assign { epoch, dead } if *epoch >= self.epoch => {
                self.apply_dead(*dead);
            }
            _ => {}
        }
        self.after_step(cx);
    }

    fn on_round(&mut self, round: u64, cx: &mut Ctx) {
        self.hb.on_round(round, cx);
        let mut suspect_mask = 0u64;
        for &s in self.hb.suspects() {
            suspect_mask |= 1 << s;
        }
        let new_dead = suspect_mask & !self.dead_mask;
        if new_dead != 0 {
            for shard in 0..64 {
                if new_dead & (1 << shard) != 0 {
                    flight::record(FlightKind::CrashDetect, shard as u64, self.epoch + 1);
                }
            }
            // Fresh deaths: bump the epoch and re-elect among survivors.
            self.dead_mask |= new_dead;
            self.epoch += 1;
            self.start_election(cx);
        }
        self.after_step(cx);
    }

    fn on_timer(&mut self, token: u64, cx: &mut Ctx) {
        // The token is the epoch the timer was armed under.
        if token == self.epoch && !self.elect_halted {
            run_elect(
                &mut self.elect,
                &mut self.elect_halted,
                self.epoch,
                cx,
                |e, sub| e.on_timer(0, sub),
            );
        }
        self.after_step(cx);
    }
}

/// The running control plane: one `ControlProc` per shard over a
/// [`LiveMesh`], all sharing the router's [`FailoverTarget`].
pub struct ControlPlane {
    mesh: LiveMesh,
    status: Vec<Arc<Mutex<NodeStatus>>>,
}

impl ControlPlane {
    /// Start `shards` control nodes. Node `i` monitors (and is co-located
    /// with) shard `i`; killing shard `i` should be paired with
    /// [`kill`](ControlPlane::kill)`(i)`.
    pub fn start(
        shards: usize,
        target: Arc<dyn FailoverTarget>,
        config: ControlConfig,
    ) -> io::Result<ControlPlane> {
        assert!(
            (1..=64).contains(&shards),
            "the dead-shard bitmask supports 1..=64 shards"
        );
        let status: Vec<Arc<Mutex<NodeStatus>>> = (0..shards)
            .map(|_| Arc::new(Mutex::new(NodeStatus::default())))
            .collect();
        let procs: Vec<BoxProcess> = (0..shards)
            .map(|id| {
                Box::new(ControlProc {
                    id,
                    epoch: 0,
                    hb: Heartbeat::new(config.heartbeat_timeout, u64::MAX),
                    elect: FtFloodMax::new(
                        uid(0, id),
                        config.election_period,
                        config.election_quiet,
                    ),
                    elect_halted: false,
                    dead_mask: 0,
                    flooded_mask: 0,
                    applied_mask: 0,
                    counted_epoch: None,
                    election_period: config.election_period,
                    election_quiet: config.election_quiet,
                    target: Arc::clone(&target),
                    status: Arc::clone(&status[id]),
                }) as BoxProcess
            })
            .collect();
        let mesh = LiveMesh::start(procs, config.tick)?;
        Ok(ControlPlane { mesh, status })
    }

    /// Crash-stop control node `node` (pair with the shard's own kill).
    pub fn kill(&self, node: usize) {
        self.mesh.kill(node);
    }

    /// A snapshot of one node's status.
    pub fn status(&self, node: usize) -> NodeStatus {
        crate::lock(&self.status[node]).clone()
    }

    /// Block until every node in `live` reports `dead` in its dead mask
    /// under a settled election, or the deadline passes. Returns whether
    /// the failover completed.
    pub fn await_failover(&self, dead: usize, live: &[usize], timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let done = live.iter().all(|&v| {
                let st = self.status(v);
                st.dead_mask & (1 << dead) != 0 && st.leader.is_some()
            });
            if done {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stop every node and join the mesh.
    pub fn shutdown(self) {
        self.mesh.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A failover target that records calls instead of routing.
    struct FakeTarget {
        alive: AtomicU64,
        killed: Mutex<Vec<usize>>,
    }

    impl FakeTarget {
        fn new(n: usize) -> Arc<FakeTarget> {
            Arc::new(FakeTarget {
                alive: AtomicU64::new((1 << n) - 1),
                killed: Mutex::new(Vec::new()),
            })
        }
    }

    impl FailoverTarget for FakeTarget {
        fn mark_dead(&self, shard: usize) -> usize {
            let bit = 1u64 << shard;
            let prev = self.alive.fetch_and(!bit, Ordering::AcqRel);
            if prev & bit != 0 {
                self.killed.lock().unwrap().push(shard);
                7 // pretend vnode points moved
            } else {
                0
            }
        }

        fn alive_mask(&self) -> u64 {
            self.alive.load(Ordering::Acquire)
        }
    }

    #[test]
    fn three_nodes_elect_detect_a_death_and_reassign() {
        let target = FakeTarget::new(3);
        let plane = ControlPlane::start(
            3,
            Arc::clone(&target) as Arc<dyn FailoverTarget>,
            ControlConfig {
                tick: Duration::from_millis(5),
                ..ControlConfig::default()
            },
        )
        .unwrap();

        // Epoch 0 settles on the highest id.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let settled =
                (0..3).all(|v| plane.status(v).leader == Some(2) && plane.status(v).epoch == 0);
            if settled {
                break;
            }
            assert!(Instant::now() < deadline, "epoch-0 election never settled");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(target.killed.lock().unwrap().is_empty(), "nothing dead yet");

        // Kill the leader itself — the hardest case: detection AND
        // re-election must both work without it.
        plane.kill(2);
        assert!(
            plane.await_failover(2, &[0, 1], Duration::from_secs(10)),
            "survivors must detect, re-elect, and assign"
        );
        let st0 = plane.status(0);
        let st1 = plane.status(1);
        assert_eq!(st0.leader, Some(1), "highest survivor leads");
        assert_eq!(st1.leader, Some(1));
        assert!(st0.epoch >= 1, "the death bumped the epoch");
        assert_eq!(
            target.killed.lock().unwrap().as_slice(),
            &[2],
            "exactly the dead shard was reassigned, exactly once"
        );
        assert_eq!(target.alive_mask(), 0b011);
        plane.shutdown();
    }

    #[test]
    fn single_node_plane_elects_itself_and_never_fails_over() {
        let target = FakeTarget::new(1);
        let plane = ControlPlane::start(
            1,
            Arc::clone(&target) as Arc<dyn FailoverTarget>,
            ControlConfig {
                tick: Duration::from_millis(5),
                ..ControlConfig::default()
            },
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while plane.status(0).leader != Some(0) {
            assert!(Instant::now() < deadline, "lone node must elect itself");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(target.killed.lock().unwrap().is_empty());
        plane.shutdown();
    }
}
