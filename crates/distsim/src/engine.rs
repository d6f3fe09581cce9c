//! Execution engines: synchronous rounds and asynchronous event queue,
//! with fault injection (omission, duplication, crash-stop and
//! crash-recovery), timer events, a structured event trace, and full
//! metric accounting.

use crate::topology::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Telemetry bridge: process-wide tallies of simulator activity, resolved
/// once per process. Both runners flush a finished run's [`RunStats`] into
/// these via [`DistMetrics::absorb_run`], so registry snapshot deltas obey
/// the same conservation law as the per-run stats
/// (`distsim.sent + distsim.duplicated == distsim.delivered +
/// distsim.dropped + distsim.lost_to_crash + distsim.undelivered`).
/// Crash/recovery events, which `RunStats` does not record, are counted
/// live from the engines.
struct DistMetrics {
    runs: &'static gp_telemetry::Counter,
    sent: &'static gp_telemetry::Counter,
    retransmits: &'static gp_telemetry::Counter,
    delivered: &'static gp_telemetry::Counter,
    dropped: &'static gp_telemetry::Counter,
    duplicated: &'static gp_telemetry::Counter,
    lost_to_crash: &'static gp_telemetry::Counter,
    undelivered: &'static gp_telemetry::Counter,
    timer_events: &'static gp_telemetry::Counter,
    local_steps: &'static gp_telemetry::Counter,
    app_messages: &'static gp_telemetry::Counter,
    crashes: &'static gp_telemetry::Counter,
    recoveries: &'static gp_telemetry::Counter,
}

impl DistMetrics {
    fn absorb_run(&self, stats: &RunStats) {
        self.runs.incr();
        self.sent.add(stats.sent_total());
        self.retransmits.add(stats.retransmits);
        self.delivered.add(stats.messages);
        self.dropped.add(stats.dropped);
        self.duplicated.add(stats.duplicated);
        self.lost_to_crash.add(stats.lost_to_crash);
        self.undelivered.add(stats.undelivered);
        self.timer_events.add(stats.timer_events);
        self.local_steps.add(stats.local_steps);
        self.app_messages.add(stats.app_messages);
    }
}

fn dist_metrics() -> &'static DistMetrics {
    static METRICS: std::sync::OnceLock<DistMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| DistMetrics {
        runs: gp_telemetry::counter("distsim.runs"),
        sent: gp_telemetry::counter("distsim.sent"),
        retransmits: gp_telemetry::counter("distsim.retransmits"),
        delivered: gp_telemetry::counter("distsim.delivered"),
        dropped: gp_telemetry::counter("distsim.dropped"),
        duplicated: gp_telemetry::counter("distsim.duplicated"),
        lost_to_crash: gp_telemetry::counter("distsim.lost_to_crash"),
        undelivered: gp_telemetry::counter("distsim.undelivered"),
        timer_events: gp_telemetry::counter("distsim.timer_events"),
        local_steps: gp_telemetry::counter("distsim.local_steps"),
        app_messages: gp_telemetry::counter("distsim.app_messages"),
        crashes: gp_telemetry::counter("distsim.crashes"),
        recoveries: gp_telemetry::counter("distsim.recoveries"),
    })
}

/// Message payloads understood by the bundled algorithms. (A closed enum
/// keeps the engine allocation-light; a production library would make this
/// generic.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// A candidate identifier (LCR, announcements).
    Uid(u64),
    /// Hirschberg–Sinclair token.
    HsToken {
        /// Candidate id.
        uid: u64,
        /// Remaining hops for outbound tokens.
        hops: u64,
        /// Outbound (true) or returning (false).
        outbound: bool,
    },
    /// Current maximum (FloodMax).
    Max(u64),
    /// Echo-algorithm token (probe and echo are the same token).
    Token,
    /// BFS level announcement.
    Level(u32),
    /// Reliable-channel data frame: a sequence-numbered application
    /// payload (see [`crate::channel::Reliable`]).
    Rel {
        /// Per-(sender, receiver) stream sequence number.
        seq: u64,
        /// The wrapped application payload.
        inner: Box<Payload>,
    },
    /// Reliable-channel acknowledgment for stream sequence number `seq`.
    RelAck {
        /// Acknowledged sequence number.
        seq: u64,
    },
    /// Control-plane assignment flood: the elected leader announces which
    /// shards are dead (a bitmask) under its election epoch, and every
    /// receiver re-routes the dead shards' vnode ranges to survivors.
    Assign {
        /// Election epoch the assignment was issued under; stale epochs
        /// are fenced by receivers.
        epoch: u64,
        /// Bitmask of dead shard indices.
        dead: u64,
    },
}

/// A configuration error detected before a run starts — a disconnected
/// topology handed to a diameter-dependent algorithm, for example — as a
/// value to propagate instead of a panic inside the runner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "configuration error: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// The topology's diameter as a configuration result: `Err` for a
/// disconnected topology (where no diameter exists and any
/// diameter-parameterized algorithm is misconfigured) instead of the
/// panic a bare `diameter().unwrap()` produces.
pub fn required_diameter(topo: &Topology) -> Result<u64, ConfigError> {
    topo.diameter().map(|d| d as u64).ok_or_else(|| {
        ConfigError(format!(
            "topology {} is disconnected: no diameter exists, so \
             diameter-parameterized algorithms cannot be deployed on it",
            topo.name()
        ))
    })
}

/// Per-run metrics: the three performance dimensions of the taxonomy,
/// plus fault-layer accounting. The message counters obey a conservation
/// law per run:
///
/// ```text
/// per_node_sent.sum() + duplicated
///     == messages + dropped + lost_to_crash + undelivered
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total messages delivered.
    pub messages: u64,
    /// Rounds (synchronous) or virtual completion time (asynchronous).
    /// Only events actually processed at a live node advance this clock.
    pub time: u64,
    /// Total local computation steps charged via [`Ctx::charge`] — the
    /// metric the paper notes is "rarely accounted for".
    pub local_steps: u64,
    /// Per-node decided outputs.
    pub outputs: Vec<Option<u64>>,
    /// Per-node message counts (sent).
    pub per_node_sent: Vec<u64>,
    /// Messages lost to injected omission failures.
    pub dropped: u64,
    /// Extra copies injected by duplication failures.
    pub duplicated: u64,
    /// Sends flagged as retransmissions via [`Ctx::resend`] (these also
    /// count in `per_node_sent`).
    pub retransmits: u64,
    /// Application-level deliveries recorded by channel wrappers via
    /// [`Ctx::note_app_delivery`] (zero for unwrapped processes).
    pub app_messages: u64,
    /// Messages discarded because the receiver had crashed or halted.
    pub lost_to_crash: u64,
    /// Messages still in flight when the run ended (quiescence leaves
    /// this at zero; an exhausted event budget does not).
    pub undelivered: u64,
    /// Timer events fired at live nodes.
    pub timer_events: u64,
}

impl RunStats {
    /// Nodes that decided the given value.
    pub fn deciders_of(&self, v: u64) -> usize {
        self.outputs.iter().filter(|o| **o == Some(v)).count()
    }

    /// Total application-level sends across nodes.
    pub fn sent_total(&self) -> u64 {
        self.per_node_sent.iter().sum()
    }

    /// True if the message conservation law holds (every send is accounted
    /// for as delivered, dropped, lost at a dead receiver, or in flight).
    pub fn conserves_messages(&self) -> bool {
        self.sent_total() + self.duplicated
            == self.messages + self.dropped + self.lost_to_crash + self.undelivered
    }
}

/// One record in the structured event trace ([`AsyncRunner::record_trace`]).
/// `seq` is the engine-assigned id correlating a send with its later
/// delivery / drop / loss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A first-time application send at virtual time `t`.
    Send {
        /// Send time.
        t: u64,
        /// Engine message id.
        seq: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// A send flagged as a retransmission ([`Ctx::resend`]).
    Retransmit {
        /// Send time.
        t: u64,
        /// Engine message id.
        seq: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// The message was dropped by injected omission failure.
    Drop {
        /// Send time (the message never entered the network).
        t: u64,
        /// Engine message id.
        seq: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// An injected duplicate copy of message `of_seq` was created.
    Duplicate {
        /// Send time of the original.
        t: u64,
        /// Engine message id of the extra copy.
        seq: u64,
        /// Id of the duplicated original.
        of_seq: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// The message was delivered.
    Deliver {
        /// Delivery time.
        t: u64,
        /// Engine message id.
        seq: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// The message arrived at a crashed or halted receiver and was lost.
    Lost {
        /// Arrival time.
        t: u64,
        /// Engine message id.
        seq: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    },
    /// A node crash-stopped.
    Crash {
        /// Crash time.
        t: u64,
        /// The crashed node.
        node: NodeId,
    },
    /// A crashed node recovered.
    Recover {
        /// Recovery time.
        t: u64,
        /// The recovered node.
        node: NodeId,
    },
    /// A timer fired at a live node.
    Timer {
        /// Firing time.
        t: u64,
        /// The node whose timer fired.
        node: NodeId,
        /// The token passed to [`Ctx::set_timer`].
        token: u64,
    },
}

impl TraceEvent {
    fn json_into(&self, out: &mut String) {
        use std::fmt::Write;
        let msg = |out: &mut String, kind: &str, t: u64, seq: u64, from: NodeId, to: NodeId| {
            let _ = write!(
                out,
                r#"{{"kind":"{kind}","t":{t},"seq":{seq},"from":{from},"to":{to}}}"#
            );
        };
        match *self {
            TraceEvent::Send { t, seq, from, to } => msg(out, "send", t, seq, from, to),
            TraceEvent::Retransmit { t, seq, from, to } => msg(out, "retransmit", t, seq, from, to),
            TraceEvent::Drop { t, seq, from, to } => msg(out, "drop", t, seq, from, to),
            TraceEvent::Duplicate {
                t,
                seq,
                of_seq,
                from,
                to,
            } => {
                let _ = write!(
                    out,
                    r#"{{"kind":"duplicate","t":{t},"seq":{seq},"of_seq":{of_seq},"from":{from},"to":{to}}}"#
                );
            }
            TraceEvent::Deliver { t, seq, from, to } => msg(out, "deliver", t, seq, from, to),
            TraceEvent::Lost { t, seq, from, to } => msg(out, "lost", t, seq, from, to),
            TraceEvent::Crash { t, node } => {
                let _ = write!(out, r#"{{"kind":"crash","t":{t},"node":{node}}}"#);
            }
            TraceEvent::Recover { t, node } => {
                let _ = write!(out, r#"{{"kind":"recover","t":{t},"node":{node}}}"#);
            }
            TraceEvent::Timer { t, node, token } => {
                let _ = write!(
                    out,
                    r#"{{"kind":"timer","t":{t},"node":{node},"token":{token}}}"#
                );
            }
        }
    }
}

/// Render a trace as a JSON array (one object per event, in order).
pub fn trace_json(trace: &[TraceEvent]) -> String {
    let mut out = String::from("[");
    for (i, ev) in trace.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        ev.json_into(&mut out);
    }
    out.push(']');
    out
}

/// The API a process sees during a step.
pub struct Ctx<'a> {
    /// This node's id.
    pub node: NodeId,
    /// This node's out-neighbors.
    pub neighbors: &'a [NodeId],
    pub(crate) outbox: &'a mut Vec<(NodeId, Payload, bool)>,
    pub(crate) timers: &'a mut Vec<(u64, u64)>,
    pub(crate) stats: &'a mut RunStats,
    pub(crate) output: &'a mut Option<u64>,
    pub(crate) halted: &'a mut bool,
}

impl<'a> Ctx<'a> {
    /// Assemble a context from its parts. Public so *composition
    /// wrappers* — [`crate::channel::Reliable`] in this crate, the
    /// service's control-plane process outside it — can run a wrapped
    /// process against a sub-context whose outbox, timers, or halt flag
    /// they own, intercepting what they need and forwarding the rest.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        node: NodeId,
        neighbors: &'a [NodeId],
        outbox: &'a mut Vec<(NodeId, Payload, bool)>,
        timers: &'a mut Vec<(u64, u64)>,
        stats: &'a mut RunStats,
        output: &'a mut Option<u64>,
        halted: &'a mut bool,
    ) -> Self {
        Ctx {
            node,
            neighbors,
            outbox,
            timers,
            stats,
            output,
            halted,
        }
    }

    /// Send a message to a neighbor.
    pub fn send(&mut self, to: NodeId, payload: Payload) {
        debug_assert!(
            self.neighbors.contains(&to),
            "node {} has no link to {}",
            self.node,
            to
        );
        self.outbox.push((to, payload, false));
    }

    /// Send to every neighbor.
    pub fn send_all(&mut self, payload: Payload) {
        for &n in self.neighbors {
            self.outbox.push((n, payload.clone(), false));
        }
    }

    /// Send a message flagged as a retransmission: counted in
    /// [`RunStats::retransmits`] and traced as such, but otherwise an
    /// ordinary send.
    pub fn resend(&mut self, to: NodeId, payload: Payload) {
        debug_assert!(
            self.neighbors.contains(&to),
            "node {} has no link to {}",
            self.node,
            to
        );
        self.outbox.push((to, payload, true));
    }

    /// Schedule [`Process::on_timer`] with `token` after `delay` time units
    /// (asynchronous model) or rounds (synchronous model). Timers are
    /// local: they are never dropped, duplicated, or counted as messages —
    /// but a timer firing at a crashed or halted node is discarded.
    pub fn set_timer(&mut self, delay: u64, token: u64) {
        assert!(delay >= 1, "timer delay must be at least 1");
        self.timers.push((delay, token));
    }

    /// Charge `n` units of local computation (taxonomy performance
    /// accounting).
    pub fn charge(&mut self, n: u64) {
        self.stats.local_steps += n;
    }

    /// Record one application-level delivery (used by channel wrappers
    /// such as [`crate::channel::Reliable`] to expose how many messages
    /// the wrapped process actually observed).
    pub fn note_app_delivery(&mut self) {
        self.stats.app_messages += 1;
    }

    /// Record this node's decision.
    pub fn decide(&mut self, v: u64) {
        *self.output = Some(v);
    }

    /// Stop participating (no further events delivered).
    pub fn halt(&mut self) {
        *self.halted = true;
    }
}

/// A distributed process: the algorithm running at one node.
pub trait Process {
    /// Called once before any message flows.
    fn on_start(&mut self, ctx: &mut Ctx);

    /// Called per delivered message.
    fn on_message(&mut self, from: NodeId, msg: &Payload, ctx: &mut Ctx);

    /// Synchronous model only: called once per round after deliveries.
    fn on_round(&mut self, _round: u64, _ctx: &mut Ctx) {}

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx) {}

    /// Called when this node recovers from a crash
    /// ([`AsyncRunner::recover`]). State survives the crash (stable
    /// storage semantics); pending timers do not — re-arm them here.
    fn on_recover(&mut self, _ctx: &mut Ctx) {}
}

/// A heap-allocated process. `Send` so runners may host nodes on OS
/// threads (the socket-backed [`crate::net::NetRunner`]) as well as
/// in-process.
pub type BoxProcess = Box<dyn Process + Send>;

/// One node of a runtime: its process and what a step can change.
pub(crate) struct NodeState {
    proc: BoxProcess,
    pub(crate) output: Option<u64>,
    pub(crate) halted: bool,
}

impl NodeState {
    pub(crate) fn new(proc: BoxProcess) -> Self {
        NodeState {
            proc,
            output: None,
            halted: false,
        }
    }

    /// Run one step of the process at `node` (a no-op once it halted).
    /// Every runtime builds a step's [`Ctx`] here, over `outbox`, `timers`
    /// and the `stats` that take the step's accounting.
    pub(crate) fn step(
        &mut self,
        node: NodeId,
        neighbors: &[NodeId],
        outbox: &mut Vec<(NodeId, Payload, bool)>,
        timers: &mut Vec<(u64, u64)>,
        stats: &mut RunStats,
        f: impl FnOnce(&mut dyn Process, &mut Ctx),
    ) {
        if self.halted {
            return;
        }
        let mut ctx = Ctx::new(
            node,
            neighbors,
            outbox,
            timers,
            stats,
            &mut self.output,
            &mut self.halted,
        );
        f(self.proc.as_mut(), &mut ctx);
    }
}

/// Synchronous executor: all messages sent in round `r` are delivered at
/// the start of round `r + 1` (taxonomy timing dimension: *synchronous*).
pub struct SyncRunner {
    topo: Topology,
    nodes: Vec<NodeState>,
    crashed: Vec<bool>,
    /// Nodes crashing at the start of the given round.
    crash_at: HashMap<NodeId, u64>,
    /// If set, silence (a round with no deliveries) is not quiescence:
    /// the run only ends when every node has halted or crashed (or
    /// `max_rounds` is hit).
    run_to_halt: bool,
}

/// Messages to deliver next round, as (from, to, payload).
type Inflight = Vec<(NodeId, NodeId, Payload)>;

impl SyncRunner {
    /// Build a runner from a topology and one process per node.
    pub fn new(topo: Topology, procs: Vec<BoxProcess>) -> Self {
        assert_eq!(topo.len(), procs.len(), "one process per node");
        SyncRunner {
            crashed: vec![false; topo.len()],
            topo,
            nodes: procs.into_iter().map(NodeState::new).collect(),
            crash_at: HashMap::new(),
            run_to_halt: false,
        }
    }

    /// Schedule a crash: the node stops at the start of `round`.
    pub fn crash(&mut self, node: NodeId, round: u64) -> &mut Self {
        self.crash_at.insert(node, round);
        self
    }

    /// Require explicit termination: keep running rounds (up to the
    /// `max_rounds` cap) until every node has halted or crashed, even
    /// through rounds of total silence. Without this, a round with no
    /// deliveries and nothing in flight ends the run — which silently
    /// starves algorithms that rely only on `on_round` or timers.
    pub fn require_halt(&mut self) -> &mut Self {
        self.run_to_halt = true;
        self
    }

    fn dead(&self, v: NodeId) -> bool {
        self.crashed[v] || self.nodes[v].halted
    }

    /// Run one step at `v` in round `now` (a no-op once it crashed or
    /// halted): its sends go in flight for the next round, its timers
    /// into `timers[v]`.
    fn step(
        &mut self,
        v: NodeId,
        now: u64,
        stats: &mut RunStats,
        inflight: &mut Inflight,
        timers: &mut [Vec<(u64, u64)>],
        f: impl FnOnce(&mut dyn Process, &mut Ctx),
    ) {
        if self.crashed[v] {
            return;
        }
        let (mut sends, mut set) = (Vec::new(), Vec::new());
        self.nodes[v].step(v, self.topo.neighbors(v), &mut sends, &mut set, stats, f);
        stats.per_node_sent[v] += sends.len() as u64;
        for (to, pl, retransmit) in sends {
            if retransmit {
                stats.retransmits += 1;
            }
            inflight.push((v, to, pl));
        }
        for (delay, token) in set {
            timers[v].push((now + delay, token));
        }
    }

    /// Run until quiescence (no messages in flight, no pending timers, and
    /// every node halted or idle) or `max_rounds`.
    pub fn run(&mut self, max_rounds: u64) -> RunStats {
        let _span = gp_telemetry::span!("sync_run");
        let n = self.topo.len();
        let mut stats = RunStats {
            outputs: vec![None; n],
            per_node_sent: vec![0; n],
            ..RunStats::default()
        };
        let mut inflight = Inflight::new();
        // Pending timers per node: (fire_round, token), insertion-ordered.
        let mut timers: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];

        for v in 0..n {
            if self.crash_at.get(&v) == Some(&0) {
                self.crashed[v] = true;
                dist_metrics().crashes.incr();
            }
            self.step(v, 0, &mut stats, &mut inflight, &mut timers, |p, c| {
                p.on_start(c)
            });
        }

        let mut round = 1u64;
        while round <= max_rounds {
            for v in 0..n {
                if self.crash_at.get(&v) == Some(&round) {
                    self.crashed[v] = true;
                    dist_metrics().crashes.incr();
                }
            }
            let delivering = std::mem::take(&mut inflight);
            let had_messages = !delivering.is_empty();
            for (from, to, payload) in delivering {
                if self.dead(to) {
                    stats.lost_to_crash += 1;
                    continue;
                }
                stats.messages += 1;
                self.step(to, round, &mut stats, &mut inflight, &mut timers, |p, c| {
                    p.on_message(from, &payload, c)
                });
            }
            // Fire due timers at live nodes.
            for v in 0..n {
                let due: Vec<u64> = {
                    let q = &mut timers[v];
                    let mut due = Vec::new();
                    q.retain(|&(fire, token)| {
                        if fire <= round {
                            due.push(token);
                            false
                        } else {
                            true
                        }
                    });
                    due
                };
                for token in due {
                    if self.dead(v) {
                        continue;
                    }
                    stats.timer_events += 1;
                    self.step(v, round, &mut stats, &mut inflight, &mut timers, |p, c| {
                        p.on_timer(token, c)
                    });
                }
            }
            // Round tick for every live node.
            for v in 0..n {
                self.step(v, round, &mut stats, &mut inflight, &mut timers, |p, c| {
                    p.on_round(round, c)
                });
            }
            stats.time = round;
            let all_done = (0..n).all(|v| self.dead(v));
            let timers_pending = (0..n).any(|v| !self.dead(v) && !timers[v].is_empty());
            let silent_quiescence = !self.run_to_halt && !had_messages;
            if inflight.is_empty() && !timers_pending && (all_done || silent_quiescence) {
                break;
            }
            round += 1;
        }

        stats.undelivered = inflight.len() as u64;
        for (v, node) in self.nodes.iter().enumerate() {
            stats.outputs[v] = node.output;
        }
        dist_metrics().absorb_run(&stats);
        stats
    }
}

/// A step the asynchronous scheduler grants one node. `M` is what the
/// node host carries for a message (see [`NodeHost::Msg`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Grant<M> {
    /// Run [`Process::on_start`].
    Start,
    /// Deliver message `msg` from `from` ([`Process::on_message`]).
    Deliver {
        /// Sender.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// Fire the timer with this token ([`Process::on_timer`]).
    Timer(u64),
    /// Run [`Process::on_recover`] after a crash.
    Recover,
}

impl Grant<Payload> {
    /// Call the process callback this grant names.
    pub(crate) fn call(&self, p: &mut dyn Process, cx: &mut Ctx) {
        match self {
            Grant::Start => p.on_start(cx),
            Grant::Deliver { from, msg } => p.on_message(*from, msg, cx),
            Grant::Timer(token) => p.on_timer(*token, cx),
            Grant::Recover => p.on_recover(cx),
        }
    }
}

/// The node-host concept: where the processes of an asynchronous run
/// execute. [`AsyncScheduler`] owns the schedule — the event queue, the
/// fault and delay draws, crashes and recoveries — and grants steps; a
/// host runs each granted step at its node and hands back the step's
/// sends and timers. Models: [`InProcess`] (nodes in this process, a
/// message is its [`Payload`]) and [`crate::net::SocketHosts`] (one host
/// thread per node behind a control connection, a message is a per-link
/// frame index).
pub trait NodeHost {
    /// What the scheduler holds for one send until its delivery is
    /// granted.
    type Msg: Clone;

    /// Hosts for one process per node.
    fn new(procs: Vec<BoxProcess>) -> Self;

    /// Open the telemetry span of one run.
    fn span() -> gp_telemetry::Span;

    /// Get ready to run steps on `topo`; called once at the start of
    /// each run.
    fn open(&mut self, _topo: &Topology) {}

    /// Run `grant` at live node `v`, appending the step's sends as
    /// `(to, msg, is_retransmit)` and its timers as `(delay, token)`, and
    /// charging its local steps and application deliveries to `stats`.
    fn step(
        &mut self,
        topo: &Topology,
        v: NodeId,
        grant: Grant<Self::Msg>,
        sends: &mut Vec<(NodeId, Self::Msg, bool)>,
        timers: &mut Vec<(u64, u64)>,
        stats: &mut RunStats,
    );

    /// Whether `v` has halted.
    fn halted(&self, v: NodeId) -> bool;

    /// What `v` has output.
    fn output(&self, v: NodeId) -> Option<u64>;

    /// End the run; called once after the last step.
    fn close(&mut self) {}
}

/// The in-process node-host model: every node is a [`Process`] in this
/// process, and a message is the [`Payload`] itself.
pub struct InProcess {
    nodes: Vec<NodeState>,
}

impl NodeHost for InProcess {
    type Msg = Payload;

    fn new(procs: Vec<BoxProcess>) -> Self {
        InProcess {
            nodes: procs.into_iter().map(NodeState::new).collect(),
        }
    }

    fn span() -> gp_telemetry::Span {
        gp_telemetry::span!("async_run")
    }

    fn step(
        &mut self,
        topo: &Topology,
        v: NodeId,
        grant: Grant<Payload>,
        sends: &mut Vec<(NodeId, Payload, bool)>,
        timers: &mut Vec<(u64, u64)>,
        stats: &mut RunStats,
    ) {
        self.nodes[v].step(v, topo.neighbors(v), sends, timers, stats, |p, cx| {
            grant.call(p, cx)
        });
    }

    fn halted(&self, v: NodeId) -> bool {
        self.nodes[v].halted
    }

    fn output(&self, v: NodeId) -> Option<u64> {
        self.nodes[v].output
    }
}

// Event kinds in the asynchronous queue, ordered within a timestamp by
// their global sequence number (control events are enqueued first).
const EV_CRASH: u8 = 0;
const EV_RECOVER: u8 = 1;
const EV_MSG: u8 = 2;
const EV_TIMER: u8 = 3;

/// Asynchronous executor: each message suffers a random delay in
/// `1..=max_delay`, drawn from a seeded RNG (taxonomy timing dimension:
/// *asynchronous*, reproducible per seed).
///
/// Fault injection (all drawn from the same seeded RNG, so runs stay
/// deterministic): per-message omission ([`drop_messages`]), per-message
/// duplication ([`duplicate_messages`]), crash-stop ([`crash`]) and
/// crash-recovery ([`recover`]).
///
/// The event loop is written once, generic over the [`NodeHost`] that
/// runs the granted steps: [`AsyncRunner`] runs the processes in this
/// process, [`crate::net::NetRunner`] on socket hosts. Any two hosts give
/// the same [`RunStats`] and the same trace on the same seed and
/// topology.
///
/// [`drop_messages`]: AsyncScheduler::drop_messages
/// [`duplicate_messages`]: AsyncScheduler::duplicate_messages
/// [`crash`]: AsyncScheduler::crash
/// [`recover`]: AsyncScheduler::recover
pub struct AsyncScheduler<H> {
    topo: Topology,
    hosts: H,
    crashed: Vec<bool>,
    crash_at: HashMap<NodeId, u64>,
    recover_at: HashMap<NodeId, u64>,
    max_delay: u64,
    seed: u64,
    /// Per-message omission probability in [0, 1] (taxonomy fault
    /// dimension: *omission failures*).
    drop_rate: f64,
    /// Per-message duplication probability in [0, 1].
    dup_rate: f64,
    tracing: bool,
    trace: Vec<TraceEvent>,
}

/// The asynchronous scheduler over in-process nodes.
pub type AsyncRunner = AsyncScheduler<InProcess>;

// One queued event: (delivery_time, global_seq, kind, a, b, key). For
// EV_MSG `a`/`b` are from/to and `key` indexes `msgs`; for EV_TIMER `a` is
// the node and `key` the token; for crash/recover `a` is the node.
type QueuedEvent = (u64, u64, u8, NodeId, NodeId, u64);

// The network-level state of one asynchronous run: the event queue, the
// fault-injection RNG, the trace, and the buffers a step's sends and
// timers land in.
struct NetState<M> {
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    msgs: HashMap<u64, M>,
    seq: u64,
    rng: StdRng,
    max_delay: u64,
    drop_rate: f64,
    dup_rate: f64,
    tracing: bool,
    trace: Vec<TraceEvent>,
    sends: Vec<(NodeId, M, bool)>,
    timers: Vec<(u64, u64)>,
}

impl<M: Clone> NetState<M> {
    fn push(&mut self, t: u64, kind: u8, a: NodeId, b: NodeId, key: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse((t, seq, kind, a, b, key)));
    }

    fn trace(&mut self, ev: TraceEvent) {
        if self.tracing {
            self.trace.push(ev);
        }
    }

    // Absorb the step's sends and timers into the event queue, applying
    // omission and duplication faults to the sends. This is the *only*
    // place the fault/delay RNG is consulted, in a fixed per-send order
    // (drop draw, delay draw, duplication draw, duplicate-delay draw).
    fn absorb(&mut self, now: u64, from: NodeId, stats: &mut RunStats) {
        let mut sends = std::mem::take(&mut self.sends);
        let mut timers = std::mem::take(&mut self.timers);
        stats.per_node_sent[from] += sends.len() as u64;
        for (to, msg, retransmit) in sends.drain(..) {
            let seq = self.seq;
            self.seq += 1;
            if retransmit {
                stats.retransmits += 1;
                self.trace(TraceEvent::Retransmit {
                    t: now,
                    seq,
                    from,
                    to,
                });
            } else {
                self.trace(TraceEvent::Send {
                    t: now,
                    seq,
                    from,
                    to,
                });
            }
            if self.drop_rate > 0.0 && self.rng.gen_bool(self.drop_rate) {
                stats.dropped += 1;
                self.trace(TraceEvent::Drop {
                    t: now,
                    seq,
                    from,
                    to,
                });
                continue; // omission failure: the message never arrives
            }
            let t = now + self.rng.gen_range(1..=self.max_delay);
            self.msgs.insert(seq, msg.clone());
            self.queue.push(Reverse((t, seq, EV_MSG, from, to, seq)));
            if self.dup_rate > 0.0 && self.rng.gen_bool(self.dup_rate) {
                let dup_seq = self.seq;
                self.seq += 1;
                stats.duplicated += 1;
                self.trace(TraceEvent::Duplicate {
                    t: now,
                    seq: dup_seq,
                    of_seq: seq,
                    from,
                    to,
                });
                let t2 = now + self.rng.gen_range(1..=self.max_delay);
                self.msgs.insert(dup_seq, msg);
                self.queue
                    .push(Reverse((t2, dup_seq, EV_MSG, from, to, dup_seq)));
            }
        }
        for (delay, token) in timers.drain(..) {
            self.push(now + delay, EV_TIMER, from, from, token);
        }
        self.sends = sends;
        self.timers = timers;
    }
}

impl<H: NodeHost> AsyncScheduler<H> {
    /// Build a runner. `max_delay` ≥ 1.
    pub fn new(topo: Topology, procs: Vec<BoxProcess>, max_delay: u64, seed: u64) -> Self {
        assert_eq!(topo.len(), procs.len(), "one process per node");
        assert!(max_delay >= 1);
        AsyncScheduler {
            crashed: vec![false; topo.len()],
            topo,
            hosts: H::new(procs),
            crash_at: HashMap::new(),
            recover_at: HashMap::new(),
            max_delay,
            seed,
            drop_rate: 0.0,
            dup_rate: 0.0,
            tracing: false,
            trace: Vec::new(),
        }
    }

    /// Schedule a crash at virtual time `t`.
    pub fn crash(&mut self, node: NodeId, t: u64) -> &mut Self {
        self.crash_at.insert(node, t);
        self
    }

    /// Schedule a recovery: the node, crashed earlier via [`crash`], comes
    /// back at virtual time `t` with its state intact (stable-storage
    /// semantics) and gets an [`Process::on_recover`] callback. Messages
    /// that arrived during the outage are lost; so are pending timers.
    ///
    /// [`crash`]: AsyncScheduler::crash
    pub fn recover(&mut self, node: NodeId, t: u64) -> &mut Self {
        let ct = *self
            .crash_at
            .get(&node)
            .expect("recover(node, t) needs a crash scheduled for the node first");
        assert!(t > ct, "recovery must come after the crash (crash at {ct})");
        self.recover_at.insert(node, t);
        self
    }

    /// Inject omission failures: each message is silently dropped with the
    /// given probability (on socket hosts the frame is physically sent,
    /// but its delivery is never granted).
    pub fn drop_messages(&mut self, rate: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.drop_rate = rate;
        self
    }

    /// Inject duplication failures: each (non-dropped) message spawns one
    /// extra copy with the given probability, delivered with its own
    /// independent delay (on socket hosts, an extra grant that re-reads
    /// the same arrived frame).
    pub fn duplicate_messages(&mut self, rate: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.dup_rate = rate;
        self
    }

    /// Record a structured event trace during [`run`], retrievable via
    /// [`trace`] / [`trace_json`].
    ///
    /// [`run`]: AsyncScheduler::run
    /// [`trace`]: AsyncScheduler::trace
    /// [`trace_json`]: AsyncScheduler::trace_json
    pub fn record_trace(&mut self) -> &mut Self {
        self.tracing = true;
        self
    }

    /// The structured event trace of the last [`run`] (empty unless
    /// [`record_trace`] was called).
    ///
    /// [`run`]: AsyncScheduler::run
    /// [`record_trace`]: AsyncScheduler::record_trace
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The last run's trace rendered as a JSON array.
    pub fn trace_json(&self) -> String {
        trace_json(&self.trace)
    }

    fn dead(&self, v: NodeId) -> bool {
        self.crashed[v] || self.hosts.halted(v)
    }

    // Grant one step at `v` (a no-op once it crashed or halted) and
    // absorb what it produced at time `now`.
    fn step(
        &mut self,
        net: &mut NetState<H::Msg>,
        v: NodeId,
        now: u64,
        grant: Grant<H::Msg>,
        stats: &mut RunStats,
    ) {
        if self.dead(v) {
            return;
        }
        self.hosts
            .step(&self.topo, v, grant, &mut net.sends, &mut net.timers, stats);
        net.absorb(now, v, stats);
    }

    /// Run to quiescence (empty event queue) or until `max_events`
    /// deliveries/timer firings have been processed. The budget is checked
    /// *before* an event is taken, so an exhausted budget leaves every
    /// unprocessed message in flight (counted in
    /// [`RunStats::undelivered`]) rather than silently discarding one.
    /// Socket hosts consume their processes: a [`crate::net::NetRunner`]
    /// panics if run twice.
    pub fn run(&mut self, max_events: u64) -> RunStats {
        let _span = H::span();
        let n = self.topo.len();
        let mut stats = RunStats {
            outputs: vec![None; n],
            per_node_sent: vec![0; n],
            ..RunStats::default()
        };
        self.hosts.open(&self.topo);
        let mut net: NetState<H::Msg> = NetState {
            queue: BinaryHeap::new(),
            msgs: HashMap::new(),
            seq: 0,
            rng: StdRng::seed_from_u64(self.seed),
            max_delay: self.max_delay,
            drop_rate: self.drop_rate,
            dup_rate: self.dup_rate,
            tracing: self.tracing,
            trace: Vec::new(),
            sends: Vec::new(),
            timers: Vec::new(),
        };

        // Control events first (in node order, for determinism): their
        // sequence numbers precede every message's, so at equal timestamps
        // a crash/recovery takes effect before deliveries.
        for v in 0..n {
            if let Some(&ct) = self.crash_at.get(&v) {
                net.push(ct, EV_CRASH, v, v, 0);
            }
            if let Some(&rt) = self.recover_at.get(&v) {
                net.push(rt, EV_RECOVER, v, v, 0);
            }
        }

        for v in 0..n {
            if self.crash_at.get(&v) == Some(&0) {
                self.crashed[v] = true;
            }
            self.step(&mut net, v, 0, Grant::Start, &mut stats);
        }

        let mut processed = 0u64;
        while processed < max_events {
            let Some(Reverse((t, _s, kind, a, b, key))) = net.queue.pop() else {
                break;
            };
            match kind {
                EV_CRASH => {
                    self.crashed[a] = true;
                    dist_metrics().crashes.incr();
                    net.trace(TraceEvent::Crash { t, node: a });
                }
                EV_RECOVER => {
                    self.crashed[a] = false;
                    dist_metrics().recoveries.incr();
                    net.trace(TraceEvent::Recover { t, node: a });
                    self.step(&mut net, a, t, Grant::Recover, &mut stats);
                }
                EV_MSG => {
                    let msg = net.msgs.remove(&key).expect("message stored");
                    if self.dead(b) {
                        stats.lost_to_crash += 1;
                        net.trace(TraceEvent::Lost {
                            t,
                            seq: key,
                            from: a,
                            to: b,
                        });
                        continue;
                    }
                    stats.messages += 1;
                    stats.time = stats.time.max(t);
                    processed += 1;
                    net.trace(TraceEvent::Deliver {
                        t,
                        seq: key,
                        from: a,
                        to: b,
                    });
                    self.step(&mut net, b, t, Grant::Deliver { from: a, msg }, &mut stats);
                }
                EV_TIMER => {
                    if self.dead(a) {
                        continue;
                    }
                    stats.timer_events += 1;
                    stats.time = stats.time.max(t);
                    processed += 1;
                    net.trace(TraceEvent::Timer {
                        t,
                        node: a,
                        token: key,
                    });
                    self.step(&mut net, a, t, Grant::Timer(key), &mut stats);
                }
                _ => unreachable!("unknown event kind"),
            }
        }

        stats.undelivered = net
            .queue
            .iter()
            .filter(|Reverse((_, _, kind, ..))| *kind == EV_MSG)
            .count() as u64;
        self.hosts.close();
        self.trace = net.trace;
        for (v, out) in stats.outputs.iter_mut().enumerate() {
            *out = self.hosts.output(v);
        }
        dist_metrics().absorb_run(&stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process that floods a token once and counts receipts.
    struct Gossip {
        sent: bool,
        received: u64,
    }

    impl Process for Gossip {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if ctx.node == 0 && !self.sent {
                self.sent = true;
                ctx.send_all(Payload::Token);
            }
        }
        fn on_message(&mut self, _from: NodeId, _msg: &Payload, ctx: &mut Ctx) {
            self.received += 1;
            ctx.charge(1);
            if !self.sent {
                self.sent = true;
                ctx.send_all(Payload::Token);
            }
            ctx.decide(self.received);
        }
    }

    fn gossip_nodes(n: usize) -> Vec<BoxProcess> {
        (0..n)
            .map(|_| {
                Box::new(Gossip {
                    sent: false,
                    received: 0,
                }) as BoxProcess
            })
            .collect()
    }

    #[test]
    fn sync_flood_reaches_everyone_in_diameter_rounds() {
        let topo = Topology::grid(4, 4);
        let diam = required_diameter(&topo).expect("grid is connected");
        let mut r = SyncRunner::new(topo, gossip_nodes(16));
        let stats = r.run(100);
        // Every node decided (the initiator also hears the flood echo back).
        assert_eq!(stats.outputs.iter().filter(|o| o.is_some()).count(), 16);
        assert!(stats.time <= diam + 2);
        assert!(stats.local_steps > 0, "local computation is accounted");
    }

    /// Regression: deploying a diameter-parameterized algorithm on a
    /// disconnected topology used to panic on `diameter().unwrap()`; it
    /// must surface as a configuration error instead.
    #[test]
    fn disconnected_topology_is_a_config_error_not_a_panic() {
        let topo = Topology::from_lists("islands", vec![vec![1], vec![0], vec![]]);
        let err = required_diameter(&topo).expect_err("no diameter exists");
        assert!(err.to_string().contains("disconnected"), "got: {err}");
        assert!(err.to_string().contains("islands"), "names the topology");
        // Connected topologies still report their diameter.
        assert_eq!(required_diameter(&Topology::ring_bidirectional(6)), Ok(3));
    }

    #[test]
    fn async_flood_is_deterministic_per_seed() {
        let run = |seed| {
            let topo = Topology::random_connected(20, 10, 3);
            let mut r = AsyncRunner::new(topo, gossip_nodes(20), 5, seed);
            r.run(100_000)
        };
        assert_eq!(run(7), run(7));
        // Different seeds may deliver in different orders: time differs in
        // general (not asserted — only determinism matters).
    }

    #[test]
    fn crashed_node_blocks_its_messages() {
        // Line topology 0-1-2: crash node 1 before anything flows.
        let topo = Topology::from_lists("line", vec![vec![1], vec![0, 2], vec![1]]);
        let mut r = SyncRunner::new(topo, gossip_nodes(3));
        r.crash(1, 0);
        let stats = r.run(50);
        assert_eq!(stats.outputs[2], None, "token cannot pass the crash");
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn per_node_sent_accounting() {
        let topo = Topology::complete(4);
        let mut r = SyncRunner::new(topo, gossip_nodes(4));
        let stats = r.run(50);
        assert_eq!(stats.per_node_sent[0], 3); // initiator floods once
        assert_eq!(stats.per_node_sent.iter().sum::<u64>(), 4 * 3);
    }

    #[test]
    fn halted_nodes_receive_nothing() {
        struct HaltEarly;
        impl Process for HaltEarly {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.halt();
            }
            fn on_message(&mut self, _f: NodeId, _m: &Payload, _c: &mut Ctx) {
                panic!("halted node got a message");
            }
        }
        let topo = Topology::complete(3);
        let procs: Vec<BoxProcess> = vec![
            Box::new(Gossip {
                sent: false,
                received: 0,
            }),
            Box::new(HaltEarly),
            Box::new(HaltEarly),
        ];
        let mut r = SyncRunner::new(topo, procs);
        let stats = r.run(10);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn omission_failures_are_injected_deterministically() {
        use crate::algorithms::{echo_nodes, lcr_nodes};
        // Lossless echo completes; a lossy network loses termination
        // detection — none of the seed catalog algorithms tolerate
        // omission, exactly as their taxonomy classification (Fault::None)
        // states. (The reliable-channel wrappers exist for this reason.)
        let topo = Topology::grid(4, 4);
        let run = |rate: f64| {
            let mut r = AsyncRunner::new(topo.clone(), echo_nodes(16, 0), 5, 42);
            r.drop_messages(rate);
            r.run(1_000_000)
        };
        let clean = run(0.0);
        assert_eq!(clean.outputs[0], Some(1));
        let lossy = run(0.4);
        assert_eq!(lossy.outputs[0], None, "echo must stall under heavy loss");
        // Determinism: identical seeds, identical lossy runs.
        assert_eq!(run(0.4), run(0.4));

        // LCR with loss: the candidate token can vanish — no leader.
        let uids: Vec<u64> = (1..=12).collect();
        let mut r = AsyncRunner::new(Topology::ring_unidirectional(12), lcr_nodes(&uids), 5, 7);
        r.drop_messages(0.5);
        let stats = r.run(1_000_000);
        assert_eq!(crate::algorithms::consensus(&stats), None);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn drop_rate_is_validated() {
        let mut r = AsyncRunner::new(Topology::complete(2), gossip_nodes(2), 1, 0);
        r.drop_messages(1.5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn dup_rate_is_validated() {
        let mut r = AsyncRunner::new(Topology::complete(2), gossip_nodes(2), 1, 0);
        r.duplicate_messages(-0.1);
    }

    /// A sends `count` tokens to B at start; B halts on the first receipt.
    struct Spray {
        count: usize,
    }
    impl Process for Spray {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if ctx.node == 0 {
                for _ in 0..self.count {
                    ctx.send(1, Payload::Token);
                }
            }
        }
        fn on_message(&mut self, _f: NodeId, _m: &Payload, ctx: &mut Ctx) {
            ctx.decide(1);
            ctx.halt();
        }
    }

    /// Regression (bug 1): completion time must reflect only *delivered*
    /// messages. A message bound for a node that crashed before its
    /// arrival must not inflate `stats.time`.
    #[test]
    fn time_is_not_inflated_by_undeliverable_messages() {
        let topo = Topology::from_lists("pair", vec![vec![1], vec![0]]);
        let procs: Vec<BoxProcess> =
            vec![Box::new(Spray { count: 1 }), Box::new(Spray { count: 0 })];
        let mut r = AsyncRunner::new(topo, procs, 20, 3);
        // Node 1 crashes at t=0: the single message (delay in 1..=20) can
        // never be delivered. Nothing was processed, so time stays 0 —
        // the buggy engine reported the arrival time of the lost message.
        r.crash(1, 0);
        let stats = r.run(1000);
        assert_eq!(stats.messages, 0);
        assert_eq!(stats.time, 0, "undelivered messages must not advance time");
        assert_eq!(stats.lost_to_crash, 1);
    }

    /// Regression (bug 1, halted receiver): a message discarded at a node
    /// that halted before its arrival must not set the clock either.
    #[test]
    fn time_stops_at_the_last_delivery() {
        let topo = Topology::from_lists("pair", vec![vec![1], vec![0]]);
        // Halting receiver: B halts on the first of two in-flight tokens.
        let halting = |seed| {
            let procs: Vec<BoxProcess> =
                vec![Box::new(Spray { count: 2 }), Box::new(Spray { count: 0 })];
            AsyncRunner::new(topo.clone(), procs, 50, seed).run(1000)
        };
        // Control: same seed (same delays), but the receiver stays live.
        let receiving = |seed| {
            let procs: Vec<BoxProcess> = vec![
                Box::new(Spray { count: 2 }),
                Box::new(Gossip {
                    sent: true,
                    received: 0,
                }),
            ];
            AsyncRunner::new(topo.clone(), procs, 50, seed).run(1000)
        };
        for seed in 0..20 {
            let h = halting(seed);
            let full = receiving(seed);
            assert_eq!(h.messages, 1, "B halts after the first token");
            assert_eq!(h.lost_to_crash, 1);
            assert_eq!(full.messages, 2);
            assert!(h.time <= full.time, "a lost message must not add time");
            if h.time < full.time {
                return; // found a seed with distinct delays: covered
            }
        }
        panic!("no seed separated first/second delivery times");
    }

    /// Regression (bug 2): an exhausted event budget must not pop-and-drop
    /// a message. Every send is conserved: delivered, dropped, lost at a
    /// dead node, or still in flight.
    #[test]
    fn event_budget_conserves_messages() {
        for budget in 0..12u64 {
            let mut r = AsyncRunner::new(Topology::complete(4), gossip_nodes(4), 5, 9);
            let stats = r.run(budget);
            assert!(
                stats.conserves_messages(),
                "budget {budget}: sent {} + dup {} != delivered {} + dropped {} + lost {} + undelivered {}",
                stats.sent_total(),
                stats.duplicated,
                stats.messages,
                stats.dropped,
                stats.lost_to_crash,
                stats.undelivered
            );
            assert_eq!(stats.messages, budget.min(12));
        }
    }

    /// Regression (bug 4): an algorithm driven only by round ticks — a
    /// lone heartbeat monitor with nobody to hear, the "total silence"
    /// case — must still reach its horizon under `require_halt`.
    #[test]
    fn sync_silence_does_not_starve_round_driven_nodes() {
        use crate::algorithms::heartbeat_nodes;
        let lone = || {
            let topo = Topology::from_lists("lone", vec![vec![]]);
            SyncRunner::new(topo, heartbeat_nodes(1, 2, 6))
        };
        // Default mode keeps the seed semantics: total silence quiesces.
        let stats = lone().run(50);
        assert_eq!(stats.outputs[0], None, "silence ends the default run");
        // require_halt drives the node through silent rounds to a verdict.
        let stats = lone().require_halt().run(50);
        assert_eq!(stats.outputs[0], Some(0), "no neighbors, no suspects");
        assert!(stats.time >= 6, "ran to the horizon");
    }

    #[test]
    fn duplication_is_injected_and_accounted() {
        let run = |rate: f64| {
            let mut r = AsyncRunner::new(Topology::complete(4), gossip_nodes(4), 5, 11);
            r.duplicate_messages(rate);
            r.run(100_000)
        };
        let clean = run(0.0);
        assert_eq!(clean.duplicated, 0);
        let dup = run(0.9);
        assert!(dup.duplicated > 0, "duplicates injected at rate 0.9");
        assert!(dup.messages > clean.messages, "duplicates are delivered");
        assert!(dup.conserves_messages());
        // Determinism under duplication.
        assert_eq!(run(0.9), run(0.9));
    }

    #[test]
    fn crash_recovery_restores_a_node() {
        struct Pinger;
        impl Process for Pinger {
            fn on_start(&mut self, ctx: &mut Ctx) {
                if ctx.node == 0 {
                    ctx.set_timer(10, 0);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: &Payload, ctx: &mut Ctx) {
                ctx.decide(7);
            }
            fn on_timer(&mut self, _tok: u64, ctx: &mut Ctx) {
                ctx.send(1, Payload::Token);
            }
            fn on_recover(&mut self, ctx: &mut Ctx) {
                ctx.decide(99);
            }
        }
        let topo = Topology::from_lists("pair", vec![vec![1], vec![0]]);
        let procs: Vec<BoxProcess> = vec![Box::new(Pinger), Box::new(Pinger)];
        let mut r = AsyncRunner::new(topo, procs, 3, 5);
        // Node 1 is down at t ∈ [1, 5); node 0 pings at t=10 — delivered.
        r.crash(1, 1);
        r.recover(1, 5);
        r.record_trace();
        let stats = r.run(10_000);
        assert_eq!(stats.outputs[1], Some(7), "recovered node processes mail");
        let trace = r.trace();
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Crash { t: 1, node: 1 })));
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Recover { t: 5, node: 1 })));
    }

    #[test]
    #[should_panic(expected = "needs a crash")]
    fn recovery_requires_a_crash() {
        let mut r = AsyncRunner::new(Topology::complete(2), gossip_nodes(2), 1, 0);
        r.recover(0, 5);
    }

    #[test]
    fn trace_records_the_message_lifecycle_as_json() {
        let mut r = AsyncRunner::new(Topology::complete(3), gossip_nodes(3), 4, 2);
        r.drop_messages(0.3).duplicate_messages(0.3).record_trace();
        let stats = r.run(100_000);
        let trace = r.trace();
        let count = |f: fn(&TraceEvent) -> bool| trace.iter().filter(|e| f(e)).count() as u64;
        assert_eq!(
            count(|e| matches!(e, TraceEvent::Send { .. })),
            stats.sent_total()
        );
        assert_eq!(
            count(|e| matches!(e, TraceEvent::Drop { .. })),
            stats.dropped
        );
        assert_eq!(
            count(|e| matches!(e, TraceEvent::Duplicate { .. })),
            stats.duplicated
        );
        assert_eq!(
            count(|e| matches!(e, TraceEvent::Deliver { .. })),
            stats.messages
        );
        let json = r.trace_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains(r#""kind":"send""#));
        // Every deliver's seq has a matching send/duplicate seq.
        for ev in trace {
            if let TraceEvent::Deliver { seq, .. } = ev {
                assert!(trace.iter().any(|e| matches!(
                    e,
                    TraceEvent::Send { seq: s, .. } | TraceEvent::Duplicate { seq: s, .. } if s == seq
                )));
            }
        }
    }

    #[test]
    fn sync_timers_fire_after_their_delay() {
        struct TimerOnly {
            fired_at: Option<u64>,
        }
        impl Process for TimerOnly {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(3, 42);
            }
            fn on_message(&mut self, _f: NodeId, _m: &Payload, _c: &mut Ctx) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
                assert_eq!(token, 42);
                self.fired_at = Some(1);
                ctx.decide(token);
                ctx.halt();
            }
        }
        let topo = Topology::from_lists("lone", vec![vec![]]);
        let procs: Vec<BoxProcess> = vec![Box::new(TimerOnly { fired_at: None })];
        let mut r = SyncRunner::new(topo, procs);
        let stats = r.require_halt().run(50);
        assert_eq!(stats.outputs[0], Some(42));
        assert_eq!(stats.time, 3, "timer set at round 0 with delay 3");
        assert_eq!(stats.timer_events, 1);
    }
}
