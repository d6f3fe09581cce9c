//! Sim-to-real execution: run unmodified [`Process`] implementations over
//! real TCP connections.
//!
//! The paper's thesis is that generically-programmed components compose
//! without modification across contexts. The catalog algorithms were
//! written against the [`Process`] concept and executed by the in-memory
//! simulators; this module supplies two *runtimes* that execute the very
//! same boxed processes over OS sockets, framed with the service's
//! length-prefixed codec ([`gp_core::frame`]):
//!
//! * [`NetRunner`] — a **lockstep** socket runner that cross-validates
//!   against [`AsyncRunner`](crate::engine::AsyncRunner): payload bytes travel peer-to-peer over per-edge
//!   TCP connections between host threads, while a coordinator replays the
//!   *identical* seeded schedule the simulator would produce — same RNG
//!   draw order, same event-queue ordering, same crash/recovery schedule.
//!   A run on (seed, topology) X yields the same [`RunStats`] and the same
//!   structured [`TraceEvent`] sequence as `AsyncRunner` on X, event for
//!   event. The coordinator never sees payload bytes: it schedules
//!   *per-link frame indices* (TCP guarantees per-connection FIFO, so index
//!   `i` on link `u→v` always denotes the same frame), and delivery grants
//!   tell the receiving host which arrived frame to consume. Injected
//!   drops are frames that are physically sent but never granted;
//!   injected duplicates are grants that re-read the same frame.
//!
//! * [`LiveMesh`] — a **free-running** runtime for the service's control
//!   plane: one OS thread per node over a complete TCP mesh, real
//!   wall-clock ticks driving [`Process::on_round`] and timers, and
//!   [`LiveMesh::kill`] for real crash-stop (the node's connections close;
//!   peers find out the way real systems do — silence). No simulator
//!   cross-validation is possible here by construction; this is where the
//!   validated algorithms get *used*.
//!
//! Messages cross the wire as a whitespace-token text rendering of
//! [`Payload`] ([`encode_payload`] / [`decode_payload`]) inside one frame.

use crate::engine::{
    dist_metrics, trace_json, BoxProcess, Ctx, NetState, Payload, Process, RunStats, StepOutOf,
    TraceEvent, EV_CRASH, EV_MSG, EV_RECOVER, EV_TIMER,
};
use crate::topology::{NodeId, Topology};
use gp_core::frame::{read_frame, write_frame};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Payload wire codec
// ---------------------------------------------------------------------------

/// Render a [`Payload`] as whitespace-separated tokens (recursive for the
/// reliable-channel envelope). The inverse of [`decode_payload`].
pub fn encode_payload(pl: &Payload) -> String {
    match pl {
        Payload::Uid(u) => format!("uid {u}"),
        Payload::HsToken {
            uid,
            hops,
            outbound,
        } => format!("hs {uid} {hops} {}", u8::from(*outbound)),
        Payload::Max(u) => format!("max {u}"),
        Payload::Token => "tok".to_string(),
        Payload::Level(l) => format!("lvl {l}"),
        Payload::Rel { seq, inner } => format!("rel {seq} {}", encode_payload(inner)),
        Payload::RelAck { seq } => format!("ack {seq}"),
        Payload::Assign { epoch, dead } => format!("asg {epoch} {dead}"),
    }
}

/// Parse the rendering produced by [`encode_payload`].
pub fn decode_payload(s: &str) -> Result<Payload, String> {
    let mut toks = s.split_ascii_whitespace();
    let pl = decode_tokens(&mut toks)?;
    match toks.next() {
        None => Ok(pl),
        Some(extra) => Err(format!("trailing token {extra:?} in payload {s:?}")),
    }
}

fn decode_tokens<'a>(toks: &mut impl Iterator<Item = &'a str>) -> Result<Payload, String> {
    fn num<'a, T: std::str::FromStr>(
        toks: &mut impl Iterator<Item = &'a str>,
        what: &str,
    ) -> Result<T, String> {
        let t = toks.next().ok_or_else(|| format!("missing {what}"))?;
        t.parse().map_err(|_| format!("bad {what}: {t:?}"))
    }
    match toks.next() {
        Some("uid") => Ok(Payload::Uid(num(toks, "uid")?)),
        Some("hs") => Ok(Payload::HsToken {
            uid: num(toks, "hs uid")?,
            hops: num(toks, "hs hops")?,
            outbound: num::<u8>(toks, "hs outbound")? != 0,
        }),
        Some("max") => Ok(Payload::Max(num(toks, "max")?)),
        Some("tok") => Ok(Payload::Token),
        Some("lvl") => Ok(Payload::Level(num(toks, "lvl")?)),
        Some("rel") => Ok(Payload::Rel {
            seq: num(toks, "rel seq")?,
            inner: Box::new(decode_tokens(toks)?),
        }),
        Some("ack") => Ok(Payload::RelAck {
            seq: num(toks, "ack seq")?,
        }),
        Some("asg") => Ok(Payload::Assign {
            epoch: num(toks, "asg epoch")?,
            dead: num(toks, "asg dead")?,
        }),
        Some(tag) => Err(format!("unknown payload tag {tag:?}")),
        None => Err("empty payload".to_string()),
    }
}

// ---------------------------------------------------------------------------
// NetRunner: lockstep socket execution, cross-validated against AsyncRunner
// ---------------------------------------------------------------------------

/// Frames arrived on one incoming link, append-only so an injected
/// duplicate can re-read the frame at the same index.
type Arrived = Arc<(Mutex<Vec<String>>, Condvar)>;

/// Executes unmodified processes over per-edge TCP connections between
/// host threads, under the exact seeded schedule of [`AsyncRunner`] — see
/// the module docs for the lockstep protocol. Builder API mirrors
/// `AsyncRunner`; [`NetRunner::run`] consumes the processes and may be
/// called once.
///
/// [`AsyncRunner`]: crate::engine::AsyncRunner
pub struct NetRunner {
    topo: Topology,
    procs: Option<Vec<BoxProcess>>,
    crash_at: HashMap<NodeId, u64>,
    recover_at: HashMap<NodeId, u64>,
    max_delay: u64,
    seed: u64,
    drop_rate: f64,
    dup_rate: f64,
    tracing: bool,
    trace: Vec<TraceEvent>,
}

impl NetRunner {
    /// Build a runner. `max_delay` ≥ 1.
    pub fn new(topo: Topology, procs: Vec<BoxProcess>, max_delay: u64, seed: u64) -> Self {
        assert_eq!(topo.len(), procs.len(), "one process per node");
        assert!(max_delay >= 1);
        NetRunner {
            topo,
            procs: Some(procs),
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

    /// Schedule a recovery after a crash (same contract as
    /// [`AsyncRunner::recover`](crate::engine::AsyncRunner::recover)).
    pub fn recover(&mut self, node: NodeId, t: u64) -> &mut Self {
        let ct = *self
            .crash_at
            .get(&node)
            .expect("recover(node, t) needs a crash scheduled for the node first");
        assert!(t > ct, "recovery must come after the crash (crash at {ct})");
        self.recover_at.insert(node, t);
        self
    }

    /// Inject omission failures: the frame is physically sent but its
    /// delivery is never granted.
    pub fn drop_messages(&mut self, rate: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.drop_rate = rate;
        self
    }

    /// Inject duplication failures: an extra delivery grant that re-reads
    /// the same arrived frame.
    pub fn duplicate_messages(&mut self, rate: f64) -> &mut Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
        self.dup_rate = rate;
        self
    }

    /// Record a structured event trace during [`run`](NetRunner::run).
    pub fn record_trace(&mut self) -> &mut Self {
        self.tracing = true;
        self
    }

    /// The structured event trace of the run.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// The trace rendered as a JSON array.
    pub fn trace_json(&self) -> String {
        trace_json(&self.trace)
    }

    /// Run to quiescence or `max_events` processed deliveries/timer
    /// firings, exactly as [`AsyncRunner::run`] — same budget semantics,
    /// same stats, same trace. Panics if called twice (the host threads
    /// consume the processes).
    ///
    /// [`AsyncRunner::run`]: crate::engine::AsyncRunner::run
    pub fn run(&mut self, max_events: u64) -> RunStats {
        let _span = gp_telemetry::span!("net_run");
        let procs = self
            .procs
            .take()
            .expect("NetRunner::run consumes the processes; build a new runner to rerun");
        let n = self.topo.len();
        let mut stats = RunStats {
            outputs: vec![None; n],
            per_node_sent: vec![0; n],
            ..RunStats::default()
        };
        if n == 0 {
            dist_metrics().absorb_run(&stats);
            return stats;
        }

        // --- wire up the mesh -------------------------------------------------
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind host listener"))
            .collect();
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("listener addr"))
            .collect();
        let incoming: Vec<Vec<NodeId>> = {
            let mut inc = vec![Vec::new(); n];
            for u in 0..n {
                for &v in self.topo.neighbors(u) {
                    inc[v].push(u);
                }
            }
            inc
        };

        let mut hosts = Vec::with_capacity(n);
        for (v, (listener, proc_)) in listeners.into_iter().zip(procs).enumerate() {
            let out_neighbors: Vec<NodeId> = self.topo.neighbors(v).to_vec();
            let out_addrs: Vec<SocketAddr> = out_neighbors.iter().map(|&u| addrs[u]).collect();
            let in_count = incoming[v].len();
            hosts.push(
                std::thread::Builder::new()
                    .name(format!("net-host-{v}"))
                    .spawn(move || {
                        host_main(v, proc_, out_neighbors, out_addrs, listener, in_count)
                    })
                    .expect("spawn host thread"),
            );
        }

        // The coordinator's control connection to each host.
        let mut ctrl: Vec<TcpStream> = addrs
            .iter()
            .map(|&a| {
                let mut s = TcpStream::connect(a).expect("connect ctrl");
                s.set_nodelay(true).ok();
                write_frame(&mut s, "ctrl").expect("ctrl hello");
                s
            })
            .collect();

        // --- the lockstep schedule: AsyncRunner::run over link indices -------
        // `M = u64`: the per-link FIFO index of the frame a send produced.
        let mut net: NetState<u64> = NetState::new(
            self.max_delay,
            self.seed,
            self.drop_rate,
            self.dup_rate,
            self.tracing,
        );
        let mut link_count: HashMap<(NodeId, NodeId), u64> = HashMap::new();
        let mut crashed = vec![false; n];
        let mut halted = vec![false; n];
        let mut outputs: Vec<Option<u64>> = vec![None; n];

        // One lockstep exchange: tell host `v` to run a step, absorb its
        // report (sends become link-indexed queue entries, timers queue).
        #[allow(clippy::too_many_arguments)]
        fn exchange(
            v: NodeId,
            cmd: &str,
            now: u64,
            ctrl: &mut [TcpStream],
            net: &mut NetState<u64>,
            link_count: &mut HashMap<(NodeId, NodeId), u64>,
            halted: &mut [bool],
            outputs: &mut [Option<u64>],
            stats: &mut RunStats,
        ) {
            write_frame(&mut ctrl[v], cmd).expect("ctrl send");
            let report = read_frame(&mut ctrl[v])
                .expect("ctrl recv")
                .expect("host closed mid-run");
            let mut out: StepOutOf<u64> = StepOutOf::default();
            let mut lines = report.lines();
            let head = lines.next().expect("report head");
            let mut h = head.split_ascii_whitespace();
            assert_eq!(h.next(), Some("report"), "bad report: {head}");
            halted[v] = h.next() == Some("1");
            outputs[v] = match h.next().expect("output field") {
                "-" => None,
                o => Some(o.parse().expect("output")),
            };
            stats.local_steps += h.next().expect("steps").parse::<u64>().expect("steps");
            stats.app_messages += h.next().expect("app").parse::<u64>().expect("app");
            for line in lines {
                let mut f = line.split_ascii_whitespace();
                match f.next() {
                    Some("s") => {
                        let to: NodeId = f.next().expect("to").parse().expect("to");
                        let retx = f.next() == Some("1");
                        let idx = link_count.entry((v, to)).or_insert(0);
                        out.sends.push((to, *idx, retx));
                        *idx += 1;
                    }
                    Some("t") => {
                        let delay: u64 = f.next().expect("delay").parse().expect("delay");
                        let token: u64 = f.next().expect("token").parse().expect("token");
                        out.timers.push((delay, token));
                    }
                    other => panic!("bad report line {other:?}"),
                }
            }
            net.absorb(now, v, out, stats);
        }

        // Control events first, in node order — identical to the simulator.
        for v in 0..n {
            if let Some(&ct) = self.crash_at.get(&v) {
                let seq = net.seq;
                net.seq += 1;
                net.queue.push(Reverse((ct, seq, EV_CRASH, v, v, 0)));
            }
            if let Some(&rt) = self.recover_at.get(&v) {
                let seq = net.seq;
                net.seq += 1;
                net.queue.push(Reverse((rt, seq, EV_RECOVER, v, v, 0)));
            }
        }

        for (v, dead) in crashed.iter_mut().enumerate() {
            if self.crash_at.get(&v) == Some(&0) {
                *dead = true;
            }
            if *dead {
                continue; // the simulator's run_step no-ops here too
            }
            exchange(
                v,
                "start",
                0,
                &mut ctrl,
                &mut net,
                &mut link_count,
                &mut halted,
                &mut outputs,
                &mut stats,
            );
        }

        let mut processed = 0u64;
        loop {
            if processed >= max_events {
                break;
            }
            let Some(Reverse((t, _s, kind, a, b, key))) = net.queue.pop() else {
                break;
            };
            match kind {
                EV_CRASH => {
                    crashed[a] = true;
                    dist_metrics().crashes.incr();
                    net.trace(TraceEvent::Crash { t, node: a });
                }
                EV_RECOVER => {
                    crashed[a] = false;
                    dist_metrics().recoveries.incr();
                    net.trace(TraceEvent::Recover { t, node: a });
                    if !halted[a] {
                        exchange(
                            a,
                            "recover",
                            t,
                            &mut ctrl,
                            &mut net,
                            &mut link_count,
                            &mut halted,
                            &mut outputs,
                            &mut stats,
                        );
                    }
                }
                EV_MSG => {
                    let idx = net.payloads.remove(&key).expect("link index stored");
                    if crashed[b] || halted[b] {
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
                    exchange(
                        b,
                        &format!("deliver {a} {idx}"),
                        t,
                        &mut ctrl,
                        &mut net,
                        &mut link_count,
                        &mut halted,
                        &mut outputs,
                        &mut stats,
                    );
                }
                EV_TIMER => {
                    if crashed[a] || halted[a] {
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
                    exchange(
                        a,
                        &format!("timer {key}"),
                        t,
                        &mut ctrl,
                        &mut net,
                        &mut link_count,
                        &mut halted,
                        &mut outputs,
                        &mut stats,
                    );
                }
                _ => unreachable!("unknown event kind"),
            }
        }

        stats.undelivered = net
            .queue
            .iter()
            .filter(|Reverse((_, _, kind, ..))| *kind == EV_MSG)
            .count() as u64;

        // Tear down: every host gets `stop` before any is joined, so hosts
        // blocked on peers' reader EOFs all release together.
        for s in ctrl.iter_mut() {
            write_frame(s, "stop").expect("ctrl stop");
        }
        for h in hosts {
            h.join().expect("host thread");
        }

        self.trace = net.trace;
        stats.outputs = outputs;
        dist_metrics().absorb_run(&stats);
        stats
    }
}

/// The per-node host: owns the process, accepts its incoming links,
/// connects its outgoing links, and executes exactly the steps the
/// coordinator grants. Payload frames flow peer-to-peer; only step
/// commands and step reports touch the coordinator.
fn host_main(
    v: NodeId,
    mut proc_: BoxProcess,
    out_neighbors: Vec<NodeId>,
    out_addrs: Vec<SocketAddr>,
    listener: TcpListener,
    in_count: usize,
) {
    // Connect outbound first: connects complete against the peer's listen
    // backlog, so no accept ordering can deadlock the mesh bring-up.
    let mut outgoing: HashMap<NodeId, TcpStream> = HashMap::new();
    for (&u, &addr) in out_neighbors.iter().zip(&out_addrs) {
        let mut s = TcpStream::connect(addr).expect("connect data link");
        s.set_nodelay(true).ok();
        write_frame(&mut s, &format!("data {v}")).expect("data hello");
        outgoing.insert(u, s);
    }

    // Accept incoming links (+1 for the coordinator's control connection),
    // identified by their hello frame. Each data link gets a reader thread
    // appending arrived frames to an append-only per-source log.
    let mut arrived: HashMap<NodeId, Arrived> = HashMap::new();
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut ctrl: Option<TcpStream> = None;
    for _ in 0..in_count + 1 {
        let (mut s, _) = listener.accept().expect("accept link");
        s.set_nodelay(true).ok();
        let hello = read_frame(&mut s).expect("hello").expect("hello eof");
        if hello == "ctrl" {
            ctrl = Some(s);
            continue;
        }
        let from: NodeId = hello
            .strip_prefix("data ")
            .and_then(|u| u.parse().ok())
            .unwrap_or_else(|| panic!("bad hello {hello:?}"));
        let log: Arrived = Arc::new((Mutex::new(Vec::new()), Condvar::new()));
        arrived.insert(from, Arc::clone(&log));
        readers.push(
            std::thread::Builder::new()
                .name(format!("net-read-{from}-{v}"))
                .spawn(move || {
                    let mut s = s;
                    while let Ok(Some(frame)) = read_frame(&mut s) {
                        let (lock, cv) = &*log;
                        lock.lock().expect("arrived log").push(frame);
                        cv.notify_all();
                    }
                })
                .expect("spawn reader"),
        );
    }
    let mut ctrl = ctrl.expect("coordinator never connected");

    let mut output: Option<u64> = None;
    let mut halted = false;

    // Run one granted step: sends go straight onto the outgoing streams
    // (in send order — the per-link FIFO the coordinator indexes), then
    // the step report goes back on the control connection.
    let step = |ctrl: &mut TcpStream,
                proc_: &mut BoxProcess,
                output: &mut Option<u64>,
                halted: &mut bool,
                outgoing: &mut HashMap<NodeId, TcpStream>,
                f: &mut dyn FnMut(&mut dyn Process, &mut Ctx)| {
        let mut sends: Vec<(NodeId, Payload, bool)> = Vec::new();
        let mut timers: Vec<(u64, u64)> = Vec::new();
        let mut scratch = RunStats::default();
        {
            let mut cx = Ctx::new(
                v,
                &out_neighbors,
                &mut sends,
                &mut timers,
                &mut scratch,
                output,
                halted,
            );
            f(proc_.as_mut(), &mut cx);
        }
        use std::fmt::Write as _;
        let mut report = format!(
            "report {} {} {} {}",
            u8::from(*halted),
            output.map_or("-".to_string(), |o| o.to_string()),
            scratch.local_steps,
            scratch.app_messages,
        );
        for (to, pl, retx) in sends {
            let s = outgoing.get_mut(&to).expect("send to non-neighbor");
            write_frame(s, &encode_payload(&pl)).expect("send frame");
            let _ = write!(report, "\ns {to} {}", u8::from(retx));
        }
        for (delay, token) in timers {
            let _ = write!(report, "\nt {delay} {token}");
        }
        write_frame(ctrl, &report).expect("report");
    };

    loop {
        let cmd = read_frame(&mut ctrl).expect("ctrl read").expect("ctrl eof");
        let mut toks = cmd.split_ascii_whitespace();
        match toks.next() {
            Some("start") => step(
                &mut ctrl,
                &mut proc_,
                &mut output,
                &mut halted,
                &mut outgoing,
                &mut |p, cx| p.on_start(cx),
            ),
            Some("deliver") => {
                let from: NodeId = toks.next().expect("from").parse().expect("from");
                let idx: usize = toks.next().expect("idx").parse().expect("idx");
                // The sender wrote frame `idx` before reporting the send,
                // and the grant comes after that report — so the frame is
                // in flight at worst; wait for the reader to log it.
                let text = {
                    let (lock, cv) = &**arrived.get(&from).expect("no link from sender");
                    let mut log = lock.lock().expect("arrived log");
                    while log.len() <= idx {
                        log = cv.wait(log).expect("arrived log");
                    }
                    log[idx].clone()
                };
                let pl = decode_payload(&text).expect("payload decode");
                step(
                    &mut ctrl,
                    &mut proc_,
                    &mut output,
                    &mut halted,
                    &mut outgoing,
                    &mut |p, cx| p.on_message(from, &pl, cx),
                );
            }
            Some("timer") => {
                let token: u64 = toks.next().expect("token").parse().expect("token");
                step(
                    &mut ctrl,
                    &mut proc_,
                    &mut output,
                    &mut halted,
                    &mut outgoing,
                    &mut |p, cx| p.on_timer(token, cx),
                );
            }
            Some("recover") => step(
                &mut ctrl,
                &mut proc_,
                &mut output,
                &mut halted,
                &mut outgoing,
                &mut |p, cx| p.on_recover(cx),
            ),
            Some("stop") => break,
            other => panic!("unknown ctrl command {other:?}"),
        }
    }

    // Closing our outgoing streams EOFs the peers' readers; every host got
    // `stop` before any join, so this releases the whole mesh.
    drop(outgoing);
    for r in readers {
        r.join().expect("reader thread");
    }
}

// ---------------------------------------------------------------------------
// LiveMesh: free-running wall-clock runtime (the control plane's substrate)
// ---------------------------------------------------------------------------

/// One OS thread per node over a complete TCP mesh, with real time:
/// every `tick`, the node's round counter advances, due timers fire
/// (timer delays are in ticks), and [`Process::on_round`] runs. Messages
/// are sent the moment a handler produces them. [`LiveMesh::kill`]
/// crash-stops a node for real — its thread exits and its connections
/// close, and the only way peers learn is by noticing the silence
/// (which is precisely what the heartbeat detector exists to do).
pub struct LiveMesh {
    handles: Vec<JoinHandle<()>>,
    kill: Vec<Arc<AtomicBool>>,
}

impl LiveMesh {
    /// Start `procs.len()` nodes over a complete mesh. Fails if the mesh
    /// cannot be wired (ports, connects).
    pub fn start(procs: Vec<BoxProcess>, tick: Duration) -> io::Result<LiveMesh> {
        let n = procs.len();
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<io::Result<_>>()?;
        let kill: Vec<Arc<AtomicBool>> = (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();

        let mut handles = Vec::with_capacity(n);
        for (v, (listener, proc_)) in listeners.into_iter().zip(procs).enumerate() {
            let addrs = addrs.clone();
            let flag = Arc::clone(&kill[v]);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mesh-node-{v}"))
                    .spawn(move || mesh_node_main(v, proc_, addrs, listener, tick, flag))
                    .expect("spawn mesh node"),
            );
        }
        Ok(LiveMesh { handles, kill })
    }

    /// Number of nodes (including killed ones).
    pub fn len(&self) -> usize {
        self.kill.len()
    }

    /// True when the mesh has no nodes.
    pub fn is_empty(&self) -> bool {
        self.kill.is_empty()
    }

    /// Crash-stop a node: its thread exits at the next scheduling point
    /// and its connections close. There is no recovery.
    pub fn kill(&self, node: NodeId) {
        self.kill[node].store(true, Ordering::SeqCst);
    }

    /// Stop every node and join the threads.
    pub fn shutdown(self) {
        for f in &self.kill {
            f.store(true, Ordering::SeqCst);
        }
        for h in self.handles {
            let _ = h.join();
        }
    }
}

fn mesh_node_main(
    v: NodeId,
    mut proc_: BoxProcess,
    addrs: Vec<SocketAddr>,
    listener: TcpListener,
    tick: Duration,
    kill: Arc<AtomicBool>,
) {
    let n = addrs.len();
    let neighbors: Vec<NodeId> = (0..n).filter(|&u| u != v).collect();

    let mut outgoing: HashMap<NodeId, TcpStream> = HashMap::new();
    for &u in &neighbors {
        let Ok(mut s) = TcpStream::connect(addrs[u]) else {
            return; // peer already dead at bring-up: run without the link
        };
        s.set_nodelay(true).ok();
        if write_frame(&mut s, &format!("data {v}")).is_err() {
            return;
        }
        outgoing.insert(u, s);
    }

    let (tx, rx) = mpsc::channel::<(NodeId, Payload)>();
    for _ in 0..neighbors.len() {
        let Ok((mut s, _)) = listener.accept() else {
            return;
        };
        s.set_nodelay(true).ok();
        let Ok(Some(hello)) = read_frame(&mut s) else {
            return;
        };
        let from: NodeId = hello
            .strip_prefix("data ")
            .and_then(|u| u.parse().ok())
            .unwrap_or_else(|| panic!("bad hello {hello:?}"));
        let tx = tx.clone();
        std::thread::Builder::new()
            .name(format!("mesh-read-{from}-{v}"))
            .spawn(move || {
                while let Ok(Some(frame)) = read_frame(&mut s) {
                    let Ok(pl) = decode_payload(&frame) else {
                        return;
                    };
                    if tx.send((from, pl)).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn mesh reader");
    }
    drop(tx);

    let mut output: Option<u64> = None;
    let mut halted = false;
    let mut round: u64 = 0;
    // (fire_round, token), insertion-ordered like the synchronous runner.
    let mut pending_timers: Vec<(u64, u64)> = Vec::new();
    let start = Instant::now();

    macro_rules! step {
        ($f:expr) => {{
            let mut sends: Vec<(NodeId, Payload, bool)> = Vec::new();
            let mut timers: Vec<(u64, u64)> = Vec::new();
            let mut scratch = RunStats::default();
            {
                let mut cx = Ctx::new(
                    v,
                    &neighbors,
                    &mut sends,
                    &mut timers,
                    &mut scratch,
                    &mut output,
                    &mut halted,
                );
                #[allow(clippy::redundant_closure_call)]
                ($f)(proc_.as_mut(), &mut cx);
            }
            for (to, pl, _) in sends {
                if let Some(s) = outgoing.get_mut(&to) {
                    // A dead peer surfaces as a write error: the message is
                    // simply lost, exactly like a real partial failure.
                    if write_frame(s, &encode_payload(&pl)).is_err() {
                        outgoing.remove(&to);
                    }
                }
            }
            for (delay, token) in timers {
                pending_timers.push((round + delay, token));
            }
        }};
    }

    step!(|p: &mut dyn Process, cx: &mut Ctx| p.on_start(cx));

    while !kill.load(Ordering::SeqCst) && !halted {
        let next_tick = start + tick * (round as u32 + 1);
        let wait = next_tick.saturating_duration_since(Instant::now());
        let msg = match rx.recv_timeout(wait) {
            Ok(m) => Some(m),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // Every peer is gone; keep ticking on schedule so the
                // process can still reach its own verdicts.
                std::thread::sleep(wait);
                None
            }
        };
        match msg {
            Some((from, pl)) => {
                step!(|p: &mut dyn Process, cx: &mut Ctx| p.on_message(from, &pl, cx))
            }
            None => {
                round += 1;
                let due: Vec<u64> = {
                    let mut due = Vec::new();
                    pending_timers.retain(|&(fire, token)| {
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
                    if halted {
                        break;
                    }
                    step!(|p: &mut dyn Process, cx: &mut Ctx| p.on_timer(token, cx));
                }
                if !halted {
                    step!(|p: &mut dyn Process, cx: &mut Ctx| p.on_round(round, cx));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{consensus, echo_nodes, expected_leader, reliable_echo_nodes};
    use crate::engine::AsyncRunner;

    fn payload_cases() -> Vec<Payload> {
        vec![
            Payload::Uid(7),
            Payload::HsToken {
                uid: 9,
                hops: 3,
                outbound: true,
            },
            Payload::Max(u64::MAX),
            Payload::Token,
            Payload::Level(4),
            Payload::Rel {
                seq: 12,
                inner: Box::new(Payload::Rel {
                    seq: 1,
                    inner: Box::new(Payload::Token),
                }),
            },
            Payload::RelAck { seq: 5 },
            Payload::Assign { epoch: 3, dead: 6 },
        ]
    }

    #[test]
    fn payload_codec_round_trips_every_variant() {
        for pl in payload_cases() {
            let text = encode_payload(&pl);
            assert_eq!(decode_payload(&text), Ok(pl.clone()), "{text}");
        }
        assert!(decode_payload("").is_err());
        assert!(decode_payload("uid").is_err());
        assert!(decode_payload("uid 1 extra").is_err());
        assert!(decode_payload("wat 3").is_err());
    }

    #[test]
    fn socket_echo_matches_the_simulator_exactly() {
        let topo = Topology::grid(2, 2);
        let mut sim = AsyncRunner::new(topo.clone(), echo_nodes(4, 0), 4, 11);
        sim.record_trace();
        let sim_stats = sim.run(10_000);

        let mut net = NetRunner::new(topo, echo_nodes(4, 0), 4, 11);
        net.record_trace();
        let net_stats = net.run(10_000);

        assert_eq!(sim_stats, net_stats);
        assert_eq!(sim.trace(), net.trace());
        assert_eq!(sim_stats.outputs[0], Some(1));
    }

    #[test]
    fn socket_run_survives_drops_dups_and_crash_recovery() {
        let topo = Topology::ring_bidirectional(4);
        let configure = |r: &mut AsyncRunner| {
            r.drop_messages(0.2)
                .duplicate_messages(0.2)
                .crash(2, 3)
                .recover(2, 9)
                .record_trace();
        };
        let mut sim = AsyncRunner::new(topo.clone(), reliable_echo_nodes(4, 0, 8, 6), 3, 23);
        configure(&mut sim);
        let sim_stats = sim.run(50_000);

        let mut net = NetRunner::new(topo, reliable_echo_nodes(4, 0, 8, 6), 3, 23);
        net.drop_messages(0.2)
            .duplicate_messages(0.2)
            .crash(2, 3)
            .recover(2, 9)
            .record_trace();
        let net_stats = net.run(50_000);

        assert_eq!(sim_stats, net_stats);
        assert_eq!(sim.trace(), net.trace());
        assert!(net_stats.conserves_messages());
    }

    #[test]
    fn live_mesh_elects_a_leader_in_wall_clock_time() {
        let uids = [3, 9, 5];
        let max = expected_leader(&uids).unwrap();
        let seen: Vec<Arc<Mutex<Option<u64>>>> =
            (0..3).map(|_| Arc::new(Mutex::new(None))).collect();

        /// FT-FloodMax plus a side channel reporting the settled leader.
        struct Reporting {
            inner: crate::algorithms::FtFloodMax,
            slot: Arc<Mutex<Option<u64>>>,
        }
        impl Process for Reporting {
            fn on_start(&mut self, cx: &mut Ctx) {
                self.inner.on_start(cx);
            }
            fn on_message(&mut self, from: NodeId, msg: &Payload, cx: &mut Ctx) {
                self.inner.on_message(from, msg, cx);
                *self.slot.lock().unwrap() = Some(self.inner.best());
            }
            fn on_timer(&mut self, token: u64, cx: &mut Ctx) {
                self.inner.on_timer(token, cx);
                *self.slot.lock().unwrap() = Some(self.inner.best());
            }
        }

        let procs: Vec<BoxProcess> = uids
            .iter()
            .zip(&seen)
            .map(|(&uid, slot)| {
                Box::new(Reporting {
                    inner: crate::algorithms::FtFloodMax::new(uid, 2, 4),
                    slot: Arc::clone(slot),
                }) as BoxProcess
            })
            .collect();

        let mesh = LiveMesh::start(procs, Duration::from_millis(5)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let settled = seen.iter().all(|s| *s.lock().unwrap() == Some(max));
            if settled {
                break;
            }
            assert!(Instant::now() < deadline, "election did not settle");
            std::thread::sleep(Duration::from_millis(5));
        }
        mesh.shutdown();
    }

    #[test]
    fn consensus_helper_agrees_between_runtimes() {
        // Sanity: the same catalog construction runs under both runtimes.
        let topo = Topology::star(5);
        let sim = AsyncRunner::new(topo.clone(), echo_nodes(5, 0), 2, 5).run(10_000);
        let net = NetRunner::new(topo, echo_nodes(5, 0), 2, 5).run(10_000);
        assert_eq!(consensus(&sim), consensus(&net));
    }
}
