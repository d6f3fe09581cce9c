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
//! * [`NetRunner`] — the simulator's own asynchronous scheduler,
//!   [`AsyncScheduler`], over the [`SocketHosts`] model of the
//!   [`NodeHost`] concept. Each node's process runs on a host thread;
//!   payload bytes travel peer-to-peer over per-edge TCP connections
//!   between hosts, while the scheduler — the same code that drives
//!   [`AsyncRunner`](crate::engine::AsyncRunner) — grants each step over
//!   a control connection. The RNG draws, the event order and the
//!   crash/recovery schedule are therefore the simulator's by
//!   construction: a run on (seed, topology) X yields the same
//!   [`RunStats`] and the same structured trace as `AsyncRunner` on X,
//!   event for event. The scheduler never sees payload bytes: it holds
//!   *per-link frame indices* (TCP guarantees per-connection FIFO, so
//!   index `i` on link `u→v` always denotes the same frame), and a
//!   delivery grant tells the receiving host which arrived frame to
//!   consume. Injected drops are frames that are physically sent but
//!   never granted; injected duplicates are grants that re-read the same
//!   frame.
//!
//! * [`LiveMesh`] — a **free-running** runtime for the service's control
//!   plane: one OS thread per node over a complete TCP mesh, real
//!   wall-clock ticks driving [`Process::on_round`] and timers, and
//!   [`LiveMesh::kill`] for real crash-stop (the node's connections close;
//!   peers find out the way real systems do — silence). No simulator
//!   cross-validation is possible here by construction; this is where the
//!   validated algorithms get *used*.
//!
//! Both runtimes bring their mesh up the same way: each node connects to
//! its peers with a `data <id>` hello and accepts each link by its hello,
//! dropping connections whose hello names no awaited peer. Messages cross
//! the wire as a whitespace-token text rendering of [`Payload`]
//! ([`encode_payload`] / [`decode_payload`]) inside one frame.

use crate::engine::{
    AsyncScheduler, BoxProcess, Ctx, Grant, NodeHost, NodeState, Payload, Process, RunStats,
};
use crate::topology::{NodeId, Topology};
use gp_core::frame::{read_frame, write_frame};
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
// Mesh bring-up, shared by both runtimes
// ---------------------------------------------------------------------------

/// How long an accepted connection may take to say hello before it is
/// dropped.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);

/// Bind one loopback listener per node.
fn bind_listeners(n: usize) -> io::Result<(Vec<TcpListener>, Vec<SocketAddr>)> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    let addrs = listeners
        .iter()
        .map(TcpListener::local_addr)
        .collect::<io::Result<_>>()?;
    Ok((listeners, addrs))
}

/// A node's connections once its part of a mesh is up.
struct Links {
    /// Data streams to peers, by receiver.
    outgoing: HashMap<NodeId, TcpStream>,
    /// Data streams from peers, by the sender their hello named.
    incoming: Vec<(NodeId, TcpStream)>,
    /// The scheduler's control connection, when one was awaited.
    ctrl: Option<TcpStream>,
}

/// Bring up node `v`'s links. First connect to each of `peers` with a
/// `data <v>` hello; a peer that cannot be reached is taken for dead, and
/// the node runs without its links to and from it. Then accept on
/// `listener` until every peer in `inbound` — and, with `want_ctrl`, one
/// `ctrl` connection — has said hello. A connection whose hello is
/// malformed, names no awaited peer (this node included) or one already
/// linked, or does not come within [`HELLO_TIMEOUT`] is dropped and
/// accepting goes on, so a stray local connection can neither end the
/// node nor take a peer's accept slot.
fn bring_up(
    v: NodeId,
    peers: &[(NodeId, SocketAddr)],
    listener: &TcpListener,
    inbound: &[NodeId],
    want_ctrl: bool,
) -> io::Result<Links> {
    // Connect outbound first: connects complete against the peer's listen
    // backlog, so no accept ordering can deadlock the mesh bring-up.
    let mut outgoing = HashMap::new();
    let mut awaited = inbound.to_vec();
    for &(u, addr) in peers {
        let linked = TcpStream::connect(addr).and_then(|mut s| {
            s.set_nodelay(true).ok();
            write_frame(&mut s, &format!("data {v}"))?;
            Ok(s)
        });
        match linked {
            Ok(s) => {
                outgoing.insert(u, s);
            }
            Err(_) => awaited.retain(|&w| w != u),
        }
    }
    let mut links = Links {
        outgoing,
        incoming: Vec::new(),
        ctrl: None,
    };
    while !awaited.is_empty() || (want_ctrl && links.ctrl.is_none()) {
        let (mut s, _) = listener.accept()?;
        let hello = s
            .set_read_timeout(Some(HELLO_TIMEOUT))
            .and_then(|()| read_frame(&mut s));
        let Ok(Some(hello)) = hello else {
            continue;
        };
        if s.set_read_timeout(None).is_err() {
            continue;
        }
        s.set_nodelay(true).ok();
        if hello == "ctrl" && want_ctrl && links.ctrl.is_none() {
            links.ctrl = Some(s);
        } else if let Some(i) = hello
            .strip_prefix("data ")
            .and_then(|u| u.parse::<NodeId>().ok())
            .and_then(|u| awaited.iter().position(|&w| w == u))
        {
            links.incoming.push((awaited.swap_remove(i), s));
        }
    }
    Ok(links)
}

// ---------------------------------------------------------------------------
// NetRunner: the asynchronous scheduler over socket hosts
// ---------------------------------------------------------------------------

/// Frames arrived on one incoming link, append-only so an injected
/// duplicate can re-read the frame at the same index.
type Arrived = Arc<(Mutex<Vec<String>>, Condvar)>;

/// The socket node-host model: one host thread per node owns the node's
/// process, with a TCP connection per topology edge to its neighbors'
/// hosts and a control connection from the scheduler. A granted step goes
/// out as a command on the control connection, and the step's sends and
/// timers come back as a report. Payload bytes travel peer-to-peer, so
/// the scheduler holds a message as its per-link frame index: TCP keeps
/// each connection FIFO, so index `i` on link `u→v` always names the same
/// frame.
pub struct SocketHosts {
    /// The processes, until a run moves them onto host threads.
    procs: Option<Vec<BoxProcess>>,
    threads: Vec<JoinHandle<()>>,
    ctrl: Vec<TcpStream>,
    /// Frames sent so far on each link `(from, to)`.
    link_count: HashMap<(NodeId, NodeId), u64>,
    halted: Vec<bool>,
    outputs: Vec<Option<u64>>,
}

/// Executes unmodified processes over per-edge TCP connections between
/// host threads: the [`AsyncRunner`](crate::engine::AsyncRunner)
/// scheduler over [`SocketHosts`], so a run on (seed, topology) X yields
/// the same stats and trace as `AsyncRunner` on X. [`run`] consumes the
/// processes and may be called once.
///
/// [`run`]: AsyncScheduler::run
pub type NetRunner = AsyncScheduler<SocketHosts>;

impl NodeHost for SocketHosts {
    type Msg = u64;

    fn new(procs: Vec<BoxProcess>) -> Self {
        SocketHosts {
            procs: Some(procs),
            threads: Vec::new(),
            ctrl: Vec::new(),
            link_count: HashMap::new(),
            halted: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn span() -> gp_telemetry::Span {
        gp_telemetry::span!("net_run")
    }

    fn open(&mut self, topo: &Topology) {
        let procs = self
            .procs
            .take()
            .expect("NetRunner::run consumes the processes; build a new runner to rerun");
        let n = topo.len();
        let (listeners, addrs) = bind_listeners(n).expect("bind host listeners");
        let mut inbound = vec![Vec::new(); n];
        for u in 0..n {
            for &v in topo.neighbors(u) {
                inbound[v].push(u);
            }
        }
        let hosts = listeners.into_iter().zip(procs).zip(inbound);
        for (v, ((listener, proc_), inbound)) in hosts.enumerate() {
            let peers: Vec<(NodeId, SocketAddr)> =
                topo.neighbors(v).iter().map(|&u| (u, addrs[u])).collect();
            self.threads.push(
                std::thread::Builder::new()
                    .name(format!("net-host-{v}"))
                    .spawn(move || host_main(v, proc_, peers, listener, inbound))
                    .expect("spawn host thread"),
            );
        }
        self.ctrl = addrs
            .iter()
            .map(|&a| {
                let mut s = TcpStream::connect(a).expect("connect ctrl");
                s.set_nodelay(true).ok();
                write_frame(&mut s, "ctrl").expect("ctrl hello");
                s
            })
            .collect();
        self.halted = vec![false; n];
        self.outputs = vec![None; n];
    }

    fn step(
        &mut self,
        _topo: &Topology,
        v: NodeId,
        grant: Grant<u64>,
        sends: &mut Vec<(NodeId, u64, bool)>,
        timers: &mut Vec<(u64, u64)>,
        stats: &mut RunStats,
    ) {
        let cmd = match grant {
            Grant::Start => "start".to_string(),
            Grant::Deliver { from, msg } => format!("deliver {from} {msg}"),
            Grant::Timer(token) => format!("timer {token}"),
            Grant::Recover => "recover".to_string(),
        };
        write_frame(&mut self.ctrl[v], &cmd).expect("ctrl send");
        let report = read_frame(&mut self.ctrl[v])
            .expect("ctrl recv")
            .expect("host closed mid-run");
        let mut lines = report.lines();
        let head = lines.next().expect("report head");
        let mut h = head.split_ascii_whitespace();
        assert_eq!(h.next(), Some("report"), "bad report: {head}");
        self.halted[v] = h.next() == Some("1");
        self.outputs[v] = match h.next().expect("output field") {
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
                    let idx = self.link_count.entry((v, to)).or_insert(0);
                    sends.push((to, *idx, retx));
                    *idx += 1;
                }
                Some("t") => {
                    let delay: u64 = f.next().expect("delay").parse().expect("delay");
                    let token: u64 = f.next().expect("token").parse().expect("token");
                    timers.push((delay, token));
                }
                other => panic!("bad report line {other:?}"),
            }
        }
    }

    fn halted(&self, v: NodeId) -> bool {
        self.halted[v]
    }

    fn output(&self, v: NodeId) -> Option<u64> {
        self.outputs[v]
    }

    fn close(&mut self) {
        // Every host gets `stop` before any is joined, so hosts blocked on
        // peers' reader EOFs all release together.
        for s in &mut self.ctrl {
            write_frame(s, "stop").expect("ctrl stop");
        }
        for h in self.threads.drain(..) {
            h.join().expect("host thread");
        }
    }
}

/// The per-node host: owns the process, brings up its links, and runs
/// exactly the steps the scheduler grants. Payload frames flow
/// peer-to-peer; only step commands and step reports touch the control
/// connection.
fn host_main(
    v: NodeId,
    proc_: BoxProcess,
    peers: Vec<(NodeId, SocketAddr)>,
    listener: TcpListener,
    inbound: Vec<NodeId>,
) {
    let links = bring_up(v, &peers, &listener, &inbound, true).expect("bring up host links");
    let mut ctrl = links.ctrl.expect("bring-up awaits the control connection");
    let mut outgoing = links.outgoing;

    // Each data link gets a reader thread appending arrived frames to an
    // append-only per-source log.
    let mut arrived: HashMap<NodeId, Arrived> = HashMap::new();
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    for (from, mut s) in links.incoming {
        let log: Arrived = Arc::default();
        arrived.insert(from, Arc::clone(&log));
        readers.push(
            std::thread::Builder::new()
                .name(format!("net-read-{from}-{v}"))
                .spawn(move || {
                    while let Ok(Some(frame)) = read_frame(&mut s) {
                        let (lock, cv) = &*log;
                        lock.lock().expect("arrived log").push(frame);
                        cv.notify_all();
                    }
                })
                .expect("spawn reader"),
        );
    }

    let neighbors: Vec<NodeId> = peers.iter().map(|&(u, _)| u).collect();
    let mut node = NodeState::new(proc_);
    let (mut sends, mut timers) = (Vec::new(), Vec::new());
    loop {
        let cmd = read_frame(&mut ctrl).expect("ctrl read").expect("ctrl eof");
        let mut toks = cmd.split_ascii_whitespace();
        let grant = match toks.next() {
            Some("start") => Grant::Start,
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
                let msg = decode_payload(&text).expect("payload decode");
                Grant::Deliver { from, msg }
            }
            Some("timer") => Grant::Timer(toks.next().expect("token").parse().expect("token")),
            Some("recover") => Grant::Recover,
            Some("stop") => break,
            other => panic!("unknown ctrl command {other:?}"),
        };
        let mut scratch = RunStats::default();
        node.step(
            v,
            &neighbors,
            &mut sends,
            &mut timers,
            &mut scratch,
            |p, cx| grant.call(p, cx),
        );
        // Sends go straight onto the outgoing streams, in send order (the
        // per-link FIFO the scheduler indexes); then the step report goes
        // back on the control connection.
        use std::fmt::Write as _;
        let mut report = format!(
            "report {} {} {} {}",
            u8::from(node.halted),
            node.output.map_or("-".to_string(), |o| o.to_string()),
            scratch.local_steps,
            scratch.app_messages,
        );
        for (to, pl, retx) in sends.drain(..) {
            let s = outgoing.get_mut(&to).expect("send to non-neighbor");
            write_frame(s, &encode_payload(&pl)).expect("send frame");
            let _ = write!(report, "\ns {to} {}", u8::from(retx));
        }
        for (delay, token) in timers.drain(..) {
            let _ = write!(report, "\nt {delay} {token}");
        }
        write_frame(&mut ctrl, &report).expect("report");
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
        let (listeners, addrs) = bind_listeners(n)?;
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

/// One live mesh node between steps.
struct MeshNode {
    v: NodeId,
    neighbors: Vec<NodeId>,
    node: NodeState,
    outgoing: HashMap<NodeId, TcpStream>,
    round: u64,
    /// (fire_round, token), insertion-ordered like the synchronous runner.
    timers: Vec<(u64, u64)>,
}

impl MeshNode {
    /// Run one step: its sends go out at once, its timers are armed in
    /// ticks from the current round.
    fn step(&mut self, f: impl FnOnce(&mut dyn Process, &mut Ctx)) {
        let (mut sends, mut timers) = (Vec::new(), Vec::new());
        let v = self.v;
        self.node.step(
            v,
            &self.neighbors,
            &mut sends,
            &mut timers,
            &mut RunStats::default(),
            f,
        );
        for (to, pl, _) in sends {
            if let Some(s) = self.outgoing.get_mut(&to) {
                // A dead peer surfaces as a write error: the message is
                // simply lost, exactly like a real partial failure.
                if write_frame(s, &encode_payload(&pl)).is_err() {
                    self.outgoing.remove(&to);
                }
            }
        }
        for (delay, token) in timers {
            self.timers.push((self.round + delay, token));
        }
    }
}

fn mesh_node_main(
    v: NodeId,
    proc_: BoxProcess,
    addrs: Vec<SocketAddr>,
    listener: TcpListener,
    tick: Duration,
    kill: Arc<AtomicBool>,
) {
    let peers: Vec<(NodeId, SocketAddr)> = addrs
        .into_iter()
        .enumerate()
        .filter(|&(u, _)| u != v)
        .collect();
    let neighbors: Vec<NodeId> = peers.iter().map(|&(u, _)| u).collect();
    let Ok(links) = bring_up(v, &peers, &listener, &neighbors, false) else {
        return;
    };

    let (tx, rx) = mpsc::channel::<(NodeId, Payload)>();
    for (from, mut s) in links.incoming {
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

    let mut mesh = MeshNode {
        v,
        neighbors,
        node: NodeState::new(proc_),
        outgoing: links.outgoing,
        round: 0,
        timers: Vec::new(),
    };
    let start = Instant::now();
    mesh.step(|p, cx| p.on_start(cx));

    while !kill.load(Ordering::SeqCst) && !mesh.node.halted {
        let next_tick = start + tick * (mesh.round as u32 + 1);
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
            Some((from, pl)) => mesh.step(|p, cx| p.on_message(from, &pl, cx)),
            None => {
                mesh.round += 1;
                let round = mesh.round;
                let mut due = Vec::new();
                mesh.timers.retain(|&(fire, token)| {
                    if fire <= round {
                        due.push(token);
                        false
                    } else {
                        true
                    }
                });
                // A step after a halt is a no-op.
                for token in due {
                    mesh.step(|p, cx| p.on_timer(token, cx));
                }
                mesh.step(|p, cx| p.on_round(round, cx));
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

    /// Stray local connections reach a mesh node's listener before its
    /// peer does: a malformed hello, hellos naming no peer or the node
    /// itself, and one that closes before any hello. The node drops them,
    /// keeps accepting, and still links to its real peer.
    #[test]
    fn stray_connections_do_not_break_mesh_bring_up() {
        struct Hear(mpsc::Sender<(NodeId, Payload)>);
        impl Process for Hear {
            fn on_start(&mut self, cx: &mut Ctx) {
                cx.send_all(Payload::Uid(cx.node as u64));
            }
            fn on_message(&mut self, from: NodeId, msg: &Payload, _cx: &mut Ctx) {
                let _ = self.0.send((from, msg.clone()));
            }
        }

        let listeners: Vec<TcpListener> = (0..2)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        let mut strays = Vec::new();
        for hello in ["hello?", "data 7", "data 0"] {
            let mut s = TcpStream::connect(addrs[0]).unwrap();
            write_frame(&mut s, hello).unwrap();
            strays.push(s);
        }
        drop(TcpStream::connect(addrs[0]).unwrap());

        let (txs, rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| mpsc::channel()).unzip();
        let kill: Vec<Arc<AtomicBool>> = (0..2).map(|_| Arc::default()).collect();
        let nodes: Vec<JoinHandle<()>> = listeners
            .into_iter()
            .zip(txs)
            .enumerate()
            .map(|(v, (listener, tx))| {
                let proc_: BoxProcess = Box::new(Hear(tx));
                let (addrs, flag) = (addrs.clone(), Arc::clone(&kill[v]));
                let tick = Duration::from_millis(5);
                std::thread::spawn(move || mesh_node_main(v, proc_, addrs, listener, tick, flag))
            })
            .collect();

        let heard: Vec<_> = rxs
            .iter()
            .map(|rx| rx.recv_timeout(Duration::from_secs(5)))
            .collect();
        for f in &kill {
            f.store(true, Ordering::SeqCst);
        }
        let ended: Vec<bool> = nodes.into_iter().map(|h| h.join().is_ok()).collect();
        assert_eq!(
            heard,
            vec![Ok((1, Payload::Uid(1))), Ok((0, Payload::Uid(0)))]
        );
        assert_eq!(ended, vec![true, true], "no node panicked");
        drop(strays);
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
