//! The server under test and the closed-loop TCP load that drives it.

use crate::alloc;
use crate::check::{self, Sample};
use crate::gen::{self, Inputs, Rng, Stream, Workload, HOT_POOL, LANE_WARMUP};
use crate::host;
use crate::trace::Recorder;
use gp_service::{encode_request, ReactorConfig, ShardRouter, ShardRouterConfig};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Load connections, one closed loop each: as many as the host has CPUs.
pub const CONNECTIONS: usize = 2;
/// Latency samples kept per window (enough for 60 s of `hot-repeat`).
/// Allocated and touched up front so that peak RSS does not depend on
/// throughput.
const LATENCY_CAP: usize = 1 << 22;
/// How long after the deadline a request may stay unanswered before it
/// counts as a transport failure.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// Sample one in this many unique requests for the reference check, at
/// most `SAMPLE_CAP` per kind and connection.
const SAMPLE_EVERY: usize = 8;
const SAMPLE_CAP: usize = 12;

/// Fixed warm-up sizes (requests after the pool / base program).
const WARM_HOT: u64 = 128;
const WARM_UNIQUE: u64 = 400;
const WARM_EDITS: u64 = 60;

/// One blocking connection speaking the length-prefixed frame protocol,
/// with buffers reused across requests.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inb: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            out: Vec::with_capacity(32 << 10),
            inb: Vec::with_capacity(32 << 10),
        })
    }

    /// Send one frame and read the response frame.
    pub fn roundtrip(&mut self, frame: &[u8]) -> io::Result<&[u8]> {
        let len = u32::try_from(frame.len()).map_err(|_| io::ErrorKind::InvalidInput)?;
        self.out.clear();
        self.out.extend_from_slice(&len.to_be_bytes());
        self.out.extend_from_slice(frame);
        self.stream.write_all(&self.out)?;
        let mut prefix = [0u8; 4];
        self.stream.read_exact(&mut prefix)?;
        let n = u32::from_be_bytes(prefix) as usize;
        if n > gp_core::frame::MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "oversized frame",
            ));
        }
        self.inb.resize(n, 0);
        self.stream.read_exact(&mut self.inb)?;
        Ok(&self.inb)
    }
}

/// How a response frame answered request `id`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    Error,
    Overloaded,
    Malformed,
}

pub fn status_of(id: u64, frame: &[u8]) -> Status {
    let head = format!("{{\"id\":{id},\"status\":\"");
    let Some(rest) = frame.strip_prefix(head.as_bytes()) else {
        return Status::Malformed;
    };
    if rest.starts_with(b"ok\"") {
        Status::Ok
    } else if rest.starts_with(b"error\"") {
        Status::Error
    } else if rest.starts_with(b"overloaded\"") {
        Status::Overloaded
    } else {
        Status::Malformed
    }
}

/// The router under test, serving over the reactor on loopback.
pub struct Server {
    pub router: ShardRouter,
    pub addr: SocketAddr,
}

/// `hot-repeat` frames, encoded once: request `i` carries id `i + 1`, and
/// its correct response frame is known in advance from the reference.
pub struct HotFrames {
    pub req: Vec<Vec<u8>>,
    pub resp: Vec<Vec<u8>>,
}

impl HotFrames {
    pub fn new(inputs: &Inputs) -> Result<HotFrames, String> {
        let mut req = Vec::new();
        let mut resp = Vec::new();
        for (i, r) in inputs.pool.iter().enumerate() {
            let id = i as u64 + 1;
            req.push(encode_request(id, r).into_bytes());
            resp.push(check::reference_frame(id, r)?.into_bytes());
        }
        Ok(HotFrames { req, resp })
    }
}

/// What set-up produced.
pub struct Setup {
    pub server: Server,
    pub seconds: f64,
    /// Warm-up requests that did not come back `ok`.
    pub warm_failures: u64,
}

fn send_ok(conn: &mut Conn, id: u64, frame: &[u8]) -> bool {
    matches!(conn.roundtrip(frame), Ok(resp) if status_of(id, resp) == Status::Ok)
}

/// Start the router and reactor and run the workload's fixed warm-up:
/// it fills the response cache, the checker's summary cache, the lazy
/// engine tables and the parallel pool. Timed from `ShardRouter::start`.
pub fn setup(inputs: &Arc<Inputs>, hot: Option<&HotFrames>) -> io::Result<Setup> {
    let t = Instant::now();
    let mut router = ShardRouter::start(ShardRouterConfig::default());
    let addr = router.listen_reactor("127.0.0.1:0", ReactorConfig::default())?;
    let mut conn = Conn::connect(addr)?;
    let mut failures = 0u64;
    let mut warm = inputs.lane(LANE_WARMUP);
    match inputs.workload {
        Workload::HotRepeat => {
            let hot = hot.expect("hot-repeat frames are built before set-up");
            for i in 0..HOT_POOL {
                failures += u64::from(!send_ok(&mut conn, i as u64 + 1, &hot.req[i]));
            }
            for _ in 0..WARM_HOT {
                let i = warm.next_hot_index();
                let good = matches!(conn.roundtrip(&hot.req[i]), Ok(r) if r == hot.resp[i]);
                failures += u64::from(!good);
            }
        }
        Workload::EngineUnique | Workload::LintEdits => {
            let mut id = 1;
            if let Some(base) = gen::base_request(inputs) {
                failures += u64::from(!send_ok(
                    &mut conn,
                    id,
                    encode_request(id, &base).as_bytes(),
                ));
            }
            let n = if inputs.workload == Workload::LintEdits {
                WARM_EDITS
            } else {
                WARM_UNIQUE
            };
            for _ in 0..n {
                id += 1;
                let frame = encode_request(id, &warm.next_request());
                failures += u64::from(!send_ok(&mut conn, id, frame.as_bytes()));
            }
        }
    }
    Ok(Setup {
        server: Server { router, addr },
        seconds: t.elapsed().as_secs_f64(),
        warm_failures: failures,
    })
}

/// One connection's tallies over a timed window.
#[derive(Default)]
pub struct ClientOut {
    pub attempted: u64,
    pub ok: u64,
    pub errors: u64,
    pub overloaded: u64,
    pub transport: u64,
    pub wrong: u64,
    pub first_wrong: Option<String>,
    pub latencies_ns: Vec<u32>,
    pub req_bytes: u64,
    pub resp_bytes: u64,
    pub samples: Vec<Sample>,
    pub recorder: Option<Recorder>,
}

impl ClientOut {
    /// Requests that got no correct answer: errors, sheds, transport
    /// failures and wrong answers.
    pub fn failed(&self) -> u64 {
        self.errors + self.overloaded + self.transport + self.wrong
    }
}

/// What the load thread publishes while it runs, for the sampler.
struct Live {
    clock: OnceLock<host::CpuClock>,
    ok: AtomicU64,
    lat_n: AtomicUsize,
    allocs: AtomicU64,
}

/// One reading of every counter, taken by the sampler thread.
#[derive(Clone, Debug)]
struct Tick {
    t: f64,
    process_cpu: f64,
    total_allocs: u64,
    /// The sampler's own CPU and allocations, subtracted like the load
    /// thread's.
    sampler_cpu: f64,
    sampler_allocs: u64,
    /// The load thread's (ok, latency samples, allocations, CPU seconds).
    client: (u64, usize, u64, f64),
    /// Host-wide (steal, total) jiffies.
    jiffies: (u64, u64),
}

/// Sampling period; slices are whole numbers of seconds built from ticks.
const TICK: Duration = Duration::from_millis(250);

/// The whole window: the load thread's tallies plus the counter readings
/// taken every [`TICK`] while it ran.
pub struct WindowOut {
    pub client: ClientOut,
    pub window_s: f64,
    ticks: Vec<Tick>,
}

/// Metrics of one slice of the window.
pub struct Slice {
    pub rps: f64,
    pub cpu_us_per_req: f64,
    pub allocs_per_req: f64,
    /// Sorted latencies (ns) of requests completed in the slice.
    pub latencies_ns: Vec<u32>,
    /// Share of host CPU time the hypervisor stole during the slice.
    pub steal: f64,
}

impl WindowOut {
    /// Split the window into consecutive slices of at least `secs`
    /// seconds (a short tail is dropped) and measure each.
    pub fn slices(&self, secs: f64) -> Vec<Slice> {
        let mut out = Vec::new();
        let mut a = 0;
        for b in 1..self.ticks.len() {
            let (ta, tb) = (&self.ticks[a], &self.ticks[b]);
            if tb.t - ta.t < secs * 0.95 {
                continue;
            }
            let (ca, cb) = (ta.client, tb.client);
            let ok = cb.0 - ca.0;
            let own_cpu = (tb.sampler_cpu - ta.sampler_cpu) + (cb.3 - ca.3);
            let own_allocs = (tb.sampler_allocs - ta.sampler_allocs) + (cb.2 - ca.2);
            let mut lat = self.client.latencies_ns[ca.1..cb.1].to_vec();
            lat.sort_unstable();
            let per = ok.max(1) as f64;
            out.push(Slice {
                rps: ok as f64 / (tb.t - ta.t),
                cpu_us_per_req: (tb.process_cpu - ta.process_cpu - own_cpu).max(0.0) * 1e6 / per,
                allocs_per_req: (tb.total_allocs - ta.total_allocs).saturating_sub(own_allocs)
                    as f64
                    / per,
                latencies_ns: lat,
                steal: host::steal_share(ta.jiffies, tb.jiffies),
            });
            a = b;
        }
        out
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

const POLLIN: i16 = 1;

/// Wait until some of `fds` are readable (or `timeout` passes).
fn wait_readable(fds: &mut [PollFd], timeout: Duration) {
    for f in fds.iter_mut() {
        f.events = POLLIN;
        f.revents = 0;
    }
    let ms = i32::try_from(timeout.as_millis())
        .unwrap_or(i32::MAX)
        .max(1);
    // SAFETY: `fds` is a live, exclusively borrowed slice of `pollfd`
    // structs and its length is passed alongside.
    let _ = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
}

/// A request on the wire, waiting for its answer.
struct InFlight {
    id: u64,
    index: u64,
    sent: Instant,
    request: Option<gp_service::Request>,
    /// `hot-repeat` pool index, whose answer is known in advance.
    pool: Option<usize>,
    span: Option<u32>,
}

/// One closed-loop connection: it sends its next request only after the
/// previous answer arrived.
struct LoadConn {
    stream: Stream,
    lane: u64,
    sock: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    next_id: u64,
    sampled: [usize; 5],
    /// The next request: (id, lane index, request, pool index).
    prepared: Option<(u64, u64, Option<gp_service::Request>, Option<usize>)>,
    inflight: Option<InFlight>,
    dead: bool,
}

impl LoadConn {
    /// Build and encode the next request into `outbuf`. Done right after
    /// a send, while the server works, so building never delays a send.
    fn prepare(&mut self, hot: Option<&HotFrames>) {
        let index = self.stream.index();
        self.outbuf.clear();
        let (id, request, pool) = match hot {
            Some(h) => {
                let i = self.stream.next_hot_index();
                frame_into(&mut self.outbuf, &h.req[i]);
                (i as u64 + 1, None, Some(i))
            }
            None => {
                let id = self.next_id;
                self.next_id += 1;
                let r = self.stream.next_request();
                frame_into(&mut self.outbuf, encode_request(id, &r).as_bytes());
                (id, Some(r), None)
            }
        };
        self.prepared = Some((id, index, request, pool));
    }

    /// Send the prepared request.
    fn send(&mut self, out: &mut ClientOut) {
        let Some((id, index, request, pool)) = self.prepared.take() else {
            return;
        };
        let span = out
            .recorder
            .as_mut()
            .map(|rec| rec.open("client.request", None, (self.lane << 40) | index));
        out.attempted += 1;
        out.req_bytes += self.outbuf.len() as u64;
        let sent = Instant::now();
        if self.sock.write_all(&self.outbuf).is_err() {
            out.transport += 1;
            self.dead = true;
            return;
        }
        self.inflight = Some(InFlight {
            id,
            index,
            sent,
            request,
            pool,
            span,
        });
    }

    /// Read what the socket holds; returns a completed response's
    /// round-trip time once a whole frame is in.
    fn receive(
        &mut self,
        hot: Option<&HotFrames>,
        seed: u64,
        out: &mut ClientOut,
    ) -> Option<Duration> {
        let mut chunk = [0u8; 64 << 10];
        match self.sock.read(&mut chunk) {
            Ok(0) | Err(_) => {
                out.transport += 1;
                self.dead = true;
                return None;
            }
            Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
        }
        if self.inbuf.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes([self.inbuf[0], self.inbuf[1], self.inbuf[2], self.inbuf[3]])
            as usize;
        if self.inbuf.len() < 4 + len {
            return None;
        }
        let rtt = self
            .inflight
            .as_ref()
            .map_or(Duration::ZERO, |f| f.sent.elapsed());
        let f = self.inflight.take()?;
        if let (Some(rec), Some(s)) = (out.recorder.as_mut(), f.span) {
            rec.close(s);
        }
        let resp = &self.inbuf[4..4 + len];
        out.resp_bytes += 4 + len as u64;
        match status_of(f.id, resp) {
            Status::Ok => {
                out.ok += 1;
                if let Some(i) = f.pool {
                    let want = &hot.expect("pool requests come with their frames").resp[i];
                    if resp != want.as_slice() {
                        out.wrong += 1;
                        out.first_wrong.get_or_insert_with(|| {
                            format!("hot-repeat pool entry {i}: response differs from reference")
                        });
                    }
                } else if let Some(r) = f.request {
                    let k = kind_slot(&r);
                    let pick = Rng::at(seed ^ 0x5a5a, self.lane, f.index).below(SAMPLE_EVERY) == 0;
                    if pick && self.sampled[k] < SAMPLE_CAP {
                        self.sampled[k] += 1;
                        out.samples.push(Sample {
                            id: f.id,
                            request: r,
                            frame: String::from_utf8_lossy(resp).into_owned(),
                        });
                    }
                }
            }
            Status::Error => out.errors += 1,
            Status::Overloaded => out.overloaded += 1,
            Status::Malformed => {
                out.wrong += 1;
                out.first_wrong
                    .get_or_insert_with(|| format!("request {}: malformed response frame", f.id));
            }
        }
        if self.inbuf.len() > 4 + len {
            // A closed loop has one request in flight: extra bytes are a
            // protocol violation.
            out.wrong += 1;
            out.first_wrong
                .get_or_insert_with(|| "bytes beyond the awaited response".into());
        }
        self.inbuf.clear();
        Some(rtt)
    }
}

fn frame_into(buf: &mut Vec<u8>, frame: &[u8]) {
    let len = u32::try_from(frame.len()).expect("generated frames are far below 4 GiB");
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(frame);
}

/// The load thread: every connection's closed loop, multiplexed with
/// `poll`, so the load costs one thread however many connections run.
fn client(
    addr: SocketAddr,
    streams: Vec<Stream>,
    hot: Option<&HotFrames>,
    seconds: f64,
    traced: bool,
    start: &Barrier,
    live: &Live,
) -> (ClientOut, Vec<Stream>) {
    let mut out = ClientOut {
        // Non-zero fill: a zeroed buffer would stay unmapped until used.
        latencies_ns: vec![u32::MAX; LATENCY_CAP],
        recorder: traced.then(Recorder::new),
        ..ClientOut::default()
    };
    let seed = streams.first().map_or(0, Stream::seed);
    let mut conns: Vec<LoadConn> = Vec::new();
    for (lane, stream) in streams.into_iter().enumerate() {
        let sock = TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|_| s));
        match sock {
            Ok(sock) => conns.push(LoadConn {
                stream,
                lane: lane as u64,
                sock,
                inbuf: Vec::with_capacity(64 << 10),
                outbuf: Vec::with_capacity(32 << 10),
                next_id: 1,
                sampled: [0; 5],
                prepared: None,
                inflight: None,
                dead: false,
            }),
            Err(_) => {
                out.attempted += 1;
                out.transport += 1;
            }
        }
    }
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.sock.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let mut n_lat = 0usize;
    let _ = live.clock.set(host::CpuClock::this_thread());
    for c in &mut conns {
        c.prepare(hot);
    }
    start.wait();
    let alloc0 = alloc::thread();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for c in &mut conns {
        c.send(&mut out);
        c.prepare(hot);
    }
    // After the deadline no new request goes out; the loop ends once the
    // requests in flight are answered.
    while conns.iter().any(|c| c.inflight.is_some() && !c.dead) {
        let now = Instant::now();
        if now > deadline + DRAIN_LIMIT {
            for c in conns.iter_mut().filter(|c| c.inflight.is_some()) {
                out.transport += 1;
                c.dead = true;
            }
            break;
        }
        let wait = deadline
            .saturating_duration_since(now)
            .max(Duration::from_millis(50));
        wait_readable(&mut fds, wait);
        let mut sent = [false; CONNECTIONS];
        for ((c, f), sent) in conns.iter_mut().zip(&fds).zip(&mut sent) {
            if f.revents == 0 || c.dead {
                continue;
            }
            let Some(rtt) = c.receive(hot, seed, &mut out) else {
                continue;
            };
            if n_lat < LATENCY_CAP {
                out.latencies_ns[n_lat] = u32::try_from(rtt.as_nanos()).unwrap_or(u32::MAX);
                n_lat += 1;
            }
            if Instant::now() < deadline {
                c.send(&mut out);
                *sent = true;
            }
        }
        for (c, sent) in conns.iter_mut().zip(sent) {
            if sent {
                c.prepare(hot);
            }
        }
        // Published for the sampler; relaxed, since they are statistics.
        live.ok.store(out.ok, Ordering::Relaxed);
        live.lat_n.store(n_lat, Ordering::Relaxed);
        live.allocs
            .store(alloc::thread() - alloc0, Ordering::Relaxed);
    }
    out.latencies_ns.truncate(n_lat);
    (out, conns.into_iter().map(|c| c.stream).collect())
}

fn kind_slot(r: &gp_service::Request) -> usize {
    match r.kind() {
        "lint" => 0,
        "simplify" => 1,
        "optimize" => 2,
        "prove" => 3,
        _ => 4,
    }
}

fn tick(t0: Instant, live: &Live, sampler: host::CpuClock, sampler_alloc0: u64) -> Tick {
    Tick {
        t: t0.elapsed().as_secs_f64(),
        process_cpu: host::CpuClock::process().seconds(),
        total_allocs: alloc::total(),
        sampler_cpu: sampler.seconds(),
        sampler_allocs: alloc::thread() - sampler_alloc0,
        jiffies: host::cpu_jiffies(),
        client: (
            live.ok.load(Ordering::Relaxed),
            live.lat_n.load(Ordering::Relaxed),
            live.allocs.load(Ordering::Relaxed),
            live.clock.get().map_or(0.0, |c| c.seconds()),
        ),
    }
}

/// Run the closed loop for `seconds` on every connection at once.
/// Returns the window and the streams, positioned after what was sent.
pub fn window(
    server: &Server,
    streams: Vec<Stream>,
    hot: Option<&HotFrames>,
    seconds: f64,
    traced: bool,
) -> (WindowOut, Vec<Stream>) {
    let start = Barrier::new(2);
    let live = Live {
        clock: OnceLock::new(),
        ok: AtomicU64::new(0),
        lat_n: AtomicUsize::new(0),
        allocs: AtomicU64::new(0),
    };
    let sampler = host::CpuClock::this_thread();
    let sampler_alloc0 = alloc::thread();
    let mut ticks = Vec::with_capacity(1024);
    let (client, back) = std::thread::scope(|scope| {
        let (addr, start, live) = (server.addr, &start, &live);
        let handle = scope.spawn(move || client(addr, streams, hot, seconds, traced, start, live));
        start.wait();
        let t0 = Instant::now();
        ticks.push(tick(t0, live, sampler, sampler_alloc0));
        let mut next = t0 + TICK;
        while !handle.is_finished() {
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            next += TICK;
            ticks.push(tick(t0, live, sampler, sampler_alloc0));
        }
        let done = handle.join().expect("load thread panicked");
        ticks.push(tick(t0, live, sampler, sampler_alloc0));
        done
    });
    let window_s = ticks.last().map_or(0.0, |t| t.t);
    (
        WindowOut {
            client,
            window_s,
            ticks,
        },
        back,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_repeat_warm_up_reaches_99_percent_hits() {
        let inputs = Inputs::new(Workload::HotRepeat, 9);
        let hot = HotFrames::new(&inputs).expect("pool references");
        let setup = setup(&inputs, Some(&hot)).expect("server starts");
        assert_eq!(setup.warm_failures, 0);
        let router = &setup.server.router;
        let before = router.aggregate_stats().cache;
        let mut conn = Conn::connect(setup.server.addr).expect("connects");
        let mut lane = inputs.lane(0);
        for _ in 0..1000 {
            let i = lane.next_hot_index();
            let resp = conn.roundtrip(&hot.req[i]).expect("answered");
            assert_eq!(resp, hot.resp[i].as_slice(), "pool entry {i}");
        }
        let after = router.aggregate_stats().cache;
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        assert!(
            hits as f64 >= 0.99 * (hits + misses) as f64,
            "{hits} hits, {misses} misses after warm-up"
        );
    }

    #[test]
    fn status_is_read_from_the_frame_head() {
        assert_eq!(
            status_of(7, br#"{"id":7,"status":"ok","resp":{}}"#),
            Status::Ok
        );
        assert_eq!(
            status_of(7, br#"{"id":7,"status":"overloaded"}"#),
            Status::Overloaded
        );
        assert_eq!(
            status_of(7, br#"{"id":7,"status":"error","error":"x"}"#),
            Status::Error
        );
        assert_eq!(
            status_of(8, br#"{"id":7,"status":"ok","resp":{}}"#),
            Status::Malformed
        );
    }
}
