//! The readiness-polled reactor front end: one thread, one `epoll`
//! instance, thousands of connections.
//!
//! The blocking path in [`crate::server`] spends a thread per connection;
//! at "mostly idle, occasionally chatty" scale the bottleneck becomes
//! thread stacks and scheduler churn, not work. The reactor replaces it
//! with level-triggered readiness polling over raw `epoll_*` calls (the
//! [`sys`] FFI shim binds the handful of libc symbols std already links —
//! no external crate):
//!
//! - **Nonblocking accept** with an admission cap: past
//!   [`ReactorConfig::max_connections`] a new peer gets one retriable
//!   `Overloaded` frame and a close, mirroring queue-level shedding.
//! - **Incremental reads** through [`crate::wire::FrameDecoder`]: partial
//!   frames carry over between readiness events.
//! - **Request pipelining**: every decoded frame is submitted immediately
//!   with a per-connection sequence tag; workers complete out of order,
//!   the connection's reorder buffer emits responses in request order —
//!   so the wire bytes are identical to the blocking path's for the same
//!   request stream (the oracle property `gp-bench` proves).
//! - **Write backpressure**: responses buffer per connection; when the
//!   outbound buffer tops [`ReactorConfig::outbuf_cap`] the reactor drops
//!   *read* interest (a client that stops draining stops being served)
//!   and re-registers it once the buffer drains below the cap.
//! - **Cross-thread wakeup**: requests run on shard worker threads;
//!   completions land in a queue and a byte on a nonblocking self-pipe
//!   breaks `epoll_wait` so the reactor flushes them. A queued request
//!   makes one hand-off each way: reactor → shard worker → reactor.
//!
//! Telemetry: `service.conn.open` gauge, `service.conn.shed` counter,
//! `service.reactor.{wakeups,spurious}` counters, and a
//! `service.reactor.pipeline.depth` histogram recorded per submitted
//! request.

#[cfg(target_os = "linux")]
use crate::request::{decode_request_traced, encode_response, Response};
#[cfg(target_os = "linux")]
use crate::wire::{encode_frame, FrameDecoder};
#[cfg(target_os = "linux")]
use std::collections::BTreeMap;
use std::io;
#[cfg(target_os = "linux")]
use std::io::{Read, Write};
use std::net::SocketAddr;
#[cfg(target_os = "linux")]
use std::net::{TcpListener, TcpStream};
#[cfg(target_os = "linux")]
use std::os::fd::AsRawFd;
#[cfg(target_os = "linux")]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
#[cfg(target_os = "linux")]
use std::sync::Mutex;
#[cfg(target_os = "linux")]
use std::thread::JoinHandle;

/// Root span of a sampled request's trace on the reactor path.
#[cfg(target_os = "linux")]
static REACTOR_SPAN: gp_telemetry::SpanName = gp_telemetry::SpanName::new("reactor");

/// The request sink a reactor serves: [`crate::Service`] (one instance)
/// and [`crate::shard::ShardRouter`] (a consistent-hash fleet) both
/// implement it. Submission must not block: admission control answers
/// `Overloaded` through the callback instead of back-pressuring the
/// reactor thread.
pub trait SubmitRequest: Send + Sync + 'static {
    /// Submit one decoded request with an optional trace handle (the
    /// sampled context plus the caller's span to parent under); `reply`
    /// is invoked exactly once, on whatever thread completes the request.
    /// `canonical` is the request's [`canonical`] form when the caller
    /// already rendered it (a router does, to route), so the serving core
    /// keys its cache with that string instead of rendering its own.
    /// [`crate::Ticket::submit`] wraps this in a blocking ticket.
    ///
    /// [`canonical`]: crate::request::Request::canonical
    fn submit(
        &self,
        request: crate::request::Request,
        canonical: Option<String>,
        trace: Option<gp_telemetry::trace::TraceHandle>,
        reply: ReplyFn,
    );
}

/// The one-shot completion callback handed to [`SubmitRequest`].
pub type ReplyFn = Box<dyn FnOnce(Response) + Send + 'static>;

/// Raw-syscall shim. These symbols live in the libc that `std` already
/// links on Linux; declaring them here keeps the crate dependency-free.
#[cfg(target_os = "linux")]
pub(crate) mod sys {
    use std::os::fd::RawFd;

    // x86-64 epoll_event is packed (the kernel ABI predates alignment
    // sanity); other architectures use natural alignment.
    #[cfg(target_arch = "x86_64")]
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLL_CLOEXEC: i32 = 0x8_0000;

    pub const O_NONBLOCK: i32 = 0x800;
    pub const O_CLOEXEC: i32 = 0x8_0000;

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn pipe2(fds: *mut i32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
        pub fn getrlimit(resource: i32, rlim: *mut [u64; 2]) -> i32;
        pub fn setrlimit(resource: i32, rlim: *const [u64; 2]) -> i32;
        pub fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const i32,
            optlen: u32,
        ) -> i32;
    }

    pub const RLIMIT_NOFILE: i32 = 7;
    pub const SOL_SOCKET: i32 = 1;
    pub const SO_SNDBUF: i32 = 7;

    /// Pin a socket's kernel send buffer (disables autotuning for it).
    pub fn set_sndbuf(fd: RawFd, bytes: usize) -> std::io::Result<()> {
        let val = bytes.min(i32::MAX as usize) as i32;
        // SAFETY: `optval` points at a live `i32` of `optlen` bytes, only read.
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_SNDBUF,
                &val,
                std::mem::size_of::<i32>() as u32,
            )
        };
        if rc != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    /// The calling thread's errno, for the handful of raw calls here.
    pub fn errno() -> i32 {
        std::io::Error::last_os_error().raw_os_error().unwrap_or(0)
    }

    /// RAII epoll instance.
    pub struct Epoll {
        pub fd: RawFd,
    }

    impl Epoll {
        pub fn new() -> std::io::Result<Epoll> {
            // SAFETY: no pointers; the result is checked before use.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        pub fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> std::io::Result<()> {
            let mut ev = EpollEvent { events, data };
            // SAFETY: `ev` is a live `epoll_event` that the kernel only copies.
            let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> usize {
            loop {
                // SAFETY: the kernel writes at most `events.len()` entries.
                let rc = unsafe {
                    epoll_wait(
                        self.fd,
                        events.as_mut_ptr(),
                        events.len() as i32,
                        timeout_ms,
                    )
                };
                if rc >= 0 {
                    return rc as usize;
                }
                if errno() != 4 {
                    // Anything but EINTR is fatal to the loop; treat as
                    // no events and let the caller's stop flag decide.
                    return 0;
                }
            }
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: `self.fd` is owned by this value and closed once, here.
            unsafe { close(self.fd) };
        }
    }

    /// Nonblocking self-pipe: the cross-thread wakeup channel.
    pub struct WakePipe {
        pub rd: RawFd,
        pub wr: RawFd,
    }

    impl WakePipe {
        pub fn new() -> std::io::Result<WakePipe> {
            let mut fds = [0i32; 2];
            // SAFETY: `fds` is the live two-element array `pipe2` writes.
            let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(WakePipe {
                rd: fds[0],
                wr: fds[1],
            })
        }

        /// Make the reactor's next `epoll_wait` return. A full pipe means
        /// a wakeup is already pending — EAGAIN is success here.
        pub fn wake(&self) {
            let byte = 1u8;
            // SAFETY: writes one byte from a live local to the open pipe.
            unsafe { write(self.wr, &byte, 1) };
        }

        /// Drain every pending wakeup byte.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            // SAFETY: reads at most `buf.len()` bytes into a live local buffer.
            while unsafe { read(self.rd, buf.as_mut_ptr(), buf.len()) } > 0 {}
        }
    }

    impl Drop for WakePipe {
        fn drop(&mut self) {
            // SAFETY: both ends are owned by this value and closed once, here.
            unsafe {
                close(self.rd);
                close(self.wr);
            }
        }
    }
}

/// Raise the process's open-file soft limit toward its hard limit and
/// return the resulting soft limit. Connection sweeps (E14) need more
/// descriptors than the usual 1024 default; everything else ignores this.
#[cfg(target_os = "linux")]
pub fn raise_fd_limit() -> u64 {
    // SAFETY: `getrlimit` writes and `setrlimit` reads one live
    // `[u64; 2]`, the layout of `struct rlimit` on 64-bit Linux.
    unsafe {
        let mut lim = [0u64; 2];
        if sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) != 0 {
            return 1024;
        }
        if lim[0] < lim[1] {
            let want = [lim[1], lim[1]];
            let _ = sys::setrlimit(sys::RLIMIT_NOFILE, &want);
            if sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) != 0 {
                return 1024;
            }
        }
        lim[0]
    }
}

/// Non-Linux fallback: report a conservative limit; the reactor itself is
/// Linux-only and `Service::listen_reactor` returns `Unsupported` there.
#[cfg(not(target_os = "linux"))]
pub fn raise_fd_limit() -> u64 {
    1024
}

/// Tuning knobs for one [`Reactor`].
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Connections admitted concurrently; one beyond this is shed with a
    /// retriable `Overloaded` frame and closed.
    pub max_connections: usize,
    /// Outbound bytes buffered per connection before read interest is
    /// dropped (resumed once the peer drains below the cap).
    pub outbuf_cap: usize,
    /// Explicit `SO_SNDBUF` for accepted sockets. `None` leaves kernel
    /// autotuning on; a value pins the send buffer (and disables
    /// autotuning), making the userspace `outbuf_cap` the real bound on
    /// per-connection memory instead of `outbuf_cap + however much the
    /// kernel feels like buffering`.
    pub sndbuf: Option<usize>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_connections: 4096,
            outbuf_cap: 256 << 10,
            sndbuf: None,
        }
    }
}

#[cfg(target_os = "linux")]
pub use linux_impl::{Reactor, ReactorHandle};

#[cfg(target_os = "linux")]
mod linux_impl {
    use super::*;
    use gp_telemetry::{Counter, Gauge, Histogram};
    use std::sync::OnceLock;
    use sys::{Epoll, EpollEvent, WakePipe};

    /// The event loop's instruments, resolved once per process (wakeups
    /// and pipeline depth are bumped per event and per request).
    struct ReactorMetrics {
        wakeups: &'static Counter,
        spurious: &'static Counter,
        conn_shed: &'static Counter,
        conn_open: &'static Gauge,
        protocol_errors: &'static Counter,
        pipeline_depth: &'static Histogram,
        read_pauses: &'static Counter,
    }

    fn metrics() -> &'static ReactorMetrics {
        static METRICS: OnceLock<ReactorMetrics> = OnceLock::new();
        METRICS.get_or_init(|| ReactorMetrics {
            wakeups: gp_telemetry::counter("service.reactor.wakeups"),
            spurious: gp_telemetry::counter("service.reactor.spurious"),
            conn_shed: gp_telemetry::counter("service.conn.shed"),
            conn_open: gp_telemetry::gauge("service.conn.open"),
            protocol_errors: gp_telemetry::counter("service.reactor.protocol_errors"),
            pipeline_depth: gp_telemetry::histogram("service.reactor.pipeline.depth"),
            read_pauses: gp_telemetry::counter("service.reactor.read_pauses"),
        })
    }

    /// One completed request on its way back to a connection.
    struct Completion {
        token: u32,
        gen: u32,
        /// Per-connection sequence tag assigned at submit.
        seq: u64,
        /// Fully rendered response frame payload.
        frame: String,
    }

    /// Worker-to-reactor channel: completions plus the pipe that breaks
    /// `epoll_wait`.
    struct CompletionQueue {
        items: Mutex<Vec<Completion>>,
        pipe: WakePipe,
    }

    impl CompletionQueue {
        fn push(&self, c: Completion) {
            crate::lock(&self.items).push(c);
            self.pipe.wake();
        }

        fn drain(&self) -> Vec<Completion> {
            std::mem::take(&mut *crate::lock(&self.items))
        }
    }

    /// Per-connection state machine.
    struct Conn {
        stream: TcpStream,
        decoder: FrameDecoder,
        /// Outbound bytes not yet accepted by the kernel.
        outbuf: Vec<u8>,
        /// Prefix of `outbuf` already written (compacted lazily).
        out_pos: usize,
        /// Sequence tag for the next submitted request.
        next_seq: u64,
        /// Sequence tag the wire is waiting on (responses emit in request
        /// order; later completions park in `pending`).
        next_deliver: u64,
        /// Out-of-order completions keyed by sequence tag.
        pending: BTreeMap<u64, String>,
        /// Requests submitted but not yet appended to `outbuf`.
        in_flight: usize,
        /// Peer sent EOF; serve what's in flight, then close.
        read_closed: bool,
        /// Read interest currently registered with epoll.
        want_read: bool,
        /// Write interest currently registered with epoll.
        want_write: bool,
    }

    struct Slot {
        gen: u32,
        conn: Option<Conn>,
    }

    const LISTENER_TOKEN: u64 = u64::MAX;
    const WAKE_TOKEN: u64 = u64::MAX - 1;

    fn pack(token: u32, gen: u32) -> u64 {
        (u64::from(gen) << 32) | u64::from(token)
    }

    /// The event loop state, owned by the reactor thread.
    pub struct Reactor {
        epoll: Epoll,
        listener: TcpListener,
        slots: Vec<Slot>,
        free: Vec<u32>,
        open: usize,
        completions: Arc<CompletionQueue>,
        submit: Arc<dyn SubmitRequest>,
        config: ReactorConfig,
        stop: Arc<AtomicBool>,
    }

    /// Join handle for a running reactor; [`ReactorHandle::shutdown`]
    /// stops the loop and closes every connection.
    pub struct ReactorHandle {
        stop: Arc<AtomicBool>,
        completions: Arc<CompletionQueue>,
        thread: Option<JoinHandle<()>>,
        local_addr: SocketAddr,
    }

    impl ReactorHandle {
        /// The bound listen address.
        pub fn local_addr(&self) -> SocketAddr {
            self.local_addr
        }

        /// Stop the loop, close all connections, join the thread.
        pub fn shutdown(&mut self) {
            self.stop.store(true, Ordering::Release);
            self.completions.pipe.wake();
            if let Some(t) = self.thread.take() {
                let _ = t.join();
            }
        }
    }

    impl Drop for ReactorHandle {
        fn drop(&mut self) {
            self.shutdown();
        }
    }

    impl Reactor {
        /// Bind `addr` and run the loop on a dedicated thread.
        pub fn start(
            addr: &str,
            submit: Arc<dyn SubmitRequest>,
            config: ReactorConfig,
        ) -> io::Result<ReactorHandle> {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            let local_addr = listener.local_addr()?;
            let epoll = Epoll::new()?;
            let completions = Arc::new(CompletionQueue {
                items: Mutex::new(Vec::new()),
                pipe: WakePipe::new()?,
            });
            epoll.ctl(
                sys::EPOLL_CTL_ADD,
                listener.as_raw_fd(),
                sys::EPOLLIN,
                LISTENER_TOKEN,
            )?;
            epoll.ctl(
                sys::EPOLL_CTL_ADD,
                completions.pipe.rd,
                sys::EPOLLIN,
                WAKE_TOKEN,
            )?;
            let stop = Arc::new(AtomicBool::new(false));
            let mut reactor = Reactor {
                epoll,
                listener,
                slots: Vec::new(),
                free: Vec::new(),
                open: 0,
                completions: Arc::clone(&completions),
                submit,
                config,
                stop: Arc::clone(&stop),
            };
            let thread = std::thread::Builder::new()
                .name("gp-service-reactor".into())
                .spawn(move || reactor.run())?;
            Ok(ReactorHandle {
                stop,
                completions,
                thread: Some(thread),
                local_addr,
            })
        }

        fn run(&mut self) {
            let mut events = vec![EpollEvent { events: 0, data: 0 }; 256];
            while !self.stop.load(Ordering::Acquire) {
                let n = self.epoll.wait(&mut events, -1);
                metrics().wakeups.incr();
                let mut any_work = false;
                for ev in events.iter().take(n) {
                    let (data, bits) = (ev.data, ev.events);
                    match data {
                        LISTENER_TOKEN => {
                            any_work = true;
                            self.accept_ready();
                        }
                        WAKE_TOKEN => {
                            self.completions.pipe.drain();
                        }
                        packed => {
                            any_work = true;
                            let token = (packed & 0xffff_ffff) as u32;
                            let gen = (packed >> 32) as u32;
                            self.conn_ready(token, gen, bits);
                        }
                    }
                }
                // Apply completions last so responses finished while we
                // were reading flush in the same iteration.
                let completed = self.apply_completions();
                if !any_work && !completed {
                    metrics().spurious.incr();
                }
            }
            // Drop every connection (gauge kept honest) before exiting.
            for idx in 0..self.slots.len() {
                if self.slots[idx].conn.is_some() {
                    self.close(idx as u32);
                }
            }
        }

        fn accept_ready(&mut self) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.open >= self.config.max_connections {
                            self.shed_connection(stream);
                            continue;
                        }
                        if self.register(stream).is_err() {
                            continue;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return,
                }
            }
        }

        /// Over the admission cap: one retriable `Overloaded` frame, then
        /// close. The frame is written blockingly — it is 40 bytes into an
        /// empty socket buffer, so it cannot wedge the loop.
        fn shed_connection(&self, stream: TcpStream) {
            metrics().conn_shed.incr();
            let mut stream = stream;
            let _ = stream.set_nonblocking(false);
            let _ =
                crate::wire::write_frame(&mut stream, &encode_response(0, &Response::Overloaded));
        }

        fn register(&mut self, stream: TcpStream) -> io::Result<()> {
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            if let Some(bytes) = self.config.sndbuf {
                sys::set_sndbuf(stream.as_raw_fd(), bytes)?;
            }
            let fd = stream.as_raw_fd();
            let token = match self.free.pop() {
                Some(t) => t,
                None => {
                    self.slots.push(Slot { gen: 0, conn: None });
                    (self.slots.len() - 1) as u32
                }
            };
            let gen = self.slots[token as usize].gen;
            self.epoll.ctl(
                sys::EPOLL_CTL_ADD,
                fd,
                sys::EPOLLIN | sys::EPOLLRDHUP,
                pack(token, gen),
            )?;
            self.slots[token as usize].conn = Some(Conn {
                stream,
                decoder: FrameDecoder::new(),
                outbuf: Vec::new(),
                out_pos: 0,
                next_seq: 0,
                next_deliver: 0,
                pending: BTreeMap::new(),
                in_flight: 0,
                read_closed: false,
                want_read: true,
                want_write: false,
            });
            self.open += 1;
            metrics().conn_open.add(1);
            Ok(())
        }

        fn close(&mut self, token: u32) {
            let slot = &mut self.slots[token as usize];
            if let Some(conn) = slot.conn.take() {
                let _ = self
                    .epoll
                    .ctl(sys::EPOLL_CTL_DEL, conn.stream.as_raw_fd(), 0, 0);
                slot.gen = slot.gen.wrapping_add(1);
                self.free.push(token);
                self.open -= 1;
                metrics().conn_open.sub(1);
            }
        }

        fn conn_ready(&mut self, token: u32, gen: u32, bits: u32) {
            {
                let Some(slot) = self.slots.get(token as usize) else {
                    return;
                };
                if slot.gen != gen || slot.conn.is_none() {
                    return; // stale event for a recycled slot
                }
            }
            if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                self.close(token);
                return;
            }
            if bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 && !self.read_ready(token) {
                return; // connection closed during read handling
            }
            if bits & sys::EPOLLOUT != 0 {
                self.flush(token);
            }
        }

        /// Drain the socket, decode frames, submit requests. Returns false
        /// when the connection was closed.
        fn read_ready(&mut self, token: u32) -> bool {
            let mut buf = [0u8; 16 << 10];
            loop {
                let Some(conn) = self.slots[token as usize].conn.as_mut() else {
                    return false;
                };
                if !conn.want_read {
                    // Backpressured (or already EOF'd): leave the bytes in
                    // the kernel buffer; level-triggered epoll will
                    // re-report once interest returns.
                    return true;
                }
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.read_closed = true;
                        self.update_interest(token);
                        return self.maybe_finish(token);
                    }
                    Ok(n) => {
                        conn.decoder.feed(&buf[..n]);
                        if !self.decode_and_submit(token) {
                            return false;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return self.maybe_finish(token);
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(token);
                        return false;
                    }
                }
            }
        }

        /// Pop every complete frame from the decoder and submit it.
        /// Returns false when a protocol error closed the connection.
        fn decode_and_submit(&mut self, token: u32) -> bool {
            loop {
                let Some(conn) = self.slots[token as usize].conn.as_mut() else {
                    return false;
                };
                let frame = match conn.decoder.next_frame() {
                    Ok(Some(f)) => f,
                    Ok(None) => return true,
                    Err(_) => {
                        // Oversized or non-UTF-8: the stream is poisoned;
                        // match the blocking path and hang up.
                        metrics().protocol_errors.incr();
                        self.close(token);
                        return false;
                    }
                };
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.in_flight += 1;
                metrics().pipeline_depth.record(conn.in_flight as u64);
                let gen = self.slots[token as usize].gen;
                match decode_request_traced(&frame) {
                    Ok((id, request, wire_trace)) => {
                        // Tracing is strictly opt-in on the wire: only a
                        // frame carrying a `trace` field can be sampled,
                        // and the 1-in-N sampler gates even those. The
                        // root `reactor` span rides in the completion
                        // callback and closes — publishing the trace if
                        // it holds the last clone — before the response
                        // is handed to the event loop for writing.
                        let (handle, root) =
                            gp_telemetry::trace::sample_root(wire_trace, &REACTOR_SPAN);
                        let completions = Arc::clone(&self.completions);
                        self.submit.submit(
                            request,
                            None,
                            handle,
                            Box::new(move |resp| {
                                drop(root);
                                completions.push(Completion {
                                    token,
                                    gen,
                                    seq,
                                    frame: encode_response(id, &resp),
                                });
                            }),
                        );
                    }
                    Err(e) => {
                        // Malformed request in a well-formed frame: error
                        // response with id 0, connection stays up — same
                        // as the blocking path.
                        self.completions.push(Completion {
                            token,
                            gen,
                            seq,
                            frame: encode_response(0, &Response::Error { message: e }),
                        });
                    }
                }
            }
        }

        /// Move drained completions into their connections' reorder
        /// buffers and flush. Returns true if any completion was applied.
        fn apply_completions(&mut self) -> bool {
            let batch = self.completions.drain();
            if batch.is_empty() {
                return false;
            }
            let mut touched = Vec::new();
            for c in batch {
                let Some(slot) = self.slots.get_mut(c.token as usize) else {
                    continue;
                };
                if slot.gen != c.gen {
                    continue; // connection closed while the worker ran
                }
                let Some(conn) = slot.conn.as_mut() else {
                    continue;
                };
                conn.pending.insert(c.seq, c.frame);
                touched.push(c.token);
            }
            touched.sort_unstable();
            touched.dedup();
            for token in touched {
                let Some(conn) = self.slots[token as usize].conn.as_mut() else {
                    continue;
                };
                // Emit in request order: only the contiguous prefix.
                while let Some(frame) = conn.pending.remove(&conn.next_deliver) {
                    conn.next_deliver += 1;
                    conn.in_flight -= 1;
                    encode_frame(&mut conn.outbuf, &frame);
                }
                self.flush(token);
            }
            true
        }

        /// Write as much outbound data as the kernel accepts; update
        /// interest and possibly close a drained, EOF'd connection.
        fn flush(&mut self, token: u32) {
            let mut broken = false;
            {
                let conn = match self.slots[token as usize].conn.as_mut() {
                    Some(c) => c,
                    None => return,
                };
                while conn.out_pos < conn.outbuf.len() {
                    match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
                        Ok(0) => {
                            broken = true;
                            break;
                        }
                        Ok(n) => conn.out_pos += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            broken = true;
                            break;
                        }
                    }
                }
                if conn.out_pos == conn.outbuf.len() {
                    conn.outbuf.clear();
                    conn.out_pos = 0;
                } else if conn.out_pos > (64 << 10) {
                    conn.outbuf.drain(..conn.out_pos);
                    conn.out_pos = 0;
                }
            }
            if broken {
                self.close(token);
                return;
            }
            self.update_interest(token);
            self.maybe_finish(token);
        }

        /// Recompute and (if changed) re-register epoll interest:
        /// read while the peer is open and the outbuf is under the cap,
        /// write while the outbuf is nonempty.
        fn update_interest(&mut self, token: u32) {
            let gen = self.slots[token as usize].gen;
            let conn = match self.slots[token as usize].conn.as_mut() {
                Some(c) => c,
                None => return,
            };
            let backlog = conn.outbuf.len() - conn.out_pos;
            let want_read = !conn.read_closed && backlog <= self.config.outbuf_cap;
            let want_write = backlog > 0;
            if want_read == conn.want_read && want_write == conn.want_write {
                return;
            }
            if !want_read && conn.want_read {
                metrics().read_pauses.incr();
            }
            conn.want_read = want_read;
            conn.want_write = want_write;
            let mut bits = sys::EPOLLRDHUP;
            if want_read {
                bits |= sys::EPOLLIN;
            }
            if want_write {
                bits |= sys::EPOLLOUT;
            }
            let fd = conn.stream.as_raw_fd();
            let _ = self
                .epoll
                .ctl(sys::EPOLL_CTL_MOD, fd, bits, pack(token, gen));
        }

        /// Close once the peer has EOF'd and every admitted request has
        /// been answered and written. Returns false if closed.
        fn maybe_finish(&mut self, token: u32) -> bool {
            let conn = match self.slots[token as usize].conn.as_ref() {
                Some(c) => c,
                None => return false,
            };
            if conn.read_closed
                && conn.in_flight == 0
                && conn.pending.is_empty()
                && conn.out_pos == conn.outbuf.len()
            {
                self.close(token);
                return false;
            }
            true
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::lint::LintRequest;
    use crate::request::{decode_response, encode_request, Request, RequestKind, Response};
    use crate::server::{Service, ServiceConfig};
    use crate::simplify::{EnvSpec, SimplifyRequest};
    use crate::wire::{read_frame, write_frame, TcpClient};
    use gp_core::json::Json;
    use gp_rewrite::{BinOp, Expr, Type};
    use std::net::TcpStream;
    use std::time::Duration;

    fn lint_req(i: usize) -> Request {
        Request::Lint(LintRequest::sample(i))
    }

    fn simplify_req(i: usize) -> Request {
        Request::Simplify(SimplifyRequest::sample(i))
    }

    #[test]
    fn reactor_round_trips_requests_and_matches_blocking_bytes() {
        let mut blocking = Service::start(ServiceConfig::default());
        let baddr = blocking.listen("127.0.0.1:0").unwrap();
        let mut reactor = Service::start(ServiceConfig::default());
        let raddr = reactor
            .listen_reactor("127.0.0.1:0", ReactorConfig::default())
            .unwrap();

        let reqs: Vec<Request> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    lint_req(i)
                } else {
                    simplify_req(i)
                }
            })
            .collect();
        let mut bc = TcpClient::connect(baddr).unwrap();
        let mut rc = TcpClient::connect(raddr).unwrap();
        for req in &reqs {
            let b = bc.call(req).unwrap();
            let r = rc.call(req).unwrap();
            assert_eq!(b, r, "reactor answers byte-identically to blocking");
            assert!(matches!(b, Response::Ok { .. }));
        }
        assert_eq!(reactor.shutdown().in_flight(), 0);
        assert_eq!(blocking.shutdown().in_flight(), 0);
    }

    #[test]
    fn pipelined_requests_come_back_in_request_order() {
        let mut svc = Service::start(ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        });
        let addr = svc
            .listen_reactor("127.0.0.1:0", ReactorConfig::default())
            .unwrap();
        let mut client = TcpClient::connect(addr).unwrap();
        // 16 requests in flight on one connection; workers complete them
        // out of order, the reactor's reorder buffer restores order.
        let reqs: Vec<Request> = (0..16).map(simplify_req).collect();
        let responses = client.call_pipelined(&reqs).unwrap();
        assert_eq!(responses.len(), 16);
        for (req, resp) in reqs.iter().zip(&responses) {
            let solo = req.handle().unwrap().render();
            match resp {
                Response::Ok { payload } => assert_eq!(payload, &solo),
                other => panic!("{other:?}"),
            }
        }
        let stats = svc.shutdown();
        assert_eq!(stats.in_flight(), 0);
        assert_eq!(stats.accepted, stats.completed + stats.shed);
    }

    #[test]
    fn connection_cap_sheds_with_a_retriable_frame() {
        let mut svc = Service::start(ServiceConfig::default());
        let addr = svc
            .listen_reactor(
                "127.0.0.1:0",
                ReactorConfig {
                    max_connections: 2,
                    ..ReactorConfig::default()
                },
            )
            .unwrap();
        let mut keep: Vec<TcpClient> = Vec::new();
        let mut shed = 0;
        for i in 0..6 {
            let mut c = TcpClient::connect(addr).unwrap();
            // Prove the connection is live (or learn it was shed).
            match c.call(&lint_req(i)) {
                Ok(Response::Ok { .. }) => keep.push(c),
                Ok(_) | Err(_) => shed += 1,
            }
            if keep.len() > 2 {
                panic!("cap of 2 exceeded");
            }
        }
        assert_eq!(keep.len(), 2, "exactly the cap stays connected");
        assert!(shed >= 4);
        // A shed peer reads one Overloaded frame, then clean EOF.
        let mut raw = TcpStream::connect(addr).unwrap();
        let frame = read_frame(&mut raw).unwrap().unwrap();
        let (_, resp) = decode_response(&frame).unwrap();
        assert_eq!(resp, Response::Overloaded);
        assert_eq!(read_frame(&mut raw).unwrap(), None, "then EOF");
        drop(keep);
        svc.shutdown();
    }

    #[test]
    fn half_close_still_drains_all_pipelined_responses() {
        let mut svc = Service::start(ServiceConfig::default());
        let addr = svc
            .listen_reactor("127.0.0.1:0", ReactorConfig::default())
            .unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        let n = 8;
        for i in 0..n {
            write_frame(&mut stream, &encode_request(i as u64 + 1, &lint_req(i))).unwrap();
        }
        // Shut down our write half: the server must still answer all 8.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        for i in 0..n {
            let frame = read_frame(&mut stream).unwrap().expect("response frame");
            let (id, resp) = decode_response(&frame).unwrap();
            assert_eq!(id, i as u64 + 1, "in request order");
            assert!(matches!(resp, Response::Ok { .. }));
        }
        assert_eq!(read_frame(&mut stream).unwrap(), None, "server closed");
        assert_eq!(svc.shutdown().in_flight(), 0);
    }

    #[test]
    fn malformed_request_in_valid_frame_gets_error_id_zero() {
        let mut svc = Service::start(ServiceConfig::default());
        let addr = svc
            .listen_reactor("127.0.0.1:0", ReactorConfig::default())
            .unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, "this is not a request").unwrap();
        let reply = read_frame(&mut raw).unwrap().unwrap();
        let j = Json::parse(&reply).unwrap();
        assert_eq!(j.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(j.get("id").and_then(Json::as_f64), Some(0.0));
        // The connection survives: a valid request still answers.
        write_frame(&mut raw, &encode_request(9, &lint_req(0))).unwrap();
        let (id, resp) = decode_response(&read_frame(&mut raw).unwrap().unwrap()).unwrap();
        assert_eq!(id, 9);
        assert!(matches!(resp, Response::Ok { .. }));
        drop(raw);
        svc.shutdown();
    }

    #[test]
    fn backpressure_pauses_reads_and_resumes_when_drained() {
        // A tiny outbuf cap plus a client that floods requests without
        // reading: the reactor must keep memory bounded (pause reads once
        // the backlog exceeds the cap) yet deliver everything, in order,
        // once the client drains. Responses must be big enough in
        // aggregate to defeat kernel socket buffering, so each request
        // simplifies a wide sum that renders to ~20 KiB.
        let mut svc = Service::start(ServiceConfig {
            workers: 2,
            queue_depth: 512,
            ..ServiceConfig::default()
        });
        let addr = svc
            .listen_reactor(
                "127.0.0.1:0",
                ReactorConfig {
                    outbuf_cap: 1024,
                    // Pin the server-side send buffer: without this,
                    // loopback autotuning absorbs megabytes and the
                    // backlog never reaches userspace.
                    sndbuf: Some(4096),
                    ..ReactorConfig::default()
                },
            )
            .unwrap();
        let big = {
            let mut e = Expr::var("really_long_variable_name_number_0", Type::Int);
            for j in 1..160 {
                e = Expr::bin(
                    BinOp::Add,
                    e,
                    Expr::var(format!("really_long_variable_name_number_{j}"), Type::Int),
                );
            }
            Request::Simplify(SimplifyRequest {
                expr: e,
                env: EnvSpec::Standard,
            })
        };
        let before = gp_telemetry::snapshot();
        let stream = TcpStream::connect(addr).unwrap();
        // Clamp the client's receive buffer too, so the advertised
        // window stays tiny and the jam forms quickly.
        {
            use std::os::fd::AsRawFd;
            const SO_RCVBUF: i32 = 8;
            let bytes: i32 = 4096;
            // SAFETY: `optval` points at a live `i32` of `optlen` bytes, only read.
            let rc = unsafe {
                sys::setsockopt(
                    stream.as_raw_fd(),
                    sys::SOL_SOCKET,
                    SO_RCVBUF,
                    &bytes,
                    std::mem::size_of::<i32>() as u32,
                )
            };
            assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
        }
        let n = 24u64;
        let writer = {
            // The writer blocks once the reactor pauses reads — that is
            // the point — so it must not share the reading thread.
            let mut tx = stream.try_clone().unwrap();
            let req = big.clone();
            std::thread::spawn(move || {
                for i in 0..n {
                    write_frame(&mut tx, &encode_request(i + 1, &req)).unwrap();
                }
            })
        };
        // Let completions pile up against the unread socket first.
        std::thread::sleep(Duration::from_millis(300));
        let mut stream = stream;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        for i in 0..n {
            let frame = read_frame(&mut stream).unwrap().expect("response");
            let (id, resp) = decode_response(&frame).unwrap();
            assert_eq!(id, i + 1, "in-order despite pauses");
            assert!(matches!(resp, Response::Ok { .. }));
        }
        writer.join().unwrap();
        let delta = gp_telemetry::snapshot().delta(&before);
        assert!(
            delta.counter("service.reactor.read_pauses") > 0,
            "a non-draining client must trip read backpressure"
        );
        drop(stream);
        let stats = svc.shutdown();
        assert_eq!(stats.in_flight(), 0);
    }
}

/// Non-Linux stub: the reactor needs epoll; other platforms keep the
/// blocking path.
#[cfg(not(target_os = "linux"))]
pub use fallback_impl::{Reactor, ReactorHandle};

#[cfg(not(target_os = "linux"))]
mod fallback_impl {
    use super::*;

    /// Unsupported-platform stub.
    pub struct Reactor;

    /// Unsupported-platform stub handle.
    pub struct ReactorHandle {
        addr: SocketAddr,
    }

    impl ReactorHandle {
        pub fn local_addr(&self) -> SocketAddr {
            self.addr
        }

        pub fn shutdown(&mut self) {}
    }

    impl Reactor {
        pub fn start(
            _addr: &str,
            _submit: Arc<dyn SubmitRequest>,
            _config: ReactorConfig,
        ) -> io::Result<ReactorHandle> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the reactor front end requires Linux epoll; use Service::listen",
            ))
        }
    }
}
