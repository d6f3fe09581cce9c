//! The blocking thread-per-connection TCP front end: the reference the
//! reactor front end (`Service::listen_reactor`) is checked against.
//!
//! One accept thread hands each connection a thread of its own, which
//! reads a frame, submits the request through the service's public
//! [`SubmitRequest`] sink, blocks on the [`Ticket`], and writes the
//! response before it reads the next frame. Responses on a connection
//! are therefore in request order by construction, which is what the
//! reactor's reorder buffer must match byte for byte
//! (`tests/reactor_oracle.rs`, E14). A connection beyond the cap gets
//! one retriable `Overloaded` frame and a close (`service.conn.shed`);
//! the `service.conn.open` gauge counts the connections being served. A
//! sampled request's trace is rooted at a `server` span on the
//! connection thread.

use gp_core::frame::{read_frame, write_frame};
use gp_service::{
    decode_request_traced, encode_response, Response, Service, ServiceConfig, ServiceStats,
    SubmitRequest, Ticket,
};
use gp_telemetry::SpanName;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Root span of a sampled request's trace on the blocking path.
static SERVER_SPAN: SpanName = SpanName::new("server");

/// A [`Service`] served over TCP by the blocking listener.
pub struct BlockingServer {
    service: Service,
    max_connections: usize,
    listener: Option<Listener>,
}

/// The running accept loop.
struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl BlockingServer {
    /// Start a service with `config`. [`BlockingServer::listen`] will
    /// serve at most `max_connections` connections at once.
    pub fn start(config: ServiceConfig, max_connections: usize) -> BlockingServer {
        BlockingServer {
            service: Service::start(config),
            max_connections,
            listener: None,
        }
    }

    /// Serve TCP on `addr` (use port 0 for an ephemeral port), one thread
    /// per connection; returns the bound address.
    pub fn listen(&mut self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let sink = self.service.submitter();
        let cap = self.max_connections;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let open = Arc::new(AtomicUsize::new(0));
        let thread = thread::spawn(move || {
            for stream in listener.incoming() {
                if stopped.load(Ordering::Acquire) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                if open.load(Ordering::Acquire) >= cap {
                    gp_telemetry::counter("service.conn.shed").incr();
                    let _ = write_frame(&mut stream, &encode_response(0, &Response::Overloaded));
                    continue;
                }
                open.fetch_add(1, Ordering::AcqRel);
                gp_telemetry::gauge("service.conn.open").add(1);
                let sink = Arc::clone(&sink);
                let open = Arc::clone(&open);
                // Not joined: the thread blocks reading until its peer
                // hangs up, which outlives any shutdown the server asks.
                thread::spawn(move || {
                    serve_connection(&*sink, stream);
                    open.fetch_sub(1, Ordering::AcqRel);
                    gp_telemetry::gauge("service.conn.open").sub(1);
                });
            }
        });
        self.listener = Some(Listener {
            addr: local,
            stop,
            thread,
        });
        Ok(local)
    }

    /// Stop accepting connections, then shut the service down (see
    /// [`Service::shutdown`]).
    pub fn shutdown(&mut self) -> ServiceStats {
        self.stop_listener();
        self.service.shutdown()
    }

    fn stop_listener(&mut self) {
        if let Some(listener) = self.listener.take() {
            listener.stop.store(true, Ordering::Release);
            // Unblock the accept loop so it observes the stop flag.
            let _ = TcpStream::connect(listener.addr);
            let _ = listener.thread.join();
        }
    }
}

impl Drop for BlockingServer {
    fn drop(&mut self) {
        self.stop_listener();
    }
}

/// One connection: frames in, frames out, until the peer hangs up. A
/// frame that is not a well-formed request gets an error response with
/// correlation id 0 (the decoder could not recover the client's id).
fn serve_connection(sink: &dyn SubmitRequest, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            _ => return,
        };
        let reply = match decode_request_traced(&frame) {
            Ok((id, request, wire_trace)) => {
                // Tracing is strictly opt-in: only a frame carrying a
                // `trace` field can be sampled, and an unsampled or
                // untraced request takes the identical path.
                let (handle, root) = gp_telemetry::trace::sample_root(wire_trace, &SERVER_SPAN);
                let response = Ticket::submit(sink, request, handle).wait();
                // Close the root span before writing the response so the
                // assembled trace is queryable the moment the client
                // reads its answer.
                drop(root);
                encode_response(id, &response)
            }
            Err(e) => encode_response(0, &Response::Error { message: e }),
        };
        if write_frame(&mut stream, &reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp_service::lint::LintRequest;
    use gp_service::{decode_response, Request, TcpClient};
    use std::time::Duration;

    fn lint(i: usize) -> Request {
        Request::Lint(LintRequest {
            name: format!("p{i}"),
            program: "container xs vector\niter it = begin xs\nderef it\n".into(),
        })
    }

    #[test]
    fn blocking_listener_sheds_connections_beyond_the_cap() {
        let mut svc = BlockingServer::start(ServiceConfig::default(), 2);
        let addr = svc.listen("127.0.0.1:0").unwrap();
        // Two connections get in and answer; hold them open.
        let mut a = TcpClient::connect(addr).unwrap();
        let mut b = TcpClient::connect(addr).unwrap();
        assert!(matches!(a.call(&lint(0)), Ok(Response::Ok { .. })));
        assert!(matches!(b.call(&lint(1)), Ok(Response::Ok { .. })));
        // The third is shed with one retriable Overloaded frame, then EOF.
        let mut raw = TcpStream::connect(addr).unwrap();
        let frame = read_frame(&mut raw).unwrap().expect("shed frame");
        let (id, resp) = decode_response(&frame).unwrap();
        assert_eq!(id, 0);
        assert_eq!(resp, Response::Overloaded);
        assert_eq!(read_frame(&mut raw).unwrap(), None, "then EOF");
        // Freeing a slot lets a retry in.
        drop(a);
        std::thread::sleep(Duration::from_millis(100));
        let mut retry = TcpClient::connect(addr).unwrap();
        match retry.call(&lint(2)) {
            Ok(Response::Ok { .. }) => {}
            other => panic!("retry after a slot freed should serve: {other:?}"),
        }
        drop(b);
        drop(retry);
        let stats = svc.shutdown();
        assert_eq!(stats.in_flight(), 0);
    }
}
