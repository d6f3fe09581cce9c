//! Length-prefixed framing over byte streams, and the TCP client.
//!
//! The frame codec itself lives in [`gp_core::frame`] — a frame is a
//! 4-byte big-endian length followed by that many bytes of UTF-8 JSON —
//! so that `gp-distsim`'s socket runner can share the exact
//! implementation the service uses without a dependency cycle. This
//! module re-exports it under the service's historical paths and adds
//! the request/response [`TcpClient`].
//!
//! Two consumers share the format: the blocking path reads whole frames
//! with [`read_frame`], and the reactor feeds whatever bytes the kernel
//! handed it into a [`FrameDecoder`], which buffers partial frames across
//! reads — a frame split inside the length prefix, a 1-byte-at-a-time
//! trickle, and several pipelined frames in one read all decode to the
//! same frame sequence (property-tested in `tests/frame_codec.rs`).

pub use gp_core::frame::{encode_frame, read_frame, write_frame, FrameDecoder, MAX_FRAME};

use crate::request::{decode_response, Request, Response};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A blocking request/response client over one TCP connection.
///
/// Correlation ids are assigned per connection. [`TcpClient::call`] is
/// synchronous (one frame out, one frame in); [`TcpClient::send`] /
/// [`TcpClient::recv`] split the two halves so a client can keep several
/// requests in flight on one connection — the pipelining the reactor
/// front end exists to serve. Responses come back in request order
/// (the server reorders out-of-order completions), so `recv` matches
/// sends first-in-first-out.
pub struct TcpClient {
    stream: TcpStream,
    next_id: u64,
    /// Ids sent but not yet received, oldest first.
    inflight: std::collections::VecDeque<u64>,
}

impl TcpClient {
    /// Connect to a listening service with no I/O timeouts (reads block
    /// until the server answers — the closed-loop load generator's mode).
    pub fn connect(addr: SocketAddr) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient {
            stream,
            next_id: 1,
            inflight: std::collections::VecDeque::new(),
        })
    }

    /// Connect with read/write timeouts: a server that stalls mid-frame
    /// (half-written length prefix, wedged worker) surfaces as a clean
    /// `timed out` error instead of hanging the client forever.
    pub fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> io::Result<TcpClient> {
        let client = TcpClient::connect(addr)?;
        client.set_timeouts(Some(timeout))?;
        Ok(client)
    }

    /// Set (or clear) both the read and write timeout.
    pub fn set_timeouts(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    fn io_error(stage: &str, e: io::Error) -> String {
        match e.kind() {
            // Platform-dependent spelling of a read/write timeout.
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                format!("{stage}: timed out waiting for the server")
            }
            _ => format!("{stage}: {e}"),
        }
    }

    /// Send one request without waiting; returns its correlation id.
    pub fn send(&mut self, req: &Request) -> Result<u64, String> {
        self.send_traced(req, None)
    }

    /// Send one request carrying an optional wire trace id. A `None`
    /// trace produces a byte-identical frame to [`send`](Self::send).
    pub fn send_traced(&mut self, req: &Request, trace: Option<u64>) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(
            &mut self.stream,
            &crate::request::encode_request_traced(id, req, trace),
        )
        .map_err(|e| Self::io_error("send", e))?;
        self.inflight.push_back(id);
        Ok(id)
    }

    /// Receive the next response in send order; errors if it does not
    /// correlate with the oldest in-flight request.
    pub fn recv(&mut self) -> Result<(u64, Response), String> {
        let expect = self
            .inflight
            .pop_front()
            .ok_or("recv: no request in flight")?;
        let frame = read_frame(&mut self.stream)
            .map_err(|e| Self::io_error("recv", e))?
            .ok_or("recv: connection closed")?;
        let (resp_id, resp) = decode_response(&frame)?;
        if resp_id != expect {
            return Err(format!(
                "response id {resp_id} does not match request id {expect}"
            ));
        }
        Ok((resp_id, resp))
    }

    /// Requests currently awaiting responses.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Send one request and block for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.send(req)?;
        Ok(self.recv()?.1)
    }

    /// [`call`](Self::call) with an optional wire trace id attached.
    pub fn call_traced(&mut self, req: &Request, trace: Option<u64>) -> Result<Response, String> {
        self.send_traced(req, trace)?;
        Ok(self.recv()?.1)
    }

    /// Send every request, then collect every response — `depth`-deep
    /// pipelining on one connection (one round trip of latency amortized
    /// over the whole slice instead of paid per request).
    pub fn call_pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>, String> {
        for req in reqs {
            self.send(req)?;
        }
        (0..reqs.len()).map(|_| Ok(self.recv()?.1)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;

    #[test]
    fn reexported_codec_round_trips() {
        // The codec's own unit tests live in gp_core::frame; this pins
        // the re-export so the historical `crate::wire` paths keep
        // resolving to the shared implementation.
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"id\":1}").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(
            read_frame(&mut cursor).unwrap().as_deref(),
            Some("{\"id\":1}")
        );
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some("{\"id\":1}"));
        assert!(dec.is_idle());
    }

    #[test]
    fn client_times_out_cleanly_on_a_half_written_length_prefix() {
        use crate::lint::LintRequest;
        use std::io::Write as _;
        use std::net::TcpListener;
        use std::time::Instant;

        // A stub server that writes half a length prefix and then stalls
        // forever — the nastiest spot to hang a client, because the
        // response is "in progress" but can never complete.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stub = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut drain = vec![0u8; 4096];
            use std::io::Read as _;
            let _ = conn.read(&mut drain); // swallow the request
            conn.write_all(&[0x00, 0x00]).unwrap(); // half a prefix
            conn // keep the socket open until the test ends
        });

        let mut client = TcpClient::connect_with_timeout(addr, Duration::from_millis(200)).unwrap();
        let req = Request::Lint(LintRequest::sample(0));
        let started = Instant::now();
        let err = client.call(&req).expect_err("must not hang");
        assert!(
            err.contains("timed out waiting for the server"),
            "clean timeout error, got: {err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timeout must fire promptly, took {:?}",
            started.elapsed()
        );
        drop(client);
        drop(stub.join().unwrap());
    }
}
