//! Regression tests for deeply nested frames.
//!
//! The JSON parser recurses once per nesting level. Before it bounded
//! the depth, a 20 KB frame of 10,000 `[` overflowed a 2 MiB thread
//! stack, which aborts the whole process (`catch_unwind` cannot catch a
//! stack overflow). Past `gp_core::json::MAX_DEPTH` a frame is now a
//! structured decode error, and a frame right at the limit is served.

use gp_core::json::MAX_DEPTH;
use gp_rewrite::{Expr, Type, UnOp};
use gp_service::simplify::{EnvSpec, SimplifyRequest};
use gp_service::{decode_request, encode_request, Request};

/// `{"id":1,"kind":"simplify","req":[[[…]]]}` with `n` nested arrays.
fn deep_frame(n: usize) -> String {
    let (open, close) = ("[".repeat(n), "]".repeat(n));
    format!(r#"{{"id":1,"kind":"simplify","req":{open}{close}}}"#)
}

/// `x` under `k` negations. The frame nests `2k + 4` levels: envelope
/// and `req` objects, an object + array per negation, and the variable's.
fn negations(id: u64, k: usize) -> String {
    let mut expr = Expr::var("x", Type::Int);
    for _ in 0..k {
        expr = Expr::un(UnOp::Neg, expr);
    }
    let env = EnvSpec::Standard;
    encode_request(id, &Request::Simplify(SimplifyRequest { expr, env }))
}

/// The deepest simplify frame the parser accepts.
fn max_depth_frame(id: u64) -> String {
    negations(id, (MAX_DEPTH - 4) / 2)
}

/// Run `f` on a thread with a 2 MiB stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    let t = std::thread::Builder::new().stack_size(2 << 20).spawn(f);
    t.expect("spawn").join().expect("no panic, no abort");
}

#[test]
fn deep_frames_are_structured_decode_errors() {
    on_small_stack(|| {
        for n in [10_000, 100_000] {
            let err = decode_request(&deep_frame(n)).expect_err("too deep");
            assert!(err.contains("nesting deeper than"), "{err}");
        }
    });
}

#[test]
fn max_depth_simplify_frame_gets_an_answer() {
    on_small_stack(|| {
        let (id, req) = decode_request(&max_depth_frame(7)).expect("MAX_DEPTH decodes");
        assert_eq!(id, 7);
        let payload = req.handle().expect("simplifies").render();
        // An even number of negations cancels.
        assert!(payload.contains(r#""display":"x""#), "{payload}");
        let deeper = negations(8, (MAX_DEPTH - 4) / 2 + 1);
        assert!(decode_request(&deeper).is_err(), "MAX_DEPTH + 2 refused");
    });
}

#[cfg(target_os = "linux")]
#[test]
fn live_reactor_answers_deep_frames_with_errors_and_keeps_serving() {
    use gp_core::frame::{read_frame, write_frame};
    use gp_service::{decode_response, ReactorConfig, Response, Service, ServiceConfig};

    let mut svc = Service::start(ServiceConfig::default());
    let addr = svc.listen_reactor("127.0.0.1:0", ReactorConfig::default());
    let mut conn = std::net::TcpStream::connect(addr.expect("listen")).expect("connect");
    let mut roundtrip = |frame: &str| {
        write_frame(&mut conn, frame).expect("write");
        let resp = read_frame(&mut conn).expect("read").expect("a response");
        decode_response(&resp).expect("well-formed response")
    };
    for n in [10_000, 100_000] {
        let (id, resp) = roundtrip(&deep_frame(n));
        assert_eq!(id, 0, "undecodable frames answer with id 0");
        assert!(
            matches!(&resp, Response::Error { message } if message.contains("nesting deeper than")),
            "{resp:?}"
        );
    }
    // The same connection keeps serving, including a frame at the limit.
    let (id, resp) = roundtrip(&max_depth_frame(9));
    assert_eq!(id, 9);
    assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    svc.shutdown();
}
