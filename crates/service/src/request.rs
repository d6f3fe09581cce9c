//! Request/response envelopes and the canonical form that keys the
//! response cache.
//!
//! A request frame is `{"id": N, "kind": "...", "req": {...}}`; a
//! response frame is `{"id": N, "status": "ok", "resp": {...}}`,
//! `{"id": N, "status": "error", "error": "..."}`, or
//! `{"id": N, "status": "overloaded"}`. The `id` is a client-chosen
//! correlation number echoed verbatim; it is *excluded* from the
//! canonical form, so two clients asking the same question share a cache
//! entry.
//!
//! Every `to_json` emits fields in a fixed order and every decoder
//! re-canonicalizes on entry, so `canonical()` is a stable cache key for
//! semantically equal requests however the client ordered its fields.

use crate::{introspect, lint, optimize, prove, select, simplify};
use gp_core::json::{write_escaped, Json};

/// One query against the library stack.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Lint a program (`gp-checker`).
    Lint(lint::LintRequest),
    /// Simplify an expression under a concept environment (`gp-rewrite`,
    /// directed engine — the fast path).
    Simplify(simplify::SimplifyRequest),
    /// Superoptimize an expression by equality saturation and cost-based
    /// extraction (`gp-rewrite` e-graph mode).
    Optimize(optimize::OptimizeRequest),
    /// Check an instantiated theory (`gp-proofs`).
    Prove(prove::ProveRequest),
    /// Select a distributed algorithm (`gp-taxonomy`).
    Select(select::SelectRequest),
    /// Export the telemetry registry with derived percentiles
    /// (introspection; answered at admission, never queued or cached).
    Stats(introspect::StatsRequest),
    /// Fetch an assembled trace tree by id (introspection; answered at
    /// admission from the shard trace stores).
    Trace(introspect::TraceQuery),
}

/// The server's answer to one request.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Success; `payload` is the rendered JSON payload, bit-stable so
    /// cached and fresh responses are byte-identical.
    Ok {
        /// Rendered payload JSON.
        payload: String,
    },
    /// The handler rejected the request (bad program, unknown theory …).
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Admission control shed the request; retry later. The server did
    /// *not* do the work.
    Overloaded,
}

impl Request {
    /// The wire name of this request's kind (also its telemetry label).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Lint(_) => "lint",
            Request::Simplify(_) => "simplify",
            Request::Optimize(_) => "optimize",
            Request::Prove(_) => "prove",
            Request::Select(_) => "select",
            Request::Stats(_) => "stats",
            Request::Trace(_) => "trace",
        }
    }

    /// The `req` object in canonical field order.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Lint(r) => r.to_json(),
            Request::Simplify(r) => r.to_json(),
            Request::Optimize(r) => r.to_json(),
            Request::Prove(r) => r.to_json(),
            Request::Select(r) => r.to_json(),
            Request::Stats(r) => r.to_json(),
            Request::Trace(r) => r.to_json(),
        }
    }

    /// Decode from `kind` + `req` object.
    pub fn from_kind_json(kind: &str, req: &Json) -> Result<Request, String> {
        Ok(match kind {
            "lint" => Request::Lint(lint::LintRequest::from_json(req)?),
            "simplify" => Request::Simplify(simplify::SimplifyRequest::from_json(req)?),
            "optimize" => Request::Optimize(optimize::OptimizeRequest::from_json(req)?),
            "prove" => Request::Prove(prove::ProveRequest::from_json(req)?),
            "select" => Request::Select(select::SelectRequest::from_json(req)?),
            "stats" => Request::Stats(introspect::StatsRequest::from_json(req)?),
            "trace" => Request::Trace(introspect::TraceQuery::from_json(req)?),
            other => return Err(format!("unknown request kind {other:?}")),
        })
    }

    /// Canonical form: kind + canonical payload rendering. Equal for
    /// semantically equal requests; the cache key is its hash (with the
    /// full string kept for collision checks).
    pub fn canonical(&self) -> String {
        let body = self.to_json();
        let mut out = String::with_capacity(self.kind().len() + 1 + body.size_hint());
        out.push_str(self.kind());
        out.push(':');
        body.write(&mut out);
        out
    }

    /// Dispatch to the backing handler (a batch of one for `Simplify`;
    /// the serving core batches when it can).
    pub fn handle(&self) -> Result<Json, String> {
        match self {
            Request::Lint(r) => lint::handle(r),
            Request::Simplify(r) => simplify::handle(r),
            Request::Optimize(r) => optimize::handle(r),
            Request::Prove(r) => prove::handle(r),
            Request::Select(r) => select::handle(r),
            Request::Stats(r) => Ok(Json::Raw(introspect::stats_payload(&r.prefix))),
            // Trace lookups need a serving shard's store; the serving
            // core answers them at admission, so reaching this handler
            // means the request was dispatched outside a service.
            Request::Trace(_) => Err("trace lookup requires a running service".into()),
        }
    }
}

/// Encode a request frame.
pub fn encode_request(id: u64, req: &Request) -> String {
    encode_request_traced(id, req, None)
}

/// Encode a request frame, optionally carrying a trace context: the
/// envelope grows an extra `"trace": N` field naming the client-chosen
/// trace id. Decoders that predate tracing ignore unknown envelope
/// fields, and the field is excluded from the canonical form (which is
/// built from `kind` + `req` only), so a traced request shares cache
/// entries — and response bytes — with its untraced twin.
pub fn encode_request_traced(id: u64, req: &Request, trace: Option<u64>) -> String {
    let j = Json::obj()
        .field("id", id)
        .field("kind", req.kind())
        .field("req", req.to_json());
    match trace {
        Some(t) => j.field("trace", t),
        None => j,
    }
    .render()
}

/// Decode a request frame into `(id, request)`, dropping any trace field.
pub fn decode_request(frame: &str) -> Result<(u64, Request), String> {
    decode_request_traced(frame).map(|(id, req, _)| (id, req))
}

/// Decode a request frame into `(id, request, trace)`, where `trace` is
/// the optional wire trace id. Tracing is strictly opt-in: a frame
/// without the field yields `None` and is processed identically to one
/// decoded before tracing existed.
pub fn decode_request_traced(frame: &str) -> Result<(u64, Request, Option<u64>), String> {
    let j = Json::parse(frame).map_err(|e| format!("bad frame: {e}"))?;
    let id = wire_u64(j.get("id")).unwrap_or(0);
    let kind = j
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("bad frame: missing string field 'kind'")?;
    let req = j.get("req").ok_or("bad frame: missing field 'req'")?;
    let trace = wire_u64(j.get("trace"));
    Ok((id, Request::from_kind_json(kind, req)?, trace))
}

/// An envelope's `id` or `trace` number (or a `trace` query's id). Integers are exact across the
/// whole `u64` range. Any other number converts as Rust's `as` cast does
/// (fraction dropped, negative to 0, saturating), and a field that is
/// missing or not a number reads as `None`: decoders map a missing `id`
/// to 0 and a missing `trace` to untraced.
pub(crate) fn wire_u64(v: Option<&Json>) -> Option<u64> {
    match v? {
        Json::Int(n) => Some(*n),
        Json::Num(x) => Some(*x as u64),
        _ => None,
    }
}

/// Encode a response frame: `{"id":N,"status":...}` written around the
/// borrowed payload or message, the same bytes an envelope `Json` would
/// render to.
pub fn encode_response(id: u64, resp: &Response) -> String {
    let body_len = match resp {
        Response::Ok { payload } => payload.len(),
        Response::Error { message } => message.len() + 2,
        Response::Overloaded => 0,
    };
    let mut out = String::with_capacity(body_len + 56);
    out.push_str("{\"id\":");
    Json::from(id).write(&mut out);
    match resp {
        // The payload is already rendered JSON; splice it verbatim so the
        // bytes a cache hit returns are identical to the fresh ones.
        Response::Ok { payload } => {
            out.push_str(",\"status\":\"ok\",\"resp\":");
            out.push_str(payload);
        }
        Response::Error { message } => {
            out.push_str(",\"status\":\"error\",\"error\":");
            write_escaped(&mut out, message);
        }
        Response::Overloaded => out.push_str(",\"status\":\"overloaded\""),
    }
    out.push('}');
    out
}

/// Decode a response frame into `(id, response)`. The payload is
/// re-rendered from the parse — safe because rendering is canonical
/// (`parse(r).render() == r`, proptested in `gp-bench`).
pub fn decode_response(frame: &str) -> Result<(u64, Response), String> {
    let j = Json::parse(frame).map_err(|e| format!("bad frame: {e}"))?;
    let id = wire_u64(j.get("id")).unwrap_or(0);
    let status = j
        .get("status")
        .and_then(Json::as_str)
        .ok_or("bad frame: missing string field 'status'")?;
    Ok((
        id,
        match status {
            "ok" => Response::Ok {
                payload: j
                    .get("resp")
                    .ok_or("bad frame: ok without 'resp'")?
                    .render(),
            },
            "error" => Response::Error {
                message: j
                    .get("error")
                    .and_then(Json::as_str)
                    .ok_or("bad frame: error without 'error'")?
                    .to_string(),
            },
            "overloaded" => Response::Overloaded,
            other => return Err(format!("unknown status {other:?}")),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplify::EnvSpec;
    use gp_rewrite::{BinOp, Expr, Type};

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Lint(lint::LintRequest {
                name: "p".into(),
                program: "container xs vector\n".into(),
            }),
            Request::Simplify(simplify::SimplifyRequest {
                expr: Expr::bin(BinOp::Add, Expr::var("x", Type::Int), Expr::int(0)),
                env: EnvSpec::Standard,
            }),
            Request::Optimize(optimize::OptimizeRequest {
                expr: Expr::bin(BinOp::Add, Expr::var("x", Type::Int), Expr::int(0)),
                env: EnvSpec::Standard,
                cost: optimize::CostSpec::Annotation,
                max_nodes: Some(4096),
                max_iters: Some(8),
            }),
            Request::Prove(prove::ProveRequest {
                theory: "monoid".into(),
                instance: "i".into(),
                model: vec![("op".into(), "add".into())],
            }),
            Request::Select(
                select::SelectRequest::from_json(
                    &Json::parse(
                        r#"{"problem":"broadcast","topology":"tree","timing":"asynchronous"}"#,
                    )
                    .unwrap(),
                )
                .unwrap(),
            ),
            Request::Stats(introspect::StatsRequest {
                prefix: "service.".into(),
            }),
            Request::Trace(introspect::TraceQuery { id: 42 }),
        ]
    }

    #[test]
    fn request_frames_round_trip_for_every_kind() {
        for (i, req) in sample_requests().into_iter().enumerate() {
            let frame = encode_request(i as u64 + 7, &req);
            let (id, back) = decode_request(&frame).unwrap();
            assert_eq!(id, i as u64 + 7);
            assert_eq!(back, req, "round-trip for kind {}", req.kind());
            assert_eq!(back.canonical(), req.canonical());
        }
    }

    #[test]
    fn trace_field_is_optional_invisible_to_canonical_and_ignored_by_old_decoders() {
        for req in sample_requests() {
            let plain = encode_request(5, &req);
            let traced = encode_request_traced(5, &req, Some(777));
            // Match the *field* form `"trace":` — the `trace` request
            // kind legitimately puts the word in `"kind":"trace"`.
            assert!(!plain.contains("\"trace\":"), "untraced stays untraced");
            assert!(traced.contains("\"trace\":777"));
            // The traced-aware decoder sees the id; the legacy decoder
            // (and thus everything downstream of it) sees the identical
            // request.
            let (_, r1, t1) = decode_request_traced(&traced).unwrap();
            assert_eq!(t1, Some(777));
            let (_, r2) = decode_request(&traced).unwrap();
            assert_eq!(r1, req);
            assert_eq!(r2, req);
            let (_, _, t0) = decode_request_traced(&plain).unwrap();
            assert_eq!(t0, None, "tracing is strictly opt-in");
            assert_eq!(
                r1.canonical(),
                req.canonical(),
                "trace id never keys the cache"
            );
        }
    }

    #[test]
    fn canonical_form_ignores_client_field_order_and_id() {
        let a = decode_request(
            r#"{"id":1,"kind":"lint","req":{"name":"p","program":"container xs vector\n"}}"#,
        )
        .unwrap()
        .1;
        let b = decode_request(
            r#"{"kind":"lint","id":99,"req":{"program":"container xs vector\n","name":"p"}}"#,
        )
        .unwrap()
        .1;
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn response_frames_round_trip_and_ok_payload_is_spliced_verbatim() {
        let payload = Request::Select(
            select::SelectRequest::from_json(
                &Json::parse(
                    r#"{"problem":"broadcast","topology":"tree","timing":"asynchronous"}"#,
                )
                .unwrap(),
            )
            .unwrap(),
        )
        .handle()
        .unwrap()
        .render();
        let resp = Response::Ok {
            payload: payload.clone(),
        };
        let frame = encode_response(3, &resp);
        assert!(
            frame.contains(&payload),
            "payload bytes verbatim in {frame}"
        );
        let (id, back) = decode_response(&frame).unwrap();
        assert_eq!(id, 3);
        assert_eq!(back, resp);

        for r in [
            Response::Error {
                message: "bad \"input\"".into(),
            },
            Response::Overloaded,
        ] {
            let (_, back) = decode_response(&encode_response(0, &r)).unwrap();
            assert_eq!(back, r);
        }
    }

    /// The response envelope as a `Json` tree renders it: the reference
    /// the borrowed writer must match byte for byte.
    fn envelope_json(id: u64, resp: &Response) -> String {
        let j = Json::obj().field("id", id);
        match resp {
            Response::Ok { payload } => j
                .field("status", "ok")
                .field("resp", Json::Raw(payload.clone())),
            Response::Error { message } => {
                j.field("status", "error").field("error", message.as_str())
            }
            Response::Overloaded => j.field("status", "overloaded"),
        }
        .render()
    }

    #[test]
    fn encode_response_matches_the_json_built_envelope() {
        let cases = [
            Response::Ok {
                payload: r#"{"program":"p","count":0,"diagnostics":[]}"#.into(),
            },
            Response::Error {
                message: "parse: line 2: cannot parse `a \"b\"\\`\n\t\u{1}é".into(),
            },
            Response::Error {
                message: String::new(),
            },
            Response::Overloaded,
        ];
        for id in [0, 7, 1 << 53, (1 << 53) + 1, u64::MAX] {
            for resp in &cases {
                assert_eq!(encode_response(id, resp), envelope_json(id, resp));
            }
        }
    }

    #[test]
    fn ids_above_2_pow_53_round_trip_exactly() {
        let req = sample_requests().remove(0);
        for id in [(1u64 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let frame = encode_request_traced(id, &req, Some(id - 1));
            assert!(frame.contains(&format!("\"id\":{id}")), "{frame}");
            let (got, back, trace) = decode_request_traced(&frame).unwrap();
            assert_eq!((got, trace), (id, Some(id - 1)));
            assert_eq!(back, req);
            for resp in [
                Response::Ok {
                    payload: "{}".into(),
                },
                Response::Overloaded,
            ] {
                assert_eq!(
                    decode_response(&encode_response(id, &resp)).unwrap(),
                    (id, resp)
                );
            }
        }
    }

    #[test]
    fn a_missing_id_decodes_as_zero_and_a_missing_trace_as_untraced() {
        let (id, _, trace) =
            decode_request_traced(r#"{"kind":"stats","req":{"prefix":""}}"#).unwrap();
        assert_eq!((id, trace), (0, None));
        let (id, resp) = decode_response(r#"{"status":"overloaded"}"#).unwrap();
        assert_eq!((id, resp), (0, Response::Overloaded));
        // A non-integral id converts as an `as` cast, as it always has.
        let (id, _) = decode_request(r#"{"id":2.9,"kind":"stats","req":{}}"#).unwrap();
        assert_eq!(id, 2);
    }

    #[test]
    fn malformed_frames_are_rejected_with_context() {
        for frame in [
            "",
            "not json",
            r#"{"id":1}"#,
            r#"{"id":1,"kind":"frobnicate","req":{}}"#,
            r#"{"id":1,"kind":"lint","req":{}}"#,
        ] {
            assert!(decode_request(frame).is_err(), "accepted {frame:?}");
        }
    }
}
