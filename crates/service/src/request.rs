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
use gp_telemetry::trace::TraceStore;
use gp_telemetry::{Counter, Histogram, SpanName};
use std::sync::OnceLock;

/// A request kind: everything the server knows about one kind of query,
/// in one place. Each kind module implements it for its request type and
/// adds one row to the kind table below, which generates [`Request`] and
/// the per-kind telemetry rows; the serving core and the router read
/// every per-kind policy through it.
pub trait RequestKind: Sized {
    /// Wire name (the envelope's `"kind"`) and telemetry label.
    const NAME: &'static str;
    /// Compact code for flight-recorder payload words.
    const CODE: u64;

    /// Decode from the `req` object of a request envelope.
    fn from_json(req: &Json) -> Result<Self, String>;

    /// The `req` object in canonical field order.
    fn to_json(&self) -> Json;

    /// Run the backing engine. A shard worker calls this once per
    /// queued request, on its own thread.
    fn handle(&self) -> Result<Json, String>;

    /// Admission policy. `Some` answers the request at admission from the
    /// serving shard's trace store: never queued, never cached, and served
    /// even while draining. `None` (the default) queues it.
    fn answer_inline(&self, _traces: &TraceStore) -> Option<Result<Json, String>> {
        None
    }

    /// Where a shard router sends the request. By default it hashes the
    /// canonical form, so load spreads over the shards and each cache
    /// key has one home.
    fn route(&self) -> Route {
        Route::Canonical
    }

    /// A representative request for tests, distinct per `salt` where the
    /// kind allows.
    #[cfg(test)]
    fn sample(salt: usize) -> Self;
}

/// A request's routing policy across shards. Every key is a function of
/// the canonical form, so the map from cache key to shard is
/// deterministic and the shard caches partition the key space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Hash the canonical form (the cache key), spreading load uniformly.
    Canonical,
    /// The shard whose trace store holds this trace; the canonical hash
    /// when no store does.
    Trace(u64),
}

/// One row of the kind table: what the serving core records about a
/// kind, resolved once per process instead of by name on every request.
pub(crate) struct KindRow {
    pub(crate) name: &'static str,
    pub(crate) code: u64,
    instruments: OnceLock<Instruments>,
}

/// A kind's spans and metrics.
pub(crate) struct Instruments {
    /// Span over the handler run (`service.<kind>`).
    pub(crate) handler: SpanName,
    /// Trace span over the engine stage (`engine.<kind>`).
    pub(crate) engine: SpanName,
    /// `service.req.<kind>`.
    pub(crate) requests: &'static Counter,
    /// `service.latency.<kind>.ns`.
    pub(crate) latency: &'static Histogram,
}

impl KindRow {
    const fn of<K: RequestKind>() -> KindRow {
        KindRow {
            name: K::NAME,
            code: K::CODE,
            instruments: OnceLock::new(),
        }
    }

    pub(crate) fn instruments(&self) -> &Instruments {
        self.instruments.get_or_init(|| {
            // Span names are `&'static`; seven kinds leak fourteen short
            // strings once per process.
            let span = |prefix: &str| SpanName::new(format!("{prefix}.{}", self.name).leak());
            Instruments {
                handler: span("service"),
                engine: span("engine"),
                requests: gp_telemetry::counter(&format!("service.req.{}", self.name)),
                latency: gp_telemetry::histogram(&format!("service.latency.{}.ns", self.name)),
            }
        })
    }
}

/// Generates [`Request`], its per-kind dispatch and the [`KINDS`] rows
/// from one list of `Variant(KindType)` rows.
macro_rules! request_kinds {
    ($($(#[$doc:meta])* $variant:ident($ty:ty),)+) => {
        /// One query against the library stack.
        #[derive(Clone, Debug, PartialEq)]
        pub enum Request {
            $($(#[$doc])* $variant($ty),)+
        }

        /// Each kind's index into [`KINDS`].
        #[derive(Clone, Copy)]
        enum Slot {
            $($variant,)+
        }

        /// The kind table's rows, in table order.
        pub(crate) static KINDS: [KindRow; [$(Slot::$variant),+].len()] =
            [$(KindRow::of::<$ty>(),)+];

        impl Request {
            /// This request's row of the kind table.
            pub(crate) fn row(&self) -> &'static KindRow {
                &KINDS[match self {
                    $(Request::$variant(_) => Slot::$variant as usize,)+
                }]
            }

            /// The `req` object in canonical field order.
            pub fn to_json(&self) -> Json {
                match self {
                    $(Request::$variant(r) => r.to_json(),)+
                }
            }

            /// Decode from `kind` + `req` object.
            pub fn from_kind_json(kind: &str, req: &Json) -> Result<Request, String> {
                $(if kind == <$ty as RequestKind>::NAME {
                    return <$ty as RequestKind>::from_json(req).map(Request::$variant);
                })+
                Err(format!("unknown request kind {kind:?}"))
            }

            /// Dispatch to the backing handler.
            pub fn handle(&self) -> Result<Json, String> {
                match self {
                    $(Request::$variant(r) => r.handle(),)+
                }
            }

            /// The admission-time answer of an inline kind; `None` queues.
            pub(crate) fn answer_inline(
                &self,
                traces: &TraceStore,
            ) -> Option<Result<Json, String>> {
                match self {
                    $(Request::$variant(r) => r.answer_inline(traces),)+
                }
            }

            /// The shard-routing policy.
            pub(crate) fn route(&self) -> Route {
                match self {
                    $(Request::$variant(r) => r.route(),)+
                }
            }

            /// One sample request per kind, in table order.
            #[cfg(test)]
            pub(crate) fn samples(salt: usize) -> Vec<Request> {
                vec![$(Request::$variant(<$ty as RequestKind>::sample(salt)),)+]
            }
        }
    };
}

// The kind table: adding a request kind is one module implementing
// `RequestKind` plus one row here.
request_kinds! {
    /// Lint a program (`gp-checker`).
    Lint(lint::LintRequest),
    /// Simplify under a concept environment (`gp-rewrite`, directed engine).
    Simplify(simplify::SimplifyRequest),
    /// Superoptimize by equality saturation (`gp-rewrite` e-graph).
    Optimize(optimize::OptimizeRequest),
    /// Check an instantiated theory (`gp-proofs`).
    Prove(prove::ProveRequest),
    /// Select a distributed algorithm (`gp-taxonomy`).
    Select(select::SelectRequest),
    /// Export the telemetry registry (answered at admission).
    Stats(introspect::StatsRequest),
    /// Fetch an assembled trace tree by id (answered at admission).
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
        self.row().name
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
}

/// A two-way table between an enum's values and their wire names, and
/// the one lookup pair every such table uses.
pub(crate) struct WireNames<T: 'static> {
    /// What the names name, for the "unknown ..." error.
    what: &'static str,
    rows: &'static [(T, &'static str)],
}

impl<T: Copy + PartialEq> WireNames<T> {
    pub(crate) const fn new(what: &'static str, rows: &'static [(T, &'static str)]) -> Self {
        WireNames { what, rows }
    }

    /// The wire name of `value`.
    pub(crate) fn name(&self, value: T) -> &'static str {
        match self.rows.iter().find(|(v, _)| *v == value) {
            Some((_, name)) => name,
            None => unreachable!("every {} has a wire name", self.what),
        }
    }

    /// The value named `name`, or `unknown <what> "<name>"`.
    pub(crate) fn parse(&self, name: &str) -> Result<T, String> {
        self.rows
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(v, _)| *v)
            .ok_or_else(|| format!("unknown {} {name:?}", self.what))
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
    use std::collections::HashSet;

    /// `req` framed with id 99 and trace 5, every object's fields
    /// reversed: none of it may change the canonical form.
    fn reshuffled(req: &Request) -> String {
        fn reverse(j: Json) -> Json {
            match j {
                Json::Obj(fields) => Json::Obj(
                    fields
                        .into_iter()
                        .rev()
                        .map(|(k, v)| (k, reverse(v)))
                        .collect(),
                ),
                other => other,
            }
        }
        reverse(Json::parse(&encode_request_traced(99, req, Some(5))).unwrap()).render()
    }

    #[test]
    fn the_kind_table_is_unique_round_trips_and_names_every_instrument() {
        let samples = Request::samples(0);
        assert_eq!(samples.len(), KINDS.len(), "one sample per row");
        let (mut names, mut codes) = (HashSet::new(), HashSet::new());
        for (row, req) in KINDS.iter().zip(&samples) {
            assert!(names.insert(row.name), "duplicate name {}", row.name);
            assert!(codes.insert(row.code), "duplicate code {}", row.code);
            assert!(std::ptr::eq(req.row(), row));
            assert_eq!(req.kind(), row.name);

            let frame = encode_request(7, req);
            // Match the *field* form: the `trace` kind has `"kind":"trace"`.
            assert!(!frame.contains("\"trace\":"), "untraced stays untraced");
            let decoded = decode_request_traced(&frame).unwrap();
            assert_eq!(decoded, (7, req.clone(), None), "tracing is opt-in");
            let shuffled = reshuffled(req);
            let (id, back, trace) = decode_request_traced(&shuffled).unwrap();
            assert_eq!((id, trace), (99, Some(5)));
            assert_eq!(&back, req, "field order is not meaning");
            assert_eq!(back.canonical(), req.canonical(), "kind {}", row.name);
            assert_eq!(decode_request(&shuffled).unwrap(), (99, back));
            assert!(req.canonical().starts_with(&format!("{}:", row.name)));

            let ins = row.instruments();
            assert_eq!(ins.handler.name(), format!("service.{}", row.name));
            assert_eq!(ins.engine.name(), format!("engine.{}", row.name));
            let counter = gp_telemetry::counter(&format!("service.req.{}", row.name));
            let latency = gp_telemetry::histogram(&format!("service.latency.{}.ns", row.name));
            assert!(std::ptr::eq(ins.requests, counter));
            assert!(std::ptr::eq(ins.latency, latency));
        }
    }

    /// Every row of `table` round-trips name → value → name, names and
    /// values are unique, and an unknown name yields `unknown`.
    fn check_names<T: Copy + PartialEq + std::fmt::Debug>(
        table: &WireNames<T>,
        len: usize,
        unknown: &str,
    ) {
        assert_eq!(table.rows.len(), len, "one row per {}", table.what);
        for (i, &(value, name)) in table.rows.iter().enumerate() {
            assert_eq!(table.parse(name), Ok(value));
            assert_eq!(table.name(value), name);
            assert!(table.rows[..i]
                .iter()
                .all(|&(v, n)| v != value && n != name));
        }
        assert_eq!(table.parse("x"), Err(unknown.to_string()));
    }

    #[test]
    fn every_wire_name_table_round_trips_and_keeps_its_error_text() {
        use crate::optimize::COST_MODELS;
        use crate::select::{FAULTS, PROBLEMS, PROCESS_MGMTS, SHARINGS, TIMINGS, TOPOLOGIES};
        use crate::simplify::{BINOPS, CONCEPTS, TYPES, UNOPS};
        check_names(&PROBLEMS, 6, r#"unknown problem "x""#);
        check_names(&TOPOLOGIES, 8, r#"unknown topology "x""#);
        check_names(&TIMINGS, 3, r#"unknown timing "x""#);
        check_names(&FAULTS, 4, r#"unknown fault class "x""#);
        check_names(&SHARINGS, 2, r#"unknown sharing "x""#);
        check_names(&PROCESS_MGMTS, 2, r#"unknown process management "x""#);
        check_names(&TYPES, 8, r#"unknown type "x""#);
        check_names(&BINOPS, 8, r#"unknown binary operator "x""#);
        check_names(&UNOPS, 3, r#"unknown unary operator "x""#);
        check_names(&CONCEPTS, 5, r#"unknown concept "x""#);
        check_names(&COST_MODELS, 2, r#"unknown cost model "x""#);
        assert!(BINOPS.rows.iter().all(|&(op, name)| op.symbol() == name));
    }

    #[test]
    fn response_frames_round_trip_and_ok_payload_is_spliced_verbatim() {
        let payload = Request::Select(select::SelectRequest::sample(0))
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
        let req = Request::samples(0).remove(0);
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
