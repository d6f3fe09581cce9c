//! # gp-service: the concept-query server
//!
//! A batched, cached, load-shedding request/response front end over the
//! repo's library stack — the paper's generic components packaged behind
//! one wire protocol:
//!
//! | kind       | backing crate | question                                   |
//! |------------|---------------|--------------------------------------------|
//! | `lint`     | `gp-checker`  | does this program misuse library semantics? |
//! | `simplify` | `gp-rewrite`  | what does this expression reduce to here?   |
//! | `optimize` | `gp-rewrite`  | what is the *cheapest* equivalent form?     |
//! | `prove`    | `gp-proofs`   | do the theory's proofs hold on this model?  |
//! | `select`   | `gp-taxonomy` | which algorithm fits this deployment?       |
//! | `stats`    | `gp-telemetry`| what do the server's metrics read now?      |
//! | `trace`    | `gp-telemetry`| where did this sampled request spend time?  |
//!
//! Each kind is one [`RequestKind`] implementation in its own module plus
//! one row of the kind table in [`request`]; the table generates
//! [`Request`] and the per-kind telemetry rows, and the serving core and
//! shard router read each kind's policy (inline or queued, batch key,
//! route) from it.
//!
//! `simplify` runs the directed engine — one pass to a normal form, the
//! fast path. `optimize` escalates to the equality-saturation e-graph
//! ([`optimize`], backed by `gp_rewrite::egraph`): bounded saturation
//! under the same concept-gated rules plus exploration equalities, then
//! cost-based extraction against the taxonomy's per-operator cost
//! annotations. The server never escalates on its own; the client asks
//! for the superoptimizer by kind.
//!
//! The wire is length-prefixed JSON frames over TCP ([`wire`]); the same
//! serving core answers in-process through [`Service::call`]. Three
//! mechanisms make it a *server* rather than seven function calls:
//!
//! - **Admission control** ([`queue`]): a bounded queue sheds overflow as
//!   retriable [`Response::Overloaded`] instead of queueing unboundedly.
//! - **Micro-batching** ([`server`]): queued requests of one kind sharing
//!   a batch key run as one batch; `simplify` keys on its environment
//!   fingerprint, so a batch shares one `Simplifier` build.
//! - **Response caching** ([`cache`]): mutex-striped LRU keyed by the
//!   request's canonical form; hits are byte-identical to fresh answers.
//!
//! Two TCP front ends expose the same serving core:
//!
//! - **Blocking** ([`Service::listen`]): thread per connection, capped at
//!   `max_connections` (beyond it, a retriable `Overloaded` frame and a
//!   close). Simple, portable, and the correctness oracle.
//! - **Reactor** ([`Service::listen_reactor`], [`reactor`]): one
//!   epoll-driven event-loop thread multiplexing thousands of
//!   connections — incremental frame decoding, request pipelining with
//!   in-order responses, per-connection write backpressure. Responses
//!   are byte-identical to the blocking path's for the same request
//!   stream (property-tested in `gp-bench`).
//!
//! For horizontal scale, [`shard::ShardRouter`] consistent-hashes
//! requests across N service instances so each shard's cache owns a true
//! partition of the key space and the micro-batcher sees denser same-
//! environment runs. The [`control`] plane runs unmodified `gp-distsim`
//! catalog algorithms (heartbeat failure detection, epoch-fenced
//! FT-FloodMax election) over real TCP: the elected leader owns the
//! router's assignment table and floods vnode reassignments when a shard
//! dies (`control.*` counters).
//!
//! Everything is observable through `gp-telemetry` (`service.*` counters,
//!  queue-depth gauge, per-kind latency histograms, `service.conn.open`,
//! `service.reactor.*`, `service.shard.<i>.cache.*`), and the counters
//! obey `accepted == completed + shed + in_flight` — checked from
//! snapshot deltas by `exp_service`, `exp_service_reactor`, and the
//! coherence proptests. On top of the metrics sit three deeper lenses
//! ([`introspect`]): sampled end-to-end *traces* whose spans follow a
//! request across thread hops (`"trace":N` on the wire, assembled into a
//! per-shard `TraceStore`), a process-wide lock-free *flight recorder* of
//! recent structured events (dumped on drain and on failover), and the
//! `stats`/`trace` wire request kinds that export both — served on either
//! front end, even while draining.

#![deny(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod control;
pub mod introspect;
pub mod lint;
pub mod optimize;
pub mod prove;
pub mod queue;
pub mod reactor;
pub mod request;
pub mod select;
pub mod server;
pub mod shard;
pub mod simplify;
pub mod wire;

pub use cache::{CacheStats, ResponseCache};
pub use control::{ControlConfig, ControlPlane, NodeStatus};
pub use introspect::{stats_payload, StatsRequest, TraceQuery};
pub use optimize::{CostSpec, OptimizeRequest};
pub use reactor::{Reactor, ReactorConfig, ReactorHandle, SubmitRequest};
pub use request::{
    decode_request, decode_request_traced, decode_response, encode_request, encode_request_traced,
    encode_response, Request, RequestKind, Response, Route,
};
pub use server::{Service, ServiceConfig, ServiceStats, Ticket};
pub use shard::{FailoverTarget, HashRing, ShardRouter, ShardRouterConfig};
pub use wire::{FrameDecoder, TcpClient};

/// Lock `m`, recovering the data of a lock poisoned by a panicking holder:
/// this crate holds its locks only over field stores and std container
/// calls, none of which panics partway, so the data is always valid.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
