//! # gp-distsim — a discrete-event message-passing simulator for
//! distributed algorithms
//!
//! The substrate behind the paper's §4: a distributed-algorithm concept
//! taxonomy is only useful if the performance dimensions it records —
//! message complexity, time complexity, and the "rarely accounted for"
//! **local computation at a node** — can be *measured*. This simulator
//! executes distributed algorithms over explicit topologies under both
//! timing models the taxonomy distinguishes, with crash-failure injection,
//! and reports exactly those three metrics per run.
//!
//! * [`topology`] — ring, complete graph, star, grid, random connected
//!   (dimension 2 of the taxonomy: *topology*).
//! * [`engine`] — synchronous rounds and asynchronous event-queue execution
//!   (dimension 6: *timing*), with fault injection — omission, duplication,
//!   crash-stop and crash-recovery schedules (dimension 3: *fault
//!   tolerance*) — timer events, a structured event trace, and per-node
//!   message/local-step accounting. The asynchronous event loop is written
//!   once, as [`engine::AsyncScheduler`], generic over the
//!   [`engine::NodeHost`] concept that says where a granted step runs.
//! * [`channel`] — reliable delivery as a generic channel concept:
//!   sequence numbers, acknowledgments, and timeout-driven retransmission
//!   with exponential backoff, composing with any unmodified [`Process`].
//! * [`algorithms`] — LCR and Hirschberg–Sinclair leader election,
//!   FloodMax, Chang's echo broadcast/convergecast, synchronous BFS
//!   spanning tree (dimensions 1, 5: *problem*, *strategy*), plus the
//!   fault-tolerant entries: reliable-channel Echo/LCR and the
//!   crash-tolerant FT-FloodMax consensus.
//! * [`net`] — sim-to-real: the same unmodified processes over real TCP.
//!   [`NetRunner`] is the simulator's scheduler over socket hosts: one
//!   thread per node, payloads peer-to-peer over a live socket mesh, so it
//!   is event-for-event identical to [`AsyncRunner`] on the same
//!   seed/topology (faults included) by construction; the free-running
//!   [`LiveMesh`] gives each node a thread and a real tick clock for
//!   actual deployment (it backs `gp-service`'s control plane).
//!
//! Runs are deterministic per seed — including lossy, duplicating, and
//! crash-recovery runs — so every experiment is reproducible.

pub mod algorithms;
pub mod channel;
pub mod engine;
pub mod net;
pub mod topology;

pub use channel::Reliable;
pub use engine::{
    required_diameter, trace_json, AsyncRunner, BoxProcess, ConfigError, Ctx, Payload, Process,
    RunStats, SyncRunner, TraceEvent,
};
pub use net::{decode_payload, encode_payload, LiveMesh, NetRunner};
pub use topology::Topology;
