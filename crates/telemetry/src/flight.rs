//! Flight recorder: a lock-free ring of recent structured events.
//!
//! Counters say *how many* requests were shed; they cannot say what the
//! 57 ms before a failover looked like. The recorder keeps the last N
//! structured events (enqueue/dequeue, shed, cache hit/miss, vnode
//! reassignment, election, crash detection, drain) in a fixed-size ring
//! of atomic words — a black box the control plane dumps to JSON on
//! failover and the server dumps on drain.
//!
//! Writers are wait-free: claim a slot with one `fetch_add`, mark it busy
//! with a `swap`, store four words, release with the sequence number. A
//! writer that catches another mid-write (a full lap behind — the ring
//! would have overwritten the event anyway) drops its event and bumps a
//! counter instead of spinning. Readers snapshot each slot with a
//! seqlock-style double read of the sequence word, discarding torn slots,
//! so a dump never blocks the hot path and never reports a half-written
//! event.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// What happened. The discriminant is the on-ring encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u64)]
pub enum FlightKind {
    /// Request admitted to a shard queue. `a` = request-kind code, `b` =
    /// queue depth after the push.
    Enqueue = 1,
    /// Worker popped a request. `a` = request-kind code, `b` = time it
    /// waited since admission, in microseconds.
    Dequeue = 2,
    /// Request shed (queue full or draining). `a` = request-kind code.
    Shed = 3,
    /// Response cache hit. `a` = request hash (low bits).
    CacheHit = 4,
    /// Response cache miss. `a` = request hash (low bits).
    CacheMiss = 5,
    /// Vnodes reassigned off a dead shard. `a` = shard index, `b` =
    /// vnodes moved.
    Reassign = 6,
    /// A control-plane election completed. `a` = epoch, `b` = leader id.
    Election = 7,
    /// The failure detector flagged a node. `a` = node id.
    CrashDetect = 8,
    /// A server began its graceful drain. `a` = requests accepted so far.
    Drain = 9,
}

impl FlightKind {
    /// Stable lowercase name used in the JSON dump.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Enqueue => "enqueue",
            FlightKind::Dequeue => "dequeue",
            FlightKind::Shed => "shed",
            FlightKind::CacheHit => "cache_hit",
            FlightKind::CacheMiss => "cache_miss",
            FlightKind::Reassign => "reassign",
            FlightKind::Election => "election",
            FlightKind::CrashDetect => "crash_detect",
            FlightKind::Drain => "drain",
        }
    }

    fn from_code(code: u64) -> Option<FlightKind> {
        Some(match code {
            1 => FlightKind::Enqueue,
            2 => FlightKind::Dequeue,
            3 => FlightKind::Shed,
            4 => FlightKind::CacheHit,
            5 => FlightKind::CacheMiss,
            6 => FlightKind::Reassign,
            7 => FlightKind::Election,
            8 => FlightKind::CrashDetect,
            9 => FlightKind::Drain,
            _ => return None,
        })
    }
}

/// One recovered event. `seq` is the global record order (1-based);
/// `ts_ns` is nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global record order, starting at 1.
    pub seq: u64,
    /// Nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// First kind-specific word (see [`FlightKind`]).
    pub a: u64,
    /// Second kind-specific word.
    pub b: u64,
}

/// Slot sequence value marking a write in progress.
const BUSY: u64 = u64::MAX;

struct Slot {
    /// 0 = never written, [`BUSY`] = mid-write, else the event's seq.
    seq: AtomicU64,
    ts: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// The ring buffer. One process-wide instance lives behind [`record`]
/// and [`dump`]; tests construct their own.
pub struct FlightRecorder {
    epoch: Instant,
    head: AtomicU64,
    dropped: AtomicU64,
    slots: Box<[Slot]>,
}

/// Capacity of the process-wide recorder.
pub const GLOBAL_CAPACITY: usize = 4096;

impl FlightRecorder {
    /// A recorder holding the most recent `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> FlightRecorder {
        let slots = (0..cap.max(1))
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                ts: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            })
            .collect();
        FlightRecorder {
            epoch: Instant::now(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots,
        }
    }

    /// Record one event. Wait-free; on a full-lap collision with another
    /// writer the event is counted in [`FlightRecorder::dropped_events`]
    /// instead of written.
    pub fn record(&self, kind: FlightKind, a: u64, b: u64) {
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let seq = pos + 1; // 0 means "never written"
        let slot = &self.slots[(pos % self.slots.len() as u64) as usize];
        if slot.seq.swap(BUSY, Ordering::Acquire) == BUSY {
            // Another writer, a whole lap behind or ahead, owns the slot.
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        slot.ts
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
    }

    /// Events dropped to full-lap writer collisions.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total events ever recorded (including any since overwritten).
    pub fn recorded_events(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Snapshot the ring: the surviving events in record order. Torn
    /// slots (a write raced the read) are skipped rather than reported
    /// half-written.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 == BUSY {
                continue;
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 != s2 {
                continue; // torn: a writer claimed the slot mid-read
            }
            if let Some(kind) = FlightKind::from_code(kind) {
                events.push(FlightEvent {
                    seq: s1,
                    ts_ns: ts,
                    kind,
                    a,
                    b,
                });
            }
        }
        events.sort_by_key(|e| e.seq);
        events
    }

    /// The dump rendered as JSON:
    /// `{"recorded":N,"dropped":N,"events":[{"seq":..,"ts_ns":..,
    /// "kind":"enqueue","a":..,"b":..},..]}`.
    pub fn dump_json(&self) -> String {
        let events = self.dump();
        let mut out = format!(
            "{{\"recorded\":{},\"dropped\":{},\"events\":[",
            self.recorded_events(),
            self.dropped_events()
        );
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"ts_ns\":{},\"kind\":\"{}\",\"a\":{},\"b\":{}}}",
                e.seq,
                e.ts_ns,
                e.kind.name(),
                e.a,
                e.b
            ));
        }
        out.push_str("]}");
        out
    }
}

fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::new(GLOBAL_CAPACITY))
}

/// Record one event into the process-wide recorder.
pub fn record(kind: FlightKind, a: u64, b: u64) {
    global().record(kind, a, b);
}

/// Snapshot the process-wide recorder.
pub fn dump() -> Vec<FlightEvent> {
    global().dump()
}

/// Snapshot the process-wide recorder as JSON (see
/// [`FlightRecorder::dump_json`]).
pub fn dump_json() -> String {
    global().dump_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_payload_words() {
        let rec = FlightRecorder::new(16);
        rec.record(FlightKind::Enqueue, 3, 7);
        rec.record(FlightKind::Shed, 1, 0);
        rec.record(FlightKind::Election, 2, 4);
        let events = rec.dump();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, FlightKind::Enqueue);
        assert_eq!((events[0].a, events[0].b), (3, 7));
        assert_eq!(events[1].kind, FlightKind::Shed);
        assert_eq!(events[2].kind, FlightKind::Election);
        assert!(events[0].seq < events[1].seq && events[1].seq < events[2].seq);
        assert!(events[0].ts_ns <= events[2].ts_ns);
        assert_eq!(rec.dropped_events(), 0);
    }

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let rec = FlightRecorder::new(8);
        for i in 0..20u64 {
            rec.record(FlightKind::Dequeue, i, 0);
        }
        let events = rec.dump();
        assert_eq!(events.len(), 8);
        // The survivors are exactly the last 8, still in order.
        let kept: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(kept, (12..20).collect::<Vec<u64>>());
        assert_eq!(rec.recorded_events(), 20);
    }

    #[test]
    fn dump_json_shape_is_greppable() {
        let rec = FlightRecorder::new(8);
        rec.record(FlightKind::CrashDetect, 2, 0);
        rec.record(FlightKind::Reassign, 2, 64);
        let json = rec.dump_json();
        assert!(json.starts_with("{\"recorded\":2,\"dropped\":0,\"events\":["));
        assert!(json.contains("\"kind\":\"crash_detect\""));
        assert!(json.contains("\"kind\":\"reassign\",\"a\":2,\"b\":64"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn concurrent_writers_never_tear_a_dump() {
        use std::sync::Arc;
        let rec = Arc::new(FlightRecorder::new(64));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let rec = Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..2000u64 {
                    // Payload invariant per event: b == a + 1, checked by
                    // the reader — a torn read would break it.
                    rec.record(FlightKind::Enqueue, t * 10_000 + i, t * 10_000 + i + 1);
                }
            }));
        }
        let reader = {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    for e in rec.dump() {
                        assert_eq!(e.b, e.a + 1, "torn event escaped the seqlock");
                    }
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        reader.join().unwrap();
        let total = rec.recorded_events();
        assert_eq!(total, 8000);
        // Everything in the final dump is consistent and ordered.
        let events = rec.dump();
        assert!(events.len() <= 64);
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }
}
