//! Host and process readings from `/proc`: CPU time, peak memory, steal
//! share, and a fixed CPU probe that shows how fast the host ran.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn pthread_self() -> u64;
    fn pthread_getcpuclockid(thread: u64, clock: *mut i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// A CPU-time clock: the whole process's, or one thread's.
#[derive(Clone, Copy, Debug)]
pub struct CpuClock(i32);

impl CpuClock {
    pub fn process() -> CpuClock {
        CpuClock(CLOCK_PROCESS_CPUTIME_ID)
    }

    /// The calling thread's clock; other threads may read it while this
    /// thread lives.
    pub fn this_thread() -> CpuClock {
        let mut id = 0i32;
        // SAFETY: `pthread_self` has no preconditions; `id` is a live i32
        // the call writes the clock id into.
        let rc = unsafe { pthread_getcpuclockid(pthread_self(), &mut id) };
        assert_eq!(rc, 0, "pthread_getcpuclockid failed for the calling thread");
        CpuClock(id)
    }

    /// CPU seconds used so far (user + system).
    pub fn seconds(self) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, properly laid out timespec; the clock id
        // came from the C library for a thread that is still running.
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        if rc != 0 {
            return 0.0;
        }
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate `(steal, total)` jiffies from the first line of `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let nums: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so sum the first eight.
    let total = nums.iter().take(8).sum();
    (nums.get(7).copied().unwrap_or(0), total)
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Milliseconds a fixed integer workload takes: the same instructions on
/// every run, so a change in this number is a change in the host.
pub fn cpu_probe_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let mut x = black_box(0x1234_5678_u64);
        for i in 0..4_000_000u64 {
            x = x.rotate_left(7) ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        black_box(x);
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}
