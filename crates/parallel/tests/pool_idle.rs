//! Idle-behavior regression test for the work-stealing executor, driven
//! entirely through the telemetry counters (`pool.park` / `pool.unpark`).
//!
//! The seed pool's workers spun on their channel when idle; the executor
//! parks them on a condvar until a submit notifies them (there is no
//! parking timeout). This test pins both halves of that contract:
//!
//! 1. an idle pool *parks* and then *stays parked* — the park counter
//!    advances once per worker going idle, and not again while no work is
//!    queued (a timed wait would re-park every few milliseconds), and
//! 2. a submit *wakes* a parked worker — the unpark counter (one per
//!    ended wait) advances when work arrives while workers are asleep.
//!
//! The counters are process-global and shared by every pool, so this
//! binary holds this one test, and the notification check retries: a
//! worker mid-poll when `execute` fires its notify finds the job itself,
//! which is legal — it just doesn't count as an unpark.

use gp_parallel::pool::ThreadPool;
use std::time::Duration;

#[test]
fn idle_workers_park_and_submits_unpark_them() {
    let start = gp_telemetry::snapshot();
    let pool = ThreadPool::new(4);

    // Warm the pool with a burst so every worker has run at least once.
    for _ in 0..64 {
        pool.execute(|| {
            std::hint::black_box(0u64);
        });
    }
    pool.wait_idle();

    // Phase 1: with the queue drained, workers must park rather than
    // spin, and then stay parked: 50 ms of idle time at the old 1 ms
    // parking timeout would have re-parked each of the 4 workers dozens
    // of times. Each worker parks at most once in the window (when it
    // had not yet parked at its start).
    std::thread::sleep(Duration::from_millis(50));
    let idle = gp_telemetry::snapshot();
    std::thread::sleep(Duration::from_millis(50));
    let parked = idle.delta(&start).counter("pool.park");
    let reparked = gp_telemetry::snapshot().delta(&idle).counter("pool.park");
    assert!(
        parked >= 1,
        "idle workers should park on the sleep condvar (saw {parked} parks)"
    );
    assert!(
        reparked <= 4,
        "parked workers should sleep until work arrives (saw {reparked} parks in 50ms)"
    );

    // Phase 2: a submit while workers are parked must wake one by
    // notification. Retried because a worker that is between its last
    // poll and the condvar wait takes the job without parking.
    let before = gp_telemetry::snapshot();
    let mut unparks = 0;
    for _ in 0..50 {
        // Let the workers reach the parked state, then hand them work.
        std::thread::sleep(Duration::from_millis(5));
        for _ in 0..8 {
            pool.execute(|| {
                std::hint::black_box(0u64);
            });
        }
        pool.wait_idle();
        unparks = gp_telemetry::snapshot()
            .delta(&before)
            .counter("pool.unpark");
        if unparks > 0 {
            break;
        }
    }
    assert!(
        unparks > 0,
        "a submit into a parked pool should end a wait by notification"
    );
}
