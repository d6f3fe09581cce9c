//! A work-stealing executor: per-worker LIFO deques with a global FIFO
//! injector, an atomic pending counter (no mutex on the job hot path),
//! panic-safe job execution, and a blocking [`ThreadPool::join`] primitive
//! that lets callers recursively split work rayon-style while *helping*
//! run queued jobs instead of blocking a thread.
//!
//! This replaces the seed's single-channel pool, whose two costs the E11
//! experiment measures: every `par_*` call paid thread spawn/teardown, and
//! a panicking job killed its worker with the pending count stranded above
//! zero, deadlocking [`ThreadPool::wait_idle`]. Here jobs run under
//! `catch_unwind` with the decrement in the return path regardless of
//! outcome, and the executor is a process-wide singleton ([`global`])
//! reused by every data-parallel primitive.

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use gp_telemetry::Counter;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Telemetry handles for the executor, resolved once per pool (name
/// lookup takes the registry lock; the increments themselves are relaxed
/// atomics). All pools share the same global counters — the registry
/// observes the process-wide executor layer, not one pool instance.
struct PoolMetrics {
    /// Jobs executed per worker, indexed by worker id
    /// (`pool.worker{i}.jobs`).
    worker_jobs: Vec<&'static Counter>,
    /// Jobs found in the worker's own LIFO deque.
    local_pop: &'static Counter,
    /// Jobs taken from the global FIFO injector.
    injector_pop: &'static Counter,
    /// Jobs stolen from a sibling worker's deque.
    steal_hit: &'static Counter,
    /// `Steal::Retry` collisions observed while stealing.
    steal_retry: &'static Counter,
    /// Times a worker parked on the sleep condvar.
    park: &'static Counter,
    /// Parked waits that ended. Parking has no timeout, so each is a
    /// submit-side or shutdown notification (or a spurious wakeup).
    unpark: &'static Counter,
    /// Jobs submitted to the current worker's own deque.
    submit_local: &'static Counter,
    /// Jobs submitted to the global injector.
    submit_injector: &'static Counter,
    /// `join` calls.
    joins: &'static Counter,
    /// Iterations of the join help loop (each either runs a stolen job or
    /// backs off).
    join_help_iters: &'static Counter,
    /// Jobs executed inside the help loop rather than by a worker.
    help_jobs: &'static Counter,
    /// Jobs whose closure panicked (mirrors `Shared::panicked`).
    panics: &'static Counter,
}

impl PoolMetrics {
    fn new(workers: usize) -> Self {
        let reg = gp_telemetry::global();
        PoolMetrics {
            worker_jobs: (0..workers)
                .map(|i| reg.counter(&format!("pool.worker{i}.jobs")))
                .collect(),
            local_pop: reg.counter("pool.local_pop"),
            injector_pop: reg.counter("pool.injector_pop"),
            steal_hit: reg.counter("pool.steal_hit"),
            steal_retry: reg.counter("pool.steal_retry"),
            park: reg.counter("pool.park"),
            unpark: reg.counter("pool.unpark"),
            submit_local: reg.counter("pool.submit_local"),
            submit_injector: reg.counter("pool.submit_injector"),
            joins: reg.counter("pool.joins"),
            join_help_iters: reg.counter("pool.join_help_iters"),
            help_jobs: reg.counter("pool.help_jobs"),
            panics: reg.counter("pool.panicked_jobs"),
        }
    }

    /// The per-worker jobs counter, shared `pool.helper` slot for jobs run
    /// by non-worker threads inside `help_until`.
    fn jobs_of(&self, index: usize) -> &'static Counter {
        self.worker_jobs
            .get(index)
            .copied()
            .unwrap_or(self.help_jobs)
    }
}

/// State shared between the pool handle and its workers.
struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    /// Jobs submitted but not yet finished. Incremented on submit,
    /// decremented after the job runs (or panics) — the only hot-path
    /// synchronization; the mutexes below are touched only to park/wake.
    pending: AtomicUsize,
    /// Jobs whose closure panicked (the panic is contained; the pool
    /// keeps running and `wait_idle` still terminates).
    panicked: AtomicUsize,
    shutdown: AtomicBool,
    /// Workers park here when they find no work.
    sleep_mutex: Mutex<()>,
    work_cond: Condvar,
    sleepers: AtomicUsize,
    /// `wait_idle` callers park here until `pending` reaches zero.
    idle_mutex: Mutex<()>,
    idle_cond: Condvar,
    /// Telemetry handles (see [`PoolMetrics`]); increments are relaxed
    /// atomics, resolution happened at pool construction.
    metrics: PoolMetrics,
}

/// Thread-local identity of a pool worker, so that jobs submitted from
/// inside a worker (recursive splits) go to its own LIFO deque instead of
/// the global injector.
#[derive(Clone, Copy)]
struct WorkerCtx {
    shared: *const Shared,
    local: *const Worker<Job>,
    index: usize,
}

thread_local! {
    static CURRENT: Cell<Option<WorkerCtx>> = const { Cell::new(None) };
}

/// A fixed-size work-stealing worker pool executing boxed jobs.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn `n` workers (`n >= 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a pool needs at least one worker");
        let locals: Vec<Worker<Job>> = (0..n).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(Worker::stealer).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            pending: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep_mutex: Mutex::new(()),
            work_cond: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            idle_mutex: Mutex::new(()),
            idle_cond: Condvar::new(),
            metrics: PoolMetrics::new(n),
        });
        let workers = locals
            .into_iter()
            .enumerate()
            .map(|(i, local)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("gp-pool-{i}"))
                    .spawn(move || worker_loop(&shared, &local, i))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of jobs so far whose closure panicked. The panics are
    /// contained: the worker survives and the pending count still reaches
    /// zero (the seed pool deadlocked `wait_idle` here).
    pub fn panicked_jobs(&self) -> usize {
        self.shared.panicked.load(Ordering::Acquire)
    }

    /// Submit a fire-and-forget job. If called from inside a pool worker,
    /// the job goes to that worker's own LIFO deque (cheap, cache-hot,
    /// stealable by idle workers); otherwise to the global injector.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.submit(Box::new(job));
    }

    fn submit(&self, job: Job) {
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        let mut job = Some(job);
        let pushed_local = CURRENT.with(|c| match c.get() {
            Some(ctx) if std::ptr::eq(ctx.shared, Arc::as_ptr(&self.shared)) => {
                // SAFETY: `ctx.local` points at the deque owned by this
                // very thread's worker loop, which outlives the job run.
                unsafe { (*ctx.local).push(job.take().expect("job present")) };
                true
            }
            _ => false,
        });
        if pushed_local {
            self.shared.metrics.submit_local.incr();
        } else {
            self.shared.injector.push(job.take().expect("job present"));
            self.shared.metrics.submit_injector.incr();
        }
        // Wake a parked worker, if any. A parking worker raises `sleepers`
        // under `sleep_mutex` before it looks for work, and the push above
        // is ordered before this read: either it sees the job or we see it
        // and notify once it waits. No wakeup is lost, so parking needs no
        // timeout.
        fence(Ordering::SeqCst);
        if self.shared.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.shared.sleep_mutex.lock().expect("sleep lock");
            self.shared.work_cond.notify_one();
        }
    }

    /// Block until every submitted job has finished (even ones that
    /// panicked — see [`ThreadPool::panicked_jobs`]).
    pub fn wait_idle(&self) {
        let mut guard = self.shared.idle_mutex.lock().expect("idle lock");
        while self.shared.pending.load(Ordering::SeqCst) > 0 {
            guard = self.shared.idle_cond.wait(guard).expect("idle lock");
        }
    }

    /// Run both closures, potentially in parallel, and return both
    /// results — the rayon-style fork-join primitive behind the adaptive
    /// `par_*` splitting.
    ///
    /// `oper_b` is pushed onto the current worker's deque (or the
    /// injector from non-pool threads) where idle workers can steal it;
    /// `oper_a` runs inline. While waiting for `oper_b`, the caller
    /// *helps*: it pops/steals and runs other queued jobs, so nested
    /// joins cannot starve the pool. If either side panics, the panic is
    /// re-raised here — after both sides have finished, so borrowed data
    /// stays valid for the stolen half.
    pub fn join<A, B, RA, RB>(&self, oper_a: A, oper_b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        self.shared.metrics.joins.incr();
        let done = AtomicBool::new(false);
        let mut slot_b: Option<std::thread::Result<RB>> = None;
        {
            let done_ref = &done;
            let slot_ref = &mut slot_b;
            let task = move || {
                let result = catch_unwind(AssertUnwindSafe(oper_b));
                *slot_ref = Some(result);
                done_ref.store(true, Ordering::Release);
            };
            let boxed: Box<dyn FnOnce() + Send + '_> = Box::new(task);
            // SAFETY: the borrows captured by `task` (`done`, `slot_b`,
            // and everything borrowed by `oper_b`) live on this stack
            // frame, and we do not leave this function before observing
            // `done == true`, i.e. before the task has fully run. The
            // Release store / Acquire load pair on `done` orders the
            // task's writes before our reads.
            let boxed: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(boxed) };
            self.submit(boxed);
        }
        let result_a = catch_unwind(AssertUnwindSafe(oper_a));
        self.help_until(&done);
        let result_b = slot_b.take().expect("join task ran to completion");
        match (result_a, result_b) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(payload), _) => resume_unwind(payload),
            (_, Err(payload)) => resume_unwind(payload),
        }
    }

    /// Run queued jobs until `done` becomes true. Called by `join` while
    /// waiting for its spawned half; never blocks the thread for long, so
    /// a worker whose deque holds the awaited task will get to it.
    fn help_until(&self, done: &AtomicBool) {
        // Attribute help-run jobs to the worker doing the helping (or the
        // shared helper slot when `join` was called from outside the pool).
        let jobs_counter = CURRENT.with(|c| match c.get() {
            Some(ctx) if std::ptr::eq(ctx.shared, Arc::as_ptr(&self.shared)) => {
                self.shared.metrics.jobs_of(ctx.index)
            }
            _ => self.shared.metrics.help_jobs,
        });
        let mut idle_rounds = 0u32;
        while !done.load(Ordering::Acquire) {
            self.shared.metrics.join_help_iters.incr();
            if let Some(job) = self.find_job_any() {
                run_job(&self.shared, job);
                jobs_counter.incr();
                idle_rounds = 0;
            } else {
                idle_rounds += 1;
                if idle_rounds < 16 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }

    /// Find a job from anywhere in the pool: the current worker's deque
    /// first (when on a worker thread), then the injector, then steals.
    fn find_job_any(&self) -> Option<Job> {
        let local_job = CURRENT.with(|c| match c.get() {
            Some(ctx) if std::ptr::eq(ctx.shared, Arc::as_ptr(&self.shared)) => {
                // SAFETY: same invariant as in `submit`.
                unsafe { (*ctx.local).pop() }
            }
            _ => None,
        });
        if local_job.is_some() {
            self.shared.metrics.local_pop.incr();
            return local_job;
        }
        steal_from(&self.shared, usize::MAX)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.shared.sleep_mutex.lock().expect("sleep lock");
            self.shared.work_cond.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The process-wide executor the `par_*` primitives run on, sized to the
/// host's parallelism and created on first use.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool::new(n.clamp(1, 64))
    })
}

fn worker_loop(shared: &Arc<Shared>, local: &Worker<Job>, index: usize) {
    CURRENT.with(|c| {
        c.set(Some(WorkerCtx {
            shared: Arc::as_ptr(shared),
            local,
            index,
        }));
    });
    loop {
        let local_job = local.pop();
        if local_job.is_some() {
            shared.metrics.local_pop.incr();
        }
        if let Some(job) = local_job.or_else(|| steal_from(shared, index)) {
            run_job(shared, job);
            shared.metrics.worker_jobs[index].incr();
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Park until new work is submitted. Raising `sleepers` before the
        // re-check under the lock closes the submit/park race (see
        // `submit`), so the wait needs no timeout.
        let guard = shared.sleep_mutex.lock().expect("sleep lock");
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        if !shared.shutdown.load(Ordering::SeqCst) && !has_visible_work(shared, local) {
            shared.metrics.park.incr();
            let _guard = shared.work_cond.wait(guard).expect("sleep lock");
            shared.metrics.unpark.incr();
        }
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
    CURRENT.with(|c| c.set(None));
}

fn has_visible_work(shared: &Shared, local: &Worker<Job>) -> bool {
    !local.is_empty()
        || !shared.injector.is_empty()
        || shared.stealers.iter().any(|s| !s.is_empty())
}

/// Steal one job: from the injector first (oldest external work), then
/// from sibling deques starting after `index` (pass `usize::MAX` when not
/// a worker).
fn steal_from(shared: &Shared, index: usize) -> Option<Job> {
    loop {
        match shared.injector.steal() {
            Steal::Success(job) => {
                shared.metrics.injector_pop.incr();
                return Some(job);
            }
            Steal::Empty => break,
            Steal::Retry => {
                shared.metrics.steal_retry.incr();
                continue;
            }
        }
    }
    let n = shared.stealers.len();
    let start = if index == usize::MAX { 0 } else { index + 1 };
    for k in 0..n {
        let stealer = &shared.stealers[(start + k) % n];
        loop {
            match stealer.steal() {
                Steal::Success(job) => {
                    shared.metrics.steal_hit.incr();
                    return Some(job);
                }
                Steal::Empty => break,
                Steal::Retry => {
                    shared.metrics.steal_retry.incr();
                    continue;
                }
            }
        }
    }
    None
}

/// Execute one job panic-safely, then retire it from the pending count,
/// waking `wait_idle` on the transition to zero.
fn run_job(shared: &Shared, job: Job) {
    if catch_unwind(AssertUnwindSafe(job)).is_err() {
        shared.panicked.fetch_add(1, Ordering::SeqCst);
        shared.metrics.panics.incr();
    }
    if shared.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
        let _guard = shared.idle_mutex.lock().expect("idle lock");
        shared.idle_cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn executes_all_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let c = counter.clone();
            pool.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn wait_idle_on_fresh_pool_returns_immediately() {
        let pool = ThreadPool::new(2);
        pool.wait_idle();
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(3);
            for _ in 0..50 {
                let c = counter.clone();
                pool.execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.wait_idle();
        } // drop here
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn jobs_run_concurrently() {
        // With 4 workers, 4 jobs that each wait for the others must finish
        // (they would deadlock on a single thread).
        use std::sync::Barrier;
        let pool = ThreadPool::new(4);
        let barrier = Arc::new(Barrier::new(4));
        for _ in 0..4 {
            let b = barrier.clone();
            pool.execute(move || {
                b.wait();
            });
        }
        pool.wait_idle();
    }

    #[test]
    fn panicking_job_with_an_open_span_is_contained() {
        // A job that panics while a span is open (or leaks one) is
        // counted, and the same worker keeps running later jobs. One
        // worker makes the follow-up job land on the panicked thread.
        let pool = ThreadPool::new(1);
        pool.execute(|| {
            let leaked = gp_telemetry::span!("pool_panic_leak");
            std::mem::forget(leaked);
            let _open = gp_telemetry::span!("pool_panic_open");
            panic!("panics with an open span");
        });
        pool.wait_idle();
        assert_eq!(pool.panicked_jobs(), 1);
        let ran = Arc::new(AtomicU64::new(0));
        let r = ran.clone();
        pool.execute(move || {
            let _s = gp_telemetry::span!("pool_after_panic");
            r.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(pool.panicked_jobs(), 1);
    }

    #[test]
    fn panicking_job_does_not_hang_wait_idle() {
        // Regression: in the seed pool a panicking job killed its worker
        // before the pending decrement, so wait_idle blocked forever.
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..20 {
            let c = counter.clone();
            pool.execute(move || {
                if i % 4 == 0 {
                    panic!("job {i} panics");
                }
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle(); // must return despite 5 panicking jobs
        assert_eq!(counter.load(Ordering::Relaxed), 15);
        assert_eq!(pool.panicked_jobs(), 5);
        // The pool is still fully operational afterwards.
        let c = counter.clone();
        pool.execute(move || {
            c.fetch_add(100, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 115);
    }

    #[test]
    fn join_returns_both_results() {
        let pool = ThreadPool::new(2);
        let (a, b) = pool.join(|| 6 * 7, || "forty-two".len());
        assert_eq!(a, 42);
        assert_eq!(b, 9);
    }

    #[test]
    fn join_borrows_stack_data() {
        let pool = ThreadPool::new(3);
        let data: Vec<u64> = (0..10_000).collect();
        let (left, right) = data.split_at(5000);
        let (sl, sr) = pool.join(|| left.iter().sum::<u64>(), || right.iter().sum::<u64>());
        assert_eq!(sl + sr, data.iter().sum::<u64>());
    }

    #[test]
    fn nested_joins_recurse() {
        fn sum(pool: &ThreadPool, xs: &[u64]) -> u64 {
            if xs.len() <= 100 {
                return xs.iter().sum();
            }
            let (l, r) = xs.split_at(xs.len() / 2);
            let (a, b) = pool.join(|| sum(pool, l), || sum(pool, r));
            a + b
        }
        let pool = ThreadPool::new(4);
        let xs: Vec<u64> = (0..100_000).collect();
        assert_eq!(sum(&pool, &xs), xs.iter().sum::<u64>());
        // And on a single-worker pool (the caller helps).
        let pool1 = ThreadPool::new(1);
        assert_eq!(sum(&pool1, &xs), xs.iter().sum::<u64>());
    }

    #[test]
    fn join_propagates_panics_from_either_side() {
        let pool = ThreadPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 1, || panic!("b side"));
        }));
        assert!(caught.is_err());
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| panic!("a side"), || 2);
        }));
        assert!(caught.is_err());
        // Pool still alive and well.
        let (a, b) = pool.join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert!(global().workers() >= 1);
    }

    #[test]
    fn a_job_submitted_to_an_idle_pool_always_runs() {
        // Parking has no timeout, so a lost wakeup would strand the job
        // until the next submit. Each round lets the workers go idle (and
        // race into the park) before handing them exactly one job.
        let pool = ThreadPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        for round in 0..10_000u32 {
            pool.wait_idle();
            if round % 64 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            let tx = tx.clone();
            pool.execute(move || tx.send(round).expect("receiver alive"));
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(1)),
                Ok(round),
                "round {round}: a job submitted to an idle pool did not run"
            );
        }
    }
}
