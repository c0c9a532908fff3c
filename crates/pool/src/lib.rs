//! The host-core pool behind both of HiGraph's parallelism layers (see
//! `docs/performance.md` and `docs/serve.md`).
//!
//! One process owns one [`CorePool`] ([`CorePool::global`]): a fixed set
//! of resident worker threads, each with its own task deque, stealing
//! from its peers when its deque runs dry. Its one execution primitive,
//! [`CorePool::run_ordered`], serves both layers: the caller submits `n`
//! independent items, worker *runner tasks* plus the calling thread
//! drain a shared cursor, results land in submission order, and the
//! call returns only when every item is done. Batch sweeps
//! ([`BatchRunner`](../higraph_accel/struct.BatchRunner.html)) submit
//! their jobs this way, and each scatter phase of a run submits its
//! chip and link drains. A run inside a batch job nests one batch in
//! another: a worker takes a task only when it is idle, and the
//! submitting thread reclaims every task of its batch that no worker
//! has started, so nesting never oversubscribes the host or waits on a
//! busy core.
//!
//! # Determinism contract
//!
//! The pool schedules *host work*; it never touches simulated state.
//! Every caller in this workspace (batch sweeps, chip drains, the
//! `higraph-serve` queue) produces bit-identical results regardless of
//! worker count, steal order, or co-scheduled jobs: `run_ordered`
//! preserves item order, and no item reads which thread runs it.
//!
//! # Soundness
//!
//! Tasks borrow caller state (`'env` closures) but run on `'static`
//! threads, so the pool erases lifetimes — the one `unsafe` surface of
//! the crate. It is sound because `run_ordered` joins its scope latch
//! before returning, on panic paths included, and no unjoined handle is
//! ever exposed (the workspace also denies `mem::forget` via clippy).
//! See the `SAFETY:` comments at the single transmute site.

mod stats;

pub use stats::PoolSnapshot;

use stats::PoolCounters;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
// lint:allow(determinism): wall-clock only feeds the host-side occupancy counters; simulated state never reads it
use std::time::Instant;

/// How long an idle worker sleeps between wake checks; the condition
/// variable is notified on every push, so this is a lost-wakeup
/// backstop, not the scheduling latency.
const PARK_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(2);

/// A lifetime-erased queued job.
type ErasedJob = Box<dyn FnOnce() + Send + 'static>;

/// One queued pool task: the job plus the identity of the scope that
/// submitted it (so the submitter can reclaim still-queued tasks of its
/// own scope while waiting, bounding every join to in-flight work).
struct Task {
    scope_id: usize,
    job: ErasedJob,
}

/// Completion latch + first-panic store shared by one submission scope.
struct ScopeState {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl ScopeState {
    fn new(tasks: usize) -> Arc<Self> {
        Arc::new(ScopeState {
            remaining: Mutex::new(tasks),
            done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    fn id(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        lock(&self.panic).take()
    }

    fn finish_one(&self) {
        let mut remaining = lock(&self.remaining);
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every task of this scope has finished.
    fn wait(&self) {
        let mut remaining = lock(&self.remaining);
        while *remaining > 0 {
            remaining = match self.done.wait(remaining) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// Locks a mutex, recovering from poisoning: the pool's shared state
/// (counters, result slots, queues) stays valid across a payload panic,
/// which the wrappers catch and re-raise at the join point anyway.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Erases a scoped job's lifetime so it can run on a resident thread.
///
/// # Safety
///
/// The caller must join the job's scope latch before `'env` ends, on
/// every path including panics, so the job (and everything it borrows)
/// never outlives the borrowed environment.
// SAFETY: declaring the fn unsafe delegates the join-before-'env-ends
// obligation below to the call site, which waits on its ScopeState
// latch before returning.
unsafe fn erase_job<'env>(job: Box<dyn FnOnce() + Send + 'env>) -> ErasedJob {
    // SAFETY: only the lifetime parameter changes; the caller upholds
    // the join-before-'env-ends contract documented above (the call
    // site in `run_ordered` waits on its ScopeState latch before
    // returning).
    unsafe { std::mem::transmute(job) }
}

/// State shared between the pool handle and its workers.
struct Shared {
    /// One task deque per worker: the owner pops the front, thieves pop
    /// the back.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Queued-but-unclaimed task count (parking predicate).
    pending: AtomicUsize,
    /// Round-robin cursor for task placement.
    next_push: AtomicUsize,
    shutdown: AtomicBool,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    counters: PoolCounters,
}

impl Shared {
    /// Pops a task for worker `me`: own deque first (front), then a
    /// rotating steal scan of the peers (back).
    fn find_task(&self, me: usize) -> Option<Task> {
        if let Some(task) = lock(&self.deques[me]).pop_front() {
            self.pending.fetch_sub(1, Ordering::Relaxed);
            return Some(task);
        }
        let n = self.deques.len();
        for k in 1..n {
            let victim = (me + k) % n;
            if let Some(task) = lock(&self.deques[victim]).pop_back() {
                self.pending.fetch_sub(1, Ordering::Relaxed);
                self.counters.add(&self.counters.tasks_stolen, 1);
                return Some(task);
            }
        }
        None
    }

    fn wake_all(&self) {
        let _guard = lock(&self.sleep_lock);
        self.sleep_cv.notify_all();
    }
}

/// The resident worker loop: run queued tasks, park while there are
/// none.
fn worker_loop(shared: Arc<Shared>, me: usize) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match shared.find_task(me) {
            Some(task) => {
                // lint:allow(determinism): wall-clock only feeds the host-side occupancy counters; simulated state never reads it
                let started = Instant::now();
                (task.job)();
                shared.counters.add(
                    &shared.counters.busy_ns,
                    started.elapsed().as_nanos() as u64,
                );
                shared.counters.add(&shared.counters.tasks_executed, 1);
            }
            None => {
                let mut guard = lock(&shared.sleep_lock);
                while !shared.shutdown.load(Ordering::SeqCst)
                    && shared.pending.load(Ordering::SeqCst) == 0
                {
                    guard = match shared.sleep_cv.wait_timeout(guard, PARK_TIMEOUT) {
                        Ok((g, _)) => g,
                        Err(poisoned) => poisoned.into_inner().0,
                    };
                }
            }
        }
    }
}

/// A fixed-size work-stealing pool of resident host threads.
///
/// Most code uses the process-wide [`CorePool::global`]; tests build
/// private pools with [`CorePool::new`] to pin the worker count.
pub struct CorePool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl CorePool {
    /// A pool with exactly `workers` resident threads. Zero workers is
    /// valid: every batch then runs on the calling thread.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            next_push: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            counters: PoolCounters::default(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("higraph-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        CorePool {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// The process-wide pool, created on first use with
    /// [`default_workers`] resident threads.
    pub fn global() -> &'static CorePool {
        static GLOBAL: OnceLock<CorePool> = OnceLock::new();
        GLOBAL.get_or_init(|| CorePool::new(default_workers()))
    }

    /// Resident worker threads (not counting submitting threads, which
    /// always participate in their own batches).
    pub fn workers(&self) -> usize {
        self.shared.deques.len()
    }

    /// A point-in-time copy of the pool's occupancy counters.
    pub fn snapshot(&self) -> PoolSnapshot {
        self.shared.counters.snapshot()
    }

    /// Queues one erased task, round-robin across worker deques.
    fn push_task(&self, task: Task) {
        let n = self.shared.deques.len();
        debug_assert!(n > 0, "push_task on a worker-less pool");
        let at = self.shared.next_push.fetch_add(1, Ordering::Relaxed) % n;
        lock(&self.shared.deques[at]).push_back(task);
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        self.shared.wake_all();
    }

    /// Reclaims and runs still-queued tasks of `scope_id` on the calling
    /// thread, so a join never waits on a task that no worker has
    /// started (e.g. when every worker is busy with other jobs).
    fn drain_scope(&self, scope_id: usize) {
        loop {
            let mut reclaimed = None;
            for deque in &self.shared.deques {
                let mut deque = lock(deque);
                if let Some(pos) = deque.iter().position(|t| t.scope_id == scope_id) {
                    reclaimed = deque.remove(pos);
                    break;
                }
            }
            match reclaimed {
                Some(task) => {
                    self.shared.pending.fetch_sub(1, Ordering::Relaxed);
                    (task.job)();
                    self.shared
                        .counters
                        .add(&self.shared.counters.tasks_inline, 1);
                }
                None => return,
            }
        }
    }

    /// Runs `f(0..n)` across the pool plus the calling thread and
    /// returns the results in index order — bit-identical to
    /// `(0..n).map(f).collect()` for any worker count or steal order.
    ///
    /// The call blocks until every item has completed; a panicking item
    /// finishes the batch's bookkeeping and then re-raises here.
    pub fn run_ordered<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let runners = self.workers().min(n.saturating_sub(1));
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let counters = &self.shared.counters;
        let body = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let r = f(i);
            *lock(&results[i]) = Some(r);
            counters.add(&counters.items_executed, 1);
        };
        if runners == 0 {
            body();
        } else {
            let scope = ScopeState::new(runners);
            for _ in 0..runners {
                let scope_task = Arc::clone(&scope);
                let body = &body;
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                        scope_task.record_panic(payload);
                    }
                    scope_task.finish_one();
                });
                // SAFETY: this scope's latch is joined via `scope.wait()`
                // below before `run_ordered` returns on every path
                // (including caller and runner panics), so the job never
                // outlives `f`, `results`, or `cursor`.
                let job = unsafe { erase_job(job) };
                self.push_task(Task {
                    scope_id: scope.id(),
                    job,
                });
            }
            let caller = catch_unwind(AssertUnwindSafe(&body));
            self.drain_scope(scope.id());
            scope.wait();
            if let Err(payload) = caller {
                resume_unwind(payload);
            }
            if let Some(payload) = scope.take_panic() {
                resume_unwind(payload);
            }
        }
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("every index was claimed and completed")
            })
            .collect()
    }
}

impl Drop for CorePool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        for handle in lock(&self.handles).drain(..) {
            let _ = handle.join();
        }
    }
}

/// The global pool's worker count: the host's available parallelism
/// minus one (the submitting thread always participates), overridable
/// with `HIGRAPH_POOL_THREADS`. Worker count is a host-performance knob
/// only — results are bit-identical for every value.
pub fn default_workers() -> usize {
    // lint:allow(determinism): host worker-count override; results are worker-count-independent by the pool's contract
    if let Ok(value) = std::env::var("HIGRAPH_POOL_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            return n.min(256);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_ordered_matches_serial_for_any_worker_count() {
        let expect: Vec<u64> = (0..97u64).map(|i| i * i + 1).collect();
        for workers in [0usize, 1, 3, 8] {
            let pool = CorePool::new(workers);
            let got = pool.run_ordered(97, |i| (i as u64) * (i as u64) + 1);
            assert_eq!(got, expect, "{workers} workers");
        }
    }

    #[test]
    fn run_ordered_handles_empty_and_single() {
        let pool = CorePool::new(2);
        let empty: Vec<u32> = pool.run_ordered(0, |_| 0u32);
        assert!(empty.is_empty());
        assert_eq!(pool.run_ordered(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn run_ordered_propagates_item_panics() {
        let pool = CorePool::new(3);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.run_ordered(16, |i| {
                assert!(i != 7, "boom");
                i
            })
        }));
        assert!(outcome.is_err());
        // the pool stays usable after a panicked batch
        assert_eq!(pool.run_ordered(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn nested_batches_complete() {
        // A sharded run inside a batch job is a batch nested in a batch;
        // a 2-core host's pool has one worker.
        for workers in [0usize, 1, 3] {
            let pool = CorePool::new(workers);
            let out = pool.run_ordered(4, |i| {
                pool.run_ordered(4, |j| i * 10 + j).iter().sum::<usize>()
            });
            assert_eq!(out, vec![6, 46, 86, 126], "{workers} workers");
        }
    }

    #[test]
    fn counters_accumulate() {
        let pool = CorePool::new(2);
        let before = pool.snapshot();
        pool.run_ordered(64, |i| i);
        let after = pool.snapshot().since(&before);
        assert_eq!(after.items_executed, 64);
        assert!(after.occupancy(1_000_000_000, pool.workers()) >= 0.0);
    }

    #[test]
    fn default_workers_is_bounded() {
        assert!(default_workers() <= 256);
    }
}
