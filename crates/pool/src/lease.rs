//! Core leases: intra-run parallelism on top of the pool.
//!
//! A sharded iteration's chip drains (`higraph_accel::parallel`) want
//! *dedicated* participants that start at once, not queued tasks that
//! might wait behind other work. [`CorePool::lease`] reserves
//! currently-idle workers for exactly that: a leased worker leaves the
//! stealing rotation and serves only the lease's team tasks until the
//! lease drops. Because a lease can only
//! claim idle workers, chip drains and batch jobs share the host
//! gracefully — a core busy simulating one job is never yanked into
//! another job's drain; it simply isn't granted, and the drain runs with
//! fewer participants (or serially), bit-identically.

use crate::{erase_job, lock, CorePool, ErasedJob, ScopeState, IDLE, LEASED};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// One participant's role in a [`CoreLease::run_team`] protocol.
pub type TeamTask<'env, R> = Box<dyn FnOnce() -> R + Send + 'env>;

/// A reservation of pool workers (plus, for [`CorePool::lease_exact`],
/// temporary threads) held for the lease's lifetime. Dropping the lease
/// returns the workers to the pool's stealing rotation.
pub struct CoreLease<'p> {
    pool: &'p CorePool,
    /// Indices of reserved resident workers.
    members: Vec<usize>,
    /// Temporary threads attached per team run beyond the idle supply.
    extra: usize,
}

impl CorePool {
    /// Reserves up to `max` *currently idle* workers. The grant may be
    /// empty on a busy (or worker-less) pool; callers fall back to
    /// running serially — results are identical either way.
    pub fn lease(&self, max: usize) -> CoreLease<'_> {
        let shared = self.shared();
        let mut members = Vec::new();
        if max > 0 {
            for (i, slot) in shared.slots.iter().enumerate() {
                if slot
                    .mode
                    .compare_exchange(IDLE, LEASED, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    members.push(i);
                    if members.len() == max {
                        break;
                    }
                }
            }
        }
        shared.counters.add(&shared.counters.lease_requests, 1);
        shared
            .counters
            .add(&shared.counters.lease_workers_granted, members.len() as u64);
        if !members.is_empty() {
            shared.wake_all();
        }
        CoreLease {
            pool: self,
            members,
            extra: 0,
        }
    }

    /// Reserves exactly `n` team slots: idle workers first, the
    /// shortfall as temporary threads spawned per [`CoreLease::run_team`]
    /// call. For callers that *require* a participant count — the
    /// explicit `set_threads(Some(n))` override — so an n-worker drain
    /// protocol runs even on a host with fewer free cores.
    pub fn lease_exact(&self, n: usize) -> CoreLease<'_> {
        let mut lease = self.lease(n);
        lease.extra = n - lease.members.len();
        let shared = self.shared();
        shared.counters.add(
            &shared.counters.lease_workers_oversubscribed,
            lease.extra as u64,
        );
        lease
    }
}

impl CoreLease<'_> {
    /// Participants a [`CoreLease::run_team`] call will have: reserved
    /// workers plus temporary threads.
    pub fn team_size(&self) -> usize {
        self.members.len() + self.extra
    }

    /// Runs one team protocol: each task executes on its own dedicated
    /// participant while `coordinator` runs on the calling thread; the
    /// call returns when the coordinator *and* every task have finished.
    ///
    /// A task panic is re-raised here after the whole team has wound
    /// down; a coordinator panic is re-raised after the tasks finish.
    ///
    /// # Panics
    ///
    /// Panics if `tasks.len() != self.team_size()` — team protocols are
    /// built for an exact participant count.
    pub fn run_team<'env, R, T>(
        &self,
        tasks: Vec<TeamTask<'env, R>>,
        coordinator: impl FnOnce() -> T,
    ) -> (T, Vec<R>)
    where
        R: Send + 'env,
    {
        assert_eq!(
            tasks.len(),
            self.team_size(),
            "one team task per leased participant"
        );
        let n = tasks.len();
        if n == 0 {
            return (coordinator(), Vec::new());
        }
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let scope = ScopeState::new(n);
        let mut jobs: Vec<ErasedJob> = Vec::with_capacity(n);
        for (i, task) in tasks.into_iter().enumerate() {
            let scope_task = std::sync::Arc::clone(&scope);
            let slot = &results[i];
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                match catch_unwind(AssertUnwindSafe(task)) {
                    Ok(r) => *lock(slot) = Some(r),
                    Err(payload) => scope_task.record_panic(payload),
                }
                scope_task.finish_one();
            });
            // SAFETY: `scope.wait()` below runs before `run_team`
            // returns on every path (including coordinator panics), so
            // the job never outlives `results` or the task's borrows.
            jobs.push(unsafe { erase_job(job) });
        }
        let shared = self.pool.shared();
        let mut jobs = jobs.into_iter();
        for &w in &self.members {
            let slot = &shared.slots[w];
            let mut direct = lock(&slot.direct);
            debug_assert!(direct.is_none(), "one team task in flight per worker");
            *direct = jobs.next();
            slot.direct_cv.notify_all();
        }
        let mut handles = Vec::with_capacity(self.extra);
        for job in jobs {
            handles.push(
                std::thread::Builder::new()
                    .name("higraph-pool-extra".to_string())
                    .spawn(job)
                    .expect("spawn oversubscription thread"),
            );
        }
        let out = catch_unwind(AssertUnwindSafe(coordinator));
        scope.wait();
        for handle in handles {
            let _ = handle.join(); // panics were captured by the wrapper
        }
        if let Some(payload) = scope.take_panic() {
            resume_unwind(payload);
        }
        match out {
            Ok(t) => (
                t,
                results
                    .into_iter()
                    .map(|slot| {
                        slot.into_inner()
                            .unwrap_or_else(|p| p.into_inner())
                            .expect("team task completed")
                    })
                    .collect(),
            ),
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl Drop for CoreLease<'_> {
    fn drop(&mut self) {
        let shared = self.pool.shared();
        for &w in &self.members {
            let released = shared.slots[w]
                .mode
                .compare_exchange(LEASED, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            debug_assert!(released, "a leased worker can only be released once");
            let _ = released;
            let _guard = lock(&shared.slots[w].direct);
            shared.slots[w].direct_cv.notify_all();
        }
        if !self.members.is_empty() {
            shared.wake_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Polls until every pool worker has parked as idle (worker startup
    /// and post-task transitions are asynchronous).
    fn settle(pool: &CorePool, want_idle: usize) {
        for _ in 0..2000 {
            let lease = pool.lease(want_idle);
            let got = lease.team_size();
            drop(lease);
            if got == want_idle {
                return;
            }
            std::thread::yield_now();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("pool never settled to {want_idle} idle workers");
    }

    #[test]
    fn lease_grants_only_idle_workers() {
        let pool = CorePool::new(2);
        settle(&pool, 2);
        let a = pool.lease(8);
        assert_eq!(a.team_size(), 2, "grant capped by the idle supply");
        let b = pool.lease(8);
        assert_eq!(b.team_size(), 0, "no double-granting");
        drop(a);
        settle(&pool, 2);
    }

    #[test]
    fn lease_exact_oversubscribes_with_temporary_threads() {
        let pool = CorePool::new(1);
        settle(&pool, 1);
        let lease = pool.lease_exact(4);
        assert_eq!(lease.team_size(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<TeamTask<'_, usize>> = (0..4usize)
            .map(|i| {
                let counter = Arc::clone(&counter);
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    i * 2
                }) as TeamTask<'_, usize>
            })
            .collect();
        let (coord, results) = lease.run_team(tasks, || 99usize);
        assert_eq!(coord, 99);
        assert_eq!(results, vec![0, 2, 4, 6]);
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn team_tasks_overlap_the_coordinator() {
        // A two-phase handshake through atomics: the team task can only
        // finish after the coordinator has run — so run_team must truly
        // execute them concurrently, not sequentially.
        let pool = CorePool::new(1);
        settle(&pool, 1);
        let lease = pool.lease_exact(1);
        let flag = AtomicUsize::new(0);
        let tasks: Vec<TeamTask<'_, ()>> = vec![Box::new(|| {
            while flag.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        })];
        let ((), _) = lease.run_team(tasks, || flag.store(1, Ordering::SeqCst));
    }

    #[test]
    fn released_workers_return_to_batch_duty() {
        let pool = CorePool::new(2);
        settle(&pool, 2);
        {
            let lease = pool.lease(2);
            assert_eq!(lease.team_size(), 2);
        }
        settle(&pool, 2);
        assert_eq!(pool.run_ordered(8, |i| i + 1), (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn team_panic_propagates_after_wind_down() {
        let pool = CorePool::new(1);
        settle(&pool, 1);
        let lease = pool.lease_exact(2);
        let tasks: Vec<TeamTask<'_, ()>> = vec![Box::new(|| ()), Box::new(|| panic!("team boom"))];
        let outcome = catch_unwind(AssertUnwindSafe(|| lease.run_team(tasks, || ())));
        assert!(outcome.is_err());
        drop(lease);
        settle(&pool, 1);
    }
}
