//! Pool occupancy counters.
//!
//! The counters are monotonic process-lifetime totals, mirroring the
//! snapshot-delta idiom of `higraph_sim::selection`: a harness snapshots
//! before and after a region and reports the difference (the
//! `hostperf.pool.*` keys in `repro hostperf`). They are host-side
//! observability only — no simulated state ever reads them.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters owned by one [`crate::CorePool`].
#[derive(Debug, Default)]
pub(crate) struct PoolCounters {
    /// Queued pool tasks executed by workers (stolen or own-deque).
    pub(crate) tasks_executed: AtomicU64,
    /// Subset of `tasks_executed` taken from another worker's deque.
    pub(crate) tasks_stolen: AtomicU64,
    /// Queued tasks reclaimed and run inline by the submitting thread.
    pub(crate) tasks_inline: AtomicU64,
    /// Individual batch items completed under [`crate::CorePool::run_ordered`].
    pub(crate) items_executed: AtomicU64,
    /// Nanoseconds resident workers spent inside task bodies.
    pub(crate) busy_ns: AtomicU64,
}

impl PoolCounters {
    pub(crate) fn add(&self, counter: &AtomicU64, value: u64) {
        counter.fetch_add(value, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            tasks_stolen: self.tasks_stolen.load(Ordering::Relaxed),
            tasks_inline: self.tasks_inline.load(Ordering::Relaxed),
            items_executed: self.items_executed.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            ..PoolSnapshot::default()
        }
    }
}

/// A point-in-time copy of a pool's counters; subtract two snapshots
/// (via [`PoolSnapshot::since`]) to attribute activity to a region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Queued pool tasks executed by workers.
    pub tasks_executed: u64,
    /// Tasks a worker stole from another worker's deque.
    pub tasks_stolen: u64,
    /// Queued tasks reclaimed and run inline by the submitting thread.
    pub tasks_inline: u64,
    /// Batch items completed under `run_ordered`.
    pub items_executed: u64,
    /// Always 0: the pool has no leases (each scatter phase's drains
    /// are one `run_ordered` batch). Kept for readers built against the
    /// field.
    pub lease_requests: u64,
    /// Always 0, like [`PoolSnapshot::lease_requests`].
    pub lease_workers_granted: u64,
    /// Always 0, like [`PoolSnapshot::lease_requests`].
    pub lease_workers_oversubscribed: u64,
    /// Nanoseconds resident workers spent inside task bodies.
    pub busy_ns: u64,
}

impl PoolSnapshot {
    /// The activity between `earlier` and `self` (saturating, so a
    /// mismatched pair degrades to zeros instead of wrapping).
    pub fn since(&self, earlier: &PoolSnapshot) -> PoolSnapshot {
        PoolSnapshot {
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            tasks_stolen: self.tasks_stolen.saturating_sub(earlier.tasks_stolen),
            tasks_inline: self.tasks_inline.saturating_sub(earlier.tasks_inline),
            items_executed: self.items_executed.saturating_sub(earlier.items_executed),
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            ..PoolSnapshot::default()
        }
    }

    /// Worker occupancy over a wall-clock window: busy nanoseconds per
    /// worker-nanosecond available. Zero when the pool has no resident
    /// workers or the window is empty.
    pub fn occupancy(&self, window_ns: u64, workers: usize) -> f64 {
        let capacity = window_ns.saturating_mul(workers as u64);
        if capacity == 0 {
            0.0
        } else {
            self.busy_ns as f64 / capacity as f64
        }
    }
}
