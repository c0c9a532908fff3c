//! Process-wide tally of fast-forward window selections: how many times
//! a fast-forward [`Scheduler`](crate::Scheduler) asked a drained
//! component for its next activity window.
//!
//! This is an observability counter for the host-performance trajectory
//! (`repro hostperf` reports the selections per leg) — it is *not* part
//! of the accelerator's `Metrics`: a naive per-cycle drain performs no
//! window selections at all, so folding it into `Metrics` would break
//! the naive-vs-fast bit-identity contract.
//!
//! The scheduler tallies selections locally during a drain and flushes
//! them here once per drain, so the atomic stays off the per-cycle hot
//! path.

use std::sync::atomic::{AtomicU64, Ordering};

static POLL_WINDOWS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the process-wide selection tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionCounts {
    /// Always 0: every selection folds its component's windows
    /// directly. Kept because the repository benchmark reads it, until
    /// the next benchmark change drops its `sim.wheel.*` metrics.
    pub wheel_windows: u64,
    /// Window selections made by fast-forward drains.
    pub poll_windows: u64,
}

impl SelectionCounts {
    /// Selections accumulated since `earlier` (wrapping, so interleaved
    /// snapshots from other threads never panic).
    pub fn since(&self, earlier: &SelectionCounts) -> SelectionCounts {
        SelectionCounts {
            wheel_windows: self.wheel_windows.wrapping_sub(earlier.wheel_windows),
            poll_windows: self.poll_windows.wrapping_sub(earlier.poll_windows),
        }
    }
}

/// Adds a drain's local tally to the process-wide counter.
pub fn record(windows: u64) {
    if windows > 0 {
        POLL_WINDOWS.fetch_add(windows, Ordering::Relaxed);
    }
}

/// The current process-wide tally.
pub fn snapshot() -> SelectionCounts {
    SelectionCounts {
        wheel_windows: 0,
        poll_windows: POLL_WINDOWS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_into_snapshots() {
        let before = snapshot();
        record(3);
        record(0); // no-op fast path
        let delta = snapshot().since(&before);
        // other tests may record concurrently; the delta is at least ours
        assert!(delta.poll_windows >= 3, "{delta:?}");
        assert_eq!(delta.wheel_windows, 0);
    }
}
