//! Execution metrics: the quantities the paper's evaluation reports.
//!
//! # Finiteness
//!
//! Every derived ratio on [`Metrics`] (and [`MemoryMetrics`]) guards its
//! denominator and returns a finite number on degenerate runs — an empty
//! graph, an empty initial frontier, zero processed edges. `repro
//! --json` relies on this: the report writer serializes non-finite
//! values as `null`, which the `--check` perf gate then rejects, so a
//! NaN metric would fail CI rather than silently pass.

use crate::cache::CacheStats;
use higraph_sim::dram::MemoryStats;
use higraph_sim::NetworkStats;

/// Off-chip memory counters of one run (all zero under the default
/// infinite-bandwidth configuration).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryMetrics {
    /// Edge/offset cache line touches served on chip.
    pub cache_hits: u64,
    /// Cache lines fetched from DRAM.
    pub cache_misses: u64,
    /// Pipeline-stage stall cycles waiting on off-chip data, summed over
    /// channels (one blocked channel-cycle = one stall cycle).
    pub stall_cycles: u64,
    /// DRAM channel counters (row-buffer locality lives here).
    pub dram: MemoryStats,
}

impl MemoryMetrics {
    /// Cache hit rate; 0.0 when memory is unmodeled or untouched.
    pub fn cache_hit_rate(&self) -> f64 {
        CacheStats {
            hits: self.cache_hits,
            misses: self.cache_misses,
        }
        .hit_rate()
    }

    /// DRAM row-buffer hit rate; 0.0 when memory is unmodeled.
    pub fn row_hit_rate(&self) -> f64 {
        self.dram.row_hit_rate()
    }

    /// Folds `other` into `self` by summing every counter (multi-chip
    /// aggregation).
    pub fn merge(&mut self, other: &MemoryMetrics) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.stall_cycles += other.stall_cycles;
        self.dram.merge(&other.dram);
    }
}

/// Metrics of one accelerator run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Total simulated cycles (scatter + apply, all iterations).
    pub cycles: u64,
    /// Cycles spent in scatter phases only.
    pub scatter_cycles: u64,
    /// Cycles spent in apply phases only.
    pub apply_cycles: u64,
    /// Edge traversals executed (the TEPS numerator).
    pub edges_processed: u64,
    /// VCPM iterations executed.
    pub iterations: u32,
    /// Total vPE starvation cycles (Fig. 10b): scatter cycles in which a
    /// vPE had no input while work was still in flight, summed over vPEs.
    pub vpe_starvation_cycles: u64,
    /// Per-vPE starvation cycles (one entry per back-end channel); sums to
    /// [`Metrics::vpe_starvation_cycles`]. Useful for spotting hot-bank
    /// imbalance.
    pub vpe_starvation_per_channel: Vec<u64>,
    /// Offset Array access conflicts (failed bank-pair claims).
    pub offset_conflicts: u64,
    /// The design's effective clock, GHz (Fig. 4 / Sec. 5.3 model).
    pub frequency_ghz: f64,
    /// Offset-routing fabric statistics.
    pub offset_net: NetworkStats,
    /// Edge-access unit statistics.
    pub edge_net: NetworkStats,
    /// Dataflow-propagation fabric statistics.
    pub dataflow_net: NetworkStats,
    /// Off-chip memory statistics (cache + DRAM); all zero under the
    /// default infinite-bandwidth memory configuration.
    pub memory: MemoryMetrics,
}

impl Metrics {
    /// Throughput in giga-traversed-edges-per-second (the paper's GTEPS,
    /// Fig. 9): edges per cycle × clock (GHz).
    ///
    /// # Example
    ///
    /// ```
    /// use higraph_accel::Metrics;
    ///
    /// let m = Metrics {
    ///     cycles: 1_000,
    ///     edges_processed: 16_000,
    ///     frequency_ghz: 1.0,
    ///     ..Metrics::default()
    /// };
    /// assert!((m.gteps() - 16.0).abs() < 1e-12);
    /// ```
    pub fn gteps(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.edges_processed as f64 / self.cycles as f64 * self.frequency_ghz
        }
    }

    /// Wall-clock execution time in nanoseconds under the modeled clock.
    pub fn time_ns(&self) -> f64 {
        if self.frequency_ghz == 0.0 {
            f64::INFINITY
        } else {
            self.cycles as f64 / self.frequency_ghz
        }
    }

    /// Speedup of `self` over `other` (ratio of modeled execution times,
    /// as in Fig. 8).
    ///
    /// Always finite: a comparison involving a degenerate run — zero
    /// modeled time (empty workload) or infinite time (zero clock) —
    /// carries no information and reports 1.0 instead of NaN/∞.
    pub fn speedup_over(&self, other: &Metrics) -> f64 {
        let (mine, theirs) = (self.time_ns(), other.time_ns());
        let degenerate = |t: f64| t == 0.0 || !t.is_finite();
        if degenerate(mine) || degenerate(theirs) {
            1.0
        } else {
            theirs / mine
        }
    }

    /// Mean starvation cycles per vPE.
    pub fn starvation_per_vpe(&self, num_vpes: usize) -> f64 {
        if num_vpes == 0 {
            0.0
        } else {
            self.vpe_starvation_cycles as f64 / num_vpes as f64
        }
    }

    /// Ratio of the most- to least-starved vPE (1.0 = perfectly even);
    /// large values indicate hot destination banks.
    pub fn starvation_imbalance(&self) -> f64 {
        let max = self.vpe_starvation_per_channel.iter().copied().max();
        let min = self.vpe_starvation_per_channel.iter().copied().min();
        match (max, min) {
            (Some(max), Some(min)) if min > 0 => max as f64 / min as f64,
            (Some(max), Some(_)) if max > 0 => f64::INFINITY,
            _ => 1.0,
        }
    }
}

impl higraph_sim::Snapshot for MemoryMetrics {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        w.tag(b"MMET");
        w.u64(self.cache_hits);
        w.u64(self.cache_misses);
        w.u64(self.stall_cycles);
        self.dram.save(w);
    }

    fn load(&mut self, r: &mut higraph_sim::SnapReader<'_>) -> Result<(), higraph_sim::SnapError> {
        r.expect_tag(b"MMET")?;
        self.cache_hits = r.u64()?;
        self.cache_misses = r.u64()?;
        self.stall_cycles = r.u64()?;
        self.dram.load(r)?;
        Ok(())
    }
}

/// A restore loads into metrics sized for the live back-end (a fresh run
/// state has one starvation entry per back-end channel), so the stored
/// per-channel vector must have exactly that length.
impl higraph_sim::Snapshot for Metrics {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        w.tag(b"METR");
        w.u64(self.cycles);
        w.u64(self.scatter_cycles);
        w.u64(self.apply_cycles);
        w.u64(self.edges_processed);
        w.u32(self.iterations);
        w.u64(self.vpe_starvation_cycles);
        w.seq(self.vpe_starvation_per_channel.iter());
        w.u64(self.offset_conflicts);
        w.f64(self.frequency_ghz);
        self.offset_net.save(w);
        self.edge_net.save(w);
        self.dataflow_net.save(w);
        self.memory.save(w);
    }

    fn load(&mut self, r: &mut higraph_sim::SnapReader<'_>) -> Result<(), higraph_sim::SnapError> {
        r.expect_tag(b"METR")?;
        self.cycles = r.u64()?;
        self.scatter_cycles = r.u64()?;
        self.apply_cycles = r.u64()?;
        self.edges_processed = r.u64()?;
        self.iterations = r.u32()?;
        self.vpe_starvation_cycles = r.u64()?;
        let channels = self.vpe_starvation_per_channel.len();
        let per_channel: Vec<u64> = r.seq(channels)?;
        if per_channel.len() != channels {
            return Err(higraph_sim::SnapError::new(format!(
                "per-channel starvation has {} entries, the live back-end {channels} channels",
                per_channel.len()
            )));
        }
        self.vpe_starvation_per_channel = per_channel;
        self.offset_conflicts = r.u64()?;
        self.frequency_ghz = r.f64()?;
        self.offset_net.load(r)?;
        self.edge_net.load(r)?;
        self.dataflow_net.load(r)?;
        self.memory.load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gteps_zero_cycles() {
        assert_eq!(Metrics::default().gteps(), 0.0);
    }

    #[test]
    fn speedup_uses_modeled_time() {
        let fast = Metrics {
            cycles: 500,
            frequency_ghz: 1.0,
            ..Metrics::default()
        };
        let slow = Metrics {
            cycles: 1000,
            frequency_ghz: 1.0,
            ..Metrics::default()
        };
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-12);
        // lower clock hurts even at equal cycles
        let derated = Metrics {
            cycles: 500,
            frequency_ghz: 0.5,
            ..Metrics::default()
        };
        assert!((fast.speedup_over(&derated) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_metrics_stay_finite() {
        // the degenerate run (empty graph / empty frontier): every
        // derived quantity must be finite so `--json` never emits null
        let m = Metrics::default();
        assert_eq!(m.gteps(), 0.0);
        assert!(m.speedup_over(&Metrics::default()).is_finite());
        assert_eq!(m.speedup_over(&Metrics::default()), 1.0);
        // mixed zero/non-zero and zero-clock comparisons stay finite too
        let real = Metrics {
            cycles: 1000,
            frequency_ghz: 1.0,
            ..Metrics::default()
        };
        assert_eq!(m.speedup_over(&real), 1.0); // zero-time self
        assert_eq!(real.speedup_over(&m), 1.0); // zero-time other (0/1000)
        let unclocked = Metrics {
            cycles: 1000,
            frequency_ghz: 0.0, // time_ns() == ∞
            ..Metrics::default()
        };
        assert_eq!(real.speedup_over(&unclocked), 1.0);
        assert_eq!(unclocked.speedup_over(&real), 1.0);
        assert!(unclocked.speedup_over(&unclocked).is_finite());
        assert_eq!(m.starvation_per_vpe(0), 0.0);
        assert_eq!(m.starvation_imbalance(), 1.0);
        assert_eq!(m.memory.cache_hit_rate(), 0.0);
        assert_eq!(m.memory.row_hit_rate(), 0.0);
    }

    #[test]
    fn memory_metrics_merge_and_rates() {
        let mut a = MemoryMetrics {
            cache_hits: 6,
            cache_misses: 2,
            stall_cycles: 10,
            ..MemoryMetrics::default()
        };
        assert!((a.cache_hit_rate() - 0.75).abs() < 1e-12);
        let b = a;
        a.merge(&b);
        assert_eq!(a.cache_hits, 12);
        assert_eq!(a.stall_cycles, 20);
    }

    #[test]
    fn starvation_per_vpe() {
        let m = Metrics {
            vpe_starvation_cycles: 640,
            ..Metrics::default()
        };
        assert!((m.starvation_per_vpe(32) - 20.0).abs() < 1e-12);
        assert_eq!(m.starvation_per_vpe(0), 0.0);
    }
}
