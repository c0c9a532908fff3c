//! Workload plumbing shared by all figure harnesses.

use higraph::prelude::*;
use higraph::sim::NetworkStats;

/// The evaluated algorithms: the paper's four (Sec. 5.1) plus the two
/// stress workloads the vertex-program library ships — WCC (full first
/// frontier that then decays unevenly) and MS-BFS (64 simultaneous
/// landmark traversals, the densest dataflow traffic in the suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Breadth-First Search.
    Bfs,
    /// Single-Source Shortest Path.
    Sssp,
    /// Single-Source Widest Path.
    Sswp,
    /// PageRank.
    Pr,
    /// Weakly Connected Components.
    Wcc,
    /// Multi-source BFS (64 landmarks).
    Msbfs,
}

impl Algo {
    /// Figure order: the paper's four first, then the extended workloads.
    pub const ALL: [Algo; 6] = [
        Algo::Bfs,
        Algo::Sssp,
        Algo::Sswp,
        Algo::Pr,
        Algo::Wcc,
        Algo::Msbfs,
    ];

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Bfs => "BFS",
            Algo::Sssp => "SSSP",
            Algo::Sswp => "SSWP",
            Algo::Pr => "PR",
            Algo::Wcc => "WCC",
            Algo::Msbfs => "MSBFS",
        }
    }

    /// The traversal source for single-source programs: the deterministic
    /// hub vertex (Graph500 practice), guaranteed to lie in the reachable
    /// core. An empty graph has no hub; the out-of-range sentinel gives
    /// those programs an empty initial frontier, so the run reports the
    /// empty-frontier zero-cycle metrics (the conventions of
    /// `tests/metrics_finiteness.rs`) instead of traversing from a
    /// nonexistent vertex 0.
    fn source(graph: &Csr) -> u32 {
        higraph::graph::stats::hub_vertex(graph)
            .map(|v| v.0)
            .unwrap_or(u32::MAX)
    }

    /// Up to 64 evenly spaced landmark vertices for MS-BFS. On an empty
    /// graph the single out-of-range landmark yields an empty frontier,
    /// matching [`Algo::source`]'s convention.
    fn msbfs_program(graph: &Csr) -> MultiSourceBfs {
        let num_v = graph.num_vertices() as usize;
        let sources: Vec<u32> = if num_v == 0 {
            vec![u32::MAX]
        } else {
            let count = num_v.min(64);
            let step = (num_v / count).max(1);
            (0..count).map(|i| (i * step) as u32).collect()
        };
        MultiSourceBfs::new(sources).expect("1..=64 landmarks")
    }

    /// Runs this algorithm on `graph` under `config` on one chip and
    /// returns metrics. PageRank runs `pr_iters` power iterations.
    ///
    /// # Errors
    ///
    /// Returns the [`StallDiagnostic`] of a mis-sized configuration, so a
    /// stalled design point fails its own sweep cell instead of aborting
    /// the whole sweep.
    pub fn run(
        self,
        config: &AcceleratorConfig,
        graph: &Csr,
        pr_iters: u32,
    ) -> Result<Metrics, StallDiagnostic> {
        self.run_sharded(config, ShardConfig::new(1), graph, pr_iters)
            .map(|summary| summary.metrics)
    }

    /// Runs this algorithm across `shard.num_chips` chips and returns the
    /// property-erased summary the multi-chip sweeps report.
    ///
    /// Each scatter phase's chip and link drains run as one batch of the
    /// shared `higraph_pool::CorePool`, so inside a sweep harness's own
    /// batch they take only idle workers and never oversubscribe the
    /// host. Results are bit-identical for any pool size
    /// (`tests/thread_determinism.rs`); only host time changes.
    ///
    /// # Errors
    ///
    /// Returns the [`StallDiagnostic`] of a stalled chip or link drain.
    pub fn run_sharded(
        self,
        config: &AcceleratorConfig,
        shard: ShardConfig,
        graph: &Csr,
        pr_iters: u32,
    ) -> Result<ShardedSummary, StallDiagnostic> {
        let engine = ShardedEngine::new(config.clone(), shard, graph);
        self.with_program(graph, pr_iters, ToEnd(engine))
            .map(ShardedSummary::from)
    }

    /// Runs this algorithm across `shard.num_chips` chips under
    /// cooperative run control: `control` can cancel the run mid-drain
    /// or park it at a committed iteration boundary into a restorable
    /// checkpoint (`docs/robustness.md`). With `checkpoint`, the run
    /// resumes from that parked state instead of starting fresh. A run
    /// that completes is bit-identical to [`Algo::run_sharded`].
    ///
    /// # Errors
    ///
    /// [`ControlError::Stall`] for a stalled drain,
    /// [`ControlError::Snapshot`] for a checkpoint that does not match
    /// this graph, configuration, or shard geometry.
    pub fn run_sharded_controlled(
        self,
        config: &AcceleratorConfig,
        shard: ShardConfig,
        graph: &Csr,
        pr_iters: u32,
        control: &RunControl,
        checkpoint: Option<&[u8]>,
    ) -> Result<RunOutcome<ShardedSummary>, ControlError> {
        let engine = ShardedEngine::new(config.clone(), shard, graph);
        let controlled = Controlled {
            engine,
            control,
            checkpoint,
        };
        Ok(self
            .with_program(graph, pr_iters, controlled)?
            .map(ShardedSummary::from))
    }

    /// Builds this algorithm's program for `graph` and hands it to `how`:
    /// the one place the six programs are built.
    pub(crate) fn with_program<R: ProgramRun>(
        self,
        graph: &Csr,
        pr_iters: u32,
        how: R,
    ) -> R::Output {
        let source = Algo::source(graph);
        match self {
            Algo::Bfs => how.run(&Bfs::from_source(source)),
            Algo::Sssp => how.run(&Sssp::from_source(source)),
            Algo::Sswp => how.run(&Sswp::from_source(source)),
            Algo::Pr => how.run(&PageRank::new(pr_iters)),
            Algo::Wcc => how.run(&Wcc::new()),
            Algo::Msbfs => how.run(&Algo::msbfs_program(graph)),
        }
    }
}

/// One run of whichever program [`Algo::with_program`] builds.
pub(crate) trait ProgramRun {
    /// What the run returns.
    type Output;
    /// Runs `program`.
    fn run<Prog: VertexProgram<Prop = u64> + Sync>(self, program: &Prog) -> Self::Output;
}

/// A run to completion.
struct ToEnd<'g>(ShardedEngine<'g>);

impl ProgramRun for ToEnd<'_> {
    type Output = Result<RunResult<u64>, StallDiagnostic>;
    fn run<Prog: VertexProgram<Prop = u64> + Sync>(mut self, program: &Prog) -> Self::Output {
        self.0.run(program)
    }
}

/// A controlled run, resumed from `checkpoint` when one is given.
struct Controlled<'a, 'g> {
    engine: ShardedEngine<'g>,
    control: &'a RunControl,
    checkpoint: Option<&'a [u8]>,
}

impl ProgramRun for Controlled<'_, '_> {
    type Output = Result<RunOutcome<RunResult<u64>>, ControlError>;
    fn run<Prog: VertexProgram<Prop = u64> + Sync>(mut self, program: &Prog) -> Self::Output {
        match self.checkpoint {
            Some(bytes) => self.engine.resume_controlled(program, self.control, bytes),
            None => Ok(self.engine.run_controlled(program, self.control)?),
        }
    }
}

/// A [`RunResult`] with the property array erased — what the sweep
/// harnesses keep per cell and a controlled [`Algo`] run finishes with,
/// independent of the program's property type.
#[derive(Debug, Clone)]
pub struct ShardedSummary {
    /// Aggregate critical-path metrics (merged counters).
    pub metrics: Metrics,
    /// Per-chip metrics, indexed by chip number.
    pub chips: Vec<Metrics>,
    /// Update packets that crossed the inter-chip link.
    pub cross_chip_packets: u64,
    /// Link fabric counters.
    pub link: NetworkStats,
    /// Compute-only scatter cycles of the slowest chip.
    pub max_chip_scatter_cycles: u64,
    /// Aggregate cycles per processed edge.
    pub cycles_per_edge: f64,
}

impl<P> From<RunResult<P>> for ShardedSummary {
    fn from(r: RunResult<P>) -> Self {
        ShardedSummary {
            max_chip_scatter_cycles: r.max_chip_scatter_cycles(),
            cycles_per_edge: r.cycles_per_edge(),
            metrics: r.metrics,
            chips: r.chips,
            cross_chip_packets: r.cross_chip_packets,
            link: r.link,
        }
    }
}

/// Dataset scaling for quick vs full runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Power-of-two divisor applied to Table 2 sizes (1 = full scale).
    pub divisor: u32,
    /// PageRank power iterations.
    pub pr_iters: u32,
}

impl Scale {
    /// Laptop-friendly default: datasets ÷4, 5 PR iterations.
    pub fn quick() -> Self {
        Scale {
            divisor: 4,
            pr_iters: 5,
        }
    }

    /// Full Table 2 sizes, 10 PR iterations.
    pub fn full() -> Self {
        Scale {
            divisor: 1,
            pr_iters: 10,
        }
    }

    /// Even smaller than `quick`, for CI tests and Criterion benches.
    pub fn tiny() -> Self {
        Scale {
            divisor: 16,
            pr_iters: 3,
        }
    }

    /// Builds `dataset` at this scale.
    pub fn build(&self, dataset: Dataset) -> Csr {
        dataset.build_scaled(self.divisor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_labels() {
        let labels: Vec<_> = Algo::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(labels, ["BFS", "SSSP", "SSWP", "PR", "WCC", "MSBFS"]);
    }

    #[test]
    fn runs_produce_metrics() {
        let s = Scale::tiny();
        let g = s.build(Dataset::Vote);
        for algo in Algo::ALL {
            let m = algo
                .run(&AcceleratorConfig::higraph(), &g, s.pr_iters)
                .expect("well-sized config");
            assert!(m.cycles > 0, "{}", algo.label());
            assert!(m.edges_processed > 0, "{}", algo.label());
        }
    }

    #[test]
    fn empty_graph_reports_empty_frontier_metrics() {
        let g = EdgeList::new(0).into_csr();
        for algo in Algo::ALL {
            let m = algo
                .run(&AcceleratorConfig::higraph(), &g, 3)
                .expect("empty graph must not stall");
            assert_eq!(m.cycles, 0, "{}", algo.label());
            assert_eq!(m.iterations, 0, "{}", algo.label());
            assert!(m.gteps().is_finite(), "{}", algo.label());
        }
    }

    #[test]
    fn stalled_configuration_fails_its_own_run() {
        // Algo::run propagates the diagnostic instead of panicking; the
        // stall-guard override is the deterministic way to force one.
        let s = Scale::tiny();
        let g = s.build(Dataset::Vote);
        let source = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
        let mut engine = Engine::new(AcceleratorConfig::higraph(), &g);
        engine.set_stall_guard(Some(1));
        let err = engine.run(&Bfs::from_source(source)).expect_err("stalls");
        assert_eq!(err.stall.limit, 1);
    }

    #[test]
    fn sharded_summary_matches_serial_run() {
        let s = Scale::tiny();
        let g = s.build(Dataset::Vote);
        let serial = Algo::Wcc
            .run(&AcceleratorConfig::higraph(), &g, s.pr_iters)
            .expect("well-sized config");
        let sharded = Algo::Wcc
            .run_sharded(
                &AcceleratorConfig::higraph(),
                ShardConfig::new(1),
                &g,
                s.pr_iters,
            )
            .expect("well-sized config");
        assert_eq!(sharded.metrics, serial, "P=1 is bit-identical to serial");
        assert_eq!(sharded.cross_chip_packets, 0);
    }
}
