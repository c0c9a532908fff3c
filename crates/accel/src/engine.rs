//! The cycle-level accelerator engine (Fig. 6).
//!
//! One [`Engine`] executes a [`VertexProgram`] on a graph under a chosen
//! [`AcceleratorConfig`], producing both the algorithm result (validated
//! bit-exactly against the software reference) and the paper's
//! performance metrics. [`Engine::run_sliced`] additionally models the
//! Sec. 5.3 large-graph schedule: destination-interval slices processed
//! back to back, with single- or double-buffered slice replacement.
//!
//! An [`Engine`] is a one-chip [`ShardedEngine`]: serial, sliced and
//! sharded runs share one run driver and one iteration body
//! (`crate::sharded`), so no mode can drift from another.
//!
//! # Pipeline
//!
//! One chip is a `ScatterPipeline`, split across two composable stages
//! driven by the shared [`higraph_sim::Scheduler`]:
//!
//! * `backend::BackEnd` — stages 1–3 (vPE reduce, ePE
//!   process-edge, edge-bank reads), evaluated consumer-first so data
//!   advances one stage per cycle under backpressure;
//! * `frontend::FrontEnd` — stages 4–6 (Replay Engines, Offset
//!   Array arbitration, ActiveVertex fetch).
//!
//! A chip's share of a scatter phase is one [`Scheduler::drain`] call
//! over its pipeline; there is no hand-rolled clock loop here. The apply
//! phase (identical for all designs) is modeled analytically in the
//! `apply` module.

use crate::backend::BackEnd;
use crate::cache::MemorySubsystem;
use crate::config::AcceleratorConfig;
use crate::faults::FaultRuntime;
use crate::frontend::FrontEnd;
use crate::metrics::Metrics;
use crate::netfactory::NetworkFactory;
use crate::sharded::{ShardConfig, ShardedEngine, ShardedOutcome, ShardedRunResult};
use higraph_graph::Csr;
use higraph_sim::{
    ClockedComponent, DrainError, DrainStep, RunControl, Scheduler, SnapError, SnapReader,
    SnapValue, SnapWriter, Snapshot, StallError,
};
use higraph_vcpm::VertexProgram;
use std::fmt;

/// A scatter phase failed to drain within its stall guard: the modeled
/// fabric (or memory) configuration deadlocked or livelocked under
/// backpressure.
///
/// This is a *diagnostic* error, not a panic: a mis-sized design point
/// fails its own run (one batch entry, one sweep cell) and reports what
/// it was doing, instead of aborting the whole process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallDiagnostic {
    /// Name of the accelerator configuration that stalled.
    pub config: String,
    /// Chips in the run (1 for the serial engine).
    pub num_chips: usize,
    /// VCPM iteration (0-based) whose scatter phase stalled.
    pub iteration: u32,
    /// Edges the stalled iteration was scattering.
    pub iteration_edges: u64,
    /// Cross-chip packets staged for the stalled iteration (0 serial).
    pub staged_packets: u64,
    /// The scheduler's underlying stall report (cycles spent, guard).
    pub stall: StallError,
}

impl fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scatter phase of {} x{} stalled at iteration {}: {} \
             (iteration edges: {}, staged packets: {})",
            self.config,
            self.num_chips,
            self.iteration,
            self.stall,
            self.iteration_edges,
            self.staged_packets
        )
    }
}

impl std::error::Error for StallDiagnostic {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.stall)
    }
}

/// Result of running a program on the accelerator.
#[derive(Debug, Clone)]
pub struct RunResult<P> {
    /// Final Property Array (bit-identical to the reference executor).
    pub properties: Vec<P>,
    /// Performance metrics.
    pub metrics: Metrics,
}

/// Result of a sliced run ([`Engine::run_sliced`]).
#[derive(Debug, Clone)]
pub struct SlicedRunResult<P> {
    /// Final Property Array — identical to an unsliced run.
    pub properties: Vec<P>,
    /// Compute metrics (scatter + apply cycles, as in [`RunResult`]).
    pub metrics: Metrics,
    /// Number of slices processed per iteration.
    pub num_slices: usize,
    /// Total slice-replacement cycles if loads run sequentially with
    /// compute (single-buffered).
    pub swap_cycles_sequential: u64,
    /// Slice-replacement cycles left exposed under double buffering
    /// (Sec. 5.3: replacement overlaps the previous slice's compute).
    pub swap_cycles_overlapped: u64,
}

impl<P> SlicedRunResult<P> {
    /// End-to-end cycles with single-buffered slice replacement.
    pub fn total_cycles_single_buffered(&self) -> u64 {
        self.metrics.cycles + self.swap_cycles_sequential
    }

    /// End-to-end cycles with double-buffered slice replacement.
    pub fn total_cycles_double_buffered(&self) -> u64 {
        self.metrics.cycles + self.swap_cycles_overlapped
    }
}

/// The whole scatter pipeline: front-end and back-end clocked as one
/// component by the scheduler. One instance is one chip; the run driver
/// (`crate::sharded`) drains one per chip, each on its own.
pub(crate) struct ScatterPipeline<P> {
    pub(crate) front: FrontEnd<P>,
    pub(crate) back: BackEnd<P>,
    /// The chip's off-chip memory path (cache → DRAM channels); the
    /// infinite stub unless the configuration models memory.
    pub(crate) mem: MemorySubsystem,
}

impl<P: Copy + 'static> ScatterPipeline<P> {
    pub(crate) fn new(factory: &NetworkFactory) -> Self {
        ScatterPipeline {
            front: FrontEnd::new(factory),
            back: BackEnd::new(factory),
            mem: factory.memory_subsystem(),
        }
    }
}

impl<P: Copy + 'static> ScatterPipeline<P> {
    /// Commits the per-cycle combinational effects of `cycles` idle
    /// steps (stall and starvation accounting, rotating grant chains);
    /// the sequential state was already advanced by
    /// [`ClockedComponent::skip`]. Drives [`DrainStep::Skipped`].
    pub(crate) fn commit_idle(&mut self, cycles: u64, metrics: &mut Metrics) {
        self.back.commit_idle(cycles, metrics);
        self.front.commit_idle(cycles, metrics);
        self.mem.commit_idle(cycles);
    }

    /// Drains one scatter phase of chip `chip` over `graph` under
    /// `scheduler`, reducing into the owned tProperty interval `t_props`
    /// whose first vertex is `t_base`. Each cycle first applies the
    /// phase's fault windows active at `base + cycle` for this chip.
    ///
    /// # Errors
    ///
    /// [`DrainError::Stall`] when the chip fails to drain within the
    /// scheduler's guard, [`DrainError::Interrupted`] when the phase's
    /// control observes a cancellation.
    pub(crate) fn drain<Prog: VertexProgram<Prop = P>>(
        &mut self,
        scheduler: &mut Scheduler,
        phase: &Phase<'_, Prog>,
        chip: usize,
        graph: &Csr,
        (t_props, t_base): (&mut [P], u32),
        metrics: &mut Metrics,
    ) -> Result<u64, DrainError> {
        let Phase {
            program,
            control,
            faults,
            base,
        } = *phase;
        let callback = |pipeline: &mut Self, step: DrainStep| match step {
            DrainStep::Cycle(cycle) => {
                if let Some(f) = faults {
                    // Fault windows index the *global* scatter timeline,
                    // so a window that straddles an iteration boundary
                    // keeps holding the pipeline across drains.
                    let now = base + cycle;
                    f.set_brownouts(now, |fault_chip, channel, active| {
                        if fault_chip == chip {
                            pipeline.mem.set_dram_channel_paused(channel, active);
                        }
                    });
                    if f.chip_paused(now, chip) {
                        // Clock-gated: held packets wait, nothing steps.
                        return;
                    }
                }
                // Stages evaluate consumer-first: back-end (1–3), then
                // front-end (4–6) feeding the back-end's edge unit.
                pipeline.back.step(program, graph, t_props, t_base, metrics);
                pipeline.front.step(
                    graph,
                    &mut pipeline.back.edge_access,
                    &mut pipeline.mem,
                    metrics,
                );
            }
            DrainStep::Skipped { cycles, .. } => pipeline.commit_idle(cycles, metrics),
        };
        scheduler.drain_ctrl(self, control, callback)
    }
}

/// What every drain of one scatter phase shares.
pub(crate) struct Phase<'a, Prog> {
    pub(crate) program: &'a Prog,
    /// Polled for cancellation during the drain, when set.
    pub(crate) control: Option<&'a RunControl>,
    /// Fault windows, keyed on the global scatter-cycle timeline.
    pub(crate) faults: Option<&'a FaultRuntime>,
    /// Global scatter cycle at which the phase starts.
    pub(crate) base: u64,
}

impl<P: Copy + 'static> ClockedComponent for ScatterPipeline<P> {
    fn tick(&mut self) {
        self.front.tick();
        self.back.tick();
        self.mem.tick();
    }

    fn in_flight(&self) -> usize {
        self.front.in_flight() + self.back.in_flight() + self.mem.in_flight()
    }

    /// Short-circuiting drain check — evaluated every cycle by the
    /// scheduler (and per chip by the sharded drains).
    fn is_drained(&self) -> bool {
        self.back.is_drained() && self.front.is_drained() && self.mem.is_drained()
    }

    /// The pipeline is busy while the back-end holds anything (its next
    /// step always acts) or the front-end can move without memory; when
    /// everything held is waiting on DRAM, the memory subsystem's next
    /// event bounds the idle window.
    fn next_activity(&self) -> Option<u64> {
        if !self.back.is_drained() || self.front.has_immediate_work(&self.mem) {
            return Some(0);
        }
        match self.mem.next_activity() {
            Some(window) => Some(window),
            // Defensive: a held item the activity model failed to map to
            // a memory event must fall back to naive stepping, never to
            // a spurious stall.
            None if !self.is_drained() => Some(0),
            None => None,
        }
    }

    fn skip(&mut self, cycles: u64) {
        self.front.skip(cycles);
        self.back.skip(cycles);
        self.mem.skip(cycles);
    }
}

/// One chip's complete microarchitectural state: front-end, back-end,
/// and the memory path, in pipeline order.
impl<P: SnapValue + 'static> Snapshot for ScatterPipeline<P> {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"PIPE");
        self.front.save(w);
        self.back.save(w);
        self.mem.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"PIPE")?;
        self.front.load(r)?;
        self.back.load(r)?;
        self.mem.load(r)
    }
}

/// An engine checkpoint taken at a committed iteration boundary: opaque
/// versioned bytes (the `higraph_sim::snapshot` wire format) plus the
/// boundary coordinates for reporting. Restoring it into an engine built
/// from the same graph and configuration continues the run bit-exactly
/// (`docs/robustness.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The serialized run state (header + payload, checksummed).
    pub bytes: Vec<u8>,
    /// Aggregate simulated cycles (scatter + apply) at the boundary.
    pub cycles: u64,
    /// Committed VCPM iterations at the boundary.
    pub iterations: u32,
}

/// Outcome of a controlled run ([`Engine::run_controlled`]).
// Done carries the full result inline so matching on an outcome reads
// exactly like consuming `Engine::run`; outcomes are matched once and
// destructured, never stored in bulk, so the size skew is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum RunOutcome<P> {
    /// Ran to completion — identical to what [`Engine::run`] returns.
    Done(RunResult<P>),
    /// Parked at a committed boundary (explicit park request or an
    /// exhausted cycle budget) with a restorable checkpoint.
    Parked(Checkpoint),
    /// Cancelled mid-drain; partial work is discarded.
    Cancelled,
}

/// Why a controlled run or resume failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// The checkpoint was rejected (corrupt bytes, version skew, or a
    /// graph/configuration mismatch).
    Snapshot(SnapError),
    /// A scatter phase stalled, exactly as in an uncontrolled run.
    Stall(StallDiagnostic),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::Snapshot(e) => e.fmt(f),
            ControlError::Stall(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ControlError {}

impl From<SnapError> for ControlError {
    fn from(e: SnapError) -> Self {
        ControlError::Snapshot(e)
    }
}

impl From<StallDiagnostic> for ControlError {
    fn from(e: StallDiagnostic) -> Self {
        ControlError::Stall(e)
    }
}

/// A one-chip accelerator instance bound to a graph: the paper's single
/// HiGraph chip, run on the whole graph or slice by slice. It is a
/// [`ShardedEngine`] with one chip, whose one interval is the borrowed
/// input graph.
#[derive(Debug)]
pub struct Engine<'g>(ShardedEngine<'g>);

impl<'g> Engine<'g> {
    /// Creates an engine for `graph` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is structurally invalid (see
    /// [`NetworkFactory::new`]). Use [`Engine::try_new`] for a fallible
    /// constructor.
    pub fn new(config: AcceleratorConfig, graph: &'g Csr) -> Self {
        // lint:allow(panic-freedom): documented panicking convenience constructor; Engine::try_new is the fallible path
        Engine::try_new(config, graph).expect("invalid accelerator configuration")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns the validation message for invalid configurations.
    pub fn try_new(config: AcceleratorConfig, graph: &'g Csr) -> Result<Self, String> {
        ShardedEngine::try_new(config, ShardConfig::new(1), graph).map(Engine)
    }

    /// The configuration this engine simulates.
    pub fn config(&self) -> &AcceleratorConfig {
        self.0.config()
    }

    /// Replaces the workload-derived stall guard with a fixed cycle
    /// budget per scatter phase (`None` restores the derived guard). A
    /// run that exceeds it fails with a [`StallDiagnostic`] instead of
    /// simulating indefinitely.
    pub fn set_stall_guard(&mut self, guard: Option<u64>) {
        self.0.set_stall_guard(guard);
    }

    /// Enables or disables the event-driven fast-forward of idle scatter
    /// cycles (on by default). Results — cycle counts and every metric —
    /// are bit-identical either way; disabling it only reverts host
    /// performance to per-cycle ticking (the `simspeed` repro target
    /// measures the difference).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.0.set_fast_forward(on);
    }

    /// Executes `program` to completion and returns properties + metrics.
    ///
    /// # Errors
    ///
    /// Returns a [`StallDiagnostic`] if a scatter phase fails to drain
    /// within its stall guard (a mis-sized fabric or memory
    /// configuration); the run's partial work is discarded.
    pub fn run<Prog: VertexProgram + Sync>(
        &mut self,
        program: &Prog,
    ) -> Result<RunResult<Prog::Prop>, StallDiagnostic> {
        self.0.run(program).map(serial_result)
    }

    /// Executes `program` under cooperative run control: `control` can
    /// cancel the run mid-drain, or park it — by explicit request or an
    /// exhausted simulated-cycle budget — at the next committed
    /// iteration boundary, where the drained pipeline checkpoints into a
    /// restorable [`Checkpoint`]. A run that completes is bit-identical
    /// to [`Engine::run`] (cycles and every metric).
    ///
    /// # Errors
    ///
    /// Returns a [`StallDiagnostic`] exactly as [`Engine::run`] does.
    pub fn run_controlled<Prog>(
        &mut self,
        program: &Prog,
        control: &RunControl,
    ) -> Result<RunOutcome<Prog::Prop>, StallDiagnostic>
    where
        Prog: VertexProgram + Sync,
        Prog::Prop: SnapValue,
    {
        self.0.run_controlled(program, control).map(serial_outcome)
    }

    /// Continues a parked run from `checkpoint` under `control`. The
    /// engine must be built over the same graph and configuration that
    /// produced the checkpoint; mismatches are rejected with a precise
    /// error before any state is touched. A pending park request on
    /// `control` is cleared (otherwise the resume would re-park at the
    /// first boundary); callers raising a cycle budget set it before the
    /// call.
    ///
    /// # Errors
    ///
    /// [`ControlError::Snapshot`] for a rejected checkpoint,
    /// [`ControlError::Stall`] as for [`Engine::run`].
    pub fn resume_controlled<Prog>(
        &mut self,
        program: &Prog,
        control: &RunControl,
        checkpoint: &[u8],
    ) -> Result<RunOutcome<Prog::Prop>, ControlError>
    where
        Prog: VertexProgram + Sync,
        Prog::Prop: SnapValue,
    {
        self.0
            .resume_controlled(program, control, checkpoint)
            .map(serial_outcome)
    }

    /// Executes `program` with the Sec. 5.3 large-graph schedule: the graph
    /// is partitioned into `num_slices` destination-interval slices, each
    /// iteration scatters slice by slice over the same frontier, and slice
    /// replacement cost is modeled at `memory_bytes_per_cycle` off-chip
    /// bandwidth — both single- and double-buffered.
    ///
    /// The final Property Array is identical to [`Engine::run`]'s (the
    /// integration tests assert this); only the timing model differs.
    ///
    /// # Errors
    ///
    /// Returns a [`StallDiagnostic`] if a slice's scatter phase fails to
    /// drain within its stall guard.
    ///
    /// # Panics
    ///
    /// Panics if `num_slices` is zero.
    pub fn run_sliced<Prog: VertexProgram + Sync>(
        &mut self,
        program: &Prog,
        num_slices: usize,
        memory_bytes_per_cycle: u64,
    ) -> Result<SlicedRunResult<Prog::Prop>, StallDiagnostic> {
        self.0
            .run_sliced(program, num_slices, memory_bytes_per_cycle)
    }
}

/// A one-chip run's result, as the serial engine reports it.
fn serial_result<P>(r: ShardedRunResult<P>) -> RunResult<P> {
    RunResult {
        properties: r.properties,
        metrics: r.metrics,
    }
}

/// A one-chip controlled run's outcome, as the serial engine reports it.
fn serial_outcome<P>(outcome: ShardedOutcome<P>) -> RunOutcome<P> {
    match outcome {
        ShardedOutcome::Done(r) => RunOutcome::Done(serial_result(r)),
        ShardedOutcome::Parked(checkpoint) => RunOutcome::Parked(checkpoint),
        ShardedOutcome::Cancelled => RunOutcome::Cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use higraph_graph::builder::EdgeList;
    use higraph_graph::gen::{erdos_renyi, power_law};
    use higraph_vcpm::programs::{Bfs, PageRank, Sssp, Sswp, Wcc};
    use higraph_vcpm::reference;

    fn small_graph(seed: u64) -> Csr {
        erdos_renyi(128, 1024, 31, seed)
    }

    fn all_configs() -> Vec<AcceleratorConfig> {
        vec![
            AcceleratorConfig::higraph(),
            AcceleratorConfig::higraph_mini(),
            AcceleratorConfig::graphdyns(),
        ]
    }

    #[test]
    fn bfs_matches_reference_on_all_configs() {
        let g = small_graph(1);
        let prog = Bfs::from_source(0);
        let expect = reference::execute(&prog, &g);
        for cfg in all_configs() {
            let name = cfg.name.clone();
            let got = Engine::new(cfg, &g).run(&prog).expect("no stall");
            assert_eq!(got.properties, expect.properties, "{name}");
            assert_eq!(got.metrics.iterations, expect.iterations, "{name}");
            assert_eq!(
                got.metrics.edges_processed, expect.edges_processed,
                "{name}"
            );
        }
    }

    #[test]
    fn sssp_matches_reference() {
        let g = small_graph(2);
        let prog = Sssp::from_source(3);
        let expect = reference::execute(&prog, &g);
        let got = Engine::new(AcceleratorConfig::higraph(), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(got.properties, expect.properties);
    }

    #[test]
    fn sswp_matches_reference() {
        let g = small_graph(3);
        let prog = Sswp::from_source(5);
        let expect = reference::execute(&prog, &g);
        let got = Engine::new(AcceleratorConfig::graphdyns(), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(got.properties, expect.properties);
    }

    #[test]
    fn wcc_matches_reference() {
        let g = small_graph(9);
        let prog = Wcc::new();
        let expect = reference::execute(&prog, &g);
        let got = Engine::new(AcceleratorConfig::higraph_mini(), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(got.properties, expect.properties);
    }

    #[test]
    fn pagerank_matches_reference_bit_exactly() {
        let g = power_law(200, 2000, 2.0, 15, 4);
        let prog = PageRank::new(8);
        let expect = reference::execute(&prog, &g);
        for cfg in all_configs() {
            let name = cfg.name.clone();
            let got = Engine::new(cfg, &g).run(&prog).expect("no stall");
            assert_eq!(got.properties, expect.properties, "{name}");
        }
    }

    #[test]
    fn ablation_configs_match_reference() {
        let g = small_graph(4);
        let prog = Bfs::from_source(1);
        let expect = reference::execute(&prog, &g);
        for opts in OptLevel::ALL {
            let cfg = AcceleratorConfig::higraph_with_opts(opts);
            let got = Engine::new(cfg, &g).run(&prog).expect("no stall");
            assert_eq!(got.properties, expect.properties, "{}", opts.label());
        }
    }

    #[test]
    fn higraph_beats_graphdyns_on_skewed_graph() {
        // A low-degree power-law graph is front-end-bound, where HiGraph's
        // 32 MDP-routed channels shine (small RMAT graphs instead saturate
        // on their own hot-vertex serialization, hiding fabric effects —
        // see the dataset-scale notes in DESIGN.md).
        let g = power_law(4000, 28_000, 2.0, 31, 7);
        let src = higraph_graph::stats::hub_vertex(&g).expect("non-empty").0;
        let prog = Bfs::from_source(src);
        let hi = Engine::new(AcceleratorConfig::higraph(), &g)
            .run(&prog)
            .expect("no stall");
        let gd = Engine::new(AcceleratorConfig::graphdyns(), &g)
            .run(&prog)
            .expect("no stall");
        let speedup = hi.metrics.speedup_over(&gd.metrics);
        assert!(speedup > 1.05, "speedup {speedup}");
    }

    #[test]
    fn empty_frontier_terminates_immediately() {
        let g = small_graph(5);
        let prog = Bfs::from_source(9999); // out of range → empty frontier
        let got = Engine::new(AcceleratorConfig::higraph(), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(got.metrics.cycles, 0);
        assert_eq!(got.metrics.iterations, 0);
    }

    #[test]
    fn isolated_source_runs_one_iteration() {
        let mut list = EdgeList::new(64);
        list.push(1, 2, 1).unwrap();
        let g = list.into_csr();
        let prog = Bfs::from_source(0); // source has no edges
        let got = Engine::new(AcceleratorConfig::higraph(), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(got.metrics.iterations, 1);
        assert_eq!(got.metrics.edges_processed, 0);
    }

    #[test]
    fn starvation_is_lower_with_full_opts() {
        let g = power_law(2000, 16_000, 2.0, 31, 11);
        let prog = PageRank::new(3);
        let base = Engine::new(AcceleratorConfig::higraph_with_opts(OptLevel::BASELINE), &g)
            .run(&prog)
            .expect("no stall");
        let full = Engine::new(AcceleratorConfig::higraph_with_opts(OptLevel::OED), &g)
            .run(&prog)
            .expect("no stall");
        assert!(
            full.metrics.vpe_starvation_cycles < base.metrics.vpe_starvation_cycles,
            "full {} vs base {}",
            full.metrics.vpe_starvation_cycles,
            base.metrics.vpe_starvation_cycles
        );
    }

    #[test]
    fn modeled_memory_keeps_results_and_costs_cycles() {
        use crate::config::MemoryConfig;
        let g = power_law(400, 3200, 2.0, 31, 21);
        let src = higraph_graph::stats::hub_vertex(&g).expect("non-empty").0;
        let prog = Sssp::from_source(src);
        let free = Engine::new(AcceleratorConfig::higraph(), &g)
            .run(&prog)
            .expect("no stall");
        let mut cfg = AcceleratorConfig::higraph();
        cfg.memory = Some(MemoryConfig::hbm2().with_cache_kb(16));
        let priced = Engine::new(cfg, &g).run(&prog).expect("no stall");
        // timing model only: the algorithm result is untouched
        assert_eq!(priced.properties, free.properties);
        assert_eq!(priced.metrics.edges_processed, free.metrics.edges_processed);
        // …but off-chip fetches now cost cycles and are accounted
        assert!(priced.metrics.cycles > free.metrics.cycles);
        let mem = &priced.metrics.memory;
        assert!(mem.stall_cycles > 0, "finite memory must stall sometimes");
        assert!(mem.cache_misses > 0);
        assert!(mem.dram.completed >= mem.cache_misses);
        assert!(mem.cache_hit_rate() > 0.0 && mem.cache_hit_rate() <= 1.0);
        assert!(mem.row_hit_rate() >= 0.0 && mem.row_hit_rate() <= 1.0);
        // the infinite default keeps the memory counters at zero
        assert_eq!(
            free.metrics.memory,
            crate::metrics::MemoryMetrics::default()
        );
    }

    #[test]
    fn larger_cache_stalls_less() {
        use crate::config::MemoryConfig;
        let g = power_law(600, 6000, 2.0, 31, 25);
        let prog = PageRank::new(3);
        let run_with = |kb: usize| {
            let mut cfg = AcceleratorConfig::higraph();
            cfg.memory = Some(MemoryConfig::hbm2().with_cache_kb(kb));
            Engine::new(cfg, &g).run(&prog).expect("no stall").metrics
        };
        let small = run_with(4);
        let large = run_with(4096);
        assert!(
            small.memory.cache_hit_rate() < large.memory.cache_hit_rate(),
            "small {} vs large {}",
            small.memory.cache_hit_rate(),
            large.memory.cache_hit_rate()
        );
        assert!(
            small.memory.stall_cycles > large.memory.stall_cycles,
            "small {} vs large {}",
            small.memory.stall_cycles,
            large.memory.stall_cycles
        );
        assert!(small.cycles >= large.cycles);
    }

    #[test]
    fn fast_forward_is_bit_identical_under_modeled_memory() {
        use crate::config::MemoryConfig;
        let g = power_law(400, 3200, 2.0, 31, 33);
        let prog = PageRank::new(3);
        let mut cfg = AcceleratorConfig::higraph();
        cfg.memory = Some(MemoryConfig::hbm2().with_cache_kb(16));
        let run = |fast: bool| {
            let mut engine = Engine::new(cfg.clone(), &g);
            engine.set_fast_forward(fast);
            engine.run(&prog).expect("no stall")
        };
        let naive = run(false);
        let fast = run(true);
        assert_eq!(fast.properties, naive.properties);
        assert_eq!(fast.metrics, naive.metrics);
        assert!(fast.metrics.memory.stall_cycles > 0, "memory must stall");
    }

    #[test]
    fn fast_forward_is_bit_identical_on_sliced_runs() {
        use crate::config::MemoryConfig;
        let g = power_law(300, 2400, 2.0, 31, 35);
        let prog = Sssp::from_source(higraph_graph::stats::hub_vertex(&g).expect("non-empty").0);
        let mut cfg = AcceleratorConfig::higraph();
        cfg.memory = Some(MemoryConfig::hbm2().with_cache_kb(32));
        let run = |fast: bool| {
            let mut engine = Engine::new(cfg.clone(), &g);
            engine.set_fast_forward(fast);
            engine.run_sliced(&prog, 3, 32).expect("no stall")
        };
        let naive = run(false);
        let fast = run(true);
        assert_eq!(fast.properties, naive.properties);
        assert_eq!(fast.metrics, naive.metrics);
        assert_eq!(fast.swap_cycles_sequential, naive.swap_cycles_sequential);
        assert_eq!(fast.swap_cycles_overlapped, naive.swap_cycles_overlapped);
    }

    #[test]
    fn stall_guard_override_fails_run_with_diagnostic() {
        let g = small_graph(10);
        let mut engine = Engine::new(AcceleratorConfig::higraph(), &g);
        engine.set_stall_guard(Some(1));
        let err = engine.run(&Bfs::from_source(0)).expect_err("must stall");
        assert_eq!(err.config, "HiGraph");
        assert_eq!(err.num_chips, 1);
        assert_eq!(err.stall.limit, 1);
        let text = err.to_string();
        assert!(
            text.contains("HiGraph") && text.contains("stalled"),
            "{text}"
        );
        // restoring the derived guard completes the run
        engine.set_stall_guard(None);
        assert!(engine.run(&Bfs::from_source(0)).is_ok());
    }

    #[test]
    fn invalid_config_rejected() {
        let g = small_graph(6);
        let mut cfg = AcceleratorConfig::higraph();
        cfg.front_channels = 3;
        assert!(Engine::try_new(cfg, &g).is_err());
    }

    #[test]
    fn metrics_are_populated() {
        let g = small_graph(7);
        let got = Engine::new(AcceleratorConfig::higraph(), &g)
            .run(&Bfs::from_source(0))
            .expect("no stall");
        let m = &got.metrics;
        assert!(m.cycles > 0);
        assert_eq!(m.cycles, m.scatter_cycles + m.apply_cycles);
        assert!(m.gteps() > 0.0);
        assert_eq!(m.frequency_ghz, 1.0);
        assert!(m.dataflow_net.delivered > 0);
    }

    #[test]
    fn sliced_run_matches_unsliced() {
        let g = power_law(400, 3600, 2.0, 31, 13);
        let src = higraph_graph::stats::hub_vertex(&g).expect("non-empty").0;
        let prog = Sssp::from_source(src);
        let whole = Engine::new(AcceleratorConfig::higraph(), &g)
            .run(&prog)
            .expect("no stall");
        for slices in [1usize, 2, 5] {
            let sliced = Engine::new(AcceleratorConfig::higraph(), &g)
                .run_sliced(&prog, slices, 64)
                .expect("no stall");
            assert_eq!(sliced.properties, whole.properties, "{slices} slices");
            assert_eq!(
                sliced.metrics.edges_processed,
                whole.metrics.edges_processed
            );
        }
    }

    #[test]
    fn double_buffering_hides_swap_time() {
        let g = power_law(600, 9000, 2.0, 31, 17);
        let mut engine = Engine::new(AcceleratorConfig::higraph(), &g);
        let r = engine
            .run_sliced(&PageRank::new(3), 4, 16)
            .expect("no stall");
        assert!(r.swap_cycles_overlapped <= r.swap_cycles_sequential);
        assert!(r.total_cycles_double_buffered() <= r.total_cycles_single_buffered());
        assert!(r.swap_cycles_sequential > 0);
    }

    #[test]
    fn sliced_radix_and_channel_variants() {
        let g = erdos_renyi(256, 2048, 15, 19);
        let prog = Bfs::from_source(0);
        let expect = reference::execute(&prog, &g);
        let mut cfg = AcceleratorConfig::higraph().scaled_to(16);
        cfg.radix = 4; // mixed-radix topology: 4 × 4
        let got = Engine::new(cfg, &g)
            .run_sliced(&prog, 3, 32)
            .expect("no stall");
        assert_eq!(got.properties, expect.properties);
    }

    #[test]
    fn scheduler_cycle_accounting_matches_fabric_counters() {
        // The scheduler's per-drain cycle counts (summed into
        // `scatter_cycles`) must agree with the fabrics' own independent
        // counters: every fabric ticks exactly once per scatter cycle,
        // so its `NetworkStats::cycles` is a second clock to check the
        // scheduler against — the engine has no clock loop of its own.
        let g = small_graph(8);
        let got = Engine::new(AcceleratorConfig::higraph(), &g)
            .run(&Bfs::from_source(0))
            .expect("no stall");
        assert!(got.metrics.scatter_cycles > 0);
        assert_eq!(got.metrics.dataflow_net.cycles, got.metrics.scatter_cycles);
        assert_eq!(got.metrics.offset_net.cycles, got.metrics.scatter_cycles);
        assert_eq!(got.metrics.edge_net.cycles, got.metrics.scatter_cycles);
    }

    #[test]
    fn controlled_run_completes_bit_identical() {
        let g = power_law(300, 2700, 2.0, 31, 71);
        let prog = PageRank::new(3);
        let plain = Engine::new(AcceleratorConfig::higraph(), &g)
            .run(&prog)
            .expect("no stall");
        let control = RunControl::new();
        let outcome = Engine::new(AcceleratorConfig::higraph(), &g)
            .run_controlled(&prog, &control)
            .expect("no stall");
        match outcome {
            RunOutcome::Done(r) => {
                assert_eq!(r.properties, plain.properties);
                assert_eq!(r.metrics, plain.metrics);
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn park_and_resume_is_bit_identical() {
        let g = power_law(300, 2700, 2.0, 31, 73);
        let src = higraph_graph::stats::hub_vertex(&g).expect("non-empty").0;
        let prog = Sssp::from_source(src);
        let plain = Engine::new(AcceleratorConfig::higraph(), &g)
            .run(&prog)
            .expect("no stall");

        let control = RunControl::new();
        control.set_budget_cycles(Some(1)); // park at the first boundary
        let mut engine = Engine::new(AcceleratorConfig::higraph(), &g);
        let parked = match engine.run_controlled(&prog, &control).expect("no stall") {
            RunOutcome::Parked(ck) => ck,
            other => panic!("expected a parked run, got {other:?}"),
        };
        assert!(parked.cycles >= 1);
        assert!(parked.iterations >= 1);

        control.set_budget_cycles(None);
        let resumed = engine
            .resume_controlled(&prog, &control, &parked.bytes)
            .expect("no stall");
        match resumed {
            RunOutcome::Done(r) => {
                assert_eq!(r.properties, plain.properties);
                assert_eq!(r.metrics, plain.metrics, "restore must be cycle-exact");
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_discards_the_run() {
        let g = small_graph(9);
        let control = RunControl::new();
        control.request_cancel();
        let outcome = Engine::new(AcceleratorConfig::higraph(), &g)
            .run_controlled(&Bfs::from_source(0), &control)
            .expect("no stall");
        assert!(matches!(outcome, RunOutcome::Cancelled));
    }

    #[test]
    fn checkpoint_rejects_mismatched_identity() {
        let g = small_graph(10);
        let prog = Bfs::from_source(0);
        let control = RunControl::new();
        control.request_park();
        let parked = match Engine::new(AcceleratorConfig::higraph(), &g)
            .run_controlled(&prog, &control)
            .expect("no stall")
        {
            RunOutcome::Parked(ck) => ck,
            other => panic!("expected a parked run, got {other:?}"),
        };

        // Wrong graph.
        let other_graph = small_graph(11);
        let err = Engine::new(AcceleratorConfig::higraph(), &other_graph)
            .resume_controlled(&prog, &control, &parked.bytes)
            .expect_err("must reject");
        assert!(err.to_string().contains("graph"), "{err}");

        // Wrong configuration.
        let err = Engine::new(AcceleratorConfig::higraph_mini(), &g)
            .resume_controlled(&prog, &control, &parked.bytes)
            .expect_err("must reject");
        assert!(err.to_string().contains("configuration"), "{err}");

        // Corrupted payload.
        let mut bad = parked.bytes.clone();
        let last = bad.len() - 20; // inside the payload, before the checksum
        bad[last] ^= 0xFF;
        assert!(Engine::new(AcceleratorConfig::higraph(), &g)
            .resume_controlled(&prog, &control, &bad)
            .is_err());
    }

    #[test]
    fn fault_plan_degrades_gracefully_and_keeps_results() {
        use crate::config::{FaultPlan, MemoryConfig};
        let g = power_law(300, 2700, 2.0, 31, 79);
        let prog = PageRank::new(2);
        for memory in [None, Some(MemoryConfig::hbm2().with_cache_kb(16))] {
            let mut clean_cfg = AcceleratorConfig::higraph();
            clean_cfg.memory = memory;
            let clean = Engine::new(clean_cfg.clone(), &g)
                .run(&prog)
                .expect("no stall");
            let mut cfg = clean_cfg;
            cfg.fault_plan = Some(FaultPlan {
                seed: 11,
                events: 6,
                max_duration: 400,
                horizon: clean.metrics.scatter_cycles.max(1),
            });
            let faulty = Engine::new(cfg.clone(), &g).run(&prog).expect("no stall");
            // Faults only stall; the algorithm result is untouched.
            assert_eq!(faulty.properties, clean.properties);
            assert!(faulty.metrics.scatter_cycles >= clean.metrics.scatter_cycles);
            // Deterministic: the same plan reproduces the same cycles.
            let again = Engine::new(cfg, &g).run(&prog).expect("no stall");
            assert_eq!(again.metrics, faulty.metrics);
        }
    }
}
