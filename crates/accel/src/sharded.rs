//! The run driver: chip pipelines over destination intervals, coupled
//! by a modeled inter-chip link. Every execution mode runs here.
//!
//! The paper's scalability story (Fig. 11) widens one chip; this module
//! also scales *out*. [`ShardedEngine`] scatters each iteration's
//! frontier over the run's destination intervals, `num_chips` at a time.
//! Each group is one scatter phase: every chip drains its interval —
//! and a `higraph_sim::InterChipLink` carries the cross-chip edge
//! updates — under its own `Scheduler`, on one shared cycle timeline.
//! A phase ends when the last chip and the link have drained; the apply
//! phase follows the iteration's last scatter phase.
//!
//! * **Sharded**: P chips over the P intervals of
//!   `higraph_graph::slicing::partition`, drained as one phase.
//! * **Serial** ([`Engine::run`](crate::engine::Engine::run)): the
//!   one-chip case. Its one interval is the borrowed input graph itself,
//!   not a copy of its edges.
//! * **Sliced** ([`Engine::run_sliced`](crate::engine::Engine::run_sliced),
//!   Sec. 5.3): one chip drains k slice intervals as k phases, and slice
//!   replacement is costed from each phase's cycles.
//!
//! # Execution model
//!
//! Destination-interval sharding keeps the algorithm untouched: chip `p`
//! owns destinations `[dst_start, dst_end)` of slice `p`, scatters the
//! *global* frontier over its slice graph into its own tProperty
//! interval, and applies its owned vertices. Because every edge lives on
//! exactly one chip and reduction is per-destination, the final Property
//! Array is bit-identical to the serial engine's, and the serial engine
//! *is* the one-chip case (`tests/sharded_equivalence.rs`).
//!
//! # Traffic model
//!
//! Each processed edge whose source vertex is owned by a different chip
//! than its destination contributes one update packet on the inter-chip
//! link, entering at the source chip and delivered to the destination
//! chip. Over one full-frontier iteration the packet count therefore
//! equals the partitioner's reported cut-edge count
//! ([`higraph_graph::slicing::total_cut_edges`]) — a property test holds
//! the two equal. The link models egress-queue depth, per-chip injection
//! bandwidth, and flight latency; see `docs/sharding.md` for the
//! cycle-accounting assumptions.

use crate::apply::{apply_cycles, apply_phase};
use crate::config::AcceleratorConfig;
use crate::engine::{
    Checkpoint, ControlError, Phase, RunOutcome, RunResult, ScatterPipeline, StallDiagnostic,
};
use crate::faults::FaultRuntime;
use crate::metrics::Metrics;
use crate::netfactory::NetworkFactory;
use higraph_graph::slicing::{partition, slice_swap_cycles, total_cut_edges, Slice};
use higraph_graph::{Csr, VertexId};
use higraph_pool::CorePool;
use higraph_sim::{
    content_checksum, ClockedComponent, DrainError, DrainStep, InterChipLink, Network, Packet,
    RunControl, Scheduler, SnapError, SnapReader, SnapValue, SnapWriter, Snapshot,
};
use higraph_vcpm::VertexProgram;
use std::borrow::Cow;
use std::sync::{Mutex, PoisonError};

/// Geometry and timing of the inter-chip fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of chips (= shards). 1 is the serial engine.
    pub num_chips: usize,
    /// Link flight latency in cycles, on top of the one-cycle stage
    /// minimum every clocked component obeys.
    pub link_latency: u64,
    /// Update packets each chip can inject per cycle.
    pub link_bandwidth: usize,
    /// Depth of each chip's link egress queue.
    pub link_capacity: usize,
}

impl ShardConfig {
    /// A `num_chips`-way configuration with board-level defaults: 8-cycle
    /// flight latency, 4 packets/cycle/chip, 64-entry egress queues.
    pub fn new(num_chips: usize) -> Self {
        ShardConfig {
            num_chips,
            link_latency: 8,
            link_bandwidth: 4,
            link_capacity: 64,
        }
    }

    /// Largest accepted chip count (the largest the repo simulates is 8).
    /// Bounding it keeps the P² staged counts, the P pipelines and the P
    /// copies of the graph a run allocates within host memory.
    pub const MAX_CHIPS: usize = 64;

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if the chip count is zero or above
    /// [`ShardConfig::MAX_CHIPS`], or the bandwidth or queue capacity is
    /// zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_chips == 0 || self.num_chips > Self::MAX_CHIPS {
            return Err(format!(
                "chips {} must be in 1..={}",
                self.num_chips,
                Self::MAX_CHIPS
            ));
        }
        if self.link_bandwidth == 0 || self.link_capacity == 0 {
            return Err("link bandwidth and capacity must be positive".to_string());
        }
        Ok(())
    }
}

/// One cross-shard edge update on the inter-chip link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPacket {
    /// Chip owning the source vertex (link input).
    pub src_chip: usize,
    /// Chip owning the destination vertex (link output).
    pub dst_chip: usize,
}

impl Packet for ShardPacket {
    fn dest(&self) -> usize {
        self.dst_chip
    }
}

/// The per-run multi-chip state: P chip pipelines plus the staged link.
/// Each drains on its own in a scatter phase; the phase ends when the
/// last of them has.
struct MultiChip<P> {
    chips: Vec<ScatterPipeline<P>>,
    link: StagedLink,
}

impl<P: Copy + 'static> MultiChip<P> {
    fn is_drained(&self) -> bool {
        self.link.is_drained() && self.chips.iter().all(ClockedComponent::is_drained)
    }
}

/// At a drained boundary nothing is staged and the link is empty, so the
/// record is the chips and the link's clock and counters.
impl<P> Snapshot for MultiChip<P> {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"MCHP");
        w.usize(self.chips.len());
        for chip in &self.chips {
            chip.save(w);
        }
        self.link.link.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"MCHP")?;
        let chips = r.usize()?;
        if chips != self.chips.len() {
            return Err(SnapError::new(format!(
                "checkpoint has {chips} chips, engine has {}",
                self.chips.len()
            )));
        }
        for chip in &mut self.chips {
            chip.load(r)?;
        }
        self.link.link.load(r)
    }
}

/// The inter-chip link plus the per-chip egress staging for packets the
/// link has not yet accepted, clocked as one component.
///
/// Staged traffic is a `[src][dst]` remaining-count matrix, not a queue
/// of materialized packets: every packet of a (src, dst) pair is
/// identical and consumers discard them on arrival, so synthesizing
/// packets at link-push time models the same cycles and counts in O(P²)
/// memory instead of O(cut edges) per iteration. It also means the
/// link's trajectory depends on the staged counts alone, never on the
/// chips, which is what lets it drain on its own.
struct StagedLink {
    link: InterChipLink<ShardPacket>,
    staged: Vec<Vec<u64>>,
}

impl StagedLink {
    /// Packets staged but not yet accepted by the link.
    fn staged_total(&self) -> u64 {
        self.staged.iter().flatten().sum()
    }

    /// Drains the link's share of one scatter phase: each cycle runs the
    /// inter-chip exchange unless a link-stall window is active at
    /// `base + cycle` (in-flight packets keep moving through `tick`).
    fn drain<Prog>(
        &mut self,
        scheduler: &mut Scheduler,
        phase: &Phase<'_, Prog>,
    ) -> Result<u64, DrainError> {
        let Phase {
            control,
            faults,
            base,
            ..
        } = *phase;
        // Idle windows need no commit: with nothing staged and nothing
        // arrived the exchange is a no-op.
        let callback = |stage: &mut StagedLink, step: DrainStep| {
            if let DrainStep::Cycle(cycle) = step {
                if faults.is_none_or(|f| !f.link_stalled(base + cycle)) {
                    exchange_link(&mut stage.link, &mut stage.staged);
                }
            }
        };
        scheduler.drain_ctrl(self, control, callback)
    }
}

impl ClockedComponent for StagedLink {
    fn tick(&mut self) {
        self.link.tick();
    }

    fn in_flight(&self) -> usize {
        self.link.in_flight() + self.staged_total() as usize
    }

    fn is_drained(&self) -> bool {
        self.link.is_drained() && self.staged_total() == 0
    }

    /// Staged packets are offered — and their rejections counted — every
    /// cycle until the link accepts them, so they pin the window to zero.
    fn next_activity(&self) -> Option<u64> {
        if self.staged_total() > 0 {
            Some(0)
        } else {
            self.link.next_activity()
        }
    }

    fn skip(&mut self, cycles: u64) {
        self.link.skip(cycles);
    }
}

/// One cycle's inter-chip exchange: chips sink whatever updates arrived
/// this cycle, then staged updates (synthesized from the counts) are
/// offered until the link back-pressures.
fn exchange_link(link: &mut InterChipLink<ShardPacket>, staged: &mut [Vec<u64>]) {
    for ci in 0..staged.len() {
        while link.pop(ci).is_some() {}
    }
    for (src_chip, row) in staged.iter_mut().enumerate() {
        // a full egress queue blocks every destination of this source
        // chip alike — move to the next chip
        'dsts: for (dst_chip, count) in row.iter_mut().enumerate() {
            while *count > 0 {
                let pkt = ShardPacket { src_chip, dst_chip };
                match link.push(src_chip, pkt) {
                    Ok(()) => *count -= 1,
                    Err(_) => break 'dsts,
                }
            }
        }
    }
}

/// One of a scatter phase's P + 1 independent drains.
enum Drain<'a, P> {
    /// The link with its staged counts.
    Link(&'a mut StagedLink),
    /// Chip `id` over its interval's graph and tProperty window.
    Chip {
        id: usize,
        chip: &'a mut ScatterPipeline<P>,
        metrics: &'a mut Metrics,
        window: (&'a mut [P], u32),
        graph: &'a Csr,
    },
}

/// Runs `drain` once on every lane as one [`CorePool::run_ordered`]
/// batch and returns the results in lane order.
///
/// Nothing couples a phase's drains: a chip scatters its own interval
/// into its own tProperty window and its own `Metrics`, and the link
/// depends on the staged counts alone. So which host thread runs a
/// drain, and in what order, is invisible to the simulated state, and
/// the engine combines the results after the join in fixed lane order:
/// cycles and every metric are bit-identical for any pool size
/// (`tests/thread_determinism.rs`; `docs/performance.md`).
fn drain_all<L: Send, R: Send>(lanes: Vec<L>, drain: impl Fn(&mut L) -> R + Sync) -> Vec<R> {
    let lanes: Vec<Mutex<L>> = lanes.into_iter().map(Mutex::new).collect();
    // Each lane is locked once, by the one item that drains it; a
    // poisoned lock means that drain panicked, which the batch re-raises.
    CorePool::global().run_ordered(lanes.len(), |index| {
        drain(&mut lanes[index].lock().unwrap_or_else(PoisonError::into_inner))
    })
}

/// One destination interval of a run: the edges into
/// `[dst_start, dst_end)`, which one chip scatters in one phase.
#[derive(Debug)]
struct Interval<'g> {
    /// The input graph itself when the run has one interval, else the
    /// interval's slice of it.
    graph: Cow<'g, Csr>,
    dst_start: u32,
    dst_end: u32,
    /// Cycles to load the slice on chip (sliced runs; 0 otherwise).
    swap_cycles: u64,
}

impl<'g> Interval<'g> {
    fn whole(graph: &'g Csr) -> Self {
        Interval {
            graph: Cow::Borrowed(graph),
            dst_start: 0,
            dst_end: graph.num_vertices(),
            swap_cycles: 0,
        }
    }

    fn from_slice(slice: Slice, swap_cycles: u64) -> Self {
        Interval {
            graph: Cow::Owned(slice.graph),
            dst_start: slice.dst_start,
            dst_end: slice.dst_end,
            swap_cycles,
        }
    }

    fn owns(&self, v: VertexId) -> bool {
        (self.dst_start..self.dst_end).contains(&v.0)
    }
}

/// A multi-chip accelerator instance bound to a partitioned graph.
#[derive(Debug)]
pub struct ShardedEngine<'g> {
    factory: NetworkFactory,
    shard: ShardConfig,
    graph: &'g Csr,
    /// The destination intervals, one per chip.
    intervals: Vec<Interval<'g>>,
    /// The partition's total cut-edge count.
    cut_edges: u64,
    /// Overrides the workload-derived stall guard when set.
    stall_guard: Option<u64>,
    /// Event-driven fast-forward of idle cycles in every chip and link
    /// drain (on by default; bit-identical — see `docs/simulation.md`).
    fast_forward: bool,
}

impl<'g> ShardedEngine<'g> {
    /// Creates a sharded engine: `shard.num_chips` identical chips built
    /// from `config`, over the destination-interval partition of `graph`.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is invalid; use
    /// [`ShardedEngine::try_new`] for a fallible constructor.
    pub fn new(config: AcceleratorConfig, shard: ShardConfig, graph: &'g Csr) -> Self {
        // lint:allow(panic-freedom): documented panicking convenience constructor; ShardedEngine::try_new is the fallible path
        ShardedEngine::try_new(config, shard, graph).expect("invalid sharded configuration")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns the validation message for an invalid accelerator or
    /// shard configuration.
    pub fn try_new(
        config: AcceleratorConfig,
        shard: ShardConfig,
        graph: &'g Csr,
    ) -> Result<Self, String> {
        shard.validate()?;
        let factory = NetworkFactory::new(&config)?;
        let (intervals, cut_edges) = if shard.num_chips == 1 {
            (vec![Interval::whole(graph)], 0)
        } else {
            let slices = partition(graph, shard.num_chips);
            let cut_edges = total_cut_edges(&slices);
            let intervals = slices
                .into_iter()
                .map(|slice| Interval::from_slice(slice, 0))
                .collect();
            (intervals, cut_edges)
        };
        Ok(ShardedEngine {
            factory,
            shard,
            graph,
            intervals,
            cut_edges,
            stall_guard: None,
            fast_forward: true,
        })
    }

    /// Replaces the workload-derived stall guard with a fixed cycle
    /// budget per chip and link drain (`None` restores the derived
    /// guard).
    pub fn set_stall_guard(&mut self, guard: Option<u64>) {
        self.stall_guard = guard;
    }

    /// Enables or disables event-driven fast-forward (on by default;
    /// bit-identical results either way, like [`crate::Engine`]'s).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// The per-chip accelerator configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        self.factory.config()
    }

    /// The shard/link configuration.
    pub fn shard_config(&self) -> &ShardConfig {
        &self.shard
    }

    /// The partitioner's total cut-edge count — the per-full-frontier
    /// cross-chip packet count.
    pub fn cut_edges(&self) -> u64 {
        self.cut_edges
    }

    /// Executes `program` across all chips to completion.
    ///
    /// Each iteration's scatter phase is P + 1 independent drains — one
    /// per chip, one for the link — run as one batch of the process-wide
    /// [`CorePool`]. Chips share no state inside a phase, so results are
    /// bit-identical for every pool size.
    ///
    /// # Errors
    ///
    /// Returns a [`StallDiagnostic`] if a chip or the link fails to
    /// drain an iteration within its stall guard (a mis-sized fabric,
    /// link, or memory configuration).
    pub fn run<Prog>(&mut self, program: &Prog) -> Result<RunResult<Prog::Prop>, StallDiagnostic>
    where
        Prog: VertexProgram + Sync,
    {
        let mut st = self.fresh_state(program);
        // Uncontrolled, so the loop only stops at the end of the run.
        self.drive(program, &self.intervals, None, &mut st)?;
        Ok(finish_result(st))
    }

    /// The Sec. 5.3 schedule behind [`crate::Engine::run_sliced`]: this
    /// one-chip engine drains the `num_slices` slices of the graph as
    /// phases of each iteration, each slice's load costed at
    /// `memory_bytes_per_cycle`.
    pub(crate) fn run_sliced<Prog>(
        &self,
        program: &Prog,
        num_slices: usize,
        memory_bytes_per_cycle: u64,
    ) -> Result<RunResult<Prog::Prop>, StallDiagnostic>
    where
        Prog: VertexProgram + Sync,
    {
        debug_assert_eq!(self.shard.num_chips, 1, "slices share one chip");
        let intervals: Vec<Interval<'_>> = partition(self.graph, num_slices)
            .into_iter()
            .map(|slice| {
                let swap = slice_swap_cycles(&slice, memory_bytes_per_cycle);
                Interval::from_slice(slice, swap)
            })
            .collect();
        let mut st = self.fresh_state(program);
        self.drive(program, &intervals, None, &mut st)?;
        Ok(finish_result(st))
    }

    /// The run loop of every mode: iterates `program` over `intervals`
    /// until its frontier empties or its iteration cap is reached. Under
    /// `control` it also stops at a cancellation, or at a committed
    /// iteration boundary when a park is due.
    fn drive<Prog>(
        &self,
        program: &Prog,
        intervals: &[Interval<'_>],
        control: Option<&RunControl>,
        st: &mut ShardedRunState<Prog::Prop>,
    ) -> Result<Stop, StallDiagnostic>
    where
        Prog: VertexProgram + Sync,
    {
        let faults = self.fault_runtime(&st.multi);
        while !st.frontier.is_empty() && !capped(program, &st.agg) {
            if let Some(control) = control {
                if control.cancelled() {
                    return Ok(Stop::Cancel);
                }
                if control.should_park(st.agg.scatter_cycles + st.agg.apply_cycles) {
                    return Ok(Stop::Park);
                }
            }
            if !self.iterate(program, intervals, st, control, faults.as_ref())? {
                return Ok(Stop::Cancel);
            }
        }
        Ok(Stop::Done)
    }

    /// Expands the configuration's fault plan against this engine's
    /// topology (chip count, per-chip DRAM channels), if one is set.
    fn fault_runtime<P>(&self, multi: &MultiChip<P>) -> Option<FaultRuntime> {
        self.factory.config().fault_plan.as_ref().map(|plan| {
            FaultRuntime::new(
                plan,
                self.shard.num_chips,
                multi.chips.first().map_or(0, |c| c.mem.dram_channels()),
            )
        })
    }

    /// One VCPM iteration — the only iteration body: scatter the
    /// frontier over `intervals`, `num_chips` of them per phase, then
    /// apply. Returns `Ok(false)` when `control` interrupted a drain
    /// (the state is then mid-flight and must be discarded).
    ///
    /// A phase stages its cross-chip traffic, then runs P + 1 drains,
    /// each under its own [`Scheduler`] with its own fast-forward: every
    /// chip over its interval, and the link with its staged counts. The
    /// phase lasts as long as the longest of them, and each component
    /// that finished early is padded with `skip(phase − own)`. That is
    /// bit-identical to clocking them all together, cycle by cycle,
    /// because chips never gain work mid-drain, the link depends on the
    /// staged counts alone, and a drained component is quiescent, so its
    /// padding equals the idle ticks it would otherwise get
    /// (`docs/sharding.md`). A chip's fault windows are those of its
    /// position in the phase.
    ///
    /// # Errors
    ///
    /// Returns a [`StallDiagnostic`] if any drain exceeds the guard.
    fn iterate<Prog>(
        &self,
        program: &Prog,
        intervals: &[Interval<'_>],
        st: &mut ShardedRunState<Prog::Prop>,
        control: Option<&RunControl>,
        faults: Option<&FaultRuntime>,
    ) -> Result<bool, StallDiagnostic>
    where
        Prog: VertexProgram + Sync,
    {
        let config = self.factory.config();
        let num_chips = self.shard.num_chips;
        debug_assert!(
            st.multi.is_drained(),
            "a scatter phase must start from drained chips and link"
        );
        debug_assert_eq!(
            intervals.len() % num_chips,
            0,
            "every phase drains every chip"
        );
        // Fault windows land on exact global cycles, so fault runs tick
        // every cycle.
        let fast_forward = self.fast_forward && faults.is_none();

        let mut windows = split_owned_intervals(&mut st.t_props, intervals).into_iter();
        let mut prev_phase_cycles = 0u64;
        for (phase_index, lanes) in intervals.chunks(num_chips).enumerate() {
            // Stage the phase's cross-chip traffic: one packet per edge a
            // chip will process from a source another chip owns, counted
            // per (source chip, destination chip) pair.
            let staged_rows = &mut st.multi.link.staged;
            let mut phase_edges = 0u64;
            for &u in &st.frontier {
                let src_chip = lanes.iter().position(|lane| lane.owns(u));
                for (dst_chip, lane) in lanes.iter().enumerate() {
                    let degree = lane.graph.out_degree(u);
                    phase_edges += degree;
                    if let Some(src_chip) = src_chip.filter(|&src| src != dst_chip) {
                        staged_rows[src_chip][dst_chip] += degree;
                    }
                }
            }
            let staged = st.multi.link.staged_total();
            st.cross_chip_packets += staged;

            // Load the global frontier into every chip's front-end.
            for chip in &mut st.multi.chips {
                chip.front.load_frontier(&st.frontier, &st.properties);
            }

            let guard = self.stall_guard.unwrap_or_else(|| {
                derived_stall_guard(
                    config,
                    phase_edges,
                    st.frontier.len() as u64,
                    num_chips as u64,
                    staged,
                    self.shard.link_latency,
                )
            }) + faults.map_or(0, FaultRuntime::guard_bonus);
            let scheduler = || {
                Scheduler::new()
                    .with_fast_forward(fast_forward)
                    .with_stall_guard(guard)
            };
            let phase = Phase {
                program,
                control,
                faults,
                base: st.agg.scatter_cycles,
            };
            // The link is lane 0, chip p is lane p + 1. A one-chip phase
            // is two lanes, its link empty.
            let MultiChip { chips, link } = &mut st.multi;
            let chip_drains = chips
                .iter_mut()
                .zip(st.chip_metrics.iter_mut())
                .zip(windows.by_ref())
                .zip(lanes)
                .enumerate()
                .map(|(id, (((chip, metrics), window), lane))| Drain::Chip {
                    id,
                    chip,
                    metrics,
                    window,
                    graph: &lane.graph,
                });
            let drains = std::iter::once(Drain::Link(&mut *link))
                .chain(chip_drains)
                .collect();
            // Every drain of a stalled phase reports the same
            // `StallError { cycles: guard, limit: guard }`, so the first
            // error in lane order stands for the phase.
            let outcome: Result<Vec<u64>, DrainError> = drain_all(drains, |drain| match drain {
                Drain::Link(link) => link.drain(&mut scheduler(), &phase),
                Drain::Chip {
                    id,
                    chip,
                    metrics,
                    window,
                    graph,
                } => chip.drain(
                    &mut scheduler(),
                    &phase,
                    *id,
                    graph,
                    (&mut *window.0, window.1),
                    metrics,
                ),
            })
            .into_iter()
            .collect();
            let spent = match outcome {
                Ok(spent) => spent,
                Err(DrainError::Interrupted { .. }) => return Ok(false),
                Err(DrainError::Stall(stall)) => {
                    return Err(StallDiagnostic {
                        config: config.name.clone(),
                        num_chips,
                        iteration: st.agg.iterations,
                        iteration_edges: phase_edges,
                        staged_packets: staged,
                        stall,
                    })
                }
            };
            let phase_cycles = spent.iter().copied().max().unwrap_or(0);
            link.skip(phase_cycles - spent[0]);
            for ((chip, metrics), own) in
                chips.iter_mut().zip(&mut st.chip_metrics).zip(&spent[1..])
            {
                chip.skip(phase_cycles - own);
                metrics.scatter_cycles += own;
            }
            st.agg.scatter_cycles += phase_cycles;

            // Slice replacement: the first load of an iteration is
            // exposed; later loads overlap the previous phase's compute
            // under double buffering.
            let swap = lanes.iter().map(|lane| lane.swap_cycles).max().unwrap_or(0);
            st.swap_cycles_sequential += swap;
            st.swap_cycles_overlapped += if phase_index == 0 {
                swap
            } else {
                swap.saturating_sub(prev_phase_cycles)
            };
            prev_phase_cycles = phase_cycles;
        }

        // Apply: functionally global (bit-identity), cycle-wise each chip
        // scans only the vertices of its intervals; the slowest chip
        // gates the iteration.
        apply_phase(
            program,
            self.graph,
            &mut st.properties,
            &mut st.t_props,
            &mut st.frontier,
        );
        let mut max_apply = 0u64;
        for (chip, metrics) in st.chip_metrics.iter_mut().enumerate() {
            let owned: u32 = intervals
                .iter()
                .skip(chip)
                .step_by(num_chips)
                .map(|lane| lane.dst_end - lane.dst_start)
                .sum();
            let a = apply_cycles(owned, config.back_channels);
            metrics.apply_cycles += a;
            metrics.iterations += 1;
            max_apply = max_apply.max(a);
        }
        st.agg.apply_cycles += max_apply;
        st.agg.iterations += 1;
        Ok(true)
    }

    /// Executes `program` under cooperative run control: `control` can
    /// cancel mid-drain or park at the next committed iteration boundary
    /// into a restorable [`Checkpoint`]. Controlled runs drain exactly
    /// as [`ShardedEngine::run`] does, through the same loop and pool
    /// batches, and a run that completes is bit-identical to it.
    ///
    /// # Errors
    ///
    /// Returns a [`StallDiagnostic`] exactly as [`ShardedEngine::run`]
    /// does.
    pub fn run_controlled<Prog>(
        &mut self,
        program: &Prog,
        control: &RunControl,
    ) -> Result<RunOutcome<RunResult<Prog::Prop>>, StallDiagnostic>
    where
        Prog: VertexProgram + Sync,
        Prog::Prop: SnapValue,
    {
        let state = self.fresh_state(program);
        self.controlled(program, control, state)
    }

    /// Continues a parked run from `checkpoint` under `control`. The
    /// engine must be built over the same graph, accelerator
    /// configuration, and shard geometry that produced the checkpoint;
    /// mismatches are rejected with a precise error before any state is
    /// touched. A pending park request on `control` is cleared
    /// (otherwise the resume would re-park at the first boundary);
    /// callers raising a cycle budget set it before the call.
    ///
    /// # Errors
    ///
    /// [`ControlError::Snapshot`] for a rejected checkpoint,
    /// [`ControlError::Stall`] as for [`ShardedEngine::run`].
    pub fn resume_controlled<Prog>(
        &mut self,
        program: &Prog,
        control: &RunControl,
        checkpoint: &[u8],
    ) -> Result<RunOutcome<RunResult<Prog::Prop>>, ControlError>
    where
        Prog: VertexProgram + Sync,
        Prog::Prop: SnapValue,
    {
        let mut state = self.fresh_state(program);
        self.load_checkpoint(&mut state, checkpoint)?;
        control.clear_park();
        Ok(self.controlled(program, control, state)?)
    }

    /// Drives a controlled run from `st` and reports where it stopped:
    /// finished, parked into a checkpoint, or cancelled.
    fn controlled<Prog>(
        &self,
        program: &Prog,
        control: &RunControl,
        mut st: ShardedRunState<Prog::Prop>,
    ) -> Result<RunOutcome<RunResult<Prog::Prop>>, StallDiagnostic>
    where
        Prog: VertexProgram + Sync,
        Prog::Prop: SnapValue,
    {
        Ok(
            match self.drive(program, &self.intervals, Some(control), &mut st)? {
                Stop::Done => RunOutcome::Done(finish_result(st)),
                Stop::Park => RunOutcome::Parked(self.save_checkpoint(&st, program.identity())),
                Stop::Cancel => RunOutcome::Cancelled,
            },
        )
    }

    /// The state every run starts from (checkpoints restore over it).
    fn fresh_state<Prog: VertexProgram>(&self, program: &Prog) -> ShardedRunState<Prog::Prop> {
        let config = self.factory.config();
        let num_chips = self.shard.num_chips;
        let fresh_metrics = || Metrics {
            frequency_ghz: config.effective_frequency_ghz(),
            vpe_starvation_per_channel: vec![0; config.back_channels],
            ..Metrics::default()
        };
        ShardedRunState {
            properties: self
                .graph
                .vertices()
                .map(|v| program.init_prop(v, self.graph))
                .collect(),
            t_props: vec![program.identity(); self.graph.num_vertices() as usize],
            frontier: program.initial_frontier(self.graph),
            multi: MultiChip {
                chips: (0..num_chips)
                    .map(|_| ScatterPipeline::new(&self.factory))
                    .collect(),
                link: StagedLink {
                    link: InterChipLink::new(
                        num_chips,
                        self.shard.link_latency,
                        self.shard.link_bandwidth,
                        self.shard.link_capacity,
                    ),
                    staged: vec![vec![0u64; num_chips]; num_chips],
                },
            },
            chip_metrics: (0..num_chips).map(|_| fresh_metrics()).collect(),
            agg: fresh_metrics(),
            cross_chip_packets: 0,
            swap_cycles_sequential: 0,
            swap_cycles_overlapped: 0,
        }
    }

    /// Serializes a boundary state: identity context (graph hash,
    /// canonical configuration encoding, shard geometry) followed by the
    /// run variables and the multi-chip composite. A boundary is fully
    /// drained — no chip or link holds work, nothing is staged, and the
    /// apply phase has reset every tProperty to `identity` — so none of
    /// that is written: a restore starts from a fresh state, which
    /// already holds it.
    fn save_checkpoint<P: SnapValue + PartialEq + 'static>(
        &self,
        st: &ShardedRunState<P>,
        identity: P,
    ) -> Checkpoint {
        debug_assert!(
            st.multi.is_drained(),
            "a checkpoint is taken with every chip and the link drained"
        );
        debug_assert!(
            st.t_props.iter().all(|&t| t == identity),
            "a checkpoint is taken with every tProperty at the identity"
        );
        let mut w = SnapWriter::new();
        w.tag(b"SHRC");
        w.u64(self.graph.content_hash());
        w.u64(content_checksum(
            self.factory.config().canonical_encoding().as_bytes(),
        ));
        w.usize(self.shard.num_chips);
        w.u64(self.shard.link_latency);
        w.usize(self.shard.link_bandwidth);
        w.usize(self.shard.link_capacity);
        st.agg.save(&mut w);
        for chip in &st.chip_metrics {
            chip.save(&mut w);
        }
        w.u64(st.cross_chip_packets);
        w.usize(st.frontier.len());
        for v in &st.frontier {
            w.u32(v.0);
        }
        w.seq(st.properties.iter());
        st.multi.save(&mut w);
        Checkpoint {
            bytes: w.finish(),
            cycles: st.agg.scatter_cycles + st.agg.apply_cycles,
            iterations: st.agg.iterations,
        }
    }

    /// Restores a checkpoint over a freshly initialized state — whose
    /// queues are empty and whose tProperty array is the identity, as at
    /// the boundary it was taken — verifying the identity context first.
    fn load_checkpoint<P: SnapValue + 'static>(
        &self,
        st: &mut ShardedRunState<P>,
        checkpoint: &[u8],
    ) -> Result<(), SnapError> {
        let num_v = self.graph.num_vertices() as usize;
        let mut r = SnapReader::open(checkpoint)?;
        r.expect_tag(b"SHRC")?;
        if r.u64()? != self.graph.content_hash() {
            return Err(SnapError::new(
                "checkpoint was taken on a different graph (content hash mismatch)",
            ));
        }
        let live_sum = content_checksum(self.factory.config().canonical_encoding().as_bytes());
        if r.u64()? != live_sum {
            return Err(SnapError::new(
                "checkpoint was taken under a different accelerator configuration",
            ));
        }
        let geometry = (r.usize()?, r.u64()?, r.usize()?, r.usize()?);
        let live = (
            self.shard.num_chips,
            self.shard.link_latency,
            self.shard.link_bandwidth,
            self.shard.link_capacity,
        );
        if geometry != live {
            return Err(SnapError::new(format!(
                "checkpoint shard geometry {geometry:?} does not match engine {live:?}"
            )));
        }
        st.agg.load(&mut r)?;
        for chip in &mut st.chip_metrics {
            chip.load(&mut r)?;
        }
        st.cross_chip_packets = r.u64()?;
        let frontier_len = r.usize()?;
        if frontier_len > num_v {
            return Err(SnapError::new(format!(
                "frontier length {frontier_len} exceeds vertex count {num_v}"
            )));
        }
        st.frontier.clear();
        for _ in 0..frontier_len {
            let raw = r.u32()?;
            if raw as usize >= num_v {
                return Err(SnapError::new(format!(
                    "frontier vertex {raw} out of range (graph has {num_v})"
                )));
            }
            st.frontier.push(VertexId(raw));
        }
        let properties: Vec<P> = r.seq(num_v)?;
        if properties.len() != num_v {
            return Err(SnapError::new(format!(
                "property array length {} does not match vertex count {num_v}",
                properties.len()
            )));
        }
        st.properties = properties;
        st.multi.load(&mut r)?;
        r.expect_exhausted()
    }
}

/// The live state of one sharded run, bundled so the controlled paths
/// can park it into a checkpoint at a committed iteration boundary and
/// restore it later (`docs/robustness.md`).
struct ShardedRunState<P> {
    properties: Vec<P>,
    t_props: Vec<P>,
    frontier: Vec<VertexId>,
    multi: MultiChip<P>,
    chip_metrics: Vec<Metrics>,
    agg: Metrics,
    cross_chip_packets: u64,
    /// Slice-replacement cycles of a sliced run, single- and
    /// double-buffered. Not checkpointed: only whole-interval runs park.
    swap_cycles_sequential: u64,
    swap_cycles_overlapped: u64,
}

/// Where [`ShardedEngine::drive`] left a run.
enum Stop {
    /// The frontier emptied or the program's iteration cap was reached.
    Done,
    /// The control asked to park at this committed iteration boundary.
    Park,
    /// The control cancelled the run; its state is mid-flight.
    Cancel,
}

/// Whether `program`'s iteration cap stops the run before another
/// iteration.
fn capped<Prog: VertexProgram>(program: &Prog, agg: &Metrics) -> bool {
    program
        .max_iterations()
        .is_some_and(|cap| agg.iterations >= cap)
}

/// The workload-derived stall guard of one scatter phase: compute slack
/// per edge, plus — with two or more chips — the link term, plus the
/// worst-case off-chip latency when memory is modeled.
fn derived_stall_guard(
    config: &AcceleratorConfig,
    phase_edges: u64,
    frontier_len: u64,
    num_chips: u64,
    staged_packets: u64,
    link_latency: u64,
) -> u64 {
    let mem_bonus = config
        .memory
        .as_ref()
        .map(|m| m.stall_guard_bonus(phase_edges, frontier_len))
        .unwrap_or(0);
    let link = if num_chips > 1 {
        staged_packets * 8 + link_latency
    } else {
        0
    };
    10_000 + phase_edges * 64 * num_chips + link + mem_bonus
}

/// Final metric harvest and merge, shared by every run path so they
/// cannot diverge: each chip's three fabrics report their own
/// statistics, then the aggregate sums the chips.
fn finish_result<P: Copy + 'static>(st: ShardedRunState<P>) -> RunResult<P> {
    let ShardedRunState {
        properties,
        multi,
        mut chip_metrics,
        mut agg,
        cross_chip_packets,
        swap_cycles_sequential,
        swap_cycles_overlapped,
        ..
    } = st;
    for (metrics, chip) in chip_metrics.iter_mut().zip(&multi.chips) {
        metrics.cycles = metrics.scatter_cycles + metrics.apply_cycles;
        metrics.offset_net = chip.front.offset_stats();
        metrics.edge_net = chip.back.edge_stats();
        metrics.dataflow_net = chip.back.dataflow_stats();
        let cache = chip.mem.cache_stats();
        metrics.memory.cache_hits = cache.hits;
        metrics.memory.cache_misses = cache.misses;
        metrics.memory.dram = chip.mem.dram_stats();
    }
    for chip in &chip_metrics {
        agg.edges_processed += chip.edges_processed;
        agg.vpe_starvation_cycles += chip.vpe_starvation_cycles;
        for (c, s) in chip.vpe_starvation_per_channel.iter().enumerate() {
            agg.vpe_starvation_per_channel[c] += s;
        }
        agg.offset_conflicts += chip.offset_conflicts;
        agg.offset_net.merge(&chip.offset_net);
        agg.edge_net.merge(&chip.edge_net);
        agg.dataflow_net.merge(&chip.dataflow_net);
        agg.memory.merge(&chip.memory);
    }
    agg.cycles = agg.scatter_cycles + agg.apply_cycles;
    RunResult {
        properties,
        metrics: agg,
        chips: chip_metrics,
        cross_chip_packets,
        link: *multi.link.link.stats(),
        swap_cycles_sequential,
        swap_cycles_overlapped,
    }
}

/// The host's available parallelism (the ceiling the shared
/// [`CorePool`] sizes itself from). Harnesses report it as the host
/// context for a measurement.
pub fn auto_worker_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits the global tProperty array into the owned windows of
/// `intervals` (contiguous, in order, and covering), returning each
/// window plus its base vertex id. Disjointness is what lets chips drain
/// concurrently.
fn split_owned_intervals<'t, P>(
    t_props: &'t mut [P],
    intervals: &[Interval<'_>],
) -> Vec<(&'t mut [P], u32)> {
    let mut out = Vec::with_capacity(intervals.len());
    let mut remaining = t_props;
    let mut consumed = 0u32;
    for interval in intervals {
        debug_assert_eq!(
            interval.dst_start, consumed,
            "intervals must be contiguous and in order"
        );
        let (mine, rest) = remaining.split_at_mut((interval.dst_end - interval.dst_start) as usize);
        out.push((mine, interval.dst_start));
        remaining = rest;
        consumed = interval.dst_end;
    }
    debug_assert!(
        remaining.is_empty(),
        "intervals must cover the whole vertex range"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use higraph_graph::gen::{erdos_renyi, power_law};
    use higraph_vcpm::programs::{Bfs, PageRank, Sssp};
    use higraph_vcpm::reference;

    #[test]
    fn one_chip_is_bit_identical_to_serial() {
        let g = power_law(300, 2700, 2.0, 31, 23);
        let prog = Sssp::from_source(higraph_graph::stats::hub_vertex(&g).expect("non-empty").0);
        let serial = Engine::new(AcceleratorConfig::higraph(), &g)
            .run(&prog)
            .expect("no stall");
        let sharded = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(1), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(sharded.properties, serial.properties);
        assert_eq!(sharded.metrics, serial.metrics);
        assert_eq!(sharded.chips.len(), 1);
        assert_eq!(sharded.chips[0], serial.metrics);
        assert_eq!(sharded.cross_chip_packets, 0);
        assert_eq!(sharded.link.accepted, 0);
    }

    #[test]
    fn multi_chip_matches_reference_results() {
        let g = erdos_renyi(256, 2048, 31, 29);
        let prog = Bfs::from_source(0);
        let expect = reference::execute(&prog, &g);
        for p in [2usize, 3, 4, 8] {
            let r = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(p), &g)
                .run(&prog)
                .expect("no stall");
            assert_eq!(r.properties, expect.properties, "{p} chips");
            assert_eq!(
                r.metrics.edges_processed, expect.edges_processed,
                "{p} chips"
            );
            assert_eq!(r.num_chips(), p);
        }
    }

    #[test]
    fn cross_chip_traffic_is_delivered_and_counted() {
        let g = power_law(200, 1800, 2.0, 31, 37);
        let mut engine = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g);
        // one full-frontier iteration: packets == the partition's cut edges
        let r = engine.run(&PageRank::new(1)).expect("no stall");
        assert_eq!(r.cross_chip_packets, engine.cut_edges());
        assert!(r.cross_chip_packets > 0, "4-way partition must cut edges");
        assert_eq!(r.link.delivered, r.cross_chip_packets);
        assert_eq!(r.link.accepted, r.cross_chip_packets);
    }

    #[test]
    fn phase_lasts_until_the_link_drains() {
        // With a huge link latency the drain must extend past the slowest
        // chip's compute: communication is simulated, not hand-waved.
        let g = power_law(200, 1800, 2.0, 31, 41);
        let shard = ShardConfig::new(4);
        let slow_link = ShardConfig {
            link_latency: 100_000,
            ..shard
        };
        let fast = ShardedEngine::new(AcceleratorConfig::higraph(), shard, &g)
            .run(&PageRank::new(1))
            .expect("no stall");
        let slow = ShardedEngine::new(AcceleratorConfig::higraph(), slow_link, &g)
            .run(&PageRank::new(1))
            .expect("no stall");
        assert_eq!(fast.properties, slow.properties);
        assert!(
            slow.metrics.scatter_cycles > fast.metrics.scatter_cycles,
            "slow {} vs fast {}",
            slow.metrics.scatter_cycles,
            fast.metrics.scatter_cycles
        );
        assert!(slow.metrics.scatter_cycles > 100_000);
        // compute-only critical path is unchanged by link latency
        assert_eq!(
            slow.max_chip_scatter_cycles(),
            fast.max_chip_scatter_cycles()
        );
    }

    #[test]
    fn aggregate_counters_sum_over_chips() {
        let g = erdos_renyi(192, 1600, 31, 43);
        let r = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(2), &g)
            .run(&Bfs::from_source(0))
            .expect("no stall");
        assert_eq!(
            r.metrics.edges_processed,
            r.chips.iter().map(|c| c.edges_processed).sum::<u64>()
        );
        assert_eq!(
            r.metrics.dataflow_net.delivered,
            r.chips
                .iter()
                .map(|c| c.dataflow_net.delivered)
                .sum::<u64>()
        );
        assert_eq!(
            r.metrics.cycles,
            r.metrics.scatter_cycles + r.metrics.apply_cycles
        );
        assert!(r.cycles_per_edge() > 0.0);
        for chip in &r.chips {
            assert!(chip.scatter_cycles <= r.metrics.scatter_cycles);
        }
    }

    #[test]
    fn per_chip_memory_channels_are_modeled_and_merged() {
        use crate::config::MemoryConfig;
        let g = power_law(300, 2700, 2.0, 31, 53);
        let prog = Sssp::from_source(higraph_graph::stats::hub_vertex(&g).expect("non-empty").0);
        let free = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g)
            .run(&prog)
            .expect("no stall");
        let mut cfg = AcceleratorConfig::higraph();
        cfg.memory = Some(MemoryConfig::hbm2().with_cache_kb(16));
        let priced = ShardedEngine::new(cfg, ShardConfig::new(4), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(priced.properties, free.properties);
        // each chip owns its channels; the aggregate merges their counters
        let per_chip_misses: u64 = priced.chips.iter().map(|c| c.memory.cache_misses).sum();
        assert!(per_chip_misses > 0);
        assert_eq!(priced.metrics.memory.cache_misses, per_chip_misses);
        assert_eq!(
            priced.metrics.memory.stall_cycles,
            priced
                .chips
                .iter()
                .map(|c| c.memory.stall_cycles)
                .sum::<u64>()
        );
        assert!(priced.metrics.scatter_cycles >= free.metrics.scatter_cycles);
    }

    #[test]
    fn fast_forward_is_bit_identical_across_chips_and_memory() {
        use crate::config::MemoryConfig;
        let g = power_law(300, 2700, 2.0, 31, 61);
        let prog = PageRank::new(2);
        for memory in [None, Some(MemoryConfig::hbm2().with_cache_kb(16))] {
            let mut cfg = AcceleratorConfig::higraph();
            cfg.memory = memory;
            let run = |fast: bool| {
                let mut engine = ShardedEngine::new(cfg.clone(), ShardConfig::new(4), &g);
                engine.set_fast_forward(fast);
                engine.run(&prog).expect("no stall")
            };
            let naive = run(false);
            let fast = run(true);
            assert_eq!(fast.properties, naive.properties);
            assert_eq!(fast.metrics, naive.metrics);
            assert_eq!(fast.chips, naive.chips);
            assert_eq!(fast.link, naive.link);
            assert_eq!(fast.cross_chip_packets, naive.cross_chip_packets);
        }
    }

    #[test]
    fn every_lane_drains_once_in_lane_order() {
        let out = drain_all((0..9u64).collect(), |x| *x * *x);
        assert_eq!(out, (0..9u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_drains_record_window_selections() {
        // Every chip and link drain runs through a `Scheduler`, so the
        // window selections of drains on pool workers reach the
        // process-wide tally.
        let g = power_law(300, 2700, 2.0, 31, 79);
        let mut engine = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g);
        let before = higraph_sim::selection::snapshot();
        engine.run(&PageRank::new(2)).expect("no stall");
        let delta = higraph_sim::selection::snapshot().since(&before);
        assert!(delta.poll_windows > 0, "{delta:?}");
    }

    #[test]
    fn sharded_stall_guard_override_fails_with_diagnostic() {
        let g = erdos_renyi(128, 1024, 31, 59);
        let mut engine = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(2), &g);
        engine.set_stall_guard(Some(1));
        let err = engine.run(&Bfs::from_source(0)).expect_err("must stall");
        assert_eq!(err.num_chips, 2);
        assert_eq!(err.stall.limit, 1);
        engine.set_stall_guard(None);
        assert!(engine.run(&Bfs::from_source(0)).is_ok());
    }

    #[test]
    fn controlled_sharded_run_completes_bit_identical() {
        let g = power_law(300, 2700, 2.0, 31, 67);
        let prog = PageRank::new(2);
        let plain = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g)
            .run(&prog)
            .expect("no stall");
        let control = RunControl::new();
        let outcome = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g)
            .run_controlled(&prog, &control)
            .expect("no stall");
        match outcome {
            RunOutcome::Done(r) => {
                assert_eq!(r.properties, plain.properties);
                assert_eq!(r.metrics, plain.metrics);
                assert_eq!(r.chips, plain.chips);
                assert_eq!(r.link, plain.link);
                assert_eq!(r.cross_chip_packets, plain.cross_chip_packets);
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn sharded_park_and_resume_is_bit_identical() {
        let g = power_law(300, 2700, 2.0, 31, 71);
        let src = higraph_graph::stats::hub_vertex(&g).expect("non-empty").0;
        let prog = Sssp::from_source(src);
        let plain = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(3), &g)
            .run(&prog)
            .expect("no stall");

        let control = RunControl::new();
        control.set_budget_cycles(Some(1));
        let mut engine = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(3), &g);
        let parked = match engine.run_controlled(&prog, &control).expect("no stall") {
            RunOutcome::Parked(ck) => ck,
            other => panic!("expected a parked run, got {other:?}"),
        };
        control.set_budget_cycles(None);
        match engine
            .resume_controlled(&prog, &control, &parked.bytes)
            .expect("no stall")
        {
            RunOutcome::Done(r) => {
                assert_eq!(r.properties, plain.properties);
                assert_eq!(r.metrics, plain.metrics, "restore must be cycle-exact");
                assert_eq!(r.chips, plain.chips);
                assert_eq!(r.link, plain.link);
                assert_eq!(r.cross_chip_packets, plain.cross_chip_packets);
            }
            other => panic!("expected completion, got {other:?}"),
        }

        // Wrong shard geometry is rejected before any state is touched.
        let err = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(2), &g)
            .resume_controlled(&prog, &control, &parked.bytes)
            .expect_err("must reject");
        assert!(err.to_string().contains("geometry"), "{err}");
    }

    #[test]
    fn sharded_fault_plan_degrades_gracefully() {
        use crate::config::FaultPlan;
        let g = power_law(300, 2700, 2.0, 31, 73);
        let prog = PageRank::new(2);
        let clean = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g)
            .run(&prog)
            .expect("no stall");
        let mut cfg = AcceleratorConfig::higraph();
        cfg.fault_plan = Some(FaultPlan {
            seed: 3,
            events: 8,
            max_duration: 500,
            horizon: clean.metrics.scatter_cycles.max(1),
        });
        let faulty = ShardedEngine::new(cfg.clone(), ShardConfig::new(4), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(faulty.properties, clean.properties);
        assert!(faulty.metrics.scatter_cycles >= clean.metrics.scatter_cycles);
        let again = ShardedEngine::new(cfg, ShardConfig::new(4), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(again.metrics, faulty.metrics);
        assert_eq!(again.link, faulty.link);
    }

    #[test]
    fn invalid_shard_config_rejected() {
        let g = erdos_renyi(64, 256, 15, 47);
        let bad = ShardConfig {
            num_chips: 0,
            ..ShardConfig::new(1)
        };
        assert!(ShardedEngine::try_new(AcceleratorConfig::higraph(), bad, &g).is_err());
        let bad = ShardConfig {
            link_bandwidth: 0,
            ..ShardConfig::new(2)
        };
        assert!(ShardedEngine::try_new(AcceleratorConfig::higraph(), bad, &g).is_err());
    }
}
