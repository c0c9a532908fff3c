//! One harness function per table/figure of the paper.
//!
//! Every multi-point sweep executes through the
//! [`BatchRunner`] — each (algorithm × dataset ×
//! design) point is an independent deterministic simulation, so the
//! sweeps parallelize across cores with bit-identical results (see
//! `higraph_accel::runner`). See `DESIGN.md`'s experiment index for the
//! figure mapping, and `EXPERIMENTS.md` for recorded paper-vs-measured
//! results.

use crate::workload::{Algo, Scale, ShardedSummary};
use higraph::model;
use higraph::prelude::*;
use higraph::sim::DramTiming;
// lint:allow(determinism): host-performance measurement (cycles per host-second); never feeds simulated state
use std::time::Instant;

/// One sweep cell's outcome: metrics, or the stall diagnostic of the
/// configuration that failed its own cell (the sweep itself continues).
pub type CellResult = Result<Metrics, StallDiagnostic>;

/// One row of Table 1 (design configurations).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Design name.
    pub name: String,
    /// Clock in GHz (all designs: 1 GHz).
    pub frequency_ghz: f64,
    /// Front-end channels.
    pub front_channels: usize,
    /// Back-end channels.
    pub back_channels: usize,
    /// On-chip memory in MB (16 for HiGraph variants, 32 for GraphDynS).
    pub onchip_mb: u64,
}

/// Table 1: configurations used for HiGraph and baselines.
pub fn table1() -> Vec<Table1Row> {
    let mb = |layout: model::MemoryLayout| layout.total_bytes() / (1024 * 1024);
    [
        (
            AcceleratorConfig::higraph(),
            mb(model::MemoryLayout::higraph()),
        ),
        (
            AcceleratorConfig::higraph_mini(),
            mb(model::MemoryLayout::higraph()),
        ),
        (
            AcceleratorConfig::graphdyns(),
            mb(model::MemoryLayout::graphdyns()),
        ),
    ]
    .into_iter()
    .map(|(c, onchip_mb)| Table1Row {
        frequency_ghz: c.effective_frequency_ghz(),
        front_channels: c.front_channels,
        back_channels: c.back_channels,
        name: c.name,
        onchip_mb,
    })
    .collect()
}

/// One row of Table 2 (benchmark datasets), spec plus measured build.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Dataset.
    pub dataset: Dataset,
    /// Spec vertices (paper's Table 2).
    pub spec_vertices: u32,
    /// Spec edges.
    pub spec_edges: u64,
    /// Spec mean degree.
    pub spec_degree: u32,
    /// Vertices actually built (at the harness scale).
    pub built_vertices: u32,
    /// Edges actually built.
    pub built_edges: u64,
    /// Measured mean degree of the build.
    pub built_degree: f64,
}

/// Table 2: the benchmark datasets, built and measured at `scale`.
pub fn table2(scale: Scale) -> Vec<Table2Row> {
    Dataset::ALL
        .into_iter()
        .map(|d| {
            let spec = d.spec();
            let g = scale.build(d);
            Table2Row {
                dataset: d,
                spec_vertices: spec.num_vertices,
                spec_edges: spec.num_edges,
                spec_degree: spec.mean_degree,
                built_vertices: g.num_vertices(),
                built_edges: g.num_edges(),
                built_degree: g.mean_degree(),
            }
        })
        .collect()
}

/// Fig. 4: crossbar frequency (GHz) versus port count.
pub fn fig4() -> Vec<(usize, f64)> {
    [4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .map(|p| (p, model::crossbar_frequency_ghz(p)))
        .collect()
}

/// Fig. 7: the on-chip memory layout regions in bytes, plus per-dataset
/// fit checks.
pub fn fig7() -> (model::MemoryLayout, Vec<(Dataset, bool)>) {
    let layout = model::MemoryLayout::higraph();
    let fits = Dataset::ALL
        .into_iter()
        .map(|d| {
            let s = d.spec();
            (d, layout.fits(s.num_vertices, s.num_edges))
        })
        .collect();
    (layout, fits)
}

/// One cell of the Fig. 8/9 sweep: all three designs on one
/// (algorithm, dataset) workload.
#[derive(Debug, Clone)]
pub struct OverallRow {
    /// Algorithm.
    pub algo: Algo,
    /// Dataset.
    pub dataset: Dataset,
    /// GraphDynS metrics (or its own stall diagnostic).
    pub graphdyns: CellResult,
    /// HiGraph-mini metrics.
    pub higraph_mini: CellResult,
    /// HiGraph metrics.
    pub higraph: CellResult,
}

impl OverallRow {
    /// Fig. 8's HiGraph-mini bar: speedup over GraphDynS (`None` if
    /// either design stalled on this workload).
    pub fn mini_speedup(&self) -> Option<f64> {
        match (&self.higraph_mini, &self.graphdyns) {
            (Ok(mini), Ok(gd)) => Some(mini.speedup_over(gd)),
            _ => None,
        }
    }

    /// Fig. 8's HiGraph bar: speedup over GraphDynS.
    pub fn higraph_speedup(&self) -> Option<f64> {
        match (&self.higraph, &self.graphdyns) {
            (Ok(hi), Ok(gd)) => Some(hi.speedup_over(gd)),
            _ => None,
        }
    }
}

/// Figs. 8 and 9: the full 4-algorithm × 6-dataset × 3-design sweep,
/// batched across cores. This is the headline experiment; expect minutes
/// at full scale on one core, much less on many.
pub fn overall(scale: Scale) -> Vec<OverallRow> {
    let runner = BatchRunner::parallel();
    // Build each dataset once (itself parallel), share across algorithms.
    let graphs: Vec<(Dataset, Csr)> = runner.execute(&Dataset::ALL, |&d| (d, scale.build(d)));
    let points: Vec<(Algo, usize)> = Algo::ALL
        .into_iter()
        .flat_map(|algo| (0..graphs.len()).map(move |g| (algo, g)))
        .collect();
    runner.execute(&points, |&(algo, g)| {
        let (dataset, ref graph) = graphs[g];
        OverallRow {
            algo,
            dataset,
            graphdyns: algo.run(&AcceleratorConfig::graphdyns(), graph, scale.pr_iters),
            higraph_mini: algo.run(&AcceleratorConfig::higraph_mini(), graph, scale.pr_iters),
            higraph: algo.run(&AcceleratorConfig::higraph(), graph, scale.pr_iters),
        }
    })
}

/// One bar group of Fig. 10: one algorithm at one optimization step.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Algorithm.
    pub algo: Algo,
    /// Optimization step.
    pub opts: OptLevel,
    /// Measured metrics (Fig. 10a reads `gteps()`, Fig. 10b reads
    /// `vpe_starvation_cycles`), or the cell's own stall diagnostic.
    pub metrics: CellResult,
}

/// Fig. 10 (a & b): effect of Opt-O / Opt-E / Opt-D on RMAT14.
///
/// Always uses the *full-scale* R14: scaled-down R-MAT graphs concentrate
/// so much traffic on their hottest vertex that per-bank serialization
/// caps every design identically and hides the fabric effects this figure
/// exists to show (see EXPERIMENTS.md, "dataset-scale notes").
pub fn fig10(scale: Scale) -> Vec<AblationRow> {
    let graph = Dataset::Rmat14.build();
    let points: Vec<(Algo, OptLevel)> = Algo::ALL
        .into_iter()
        .flat_map(|algo| OptLevel::ALL.into_iter().map(move |opts| (algo, opts)))
        .collect();
    BatchRunner::parallel().execute(&points, |&(algo, opts)| AblationRow {
        algo,
        opts,
        metrics: algo.run(
            &AcceleratorConfig::higraph_with_opts(opts),
            &graph,
            scale.pr_iters,
        ),
    })
}

/// One point of Fig. 11: a design at a back-end channel count.
#[derive(Debug, Clone)]
pub struct ScalabilityRow {
    /// Design name ("HiGraph" / "GraphDynS").
    pub design: &'static str,
    /// Channel count.
    pub channels: usize,
    /// The cell's outcome; `None` where the design is unsupported
    /// (GraphDynS beyond 64 channels — Fig. 4's frequency wall).
    pub result: Option<CellResult>,
}

/// Fig. 11: throughput versus number of back-end channels (PR, RMAT14).
/// Like [`fig10`], always runs full-scale R14.
pub fn fig11(scale: Scale) -> Vec<ScalabilityRow> {
    let graph = Dataset::Rmat14.build();
    let points: Vec<(&'static str, usize)> = [32, 64, 128, 256]
        .into_iter()
        .flat_map(|ch| [("HiGraph", ch), ("GraphDynS", ch)])
        .collect();
    BatchRunner::parallel().execute(&points, |&(design, channels)| {
        // GraphDynS "does not support more than 64 channels due to
        // significant frequency decline" (Sec. 5.3).
        let result = if design == "HiGraph" {
            let hi = AcceleratorConfig::higraph().scaled_to(channels);
            Some(Algo::Pr.run(&hi, &graph, scale.pr_iters))
        } else if channels <= 64 {
            let gd = AcceleratorConfig::graphdyns().scaled_to(channels);
            Some(Algo::Pr.run(&gd, &graph, scale.pr_iters))
        } else {
            None
        };
        ScalabilityRow {
            design,
            channels,
            result,
        }
    })
}

/// The measured values of one multi-chip sweep cell.
#[derive(Debug, Clone)]
pub struct ShardPoint {
    /// Aggregate critical-path cycles (longest drain + slowest apply).
    pub cycles: u64,
    /// Edge traversals across all chips.
    pub edges: u64,
    /// Aggregate modeled throughput in GTEPS.
    pub gteps: f64,
    /// Aggregate cycles per processed edge (scale-out efficiency).
    pub cycles_per_edge: f64,
    /// Update packets that crossed the inter-chip link.
    pub cross_chip_packets: u64,
    /// Compute-only cycles of the slowest chip (before communication).
    pub max_chip_scatter_cycles: u64,
    /// Per-chip total cycles, indexed by chip.
    pub per_chip_cycles: Vec<u64>,
}

impl From<ShardedSummary> for ShardPoint {
    fn from(r: ShardedSummary) -> Self {
        ShardPoint {
            cycles: r.metrics.cycles,
            edges: r.metrics.edges_processed,
            gteps: r.metrics.gteps(),
            cycles_per_edge: r.cycles_per_edge,
            cross_chip_packets: r.cross_chip_packets,
            max_chip_scatter_cycles: r.max_chip_scatter_cycles,
            per_chip_cycles: r.chips.iter().map(|c| c.cycles).collect(),
        }
    }
}

/// One point of the multi-chip scalability sweep (the Fig. 11 harness
/// extended past a single accelerator).
#[derive(Debug, Clone)]
pub struct ShardSweepRow {
    /// Algorithm.
    pub algo: Algo,
    /// Chip count.
    pub chips: usize,
    /// The cell's measurements, or its own stall diagnostic.
    pub result: Result<ShardPoint, StallDiagnostic>,
}

/// Multi-chip scalability over an arbitrary algorithm set: each
/// algorithm runs on the Twitter stand-in across the given chip counts
/// with the default board-level link model. P = 1 is bit-identical to
/// the serial engine (the integration tests assert this), so that row
/// doubles as each algorithm's serial baseline. A stalled cell fails
/// alone — its row carries the diagnostic.
pub fn shard_sweep_algos(
    scale: Scale,
    algos: &[Algo],
    chip_counts: &[usize],
) -> Vec<ShardSweepRow> {
    let graph = scale.build(Dataset::Twitter);
    let points: Vec<(Algo, usize)> = algos
        .iter()
        .flat_map(|&algo| chip_counts.iter().map(move |&chips| (algo, chips)))
        .collect();
    BatchRunner::parallel().execute(&points, |&(algo, chips)| ShardSweepRow {
        algo,
        chips,
        result: algo
            .run_sharded(
                &AcceleratorConfig::higraph(),
                ShardConfig::new(chips),
                &graph,
                scale.pr_iters,
            )
            .map(ShardPoint::from),
    })
}

/// The smoke-test shard sweep: PageRank across P ∈ {1, 2, 4, 8}.
pub fn shard_sweep(scale: Scale) -> Vec<ShardSweepRow> {
    shard_sweep_algos(scale, &[Algo::Pr], &[1, 2, 4, 8])
}

/// The full six-algorithm sharded sweep (the nightly `shardfull`
/// target): every [`Algo`] at the serial-equivalent P = 1 and a
/// representative multi-chip P = 4.
pub fn shard_sweep_full(scale: Scale) -> Vec<ShardSweepRow> {
    shard_sweep_algos(scale, &Algo::ALL, &[1, 4])
}

/// The measured values of one off-chip memory sweep cell.
#[derive(Debug, Clone)]
pub struct MemPoint {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Modeled throughput.
    pub gteps: f64,
    /// Cache hit rate (lines served on chip).
    pub cache_hit_rate: f64,
    /// Cache lines fetched from DRAM.
    pub cache_misses: u64,
    /// DRAM row-buffer hit rate (locality behind the cache).
    pub dram_row_hit_rate: f64,
    /// Pipeline cycles stalled on off-chip data, summed over channels.
    pub mem_stall_cycles: u64,
}

/// One point of the off-chip memory sweep (`repro mem`).
#[derive(Debug, Clone)]
pub struct MemSweepRow {
    /// Edge/offset cache capacity in KiB.
    pub cache_kb: usize,
    /// The cell's measurements, or its own stall diagnostic.
    pub result: Result<MemPoint, StallDiagnostic>,
}

/// The cache-size axis of [`mem_sweep`], smallest to largest.
pub const MEM_SWEEP_CACHE_KB: [usize; 4] = [16, 64, 256, 1024];

/// Off-chip memory sweep: PageRank on the Twitter stand-in under the
/// HBM2-class memory model ([`MemoryConfig::hbm2`]), sweeping the
/// edge/offset cache capacity. Hit rate rises and memory-stall cycles
/// fall monotonically with cache size — the `repro mem` target gates
/// both against the checked-in baseline. The infinite-bandwidth default
/// (`memory: None`) is untouched by this sweep.
pub fn mem_sweep(scale: Scale) -> Vec<MemSweepRow> {
    mem_sweep_on(&scale.build(Dataset::Twitter), scale.pr_iters)
}

/// [`mem_sweep`] over an arbitrary graph (unit tests run it on a small
/// one — memory-stalled cycle counts make the Twitter stand-in a
/// release-build-only workload).
fn mem_sweep_on(graph: &Csr, pr_iters: u32) -> Vec<MemSweepRow> {
    BatchRunner::parallel().execute(&MEM_SWEEP_CACHE_KB, |&cache_kb| {
        let mut cfg = AcceleratorConfig::higraph();
        cfg.name = format!("HiGraph[mem,c{cache_kb}KB]");
        cfg.memory = Some(MemoryConfig::hbm2().with_cache_kb(cache_kb));
        MemSweepRow {
            cache_kb,
            result: Algo::Pr.run(&cfg, graph, pr_iters).map(|m| MemPoint {
                cycles: m.cycles,
                gteps: m.gteps(),
                cache_hit_rate: m.memory.cache_hit_rate(),
                cache_misses: m.memory.cache_misses,
                dram_row_hit_rate: m.memory.row_hit_rate(),
                mem_stall_cycles: m.memory.stall_cycles,
            }),
        }
    })
}

/// One leg of the `simspeed` host-performance measurement.
#[derive(Debug, Clone)]
pub struct SimSpeedRow {
    /// "naive" (per-cycle ticking) or "fast-forward".
    pub mode: &'static str,
    /// Host wall-clock seconds for the whole memory sweep.
    pub host_seconds: f64,
    /// Simulated cycles summed over the sweep (bit-identical across
    /// modes — the harness asserts it).
    pub simulated_cycles: u64,
    /// Simulated cycles per host second — the simulator's speed figure.
    pub cycles_per_host_second: f64,
}

/// The memory configuration `simspeed` measures: the `mem` sweep's
/// cache axis over a single bandwidth-starved memory stack with
/// DDR-class (10x slower than HBM2) timings. This is the
/// stall-dominated regime the event-driven scheduler exists for — with
/// the plentiful-bandwidth [`MemoryConfig::hbm2`] default the deep
/// range-network buffering keeps some channel trickling almost every
/// cycle, which cycle-exact fast-forward honestly cannot skip (and does
/// not: it stays within a few percent of the naive loop there).
pub fn simspeed_memory(cache_kb: usize) -> MemoryConfig {
    MemoryConfig {
        channels: 1,
        banks_per_channel: 4,
        queue_depth: 8,
        timing: DramTiming {
            t_cas: 140,
            t_rcd: 140,
            t_rp: 140,
        },
        ..MemoryConfig::hbm2().with_cache_kb(cache_kb)
    }
}

/// Host-performance comparison of the event-driven fast-forward
/// scheduler (`repro simspeed`): runs the `mem` cache-size sweep under
/// [`simspeed_memory`] — once with per-cycle ticking and once with
/// fast-forward — and reports simulated cycles per host second for both
/// plus the host-time speedup. Like Fig. 10's fixed full-scale R14,
/// the workload is pinned (PR x2 on the /32 Twitter stand-in)
/// independent of `--full` so the naive leg stays CI-sized. The
/// simulated cycle counts must be bit-identical; the harness panics
/// otherwise (that would be a scheduler bug, not a measurement).
pub fn simspeed(_scale: Scale) -> (Vec<SimSpeedRow>, f64) {
    simspeed_on(&Dataset::Twitter.build_scaled(32), 2)
}

/// [`simspeed`] over an arbitrary graph (unit tests run the harness on a
/// small one — see [`mem_sweep`]'s note on the Twitter stand-in).
fn simspeed_on(graph: &Csr, pr_iters: u32) -> (Vec<SimSpeedRow>, f64) {
    let sweep = |fast_forward: bool| {
        // lint:allow(determinism): host-performance measurement (cycles per host-second); never feeds simulated state
        let start = Instant::now();
        let rows = BatchRunner::parallel().execute(&MEM_SWEEP_CACHE_KB, |&cache_kb| {
            let mut cfg = AcceleratorConfig::higraph();
            cfg.name = format!("HiGraph[simspeed,c{cache_kb}KB]");
            cfg.memory = Some(simspeed_memory(cache_kb));
            Algo::Pr.run_with(&cfg, graph, pr_iters, fast_forward)
        });
        let host_seconds = start.elapsed().as_secs_f64();
        let simulated_cycles = rows
            .iter()
            .map(|r| r.as_ref().map_or(0, |m| m.cycles))
            .sum::<u64>();
        (host_seconds, simulated_cycles)
    };
    let (naive_s, naive_cycles) = sweep(false);
    let (fast_s, fast_cycles) = sweep(true);
    assert_eq!(
        naive_cycles, fast_cycles,
        "fast-forward must be cycle-exact"
    );
    let row = |mode, host_seconds: f64, simulated_cycles: u64| SimSpeedRow {
        mode,
        host_seconds,
        simulated_cycles,
        cycles_per_host_second: simulated_cycles as f64 / host_seconds.max(1e-9),
    };
    let speedup = naive_s / fast_s.max(1e-9);
    (
        vec![
            row("naive", naive_s, naive_cycles),
            row("fast-forward", fast_s, fast_cycles),
        ],
        speedup,
    )
}

/// One leg of the `repro hostperf` host-throughput measurement.
#[derive(Debug, Clone)]
pub struct HostPerfRow {
    /// Which leg: `shardfull_p4` (intra-run-parallel multi-chip suite)
    /// or `memstarved` (bandwidth-starved single-chip sweep).
    pub name: &'static str,
    /// Host wall-clock seconds for the leg.
    pub host_seconds: f64,
    /// Simulated cycles the leg produced (deterministic; only the host
    /// time varies run to run).
    pub simulated_cycles: u64,
    /// Simulated cycles per host second — the simulator's speed figure.
    pub cycles_per_host_second: f64,
    /// Intra-run worker threads the leg used per simulation.
    pub workers: usize,
    /// Runs in this leg that stalled (their cycles are missing from the
    /// total while their host time still accrued — recorded so a
    /// regression cannot silently corrupt the trajectory).
    pub stalled: usize,
    /// Fast-forward window selections the leg made
    /// (`higraph_sim::selection` delta across the leg) — recorded next
    /// to `cycles_per_host_second` so the trajectory shows how often
    /// windows were chosen, not just how fast.
    pub poll_windows: u64,
}

/// Shared-pool activity across the whole `repro hostperf` measurement
/// (`hostperf.pool.*` keys): how much of the work flowed through the
/// [`higraph::pool::CorePool`] and how busy its resident workers were.
#[derive(Debug, Clone, Copy)]
pub struct PoolActivityRow {
    /// Resident workers in the shared pool.
    pub workers: usize,
    /// Queued pool tasks executed by workers (batch runners + teams).
    pub tasks_executed: u64,
    /// Subset of `tasks_executed` stolen from another worker's deque.
    pub tasks_stolen: u64,
    /// Queued tasks reclaimed and run inline by the submitting thread.
    pub tasks_inline: u64,
    /// Drain leases served during the measurement.
    pub lease_requests: u64,
    /// Resident workers handed to those leases.
    pub lease_workers_granted: u64,
    /// Temporary threads attached by exact leases beyond the idle supply.
    pub lease_workers_oversubscribed: u64,
    /// Busy nanoseconds per resident worker-nanosecond over the window
    /// (0.0 when the pool has no resident workers).
    pub occupancy: f64,
}

/// Host-performance trajectory (`repro hostperf`): absolute simulated
/// cycles per host second on two fixed workloads, recorded so future
/// PRs can see the trend. Informational — never gated (host speed is
/// machine-dependent), unlike `simspeed`'s fast-forward ratio.
///
/// * `shardfull_p4` — the six-algorithm sharded suite at P = 4, one run
///   at a time with intra-run chip parallelism enabled
///   ([`crate::Algo::run_sharded_threads`] with `threads = None`): the
///   single-run-latency view of the multi-chip executor.
/// * `memstarved` — the `simspeed` cache sweep (bandwidth-starved
///   single stack, fast-forward on, pinned at TW/32 × 2 PR iterations):
///   the per-cycle hot path under memory stalls.
pub fn hostperf(scale: Scale) -> (Vec<HostPerfRow>, PoolActivityRow) {
    hostperf_on(
        &scale.build(Dataset::Twitter),
        &Dataset::Twitter.build_scaled(32),
        scale.pr_iters,
    )
}

/// [`hostperf`] over explicit graphs (unit tests run it on small ones).
fn hostperf_on(
    shard_graph: &Csr,
    mem_graph: &Csr,
    pr_iters: u32,
) -> (Vec<HostPerfRow>, PoolActivityRow) {
    use higraph::pool::CorePool;
    use higraph::sim::selection::{self, SelectionCounts};
    let pool = CorePool::global();
    let pool_before = pool.snapshot();
    // lint:allow(determinism): host-performance measurement (cycles per host-second); never feeds simulated state
    let pool_window = Instant::now();
    let row = |name,
               host_seconds: f64,
               simulated_cycles: u64,
               workers,
               stalled,
               selections: SelectionCounts| HostPerfRow {
        name,
        host_seconds,
        simulated_cycles,
        cycles_per_host_second: simulated_cycles as f64 / host_seconds.max(1e-9),
        workers,
        stalled,
        poll_windows: selections.poll_windows,
    };

    let chips = 4;
    let shard_workers = higraph::accel::sharded::auto_worker_threads().min(chips);
    let shard_selections_before = selection::snapshot();
    // lint:allow(determinism): host-performance measurement (cycles per host-second); never feeds simulated state
    let start = Instant::now();
    let mut shard_cycles = 0u64;
    let mut shard_stalled = 0usize;
    for algo in Algo::ALL {
        match algo.run_sharded_threads(
            &AcceleratorConfig::higraph(),
            ShardConfig::new(chips),
            shard_graph,
            pr_iters,
            None,
        ) {
            // total simulated work: every chip's cycles, not just the
            // critical path — that is what the host actually computes
            Ok(summary) => {
                shard_cycles += summary.chips.iter().map(|c| c.cycles).sum::<u64>();
            }
            Err(stall) => {
                eprintln!("hostperf shardfull_p4 {} STALL: {stall}", algo.label());
                shard_stalled += 1;
            }
        }
    }
    let shard_seconds = start.elapsed().as_secs_f64();
    let shard_selections = selection::snapshot().since(&shard_selections_before);

    let mem_selections_before = selection::snapshot();
    // lint:allow(determinism): host-performance measurement (cycles per host-second); never feeds simulated state
    let start = Instant::now();
    let mut mem_cycles = 0u64;
    let mut mem_stalled = 0usize;
    for &cache_kb in &MEM_SWEEP_CACHE_KB {
        let mut cfg = AcceleratorConfig::higraph();
        cfg.name = format!("HiGraph[hostperf,c{cache_kb}KB]");
        cfg.memory = Some(simspeed_memory(cache_kb));
        match Algo::Pr.run(&cfg, mem_graph, pr_iters.min(2)) {
            Ok(m) => mem_cycles += m.cycles,
            Err(stall) => {
                eprintln!("hostperf memstarved c{cache_kb}KB STALL: {stall}");
                mem_stalled += 1;
            }
        }
    }
    let mem_seconds = start.elapsed().as_secs_f64();
    let mem_selections = selection::snapshot().since(&mem_selections_before);

    let window_ns = pool_window.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let delta = pool.snapshot().since(&pool_before);
    let pool_row = PoolActivityRow {
        workers: pool.workers(),
        tasks_executed: delta.tasks_executed,
        tasks_stolen: delta.tasks_stolen,
        tasks_inline: delta.tasks_inline,
        lease_requests: delta.lease_requests,
        lease_workers_granted: delta.lease_workers_granted,
        lease_workers_oversubscribed: delta.lease_workers_oversubscribed,
        occupancy: delta.occupancy(window_ns, pool.workers()),
    };

    let rows = vec![
        row(
            "shardfull_p4",
            shard_seconds,
            shard_cycles,
            shard_workers,
            shard_stalled,
            shard_selections,
        ),
        row(
            "memstarved",
            mem_seconds,
            mem_cycles,
            1,
            mem_stalled,
            mem_selections,
        ),
    ];
    (rows, pool_row)
}

/// One point of Fig. 12: a dataflow fabric at a per-channel buffer size.
#[derive(Debug, Clone)]
pub struct BufferSweepRow {
    /// "MDP-network" or "FIFO+Crossbar".
    pub design: &'static str,
    /// Buffer entries per channel.
    pub buffer: usize,
    /// PR/RMAT14 throughput, or the cell's own stall diagnostic (tiny
    /// buffers genuinely deadlock some fabrics — that is a result, not
    /// a crash).
    pub gteps: Result<f64, StallDiagnostic>,
}

/// Fig. 12: throughput versus per-channel FIFO buffer size, MDP-network
/// against FIFO-plus-crossbar in the dataflow-propagation stage (all else
/// identical — Sec. 5.4).
/// Like [`fig10`], always runs full-scale R14.
pub fn fig12(scale: Scale) -> Vec<BufferSweepRow> {
    let graph = Dataset::Rmat14.build();
    let points: Vec<(&'static str, NetworkKind, usize)> = [10, 20, 40, 80, 160, 240, 320]
        .into_iter()
        .flat_map(|buffer| {
            [
                ("MDP-network", NetworkKind::Mdp, buffer),
                ("FIFO+Crossbar", NetworkKind::Crossbar, buffer),
            ]
        })
        .collect();
    BatchRunner::parallel().execute(&points, |&(design, kind, buffer)| {
        let mut cfg = AcceleratorConfig::higraph();
        cfg.name = format!("HiGraph[df={design},buf={buffer}]");
        cfg.dataflow_network = kind;
        cfg.dataflow_buffer_per_channel = buffer;
        BufferSweepRow {
            design,
            buffer,
            gteps: Algo::Pr
                .run(&cfg, &graph, scale.pr_iters)
                .map(|m| m.gteps()),
        }
    })
}

/// One point of the Sec. 5.4 radix sweep.
#[derive(Debug, Clone)]
pub struct RadixRow {
    /// FIFO write-port count.
    pub radix: usize,
    /// Achieved clock under the radix-centralization model.
    pub frequency_ghz: f64,
    /// PR/RMAT14 throughput, or the cell's own stall diagnostic.
    pub gteps: Result<f64, StallDiagnostic>,
}

/// Sec. 5.4 design option: MDP-network radix sweep (on a 64-channel
/// design, where radices 2/4/8/64 all divide evenly).
/// Like [`fig10`], always runs full-scale R14.
pub fn radix_sweep(scale: Scale) -> Vec<RadixRow> {
    let graph = Dataset::Rmat14.build();
    BatchRunner::parallel().execute(&[2usize, 4, 8, 64], |&radix| {
        let mut cfg = AcceleratorConfig::higraph().scaled_to(64);
        cfg.radix = radix;
        cfg.name = format!("HiGraph-64[r{radix}]");
        let gteps = Algo::Pr
            .run(&cfg, &graph, scale.pr_iters)
            .map(|m| m.gteps());
        RadixRow {
            radix,
            frequency_ghz: cfg.effective_frequency_ghz(),
            gteps,
        }
    })
}

/// One point of the Fig. 5 design-theory comparison.
#[derive(Debug, Clone)]
pub struct DesignTheoryRow {
    /// Dataflow fabric used ("Crossbar" / "nW1R FIFO" / "MDP-network").
    pub fabric: &'static str,
    /// Buffer entries per channel.
    pub buffer: usize,
    /// PR/RMAT14 metrics, or the cell's own stall diagnostic.
    pub metrics: CellResult,
}

/// Fig. 5 design theory: the three candidate solutions to the
/// interaction-across-channels problem — arbitration (crossbar), the naive
/// nW1R FIFO, and the MDP-network — swapped into the dataflow-propagation
/// stage. Always runs full-scale R14 (see [`fig10`]).
/// The two buffer sizes contrast the naive FIFO's "large requirement and
/// low utilization of buffer capacity" (a 32-writer FIFO only admits
/// writes while 32+ slots are free, so small buffers are mostly wasted)
/// against the MDP-network, which works from small per-stage FIFOs.
pub fn fig5_design_theory(scale: Scale) -> Vec<DesignTheoryRow> {
    let graph = Dataset::Rmat14.build();
    let points: Vec<(&'static str, NetworkKind, usize)> = [40usize, 160]
        .into_iter()
        .flat_map(|buffer| {
            [
                ("Crossbar", NetworkKind::Crossbar, buffer),
                ("nW1R FIFO", NetworkKind::NaiveFifo, buffer),
                ("MDP-network", NetworkKind::Mdp, buffer),
            ]
        })
        .collect();
    BatchRunner::parallel().execute(&points, |&(fabric, kind, buffer)| {
        let mut cfg = AcceleratorConfig::higraph();
        cfg.name = format!("HiGraph[df={fabric},buf={buffer}]");
        cfg.dataflow_network = kind;
        cfg.dataflow_buffer_per_channel = buffer;
        DesignTheoryRow {
            fabric,
            buffer,
            metrics: Algo::Pr.run(&cfg, &graph, scale.pr_iters),
        }
    })
}

/// One point of the dispatcher read-port ablation (a design choice
/// DESIGN.md calls out: the final edge-network stage is a 2W2R module, so
/// each Dispatcher has two read ports).
#[derive(Debug, Clone)]
pub struct DispatcherAblationRow {
    /// Dispatcher read ports.
    pub read_ports: usize,
    /// PR metrics on the Epinions stand-in (front-end/edge bound, where
    /// dispatcher bandwidth matters), or the cell's stall diagnostic.
    pub metrics: CellResult,
}

/// Ablation: dispatcher read ports 1 vs 2 vs 4 on an edge-bound workload.
pub fn dispatcher_ablation(scale: Scale) -> Vec<DispatcherAblationRow> {
    let graph = scale.build(Dataset::Epinions);
    BatchRunner::parallel().execute(&[1usize, 2, 4], |&read_ports| {
        let mut cfg = AcceleratorConfig::higraph_mini();
        cfg.name = format!("HiGraph-mini[{read_ports}R]");
        cfg.dispatcher_read_ports = read_ports;
        DispatcherAblationRow {
            read_ports,
            metrics: Algo::Pr.run(&cfg, &graph, scale.pr_iters),
        }
    })
}

/// Sec. 5.4 area/power comparison at the paper's synthesis points.
#[derive(Debug, Clone)]
pub struct AreaPowerRow {
    /// Design name.
    pub design: &'static str,
    /// Buffer entries per channel.
    pub buffer: usize,
    /// Area in mm².
    pub area_mm2: f64,
    /// Power in mW.
    pub power_mw: f64,
}

/// Sec. 5.4: area and power of the dataflow-propagation fabric.
pub fn area_power() -> Vec<AreaPowerRow> {
    vec![
        AreaPowerRow {
            design: "MDP-network",
            buffer: 160,
            area_mm2: model::mdp_area_mm2(32, 160),
            power_mw: model::mdp_power_mw(32, 160),
        },
        AreaPowerRow {
            design: "FIFO+Crossbar",
            buffer: 128,
            area_mm2: model::crossbar_area_mm2(32, 128),
            power_mw: model::crossbar_power_mw(32, 128),
        },
    ]
}

/// One row of the batch-runner throughput demonstration.
#[derive(Debug, Clone)]
pub struct BatchSweepRow {
    /// Job label.
    pub label: String,
    /// Simulated throughput of that design point.
    pub gteps: f64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Whether the job used the sliced large-graph schedule.
    pub sliced: bool,
}

/// The batch-runner demonstration: one typed batch of PageRank jobs —
/// all three Table 1 designs, a buffer-starved variant, and two sliced
/// large-graph schedules — executed in parallel, with the aggregate
/// report. Results are bit-identical to serial execution
/// (`tests/batch_runner.rs` asserts this for the same job shapes).
pub fn batch_throughput(scale: Scale) -> (Vec<BatchSweepRow>, BatchReport) {
    let graph = scale.build(Dataset::Slashdot);
    let pr = scale.pr_iters;
    let mut small_buffer = AcceleratorConfig::higraph();
    small_buffer.name = "HiGraph[buf=20]".to_string();
    small_buffer.dataflow_buffer_per_channel = 20;
    let jobs = vec![
        BatchJob::new(
            "GraphDynS",
            &graph,
            PageRank::new(pr),
            AcceleratorConfig::graphdyns(),
        ),
        BatchJob::new(
            "HiGraph-mini",
            &graph,
            PageRank::new(pr),
            AcceleratorConfig::higraph_mini(),
        ),
        BatchJob::new(
            "HiGraph",
            &graph,
            PageRank::new(pr),
            AcceleratorConfig::higraph(),
        ),
        BatchJob::new("HiGraph[buf=20]", &graph, PageRank::new(pr), small_buffer),
        BatchJob::new(
            "HiGraph/4 slices",
            &graph,
            PageRank::new(pr),
            AcceleratorConfig::higraph(),
        )
        .sliced(4, 64),
        BatchJob::new(
            "HiGraph/8 slices",
            &graph,
            PageRank::new(pr),
            AcceleratorConfig::higraph(),
        )
        .sliced(8, 64),
    ];
    let (results, report) = BatchRunner::parallel().run(jobs);
    let rows = results
        .into_iter()
        .map(|r| BatchSweepRow {
            label: r.label,
            gteps: r.metrics.gteps(),
            cycles: r.metrics.cycles,
            sliced: r.sliced.is_some(),
        })
        .collect();
    (rows, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by the tests here that fan work out over the shared pool.
    /// The pool has one worker on a 2-core host, so a sweep running
    /// beside `hostperf_reports_both_legs` would keep it from the
    /// lease that test asserts on.
    static POOL_USERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn pool_to_myself() -> std::sync::MutexGuard<'static, ()> {
        POOL_USERS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn table1_matches_paper() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].front_channels, 32);
        assert_eq!(rows[1].front_channels, 4);
        assert_eq!(rows[2].onchip_mb, 32); // Table 1: GraphDynS has 32 MB
        assert!(rows.iter().all(|r| (r.frequency_ghz - 1.0).abs() < 1e-9));
    }

    #[test]
    fn fig4_declines() {
        let pts = fig4();
        assert_eq!(pts.len(), 7);
        assert!(pts.windows(2).all(|w| w[0].1 > w[1].1));
    }

    #[test]
    fn fig7_all_datasets_fit() {
        let (_, fits) = fig7();
        assert!(fits.iter().all(|(_, ok)| *ok));
    }

    #[test]
    fn area_power_matches_sec54() {
        let rows = area_power();
        assert!((rows[0].area_mm2 - 0.375).abs() < 1e-3);
        assert!((rows[0].power_mw - 621.2).abs() < 0.5);
        assert!((rows[1].area_mm2 - 0.292).abs() < 1e-3);
        assert!((rows[1].power_mw - 508.1).abs() < 0.5);
    }

    #[test]
    fn shard_sweep_reports_traffic_and_efficiency() {
        let _pool = pool_to_myself();
        let rows = shard_sweep(Scale::tiny());
        assert_eq!(rows.len(), 4);
        assert_eq!(
            rows.iter().map(|r| r.chips).collect::<Vec<_>>(),
            [1, 2, 4, 8]
        );
        let points: Vec<&ShardPoint> = rows
            .iter()
            .map(|r| r.result.as_ref().expect("well-sized config"))
            .collect();
        // every chip count traverses the same edges
        assert!(points.iter().all(|p| p.edges == points[0].edges));
        // a single chip never crosses the link; partitions do
        assert_eq!(points[0].cross_chip_packets, 0);
        assert!(points[1..].iter().all(|p| p.cross_chip_packets > 0));
        for (r, p) in rows.iter().zip(&points) {
            assert_eq!(p.per_chip_cycles.len(), r.chips);
            assert!(p.cycles_per_edge > 0.0);
            assert!(p.max_chip_scatter_cycles <= p.cycles);
        }
    }

    #[test]
    fn full_shard_sweep_covers_six_algorithms() {
        let _pool = pool_to_myself();
        let rows = shard_sweep_full(Scale::tiny());
        assert_eq!(rows.len(), Algo::ALL.len() * 2);
        for algo in Algo::ALL {
            let mine: Vec<_> = rows.iter().filter(|r| r.algo == algo).collect();
            assert_eq!(mine.len(), 2, "{}", algo.label());
            for r in mine {
                let p = r.result.as_ref().expect("well-sized config");
                assert!(p.edges > 0, "{} x{}", algo.label(), r.chips);
            }
        }
    }

    #[test]
    fn mem_sweep_is_monotone_in_cache_size() {
        let _pool = pool_to_myself();
        // the smallest Table 2 dataset: debug builds must finish fast
        let rows = mem_sweep_on(&Scale::tiny().build(Dataset::Vote), 2);
        assert_eq!(rows.len(), MEM_SWEEP_CACHE_KB.len());
        let points: Vec<(usize, &MemPoint)> = rows
            .iter()
            .map(|r| (r.cache_kb, r.result.as_ref().expect("well-sized config")))
            .collect();
        for pair in points.windows(2) {
            assert!(
                pair[0].1.cache_hit_rate <= pair[1].1.cache_hit_rate,
                "{}KB {} vs {}KB {}",
                pair[0].0,
                pair[0].1.cache_hit_rate,
                pair[1].0,
                pair[1].1.cache_hit_rate
            );
            assert!(
                pair[0].1.mem_stall_cycles >= pair[1].1.mem_stall_cycles,
                "{}KB {} vs {}KB {}",
                pair[0].0,
                pair[0].1.mem_stall_cycles,
                pair[1].0,
                pair[1].1.mem_stall_cycles
            );
        }
        for (cache_kb, p) in &points {
            assert!(p.cache_hit_rate.is_finite() && p.dram_row_hit_rate.is_finite());
            assert!(p.cache_misses > 0, "{cache_kb}KB must still miss cold");
        }
    }

    #[test]
    fn radix_sweep_shows_centralization_penalty() {
        let rows = radix_sweep(Scale::tiny());
        let small: Vec<_> = rows.iter().filter(|r| r.radix <= 8).collect();
        let large = rows.iter().find(|r| r.radix == 64).expect("radix 64");
        // small radices hold the 1 GHz target; radix 64 does not
        assert!(small.iter().all(|r| (r.frequency_ghz - 1.0).abs() < 1e-9));
        assert!(large.frequency_ghz < 1.0);
    }

    #[test]
    fn hostperf_reports_both_legs() {
        let _pool = pool_to_myself();
        let g = Scale::tiny().build(Dataset::Vote);
        let (rows, pool) = hostperf_on(&g, &g, 2);
        assert_eq!(rows.len(), 2);
        // the P = 4 leg drains through pool leases whenever the host has
        // cores to lend; on a single-core host the counters stay zero
        assert!(pool.occupancy >= 0.0 && pool.occupancy.is_finite());
        if pool.workers > 0 {
            assert!(pool.lease_requests > 0, "shardfull_p4 leases per drain");
            assert!(pool.lease_workers_granted > 0);
        }
        assert_eq!(rows[0].name, "shardfull_p4");
        assert_eq!(rows[1].name, "memstarved");
        for r in &rows {
            assert!(r.simulated_cycles > 0, "{}", r.name);
            assert!(r.cycles_per_host_second > 0.0, "{}", r.name);
            assert!(r.cycles_per_host_second.is_finite(), "{}", r.name);
            assert!(r.workers >= 1, "{}", r.name);
            assert_eq!(r.stalled, 0, "{}: well-sized presets never stall", r.name);
        }
        assert!(rows[0].workers <= 4, "capped at the chip count");
    }

    #[test]
    fn simspeed_reports_identical_cycles_for_both_modes() {
        let _pool = pool_to_myself();
        // a small graph: this is the harness-shape test, not the perf
        // gate (the repro binary gates the measured ratio in release)
        let (rows, speedup) = simspeed_on(&Scale::tiny().build(Dataset::Vote), 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].mode, "naive");
        assert_eq!(rows[1].mode, "fast-forward");
        assert_eq!(rows[0].simulated_cycles, rows[1].simulated_cycles);
        assert!(rows[0].simulated_cycles > 0);
        assert!(speedup > 0.0 && speedup.is_finite());
        for r in &rows {
            assert!(r.cycles_per_host_second > 0.0);
        }
    }
}
