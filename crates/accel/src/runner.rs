//! Parallel batch execution of accelerator simulations.
//!
//! A single [`Engine::run`](crate::Engine::run) models one accelerator
//! on one workload; the paper's evaluation — and any serving deployment
//! of the model — instead sweeps whole *batches* of (graph × program ×
//! config) points: the Fig. 8 design comparison is a 4 × 6 × 3 sweep,
//! Fig. 10 a 4 × 4 ablation grid, the buffer/radix studies more still.
//! Every point is an independent deterministic simulation, so the batch
//! is embarrassingly parallel.
//!
//! [`BatchRunner`] executes such batches through the process-wide
//! work-stealing [`CorePool`] and reports aggregate throughput.
//! Parallelism changes *only* wall-clock time: each simulation is
//! deterministic and seeded by its own inputs, so results are
//! bit-identical to running the same jobs serially through
//! [`Engine::run`](crate::Engine::run) — `tests/batch_runner.rs` asserts
//! this.
//!
//! A job runs in one of the three [`RunMode`]s — whole graph, sliced
//! ([`Engine::run_sliced`](crate::Engine::run_sliced), Sec. 5.3) or
//! sharded — and all three go through the one run driver of
//! [`ShardedEngine`] and return one [`RunResult`]. A job's drains
//! compose with the batch: each scatter phase is a pool batch nested in
//! the sweep's, so its drains take only workers the sweep leaves idle
//! (`docs/performance.md`) and otherwise run on the job's own thread,
//! bit-identically. A job that cannot run (an invalid configuration,
//! zero slices) or that stalls fails its own entry, never the batch.
//!
//! # Example
//!
//! ```
//! use higraph_accel::{AcceleratorConfig, BatchJob, BatchRunner};
//! use higraph_graph::gen::erdos_renyi;
//! use higraph_vcpm::programs::Bfs;
//!
//! let graph = erdos_renyi(128, 1024, 31, 1);
//! let jobs: Vec<_> = [AcceleratorConfig::higraph(), AcceleratorConfig::graphdyns()]
//!     .into_iter()
//!     .map(|config| BatchJob::new(&config.name.clone(), &graph, Bfs::from_source(0), config))
//!     .collect();
//! let (results, report) = BatchRunner::parallel().run(jobs);
//! assert_eq!(results.len(), 2);
//! assert_eq!(report.jobs, 2);
//! assert!(report.total_edges_processed > 0);
//! ```

use crate::config::AcceleratorConfig;
use crate::engine::{RunResult, StallDiagnostic};
use crate::metrics::Metrics;
use crate::sharded::{ShardConfig, ShardedEngine};
use higraph_graph::Csr;
use higraph_pool::CorePool;
use higraph_vcpm::VertexProgram;
use std::fmt;
// lint:allow(determinism): wall-clock only feeds host-side BatchReport throughput; simulated state never reads it
use std::time::Instant;

/// Why one batch entry failed while the rest of the batch ran on.
///
/// Construction-time validation failures (a zero buffer capacity, a
/// non-power-of-two channel count, a bad memory geometry…) fail the
/// entry exactly like a runtime stall does, instead of panicking and
/// aborting the whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// The accelerator, shard or slice configuration failed validation;
    /// the entry never simulated.
    Config(String),
    /// The simulation stalled (deadlock/livelock under backpressure).
    Stall(StallDiagnostic),
}

impl BatchError {
    /// The stall diagnostic, when the entry failed at runtime.
    pub fn stall(&self) -> Option<&StallDiagnostic> {
        match self {
            BatchError::Stall(diagnostic) => Some(diagnostic),
            BatchError::Config(_) => None,
        }
    }
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Config(message) => write!(f, "invalid configuration: {message}"),
            BatchError::Stall(diagnostic) => diagnostic.fmt(f),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Config(_) => None,
            BatchError::Stall(diagnostic) => Some(diagnostic),
        }
    }
}

impl From<StallDiagnostic> for BatchError {
    fn from(diagnostic: StallDiagnostic) -> Self {
        BatchError::Stall(diagnostic)
    }
}

/// How one batched simulation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// The whole graph resides on chip ([`Engine::run`](crate::Engine::run)).
    Whole,
    /// The Sec. 5.3 large-graph schedule
    /// ([`Engine::run_sliced`](crate::Engine::run_sliced)).
    Sliced {
        /// Destination-interval slice count (zero fails the job with
        /// [`BatchError::Config`]).
        num_slices: usize,
        /// Off-chip bandwidth for slice replacement, bytes per cycle.
        memory_bytes_per_cycle: u64,
    },
    /// Sharded multi-chip execution ([`ShardedEngine::run`]).
    Sharded {
        /// Chip count and inter-chip link model.
        shard: ShardConfig,
    },
}

/// One (graph × program × config) simulation in a batch.
#[derive(Debug, Clone)]
pub struct BatchJob<'g, Prog> {
    /// Label carried through to the result (design name, sweep point…).
    pub label: String,
    /// The input graph.
    pub graph: &'g Csr,
    /// The vertex program to execute.
    pub program: Prog,
    /// The accelerator design point.
    pub config: AcceleratorConfig,
    /// Whole-graph or sliced execution.
    pub mode: RunMode,
    /// Optional fixed stall guard (cycles per scatter phase) instead of
    /// the workload-derived one; bounds how long a mis-sized design
    /// point may simulate before failing its entry.
    pub stall_guard: Option<u64>,
}

impl<'g, Prog> BatchJob<'g, Prog> {
    /// A whole-graph job.
    pub fn new(label: &str, graph: &'g Csr, program: Prog, config: AcceleratorConfig) -> Self {
        BatchJob {
            label: label.to_string(),
            graph,
            program,
            config,
            mode: RunMode::Whole,
            stall_guard: None,
        }
    }

    /// Bounds this job's per-scatter-phase cycle budget; beyond it the
    /// entry fails with a [`StallDiagnostic`] instead of simulating on.
    pub fn with_stall_guard(mut self, guard: u64) -> Self {
        self.stall_guard = Some(guard);
        self
    }

    /// Switches this job to the sliced large-graph schedule.
    pub fn sliced(mut self, num_slices: usize, memory_bytes_per_cycle: u64) -> Self {
        self.mode = RunMode::Sliced {
            num_slices,
            memory_bytes_per_cycle,
        };
        self
    }

    /// Switches this job to sharded multi-chip execution.
    pub fn sharded(mut self, shard: ShardConfig) -> Self {
        self.mode = RunMode::Sharded { shard };
        self
    }
}

/// Result of one batched simulation.
#[derive(Debug, Clone)]
pub struct BatchResult<P> {
    /// The job's label.
    pub label: String,
    /// The job's run — bit-identical to running it directly through
    /// [`Engine::run`](crate::Engine::run),
    /// [`Engine::run_sliced`](crate::Engine::run_sliced) or
    /// [`ShardedEngine::run`] — or why this entry failed: an invalid
    /// configuration or a runtime stall. A bad design point fails its
    /// own entry; the rest of the batch runs to completion.
    pub run: Result<RunResult<P>, BatchError>,
}

/// Aggregate throughput of one batch execution.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Number of simulations executed.
    pub jobs: usize,
    /// Sum of edge traversals across all simulations.
    pub total_edges_processed: u64,
    /// Sum of simulated cycles across all simulations.
    pub total_simulated_cycles: u64,
    /// Sum of modeled execution time across all simulations, ns.
    pub total_simulated_ns: f64,
    /// Entries that failed (they contribute nothing to the totals
    /// above).
    pub failed_jobs: usize,
    /// Host wall-clock time for the whole batch, seconds.
    pub wall_seconds: f64,
    /// Worker threads available to the runner (1 when serial).
    pub workers: usize,
}

impl BatchReport {
    /// Aggregate modeled throughput: total edges over total modeled time
    /// (GTEPS), i.e. the batch viewed as one long accelerator run.
    pub fn aggregate_gteps(&self) -> f64 {
        if self.total_simulated_ns == 0.0 {
            0.0
        } else {
            self.total_edges_processed as f64 / self.total_simulated_ns
        }
    }

    /// Host-side simulation rate: simulations completed per wall second.
    pub fn sims_per_second(&self) -> f64 {
        if self.wall_seconds == 0.0 {
            0.0
        } else {
            self.jobs as f64 / self.wall_seconds
        }
    }

    /// Host-side edge-traversal simulation rate, millions per wall second.
    pub fn simulated_meps(&self) -> f64 {
        if self.wall_seconds == 0.0 {
            0.0
        } else {
            self.total_edges_processed as f64 / self.wall_seconds / 1e6
        }
    }
}

/// Executes batches of independent simulations, serially or in parallel.
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner {
    parallel: bool,
}

impl BatchRunner {
    /// A runner that spreads jobs across all available cores.
    pub fn parallel() -> Self {
        BatchRunner { parallel: true }
    }

    /// A runner that executes jobs one by one on the calling thread
    /// (reference path for the bit-identity tests, and for callers that
    /// already parallelize at a higher level).
    pub fn serial() -> Self {
        BatchRunner { parallel: false }
    }

    /// Worker threads this runner will use: the pool's resident workers
    /// plus the submitting thread, which always participates.
    pub fn workers(&self) -> usize {
        if self.parallel {
            CorePool::global().workers() + 1
        } else {
            1
        }
    }

    /// Executes a typed batch and returns per-job results (in job order)
    /// plus the aggregate report.
    ///
    /// A job with an invalid configuration — or a sliced job with zero
    /// slices — fails its own entry with [`BatchError::Config`]: sweeps
    /// over generated design points (buffer sizes down to zero,
    /// arbitrary channel geometries) lose one cell, not the whole batch.
    pub fn run<Prog>(
        &self,
        jobs: Vec<BatchJob<'_, Prog>>,
    ) -> (Vec<BatchResult<Prog::Prop>>, BatchReport)
    where
        Prog: VertexProgram + Sync,
    {
        // lint:allow(determinism): wall-clock only feeds host-side BatchReport throughput; simulated state never reads it
        let started = Instant::now();
        let results = self.execute(&jobs, |job| BatchResult {
            label: job.label.clone(),
            run: run_job(job),
        });
        let mut report = self.summarize(
            results
                .iter()
                .filter_map(|r| r.run.as_ref().ok())
                .map(|r| &r.metrics),
            started,
        );
        report.jobs = results.len();
        report.failed_jobs = results.iter().filter(|r| r.run.is_err()).count();
        (results, report)
    }

    /// The untyped execution primitive: applies `work` to every job,
    /// in parallel when the runner is parallel, preserving job order.
    ///
    /// The figure sweeps in `higraph-bench` run on this directly — their
    /// result rows are not property arrays, but the execution layer is
    /// the same one the typed [`BatchRunner::run`] uses.
    pub fn execute<J, R, F>(&self, jobs: &[J], work: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        F: Fn(&J) -> R + Sync,
    {
        if self.parallel && jobs.len() > 1 {
            CorePool::global().run_ordered(jobs.len(), |i| work(&jobs[i]))
        } else {
            jobs.iter().map(work).collect()
        }
    }

    /// Builds the aggregate report for a set of per-job metrics.
    pub fn summarize<'m>(
        &self,
        metrics: impl Iterator<Item = &'m Metrics>,
        // lint:allow(determinism): wall-clock only feeds host-side BatchReport throughput; simulated state never reads it
        started: Instant,
    ) -> BatchReport {
        let mut report = BatchReport {
            jobs: 0,
            total_edges_processed: 0,
            total_simulated_cycles: 0,
            total_simulated_ns: 0.0,
            failed_jobs: 0,
            wall_seconds: 0.0,
            workers: self.workers(),
        };
        for m in metrics {
            report.jobs += 1;
            report.total_edges_processed += m.edges_processed;
            report.total_simulated_cycles += m.cycles;
            report.total_simulated_ns += m.time_ns();
        }
        report.wall_seconds = started.elapsed().as_secs_f64();
        report
    }
}

/// Runs one job on a [`ShardedEngine`]: `Engine` is its one-chip case,
/// so every mode goes through the same constructor and run loop.
fn run_job<Prog>(job: &BatchJob<'_, Prog>) -> Result<RunResult<Prog::Prop>, BatchError>
where
    Prog: VertexProgram + Sync,
{
    let shard = match job.mode {
        RunMode::Sharded { shard } => shard,
        RunMode::Sliced { num_slices: 0, .. } => {
            return Err(BatchError::Config(
                "a sliced job needs at least one slice".to_string(),
            ))
        }
        RunMode::Whole | RunMode::Sliced { .. } => ShardConfig::new(1),
    };
    let mut engine =
        ShardedEngine::try_new(job.config.clone(), shard, job.graph).map_err(BatchError::Config)?;
    engine.set_stall_guard(job.stall_guard);
    let run = match job.mode {
        RunMode::Sliced {
            num_slices,
            memory_bytes_per_cycle,
        } => engine.run_sliced(&job.program, num_slices, memory_bytes_per_cycle),
        RunMode::Whole | RunMode::Sharded { .. } => engine.run(&job.program),
    };
    Ok(run?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use higraph_graph::gen::{erdos_renyi, power_law};
    use higraph_vcpm::programs::{Bfs, PageRank};

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let g = erdos_renyi(128, 1024, 31, 2);
        let make_jobs = || {
            vec![
                BatchJob::new("hi", &g, Bfs::from_source(0), AcceleratorConfig::higraph()),
                BatchJob::new(
                    "mini",
                    &g,
                    Bfs::from_source(0),
                    AcceleratorConfig::higraph_mini(),
                ),
                BatchJob::new(
                    "gd",
                    &g,
                    Bfs::from_source(0),
                    AcceleratorConfig::graphdyns(),
                ),
                BatchJob::new(
                    "hi16",
                    &g,
                    Bfs::from_source(0),
                    AcceleratorConfig::higraph().scaled_to(16),
                ),
            ]
        };
        let (par, _) = BatchRunner::parallel().run(make_jobs());
        let (ser, _) = BatchRunner::serial().run(make_jobs());
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.label, s.label);
            let (p_run, s_run) = (run_of(p), run_of(s));
            assert_eq!(p_run.properties, s_run.properties, "{}", p.label);
            assert_eq!(p_run.metrics, s_run.metrics, "{}", p.label);
        }
    }

    #[test]
    fn sliced_jobs_ride_the_batch_path() {
        let g = power_law(300, 2400, 2.0, 31, 5);
        let jobs = vec![
            BatchJob::new("whole", &g, PageRank::new(3), AcceleratorConfig::higraph()),
            BatchJob::new("sliced", &g, PageRank::new(3), AcceleratorConfig::higraph())
                .sliced(3, 64),
        ];
        let (results, report) = BatchRunner::parallel().run(jobs);
        assert_eq!(report.jobs, 2);
        let (whole, sliced) = (run_of(&results[0]), run_of(&results[1]));
        assert_eq!(whole.properties, sliced.properties);
        assert_eq!(whole.swap_cycles_sequential, 0);
        assert_eq!(whole.swap_cycles_overlapped, 0);
        let direct = crate::Engine::new(AcceleratorConfig::higraph(), &g)
            .run_sliced(&PageRank::new(3), 3, 64)
            .expect("no stall");
        assert_eq!(*sliced, direct, "the entry is the 3-slice run");
        assert!(sliced.swap_cycles_overlapped <= sliced.swap_cycles_sequential);
    }

    /// The run of a batch entry that must have succeeded.
    fn run_of<P>(result: &BatchResult<P>) -> &RunResult<P> {
        result.run.as_ref().expect("the entry runs")
    }

    #[test]
    fn sharded_jobs_ride_the_batch_path() {
        let g = power_law(320, 2700, 2.0, 31, 9);
        let jobs = vec![
            BatchJob::new("serial", &g, PageRank::new(3), AcceleratorConfig::higraph()),
            BatchJob::new("p4", &g, PageRank::new(3), AcceleratorConfig::higraph())
                .sharded(crate::sharded::ShardConfig::new(4)),
        ];
        let (results, report) = BatchRunner::parallel().run(jobs);
        assert_eq!(report.jobs, 2);
        let (serial, sharded) = (run_of(&results[0]), run_of(&results[1]));
        assert_eq!(serial.properties, sharded.properties);
        assert_eq!(serial.num_chips(), 1);
        assert_eq!(serial.cross_chip_packets, 0);
        assert_eq!(sharded.num_chips(), 4);
        assert!(sharded.cross_chip_packets > 0);
    }

    #[test]
    fn report_aggregates_across_jobs() {
        let g = erdos_renyi(64, 512, 15, 7);
        let jobs = vec![
            BatchJob::new("a", &g, Bfs::from_source(0), AcceleratorConfig::higraph()),
            BatchJob::new("b", &g, Bfs::from_source(1), AcceleratorConfig::higraph()),
        ];
        let (results, report) = BatchRunner::parallel().run(jobs);
        assert_eq!(report.jobs, 2);
        let metrics: Vec<&Metrics> = results.iter().map(|r| &run_of(r).metrics).collect();
        assert_eq!(
            report.total_edges_processed,
            metrics.iter().map(|m| m.edges_processed).sum::<u64>()
        );
        assert_eq!(
            report.total_simulated_cycles,
            metrics.iter().map(|m| m.cycles).sum::<u64>()
        );
        assert!(report.aggregate_gteps() > 0.0);
        assert!(report.wall_seconds >= 0.0);
        assert!(report.workers >= 1);
    }

    #[test]
    fn execute_preserves_job_order() {
        let runner = BatchRunner::parallel();
        let jobs: Vec<u64> = (0..100).collect();
        let out = runner.execute(&jobs, |&j| j * 3);
        assert_eq!(out, (0..100).map(|j| j * 3).collect::<Vec<_>>());
    }
}
