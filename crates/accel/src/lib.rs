//! HiGraph and baseline accelerator models (cycle-level).
//!
//! This crate assembles the substrates (`higraph-graph`, `higraph-vcpm`,
//! `higraph-sim`, `higraph-mdp`, `higraph-model`) into complete
//! VCPM-based graph-analytics accelerators, reproducing Fig. 6 of the
//! paper:
//!
//! * **front-end** (`n` channels, the `frontend` module): ActiveVertex
//!   fetch → routing network → Offset Array access under the odd-even
//!   arbiter → Replay Engines;
//! * **back-end** (`m` channels, the `backend` module): Edge Array access
//!   (range network or direct arbitration) → ePEs (`Process_Edge`) →
//!   dataflow propagation network → vPEs (`Reduce`) → tProperty banks;
//! * **apply phase** (the `apply` module): an `⌈V/m⌉`-cycle scan applying
//!   `Apply( )` and building the next frontier;
//! * **the run driver and multi-chip scale-out** (the `sharded`
//!   module): P whole pipelines over a destination-interval partition,
//!   coupled by a modeled inter-chip link, each chip and the link
//!   draining on its own per iteration. The serial and sliced engine
//!   is its one-chip case.
//!
//! Both pipeline halves implement `higraph_sim::ClockedComponent` and the
//! engine drives them through the shared `higraph_sim::Scheduler` — the
//! per-cycle protocol lives in one place, not in a hand-woven loop. All
//! fabrics are built by the validated [`netfactory::NetworkFactory`], and
//! whole sweeps of independent simulations execute in parallel through
//! the [`runner::BatchRunner`].
//!
//! Each of the three interaction points can independently use a crossbar,
//! an MDP-network, or the naive nW1R FIFO — that is exactly the paper's
//! Opt-O / Opt-E / Opt-D ablation space (Fig. 10) — and Table 1's
//! configurations are provided as presets:
//! [`AcceleratorConfig::higraph`], [`AcceleratorConfig::higraph_mini`],
//! [`AcceleratorConfig::graphdyns`].
//!
//! The engine executes any [`higraph_vcpm::VertexProgram`] and its final
//! Property Array is bit-identical to the software reference executor —
//! the integration tests enforce this for all four paper algorithms.
//!
//! # Example
//!
//! ```
//! use higraph_accel::{AcceleratorConfig, Engine};
//! use higraph_graph::gen::erdos_renyi;
//! use higraph_vcpm::programs::Bfs;
//!
//! let graph = erdos_renyi(256, 2048, 63, 1);
//! let mut engine = Engine::new(AcceleratorConfig::higraph(), &graph);
//! let result = engine.run(&Bfs::from_source(0)).expect("well-sized config");
//! assert!(result.metrics.cycles > 0);
//! assert_eq!(result.properties[0], 0);
//! ```

#![forbid(unsafe_code)]

mod apply;
mod backend;
mod frontend;

pub mod cache;
pub mod config;
pub mod edge_access;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod netfactory;
pub mod packets;
pub mod runner;
pub mod sharded;
pub mod space;

pub use cache::MemorySubsystem;
pub use config::{AcceleratorConfig, FaultPlan, MemoryConfig, NetworkKind, OptLevel};
pub use engine::{Checkpoint, ControlError, Engine, RunOutcome, RunResult, StallDiagnostic};
pub use faults::{FaultEvent, FaultKind, FaultRuntime};
pub use metrics::{MemoryMetrics, Metrics};
pub use netfactory::{AnyNetwork, NetworkFactory};
pub use runner::{BatchError, BatchJob, BatchReport, BatchResult, BatchRunner, RunMode};
pub use sharded::{ShardConfig, ShardedEngine};
pub use space::{Axis, DesignPoint, DesignSpace, Genome};
