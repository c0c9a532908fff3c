//! Cycle-level hardware simulation kernel.
//!
//! This crate holds the reusable microarchitectural building blocks the
//! HiGraph reproduction is assembled from:
//!
//! * [`fifo::Fifo`] — a bounded FIFO queue with explicit capacity,
//! * [`arbiter::RoundRobinArbiter`] / [`arbiter::OddEvenArbiter`] — the two
//!   arbitration policies used by the paper (crossbar arbitration and the
//!   front-end's alternating-priority odd-even arbiter),
//! * [`network::Network`] — the interface every propagation fabric
//!   implements (crossbar, MDP-network, naive nW1R FIFO),
//! * [`crossbar::CrossbarNetwork`] — the input-queued crossbar with
//!   head-of-line blocking that previous accelerators (Graphicionado,
//!   GraphDynS) use,
//! * [`memory::BankPorts`] — per-cycle bank-port accounting for the
//!   interleaved on-chip buffers, including the paper's
//!   "same target address" sharing rule,
//! * [`link::InterChipLink`] — the latency/bandwidth-modeled board-level
//!   interconnect coupling sharded multi-chip executions,
//! * [`dram::MemoryChannel`] / [`dram::DramSystem`] — the off-chip memory
//!   hierarchy: HBM-style channels with per-bank row buffers and
//!   tCAS-class timing,
//! * [`stats`] — shared counters,
//! * [`probe::Instrumented`] — an occupancy-tracing wrapper for any
//!   fabric (buffer-sizing studies),
//! * [`clock::ClockedComponent`] / [`clock::Scheduler`] — the cycle
//!   protocol as a trait plus the driver that clocks any set of
//!   components,
//! * [`selection`] — the process-wide fast-forward window-selection
//!   tally for the host-performance trajectory.
//!
//! # Cycle protocol
//!
//! All clocked components follow one per-cycle protocol, expressed by
//! [`clock::ClockedComponent`] and driven by [`clock::Scheduler`]:
//!
//! 1. consumers `pop` from component outputs,
//! 2. producers `push` into component inputs (bounded by `can_accept`),
//! 3. `tick()` advances internal state by one cycle.
//!
//! A packet entering a multi-stage component therefore advances at most one
//! stage per cycle — the "trading latency for throughput" behaviour the
//! paper relies on. `tests/scheduler_properties.rs` asserts this invariant
//! under randomized traffic.

pub mod arbiter;
pub mod clock;
pub mod control;
pub mod crossbar;
pub mod dram;
pub mod fifo;
pub mod link;
pub mod memory;
pub mod network;
pub mod probe;
pub mod selection;
pub mod snapshot;
pub mod stats;

pub use arbiter::{OddEvenArbiter, RoundRobinArbiter};
pub use clock::{min_activity, ClockedComponent, DrainStep, Scheduler, StallError};
pub use control::{DrainError, RunControl};
pub use crossbar::CrossbarNetwork;
pub use dram::{DramSystem, DramTiming, MemoryChannel, MemoryStats};
pub use fifo::Fifo;
pub use link::InterChipLink;
pub use memory::BankPorts;
pub use network::{Network, Packet};
pub use probe::Instrumented;
pub use selection::SelectionCounts;
pub use snapshot::{content_checksum, SnapError, SnapReader, SnapValue, SnapWriter, Snapshot};
pub use stats::NetworkStats;
