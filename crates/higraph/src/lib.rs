//! # HiGraph — reproduction of the DAC 2022 paper
//! *"Alleviating Datapath Conflicts and Design Centralization in Graph
//! Analytics Acceleration"* (Lin et al.).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`graph`] | `higraph-graph` | CSR format, generators, Table 2 datasets, slicing |
//! | [`vcpm`] | `higraph-vcpm` | Vertex-Centric Programming Model + BFS/SSSP/SSWP/PR |
//! | [`sim`] | `higraph-sim` | cycle-level kernel: FIFOs, arbiters, crossbar, banks, **cycle scheduler** ([`sim::clock`]) |
//! | [`mdp`] | `higraph-mdp` | **MDP-network**: topology generator, cycle model, range variant, Verilog emitter |
//! | [`pool`] | `higraph-pool` | **work-stealing host-core pool**: ordered batches for sweeps and phase drains, occupancy stats |
//! | [`accel`] | `higraph-accel` | HiGraph / HiGraph-mini / GraphDynS engines, metrics, **parallel batch runner** ([`accel::runner`]) |
//! | [`model`] | `higraph-model` | frequency (Fig. 4), area/power (Sec. 5.4), layout (Fig. 7) |
//! | — | `higraph-bench` | `repro` binary, `higraph-serve` job service, figure sweeps, Criterion benches (depends on this facade) |
//!
//! # Quickstart
//!
//! ```
//! use higraph::prelude::*;
//!
//! // a small synthetic social network
//! let graph = higraph::graph::gen::power_law(1_000, 8_000, 2.0, 63, 42);
//! let source = higraph::graph::stats::hub_vertex(&graph).expect("non-empty").0;
//!
//! // run BFS on the cycle-accurate HiGraph model…
//! let mut engine = Engine::new(AcceleratorConfig::higraph(), &graph);
//! let result = engine.run(&Bfs::from_source(source)).expect("well-sized config");
//!
//! // …and validate bit-exactly against the software reference
//! let reference = higraph::vcpm::execute(&Bfs::from_source(source), &graph);
//! assert_eq!(result.properties, reference.properties);
//! println!("{:.2} GTEPS", result.metrics.gteps());
//! ```

#![forbid(unsafe_code)]

pub use higraph_accel as accel;
pub use higraph_graph as graph;
pub use higraph_mdp as mdp;
pub use higraph_model as model;
pub use higraph_pool as pool;
pub use higraph_sim as sim;
pub use higraph_vcpm as vcpm;

/// The most common imports, in one place.
pub mod prelude {
    pub use higraph_accel::{
        AcceleratorConfig, BatchError, BatchJob, BatchReport, BatchResult, BatchRunner, Checkpoint,
        ControlError, Engine, FaultPlan, MemoryConfig, MemoryMetrics, Metrics, NetworkKind,
        OptLevel, RunMode, RunOutcome, RunResult, ShardConfig, ShardedEngine, StallDiagnostic,
    };
    pub use higraph_graph::{Csr, Dataset, EdgeList, VertexId};
    pub use higraph_mdp::{MdpNetwork, Topology};
    pub use higraph_sim::{ClockedComponent, DrainStep, Network, RunControl, Scheduler};
    pub use higraph_vcpm::programs::{Bfs, MultiSourceBfs, PageRank, Sssp, Sswp, Wcc};
    pub use higraph_vcpm::{VertexProgram, INF};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let cfg = AcceleratorConfig::higraph();
        assert_eq!(cfg.front_channels, 32);
        let _ = Topology::new(8, 2).expect("valid");
        let _ = Bfs::from_source(0);
        assert_ne!(INF, u64::MAX); // saturation headroom
    }
}
