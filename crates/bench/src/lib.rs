//! Shared harness for the reproduction benchmarks: every table and figure
//! of the paper maps to one function here, invoked by the `repro` binary
//! (`cargo run --release -p higraph-bench --bin repro -- all`) and by the
//! Criterion benches.
//!
//! Functions return printable row structures so the binary, the benches
//! and the integration tests share one code path. Default runs use
//! scaled-down datasets (`Scale::quick`) to stay laptop-friendly; pass
//! `--full` to the binary for Table 2 sizes.

#![forbid(unsafe_code)]

pub mod digest;
pub mod dse;
pub mod figures;
pub mod memo;
pub mod report;
pub mod serve;
pub mod workload;

pub use dse::{DseOutcome, DseSettings};
pub use figures::*;
pub use memo::LruCache;
pub use report::Report;
pub use serve::ServeSession;
pub use workload::{Algo, Scale};
