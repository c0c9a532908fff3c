//! Multiple-stage Decentralized Propagation network (MDP-network).
//!
//! This crate is the paper's primary contribution. An MDP-network replaces
//! the crossbar/arbitration fabrics of previous graph accelerators with a
//! butterfly-style network of small buffered stages, *trading latency for
//! throughput*:
//!
//! * each stage is built from **2W2R modules** — two 2-write-1-read FIFOs
//!   whose inputs are a pair of channels (Fig. 5 b/d);
//! * data is propagated **deterministically**, one address bit (for radix
//!   2) per stage, until it reaches its destination channel;
//! * the number of interacting channels per stage is bounded by the radix,
//!   so the design avoids the frequency decline of large crossbars
//!   (design centralization, Fig. 4).
//!
//! Provided here:
//!
//! * [`topology::Topology`] — Algorithm 1, the automatic generator of the
//!   stage/pairing structure for any power-of-radix channel count;
//! * [`network`] — the one cycle-level model, [`network::MdpFabric`],
//!   generic over a compile-time [`network::SplitRule`] that cuts an item
//!   into pieces at a stage and names each piece's destination; its
//!   packet instance [`network::MdpNetwork`] (rule [`network::Whole`])
//!   implements [`higraph_sim::Network`] and runs the offset-routing and
//!   dataflow fabrics;
//! * [`range`] — the Edge-Array-access variant: [`range::ReplayEngine`]
//!   splits `{Off, nOff}` into `{Off, Len}` chunks, the
//!   [`range::RangeMdpNetwork`] — the same model under the
//!   [`range::BankRegions`] rule — splits lengths at each stage's
//!   bank-region boundaries as target ranges narrow, until each output
//!   presents ranges within its own dispatcher's group of consecutive
//!   banks (Sec. 4.2, Fig. 6);
//! * [`naive::NaiveFifoNetwork`] — the nW1R-FIFO strawman of Fig. 5 (b/c),
//!   kept as a baseline;
//! * [`verilog`] — the automatic Verilog generator mirroring the paper's
//!   open-source artifact.
//!
//! # Example
//!
//! ```
//! use higraph_mdp::{MdpNetwork, topology::Topology};
//! use higraph_sim::{ClockedComponent, Network};
//!
//! #[derive(Debug)]
//! struct P(usize);
//! impl higraph_sim::Packet for P {
//!     fn dest(&self) -> usize { self.0 }
//! }
//!
//! let topo = Topology::new(8, 2).expect("8 channels, radix 2");
//! let mut net = MdpNetwork::new(topo, 4);
//! net.push(5, P(2)).ok();
//! for _ in 0..4 { net.tick(); }
//! assert_eq!(net.pop(2).map(|p| p.0), Some(2));
//! ```

#![forbid(unsafe_code)]

pub(crate) mod maskbits;
pub mod naive;
pub mod network;
pub mod range;
pub mod topology;
pub mod verilog;

pub use naive::NaiveFifoNetwork;
pub use network::MdpNetwork;
pub use range::{EdgeRange, RangeMdpNetwork, ReplayEngine};
pub use topology::{Topology, TopologyError};
