//! Packet types flowing through the accelerator's fabrics.
//!
//! Each packet carries its payload by value, as the paper's datapaths
//! do (Fig. 6): the fabrics inspect only `dest` in flight, and the
//! consuming stage reads the payload from the packet it pops.

use higraph_sim::Packet;

/// A `(u, prop)` vertex packet. This is what the offset-routing fabric
/// and the staging FIFOs in front of the Offset Array move per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexPacket<P> {
    /// The active vertex.
    pub u: u32,
    /// `u % n` — the Offset Array channel the packet routes to.
    pub dest: u32,
    /// The vertex's property, handed to the Replay Engine.
    pub prop: P,
}

impl<P> Packet for VertexPacket<P> {
    fn dest(&self) -> usize {
        self.dest as usize
    }
}

/// A `(v, imm)` update packet. This is what the dataflow propagation
/// fabric moves from the ePEs to the vPEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImmPacket<P> {
    /// The destination vertex the update reduces into.
    pub v: u32,
    /// `v % m` — the vPE channel the packet routes to.
    pub dest: u32,
    /// The `Process_Edge` result.
    pub imm: P,
}

impl<P> Packet for ImmPacket<P> {
    fn dest(&self) -> usize {
        self.dest as usize
    }
}

/// A `(dst, weight, u_prop)` pending edge. This is what the ePE queues
/// hold between the Edge Array banks and `Process_Edge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingEdge<P> {
    /// The edge's destination vertex.
    pub dst: u32,
    /// The edge's weight.
    pub weight: u32,
    /// The source vertex's property.
    pub u_prop: P,
}
