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

impl<P: higraph_sim::SnapValue> higraph_sim::SnapValue for VertexPacket<P> {
    fn save_value(&self, w: &mut higraph_sim::SnapWriter) {
        w.u32(self.u);
        w.u32(self.dest);
        self.prop.save_value(w);
    }
    fn load_value(r: &mut higraph_sim::SnapReader<'_>) -> Result<Self, higraph_sim::SnapError> {
        Ok(VertexPacket {
            u: r.u32()?,
            dest: r.u32()?,
            prop: P::load_value(r)?,
        })
    }
}

impl<P: higraph_sim::SnapValue> higraph_sim::SnapValue for ImmPacket<P> {
    fn save_value(&self, w: &mut higraph_sim::SnapWriter) {
        w.u32(self.v);
        w.u32(self.dest);
        self.imm.save_value(w);
    }
    fn load_value(r: &mut higraph_sim::SnapReader<'_>) -> Result<Self, higraph_sim::SnapError> {
        Ok(ImmPacket {
            v: r.u32()?,
            dest: r.u32()?,
            imm: P::load_value(r)?,
        })
    }
}

impl<P: higraph_sim::SnapValue> higraph_sim::SnapValue for PendingEdge<P> {
    fn save_value(&self, w: &mut higraph_sim::SnapWriter) {
        w.u32(self.dst);
        w.u32(self.weight);
        self.u_prop.save_value(w);
    }
    fn load_value(r: &mut higraph_sim::SnapReader<'_>) -> Result<Self, higraph_sim::SnapError> {
        Ok(PendingEdge {
            dst: r.u32()?,
            weight: r.u32()?,
            u_prop: P::load_value(r)?,
        })
    }
}
