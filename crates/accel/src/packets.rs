//! Packet types flowing through the accelerator's fabrics.
//!
//! The hot path moves *ref* types ([`VertexRef`], [`ImmRef`],
//! [`EdgeRef`]): 8-byte handles into the per-chip SoA arenas of
//! [`crate::arena`], carrying only what the fabrics inspect in flight
//! (the destination). Each handle's doc names the modeled payload the
//! arena holds for it.

use higraph_sim::Packet;

/// Handle to a vertex packet whose `(u, prop)` payload lives in the
/// front-end's [`crate::arena::PairArena`]. This is what the
/// offset-routing fabric and staging FIFOs move per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexRef {
    /// Arena handle of the `(u, prop)` pair.
    pub handle: u32,
    /// `u % n` — the only field inspected in flight.
    pub dest: u32,
}

impl Packet for VertexRef {
    fn dest(&self) -> usize {
        self.dest as usize
    }
}

/// Handle to an update packet whose `(v, imm)` payload lives in the
/// back-end's [`crate::arena::PairArena`]. This is what the dataflow
/// propagation fabric moves per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImmRef {
    /// Arena handle of the `(v, imm)` pair.
    pub handle: u32,
    /// `v % m` — the only field inspected in flight.
    pub dest: u32,
}

impl Packet for ImmRef {
    fn dest(&self) -> usize {
        self.dest as usize
    }
}

/// Handle to a pending edge whose `(dst, weight, u_prop)` payload lives
/// in the back-end's [`crate::arena::EdgeArena`]. This is what the ePE
/// queues hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef(pub u32);

impl higraph_sim::SnapValue for VertexRef {
    fn save_value(&self, w: &mut higraph_sim::SnapWriter) {
        w.u32(self.handle);
        w.u32(self.dest);
    }
    fn load_value(r: &mut higraph_sim::SnapReader<'_>) -> Result<Self, higraph_sim::SnapError> {
        Ok(VertexRef {
            handle: r.u32()?,
            dest: r.u32()?,
        })
    }
}

impl higraph_sim::SnapValue for ImmRef {
    fn save_value(&self, w: &mut higraph_sim::SnapWriter) {
        w.u32(self.handle);
        w.u32(self.dest);
    }
    fn load_value(r: &mut higraph_sim::SnapReader<'_>) -> Result<Self, higraph_sim::SnapError> {
        Ok(ImmRef {
            handle: r.u32()?,
            dest: r.u32()?,
        })
    }
}

impl higraph_sim::SnapValue for EdgeRef {
    fn save_value(&self, w: &mut higraph_sim::SnapWriter) {
        w.u32(self.0);
    }
    fn load_value(r: &mut higraph_sim::SnapReader<'_>) -> Result<Self, higraph_sim::SnapError> {
        Ok(EdgeRef(r.u32()?))
    }
}
