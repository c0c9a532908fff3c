//! Structure-of-arrays payload arenas for the hot-path packet types.
//!
//! The fabrics (ring FIFOs, crossbar, MDP-networks) move packets by
//! value every cycle. Carrying full payload structs through them means
//! every hop copies the whole packet — ID, property, destination — even
//! though only the destination is inspected in flight. These arenas
//! split the payload fields into parallel arrays owned per chip, so the
//! fabrics move 8-byte handle refs ([`crate::packets::VertexRef`],
//! [`crate::packets::ImmRef`], [`crate::packets::EdgeRef`]) and the
//! payload bytes are written once at allocation and read once at the
//! consuming stage.
//!
//! # Handle lifetime conventions
//!
//! * A handle is allocated by the producing stage immediately before the
//!   fabric `push`; if the fabric rejects the push, the producer frees
//!   the handle in the same cycle (alloc-then-free-on-reject). Handles
//!   therefore never dangle in producer-side retry loops.
//! * A handle is freed by the consuming stage in the cycle it pops the
//!   ref and reads the payload — never earlier, never later.
//! * Handles are chip-private: each `ScatterPipeline` owns its arenas,
//!   so the sharded drains' `split_at_mut` chip-disjointness (and with
//!   it parallel-drain determinism) is preserved by construction.
//! * The free list is LIFO, so single-packet churn reuses one hot slot.
//!
//! Arenas are host-simulation storage only: allocation order, capacity,
//! and growth never influence modeled cycles or `Metrics` — the packets'
//! observable fields (IDs, payloads, destinations) take exactly the
//! values the struct-carrying pipeline computed. Debug builds verify
//! the lifetime conventions (double-free, use-after-free) per access.

/// Slots every pipeline arena pre-sizes to; arenas grow on demand past it.
pub const INITIAL_CAPACITY: usize = 1024;

/// SoA arena for `(u32 key, P payload)` pairs — the payload layout
/// shared by vertex packets (`(u, prop)`) and update packets
/// (`(v, imm)`).
#[derive(Debug, Clone)]
pub struct PairArena<P> {
    keys: Vec<u32>,
    payloads: Vec<P>,
    /// LIFO free list of slot indices.
    free: Vec<u32>,
    /// Debug-only liveness map guarding the handle-lifetime conventions.
    #[cfg(debug_assertions)]
    live: Vec<bool>,
}

impl<P: Copy> PairArena<P> {
    /// An arena with `capacity` pre-sized slots (it grows on demand).
    pub fn with_capacity(capacity: usize) -> Self {
        // lint:allow-item(hot-path-alloc): construction-time: the free list and debug live set start empty; slot stores are pre-sized from the caller's capacity
        PairArena {
            keys: Vec::with_capacity(capacity),
            payloads: Vec::with_capacity(capacity),
            free: Vec::new(),
            #[cfg(debug_assertions)]
            live: Vec::new(),
        }
    }

    /// Stores a pair and returns its handle.
    #[inline]
    pub fn alloc(&mut self, key: u32, payload: P) -> u32 {
        match self.free.pop() {
            Some(h) => {
                let i = h as usize;
                self.keys[i] = key;
                self.payloads[i] = payload;
                #[cfg(debug_assertions)]
                {
                    debug_assert!(!self.live[i], "arena slot reused while live");
                    self.live[i] = true;
                }
                h
            }
            None => {
                // lint:allow(panic-freedom): infallible until the arena holds >4G live pairs, far beyond any configured capacity
                let h = u32::try_from(self.keys.len()).expect("arena outgrew u32 handles");
                self.keys.push(key);
                self.payloads.push(payload);
                #[cfg(debug_assertions)]
                self.live.push(true);
                h
            }
        }
    }

    /// The key stored under `handle`.
    #[inline]
    pub fn key(&self, handle: u32) -> u32 {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[handle as usize], "read of a freed arena handle");
        self.keys[handle as usize]
    }

    /// The payload stored under `handle`.
    #[inline]
    pub fn payload(&self, handle: u32) -> P {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[handle as usize], "read of a freed arena handle");
        self.payloads[handle as usize]
    }

    /// Returns `handle`'s slot to the free list.
    #[inline]
    pub fn free(&mut self, handle: u32) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.live[handle as usize], "double free of an arena handle");
            self.live[handle as usize] = false;
        }
        self.free.push(handle);
    }

    /// Handles currently allocated (= packets in flight through the
    /// fabrics this arena backs).
    pub fn in_use(&self) -> usize {
        self.keys.len() - self.free.len()
    }
}

/// SoA arena for pending edges: `(dst, weight, u_prop)` triples waiting
/// at the ePE queues.
#[derive(Debug, Clone)]
pub struct EdgeArena<P> {
    dsts: Vec<u32>,
    weights: Vec<u32>,
    u_props: Vec<P>,
    free: Vec<u32>,
    #[cfg(debug_assertions)]
    live: Vec<bool>,
}

impl<P: Copy> EdgeArena<P> {
    /// An arena with `capacity` pre-sized slots (it grows on demand).
    pub fn with_capacity(capacity: usize) -> Self {
        // lint:allow-item(hot-path-alloc): construction-time: the free list and debug live set start empty; slot stores are pre-sized from the caller's capacity
        EdgeArena {
            dsts: Vec::with_capacity(capacity),
            weights: Vec::with_capacity(capacity),
            u_props: Vec::with_capacity(capacity),
            free: Vec::new(),
            #[cfg(debug_assertions)]
            live: Vec::new(),
        }
    }

    /// Stores a pending edge and returns its handle.
    #[inline]
    pub fn alloc(&mut self, dst: u32, weight: u32, u_prop: P) -> u32 {
        match self.free.pop() {
            Some(h) => {
                let i = h as usize;
                self.dsts[i] = dst;
                self.weights[i] = weight;
                self.u_props[i] = u_prop;
                #[cfg(debug_assertions)]
                {
                    debug_assert!(!self.live[i], "arena slot reused while live");
                    self.live[i] = true;
                }
                h
            }
            None => {
                // lint:allow(panic-freedom): infallible until the arena holds >4G live edges, far beyond any configured capacity
                let h = u32::try_from(self.dsts.len()).expect("arena outgrew u32 handles");
                self.dsts.push(dst);
                self.weights.push(weight);
                self.u_props.push(u_prop);
                #[cfg(debug_assertions)]
                self.live.push(true);
                h
            }
        }
    }

    /// The destination vertex of the edge under `handle`.
    #[inline]
    pub fn dst(&self, handle: u32) -> u32 {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[handle as usize], "read of a freed arena handle");
        self.dsts[handle as usize]
    }

    /// The weight of the edge under `handle`.
    #[inline]
    pub fn weight(&self, handle: u32) -> u32 {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[handle as usize], "read of a freed arena handle");
        self.weights[handle as usize]
    }

    /// The source property paired with the edge under `handle`.
    #[inline]
    pub fn u_prop(&self, handle: u32) -> P {
        #[cfg(debug_assertions)]
        debug_assert!(self.live[handle as usize], "read of a freed arena handle");
        self.u_props[handle as usize]
    }

    /// Returns `handle`'s slot to the free list.
    #[inline]
    pub fn free(&mut self, handle: u32) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(self.live[handle as usize], "double free of an arena handle");
            self.live[handle as usize] = false;
        }
        self.free.push(handle);
    }

    /// Handles currently allocated.
    pub fn in_use(&self) -> usize {
        self.dsts.len() - self.free.len()
    }
}

/// Rebuilds the debug liveness map from a restored free list: every slot
/// is live unless it sits on the free list. Bounds and double-free
/// entries in a corrupt snapshot surface as [`higraph_sim::SnapError`]s
/// via the returned flags.
fn rebuild_live(len: usize, free: &[u32]) -> Result<Vec<bool>, higraph_sim::SnapError> {
    // lint:allow(hot-path-alloc): restore-time rebuild of the debug liveness map, never per-cycle code
    let mut live = vec![true; len];
    for &h in free {
        let i = h as usize;
        if i >= len {
            return Err(higraph_sim::SnapError::new(format!(
                "arena free-list handle {h} out of range for {len} slots"
            )));
        }
        if !live[i] {
            return Err(higraph_sim::SnapError::new(format!(
                "arena free-list handle {h} appears twice"
            )));
        }
        live[i] = false;
    }
    Ok(live)
}

/// Arena slot stores grow with traffic, so (unlike configuration-sized
/// structures) a snapshot carries their full contents and lengths; the
/// free-list *order* is state too — it decides future handle reuse, and
/// handles ride inside in-flight packets.
impl<P: higraph_sim::SnapValue> higraph_sim::Snapshot for PairArena<P> {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        w.tag(b"PARN");
        w.seq(self.keys.iter());
        w.seq(self.payloads.iter());
        w.seq(self.free.iter());
    }

    fn load(&mut self, r: &mut higraph_sim::SnapReader<'_>) -> Result<(), higraph_sim::SnapError> {
        r.expect_tag(b"PARN")?;
        let keys: Vec<u32> = r.seq(u32::MAX as usize)?;
        let payloads: Vec<P> = r.seq(u32::MAX as usize)?;
        let free: Vec<u32> = r.seq(u32::MAX as usize)?;
        if payloads.len() != keys.len() || free.len() > keys.len() {
            return Err(higraph_sim::SnapError::new(format!(
                "pair arena inconsistent: {} keys, {} payloads, {} free",
                keys.len(),
                payloads.len(),
                free.len()
            )));
        }
        let live = rebuild_live(keys.len(), &free)?;
        // Release builds have no liveness map; silence the unused binding.
        let _ = &live;
        self.keys = keys;
        self.payloads = payloads;
        self.free = free;
        #[cfg(debug_assertions)]
        {
            self.live = live;
        }
        Ok(())
    }
}

impl<P: higraph_sim::SnapValue> higraph_sim::Snapshot for EdgeArena<P> {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        w.tag(b"EARN");
        w.seq(self.dsts.iter());
        w.seq(self.weights.iter());
        w.seq(self.u_props.iter());
        w.seq(self.free.iter());
    }

    fn load(&mut self, r: &mut higraph_sim::SnapReader<'_>) -> Result<(), higraph_sim::SnapError> {
        r.expect_tag(b"EARN")?;
        let dsts: Vec<u32> = r.seq(u32::MAX as usize)?;
        let weights: Vec<u32> = r.seq(u32::MAX as usize)?;
        let u_props: Vec<P> = r.seq(u32::MAX as usize)?;
        let free: Vec<u32> = r.seq(u32::MAX as usize)?;
        if weights.len() != dsts.len() || u_props.len() != dsts.len() || free.len() > dsts.len() {
            return Err(higraph_sim::SnapError::new(format!(
                "edge arena inconsistent: {} dsts, {} weights, {} props, {} free",
                dsts.len(),
                weights.len(),
                u_props.len(),
                free.len()
            )));
        }
        let live = rebuild_live(dsts.len(), &free)?;
        let _ = &live;
        self.dsts = dsts;
        self.weights = weights;
        self.u_props = u_props;
        self.free = free;
        #[cfg(debug_assertions)]
        {
            self.live = live;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_arena_round_trips_and_reuses_slots_lifo() {
        let mut a: PairArena<u64> = PairArena::with_capacity(4);
        let h0 = a.alloc(10, 100);
        let h1 = a.alloc(11, 101);
        assert_eq!((a.key(h0), a.payload(h0)), (10, 100));
        assert_eq!((a.key(h1), a.payload(h1)), (11, 101));
        assert_eq!(a.in_use(), 2);
        a.free(h0);
        assert_eq!(a.in_use(), 1);
        // LIFO: the freed slot is the next one handed out
        let h2 = a.alloc(12, 102);
        assert_eq!(h2, h0);
        assert_eq!((a.key(h2), a.payload(h2)), (12, 102));
        a.free(h1);
        a.free(h2);
        assert_eq!(a.in_use(), 0);
    }

    #[test]
    fn edge_arena_round_trips() {
        let mut a: EdgeArena<u64> = EdgeArena::with_capacity(2);
        let h = a.alloc(7, 3, 99);
        assert_eq!((a.dst(h), a.weight(h), a.u_prop(h)), (7, 3, 99));
        a.free(h);
        let h2 = a.alloc(8, 4, 98);
        assert_eq!(h2, h);
        assert_eq!(a.in_use(), 1);
    }

    #[test]
    fn arenas_grow_past_their_initial_capacity() {
        let mut a: PairArena<u32> = PairArena::with_capacity(1);
        let handles: Vec<u32> = (0..100).map(|i| a.alloc(i, i * 2)).collect();
        assert_eq!(a.in_use(), 100);
        for &h in &handles {
            assert_eq!(a.payload(h), a.key(h) * 2);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_is_caught_in_debug_builds() {
        let mut a: PairArena<u32> = PairArena::with_capacity(1);
        let h = a.alloc(1, 2);
        a.free(h);
        a.free(h);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "freed arena handle")]
    fn use_after_free_is_caught_in_debug_builds() {
        let mut a: EdgeArena<u32> = EdgeArena::with_capacity(1);
        let h = a.alloc(1, 2, 3);
        a.free(h);
        let _ = a.dst(h);
    }
}
