//! Cycle-level model of the MDP-network.
//!
//! Storage: one FIFO per (stage, channel) — the stage's 2W1R FIFOs, in
//! one flat vector indexed `stage * channels + channel`. Every
//! cycle each FIFO pops at most one item (its single read port) and
//! accepts at most `radix` items (its write ports), which the topology
//! guarantees structurally: exactly `radix` source channels map to each
//! FIFO. Items advance one stage per cycle toward their destination —
//! deterministic propagation, no arbitration anywhere.
//!
//! One model serves every fabric the paper builds from the network
//! (Sec. 4): [`MdpFabric`] is generic over a compile-time [`SplitRule`]
//! that cuts an item into pieces at a stage and names each piece's
//! destination. [`MdpNetwork`] is the [`Whole`] instance — a packet is
//! one piece bound for [`Packet::dest`] — and
//! [`crate::RangeMdpNetwork`] the [`crate::range::BankRegions`] instance
//! for Edge Array access.

use crate::maskbits::{mask_clear, mask_set, mask_words};
use crate::topology::Topology;
use higraph_sim::{
    ClockedComponent, Fifo, Network, NetworkStats, Packet, SnapError, SnapReader, SnapWriter,
    Snapshot,
};

/// How an item crosses a stage: the one thing the fabric's instances
/// differ in.
///
/// A stage routing on destination bits `[shift, ..)` leaves each item in
/// a channel from which only a block of `1 << shift` destinations is
/// reachable, so an item spanning several blocks is cut into pieces, one
/// per block, each bound for its own destination.
pub trait SplitRule<T> {
    /// The destination of `item`'s first piece at a stage routing on bits
    /// `[shift, ..)`, plus `Some((piece, rest))` if the item does not fit
    /// one block (`None`: it crosses whole).
    fn split_front(&self, shift: u32, item: &T) -> (usize, Option<(T, T)>);

    /// Whether a fabric with `outputs` outputs can carry `item` at all.
    fn admits(&self, item: &T, outputs: usize) -> bool;
}

/// The packet rule: a packet crosses every stage whole, bound for
/// [`Packet::dest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Whole;

impl<T: Packet> SplitRule<T> for Whole {
    #[inline]
    fn split_front(&self, _shift: u32, item: &T) -> (usize, Option<(T, T)>) {
        (item.dest(), None)
    }

    fn admits(&self, item: &T, outputs: usize) -> bool {
        item.dest() < outputs
    }
}

/// A cycle-accurate MDP-network over `T` items cut by the rule `R`.
#[derive(Debug, Clone)]
pub struct MdpFabric<T, R> {
    topology: Topology,
    rule: R,
    /// `fifos[stage * n + channel]` for `n` channels; the last stage's
    /// FIFOs are the outputs.
    fifos: Vec<Fifo<T>>,
    stats: NetworkStats,
    /// Cached item count across all stage FIFOs: `in_flight` is O(1)
    /// and an empty fabric's tick early-outs — both on the per-cycle hot
    /// path. Every push, pop and cut piece maintains it.
    occupancy: usize,
    /// Per-stage occupancy bitmask ([`crate::maskbits`]): a tick visits
    /// only occupied channels instead of scanning the full width
    /// (sparsely-occupied fabrics dominate ramp-up and drain tails).
    stage_mask: Vec<Vec<u64>>,
}

/// A cycle-accurate MDP-network over `T` packets.
///
/// Implements [`Network`]; see the crate docs for an example.
pub type MdpNetwork<T> = MdpFabric<T, Whole>;

impl<T: Packet> MdpFabric<T, Whole> {
    /// Builds the network from a generated topology with `fifo_capacity`
    /// entries per stage FIFO.
    ///
    /// The paper sizes buffers as entries *per channel* (Fig. 12 sweeps
    /// this); with `S` stages, a per-channel budget of `B` entries means
    /// `fifo_capacity = B / S`. Use [`MdpNetwork::with_channel_budget`] for
    /// that accounting.
    ///
    /// # Panics
    ///
    /// Panics if `fifo_capacity` is zero.
    pub fn new(topology: Topology, fifo_capacity: usize) -> Self {
        MdpFabric::with_rule(topology, Whole, fifo_capacity)
    }

    /// Builds the network giving each channel a total buffer budget of
    /// `entries_per_channel`, split evenly across stages (minimum 1 per
    /// stage FIFO).
    pub fn with_channel_budget(topology: Topology, entries_per_channel: usize) -> Self {
        let per_stage = (entries_per_channel / topology.num_stages().max(1)).max(1);
        MdpNetwork::new(topology, per_stage)
    }
}

impl<T, R: SplitRule<T>> MdpFabric<T, R> {
    /// Builds the fabric under `rule` with `fifo_capacity` (non-zero)
    /// entries per stage FIFO.
    // lint:allow-item(hot-path-alloc): construction-time: stage FIFOs and occupancy masks are allocated once per network
    pub(crate) fn with_rule(topology: Topology, rule: R, fifo_capacity: usize) -> Self {
        let fifos = (0..topology.num_stages() * topology.num_channels())
            .map(|_| Fifo::new(fifo_capacity))
            .collect();
        let words = mask_words(topology.num_channels());
        MdpFabric {
            stage_mask: vec![vec![0u64; words]; topology.num_stages()],
            topology,
            rule,
            fifos,
            stats: NetworkStats::new(),
            occupancy: 0,
        }
    }

    /// The generated topology this network instantiates.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of input/output channels.
    pub fn num_channels(&self) -> usize {
        self.topology.num_channels()
    }

    /// Total buffer entries across all stage FIFOs.
    pub fn total_buffer_entries(&self) -> usize {
        self.fifos.iter().map(Fifo::capacity).sum()
    }

    /// The last stage's occupancy words: bit `c % 64` of word `c / 64` is
    /// set iff output `c` presents an item, so a consumer visits only the
    /// outputs that can deliver.
    #[inline]
    pub fn occupied_outputs(&self) -> &[u64] {
        &self.stage_mask[self.topology.num_stages() - 1]
    }

    /// The index in `fifos` of output `c` (channel `c`'s last-stage FIFO).
    #[inline]
    fn output_fifo(&self, c: usize) -> usize {
        (self.topology.num_stages() - 1) * self.topology.num_channels() + c
    }

    /// Whether the next tick can move nothing: every non-final-stage
    /// head's first piece targets a full FIFO (final-stage items only
    /// leave via a pop, the owner's concern). A wedged tick is pure
    /// bookkeeping — the per-head HoL counts it accrues are committed in
    /// bulk by [`ClockedComponent::skip`]. Vacuously true when empty.
    pub fn is_wedged(&self) -> bool {
        let n = self.topology.num_channels();
        let stages = self.topology.num_stages();
        for s in 0..stages.saturating_sub(1) {
            let shift = self.topology.stage(s + 1).shift;
            for (w, &word) in self.stage_mask[s].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let c = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if let Some(head) = self.fifos[s * n + c].peek() {
                        let (dest, _) = self.rule.split_front(shift, head);
                        let target = self.topology.next_channel(s + 1, c, dest);
                        if !self.fifos[(s + 1) * n + target].is_full() {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Heads a wedged tick counts as HoL-blocked (non-final-stage heads).
    fn blocked_heads(&self) -> u64 {
        let inner = self.output_fifo(0);
        self.fifos[..inner].iter().filter(|f| !f.is_empty()).count() as u64
    }

    /// Bulk-commits `count` deterministic input rejections (a producer
    /// retrying a push against a full stage-0 FIFO every cycle).
    pub fn commit_rejected(&mut self, count: u64) {
        self.stats.rejected += count;
    }

    /// Whether input `input` can take every piece of `item` this cycle.
    pub(crate) fn accepts(&self, input: usize, item: &T) -> bool {
        let shift = self.topology.stage(0).shift;
        let (mut dest, mut split) = self.rule.split_front(shift, item);
        loop {
            let target = self.topology.next_channel(0, input, dest);
            if self.fifos[target].is_full() {
                return false;
            }
            match split {
                None => return true,
                Some((_, rest)) => (dest, split) = self.rule.split_front(shift, &rest),
            }
        }
    }

    /// Offers `item` at input `input`: all of its stage-0 pieces enter,
    /// or none does and the item comes back.
    pub(crate) fn offer(&mut self, input: usize, item: T) -> Result<(), T> {
        debug_assert!(
            self.rule.admits(&item, self.topology.num_channels()),
            "item the fabric cannot carry"
        );
        if !self.accepts(input, &item) {
            self.stats.rejected += 1;
            return Err(item);
        }
        self.stats.accepted += 1;
        let shift = self.topology.stage(0).shift;
        let mut next = Some(item);
        while let Some(item) = next.take() {
            let (dest, split) = self.rule.split_front(shift, &item);
            let piece = match split {
                Some((piece, rest)) => {
                    next = Some(rest);
                    piece
                }
                None => item,
            };
            let target = self.topology.next_channel(0, input, dest);
            self.fifos[target]
                .push(piece)
                // lint:allow(panic-freedom): push cannot fail: `accepts` checked every piece's target for space
                .unwrap_or_else(|_| unreachable!("space checked by accepts"));
            mask_set(&mut self.stage_mask[0], target);
            self.occupancy += 1;
        }
        Ok(())
    }

    /// The item presented at output `output`, if any.
    pub(crate) fn head(&self, output: usize) -> Option<&T> {
        self.fifos[self.output_fifo(output)].peek()
    }

    /// Consumes the item presented at output `output`.
    pub(crate) fn take(&mut self, output: usize) -> Option<T> {
        let at = self.output_fifo(output);
        let fifo = &mut self.fifos[at];
        let item = fifo.pop()?;
        if fifo.is_empty() {
            let last = self.stage_mask.len() - 1;
            mask_clear(&mut self.stage_mask[last], output);
        }
        self.stats.delivered += 1;
        self.occupancy -= 1;
        Some(item)
    }

    /// Cumulative statistics.
    pub(crate) fn counters(&self) -> &NetworkStats {
        &self.stats
    }
}

impl<T: Packet> Network<T> for MdpNetwork<T> {
    fn num_inputs(&self) -> usize {
        self.num_channels()
    }

    fn num_outputs(&self) -> usize {
        self.num_channels()
    }

    fn can_accept(&self, input: usize, packet: &T) -> bool {
        self.accepts(input, packet)
    }

    fn push(&mut self, input: usize, packet: T) -> Result<(), T> {
        self.offer(input, packet)
    }

    fn peek(&self, output: usize) -> Option<&T> {
        self.head(output)
    }

    fn pop(&mut self, output: usize) -> Option<T> {
        self.take(output)
    }

    fn stats(&self) -> &NetworkStats {
        self.counters()
    }
}

impl<T, R: SplitRule<T>> ClockedComponent for MdpFabric<T, R> {
    /// Moves each non-final-stage head one stage on, deepest stage first
    /// so freshly freed slots are usable by the stage above (standard
    /// pipeline register behaviour), and an item advances at most one
    /// stage per tick.
    ///
    /// A head that spans several target blocks moves piece by piece in
    /// ascending order while their targets have space; the head shrinks
    /// in place to the remainder (skid-buffer behaviour of the 2W2R
    /// module). Without independent piece movement, sibling-FIFO
    /// coupling would let output stages starve while the fabric is
    /// congested.
    fn tick(&mut self) {
        self.stats.cycles += 1;
        if self.occupancy == 0 {
            // An empty fabric's tick is pure time-keeping.
            return;
        }
        let n = self.topology.num_channels();
        let stages = self.topology.num_stages();
        for s in (0..stages.saturating_sub(1)).rev() {
            let shift = self.topology.stage(s + 1).shift;
            let (upper, lower) = self.fifos.split_at_mut((s + 1) * n);
            let (here, next) = (&mut upper[s * n..], &mut lower[..n]);
            let (upper, lower) = self.stage_mask.split_at_mut(s + 1);
            let (here_mask, next_mask) = (&mut upper[s], &mut lower[0]);
            for w in 0..here_mask.len() {
                // Snapshot the word: pops this stage only clear bits we
                // already visited, pushes land in stage s+1.
                let mut bits = here_mask[w];
                while bits != 0 {
                    let c = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    loop {
                        // lint:allow(panic-freedom): infallible: the occupancy mask guarantees this channel has a head, and a cut leaves the remainder in place
                        let head = here[c].peek().expect("masked channel has a head");
                        let (dest, split) = self.rule.split_front(shift, head);
                        let target = self.topology.next_channel(s + 1, c, dest);
                        if next[target].is_full() {
                            self.stats.hol_blocked += 1;
                            break;
                        }
                        mask_set(next_mask, target);
                        let Some((piece, rest)) = split else {
                            // lint:allow(panic-freedom): infallible: the pop follows the peek above on the same channel
                            let item = here[c].pop().expect("peeked head exists");
                            next[target]
                                .push(item)
                                // lint:allow(panic-freedom): push cannot fail: the target's space was checked before the transfer
                                .unwrap_or_else(|_| unreachable!("target checked for space"));
                            if here[c].is_empty() {
                                mask_clear(here_mask, c);
                            }
                            break;
                        };
                        // lint:allow(panic-freedom): infallible: the peek above proved this head exists; peek_mut revisits the same slot
                        *here[c].peek_mut().expect("head exists") = rest;
                        next[target]
                            .push(piece)
                            // lint:allow(panic-freedom): push cannot fail: the target's space was checked before the transfer
                            .unwrap_or_else(|_| unreachable!("target checked for space"));
                        self.occupancy += 1;
                    }
                }
            }
        }
    }

    fn in_flight(&self) -> usize {
        debug_assert_eq!(
            self.occupancy,
            self.fifos.iter().map(Fifo::len).sum::<usize>(),
            "cached occupancy out of sync"
        );
        self.occupancy
    }

    // `next_activity` keeps the default: only the owner (who knows the
    // consumer side) can prove a non-empty fabric inert, via
    // `MdpFabric::is_wedged`.

    /// An idle tick over an empty *or wedged* fabric only advances the
    /// cycle counter and, when wedged, the per-head HoL counts.
    fn skip(&mut self, cycles: u64) {
        debug_assert!(
            cycles == 0 || self.is_wedged(),
            "skip() on an MDP-network that can still move items"
        );
        self.stats.cycles += cycles;
        // The edge-access unit only ever skips its range network empty:
        // keep that O(1) instead of scanning every stage for heads.
        if self.occupancy > 0 {
            self.stats.hol_blocked += cycles * self.blocked_heads();
        }
    }
}

/// At a drained boundary every stage FIFO is empty, so the record is the
/// shape and the counters; a fresh fabric already has the empty FIFOs,
/// occupancy and masks, and the rule's parameters are configuration.
impl<T, R> Snapshot for MdpFabric<T, R> {
    fn save(&self, w: &mut SnapWriter) {
        w.tag(b"MDPN");
        w.usize(self.topology.num_stages());
        w.usize(self.topology.num_channels());
        self.stats.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_tag(b"MDPN")?;
        let stages = r.usize()?;
        let channels = r.usize()?;
        if stages != self.topology.num_stages() || channels != self.topology.num_channels() {
            return Err(SnapError::new(format!(
                "MDP-network shape mismatch: snapshot {stages}x{channels}, live {}x{}",
                self.topology.num_stages(),
                self.topology.num_channels()
            )));
        }
        self.stats.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct P {
        dest: usize,
        tag: u64,
    }

    impl Packet for P {
        fn dest(&self) -> usize {
            self.dest
        }
    }

    fn net(n: usize, cap: usize) -> MdpNetwork<P> {
        MdpNetwork::new(Topology::new(n, 2).unwrap(), cap)
    }

    /// Drains everything currently in flight, returning (output, packet).
    fn drain(net: &mut MdpNetwork<P>, max_cycles: usize) -> Vec<(usize, P)> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            for o in 0..net.num_outputs() {
                if let Some(p) = net.pop(o) {
                    out.push((o, p));
                }
            }
            net.tick();
            if net.is_empty() {
                break;
            }
        }
        out
    }

    #[test]
    fn delivers_to_correct_output() {
        let mut n = net(8, 4);
        for dest in 0..8 {
            n.push(
                0,
                P {
                    dest,
                    tag: dest as u64,
                },
            )
            .unwrap();
        }
        let out = drain(&mut n, 64);
        assert_eq!(out.len(), 8);
        for (o, p) in out {
            assert_eq!(o, p.dest);
        }
    }

    #[test]
    fn latency_is_one_cycle_per_stage() {
        let mut n = net(8, 4); // 3 stages
        n.push(5, P { dest: 2, tag: 0 }).unwrap();
        // Packet lands in stage-0 FIFO at push; each tick advances one
        // stage; it is visible at the output after stages-1 = 2 ticks.
        assert!(n.peek(2).is_none());
        n.tick();
        assert!(n.peek(2).is_none());
        n.tick();
        assert!(n.peek(2).is_some());
    }

    #[test]
    fn preserves_per_flow_order() {
        // packets from one input to one output must arrive in order
        let mut n = net(4, 16);
        for tag in 0..10 {
            n.push(3, P { dest: 1, tag }).unwrap();
        }
        let out = drain(&mut n, 64);
        let tags: Vec<u64> = out.iter().map(|(_, p)| p.tag).collect();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn no_loss_no_duplication_under_load() {
        let mut n = net(16, 2);
        let mut pushed = 0u64;
        let mut received = Vec::new();
        let mut tag = 0u64;
        for cycle in 0..200 {
            for o in 0..16 {
                if let Some(p) = n.pop(o) {
                    assert_eq!(o, p.dest);
                    received.push(p.tag);
                }
            }
            for i in 0..16 {
                let dest = (cycle * 7 + i * 13) % 16;
                let p = P { dest, tag };
                if n.push(i, p).is_ok() {
                    pushed += 1;
                    tag += 1;
                }
            }
            n.tick();
        }
        // drain
        for _ in 0..200 {
            for o in 0..16 {
                if let Some(p) = n.pop(o) {
                    received.push(p.tag);
                }
            }
            n.tick();
        }
        assert!(n.is_empty());
        received.sort_unstable();
        assert_eq!(received.len() as u64, pushed);
        received.dedup();
        assert_eq!(received.len() as u64, pushed, "duplicated packets");
    }

    #[test]
    fn rejects_when_stage0_fifo_full() {
        let mut n = net(4, 1);
        // inputs 0 and 2 share a stage-0 module; dests 0 and 1 both have
        // address bit1 = 0 → both go to the same stage-0 FIFO (channel 0).
        n.push(0, P { dest: 0, tag: 1 }).unwrap();
        let r = n.push(2, P { dest: 1, tag: 2 });
        assert!(r.is_err());
        assert_eq!(n.stats().rejected, 1);
    }

    #[test]
    fn head_of_line_counted_when_downstream_full() {
        let mut n = net(4, 1);
        n.push(0, P { dest: 0, tag: 1 }).unwrap();
        n.tick(); // moves to stage 1 (output 0)
        n.push(0, P { dest: 0, tag: 2 }).unwrap();
        n.tick(); // blocked: output FIFO full
        assert!(n.stats().hol_blocked >= 1);
        assert_eq!(n.pop(0).map(|p| p.tag), Some(1));
    }

    #[test]
    fn channel_budget_splits_across_stages() {
        let topo = Topology::new(16, 2).unwrap(); // 4 stages
        let n: MdpNetwork<P> = MdpNetwork::with_channel_budget(topo, 160);
        assert_eq!(n.total_buffer_entries(), 16 * 4 * 40);
    }

    #[test]
    fn full_throughput_on_conflict_free_traffic() {
        // identity traffic keeps every stage FIFO at one write and one
        // read per cycle; after warm-up the network sustains 1
        // packet/cycle/channel with zero rejections.
        let mut n = net(8, 4);
        let mut delivered = 0u64;
        for cycle in 0..100u64 {
            for o in 0..8 {
                if n.pop(o).is_some() {
                    delivered += 1;
                }
            }
            for i in 0..8usize {
                n.push(
                    i,
                    P {
                        dest: i,
                        tag: cycle,
                    },
                )
                .unwrap();
            }
            n.tick();
        }
        // 100 cycles, 3-stage latency: expect ≥ 8 * (100 - 4) deliveries
        assert!(delivered >= 8 * 90, "delivered {delivered}");
        assert_eq!(n.stats().rejected, 0);
    }
}
