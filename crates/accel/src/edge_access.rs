//! The Edge Array access unit (Fig. 3 ② / Sec. 4.2).
//!
//! Two implementations:
//!
//! * [`EdgeAccess::Mdp`] — the paper's range-splitting MDP-network plus
//!   per-output Dispatchers (Opt-E). Each dispatcher owns a private group
//!   of consecutive edge banks, so once a range reaches its output it
//!   issues all of its bank reads in one cycle with no cross-channel
//!   conflicts.
//! * [`EdgeAccess::Direct`] — the baseline: replayed ranges wait in
//!   per-channel queues and arbitrate for the edge banks directly. A range
//!   needs *all* of its banks in the same cycle; overlapping requests from
//!   other channels stall it (the datapath conflict of Fig. 3 ②).
//!
//! Bank counts are powers of two (validated configurations guarantee
//! it), so an edge's bank is the low bits of its index and its row the
//! rest: the per-cycle issue paths divide by nothing.

use higraph_mdp::{EdgeRange, RangeMdpNetwork, Topology};
use higraph_sim::{BankPorts, ClockedComponent, Fifo, NetworkStats};

/// One edge read issued to a bank this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankRead<P> {
    /// Edge bank (equals the back-end channel of the ePE that receives
    /// the edge).
    pub bank: usize,
    /// Global Edge Array index to read.
    pub edge_index: u64,
    /// Payload carried from the front-end (source vertex property).
    pub payload: P,
}

/// The Edge Array access unit.
#[derive(Debug, Clone)]
pub enum EdgeAccess<P> {
    /// Range-splitting MDP-network + dispatchers (Opt-E).
    Mdp {
        /// The range network (front-end channels wide).
        net: RangeMdpNetwork<P>,
        /// `num_banks - 1`: edge `i` lives in bank `i & bank_mask`.
        bank_mask: u64,
        /// Ranges each dispatcher may pop per cycle (final-stage read
        /// ports; 2 for the paper's 2W2R modules).
        read_ports: usize,
        /// Per-bank used-this-cycle scratch, all `false` between issue
        /// calls (hot path: no per-cycle allocation).
        used: Vec<bool>,
    },
    /// Direct bank arbitration (baseline).
    Direct {
        /// Per-front-end-channel request queues.
        queues: Vec<Fifo<EdgeRange<P>>>,
        /// Number of edge banks.
        num_banks: usize,
        /// Rotating arbitration pointer.
        next: usize,
        /// Aggregate statistics.
        stats: NetworkStats,
        /// Per-cycle bank-port scratch, reset every issue call.
        ports: BankPorts,
    },
}

impl<P: Copy> EdgeAccess<P> {
    /// Builds the MDP variant: `front_channels`-wide fabric over
    /// `num_banks` banks, `capacity` entries per stage FIFO.
    ///
    /// # Panics
    ///
    /// Panics if the validated-config invariants don't hold
    /// (`front_channels` a power of two, `num_banks` a power of two no
    /// smaller).
    // lint:allow-item(hot-path-alloc): construction-time: the per-bank scratch is allocated once per unit
    pub fn new_mdp(
        front_channels: usize,
        num_banks: usize,
        capacity: usize,
        radix: usize,
        read_ports: usize,
    ) -> Self {
        let topo = Topology::new_mixed(front_channels, radix)
            // lint:allow(panic-freedom): infallible: try_new validated the power-of-two channel count
            .expect("validated config guarantees power-of-two front channels");
        EdgeAccess::Mdp {
            net: RangeMdpNetwork::new(topo, num_banks, capacity)
                // lint:allow(panic-freedom): infallible: try_new validated power-of-two bank and channel counts
                .expect("validated config guarantees power-of-two banks"),
            bank_mask: num_banks as u64 - 1,
            read_ports: read_ports.max(1),
            used: vec![false; num_banks],
        }
    }

    /// Builds the direct-arbitration variant with `capacity`-entry queues.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` is not a power of two (validated
    /// configurations guarantee it).
    // lint:allow-item(hot-path-alloc): construction-time: request queues are allocated once per unit
    pub fn new_direct(front_channels: usize, num_banks: usize, capacity: usize) -> Self {
        // lint:allow(panic-freedom): documented constructor panic: a bank is the low bits of an edge index
        assert!(
            num_banks.is_power_of_two(),
            "bank count must be a power of two"
        );
        EdgeAccess::Direct {
            queues: (0..front_channels).map(|_| Fifo::new(capacity)).collect(),
            num_banks,
            next: 0,
            stats: NetworkStats::new(),
            ports: BankPorts::new(num_banks),
        }
    }

    /// Whether channel `ch` can accept `range` this cycle.
    pub fn can_accept(&self, ch: usize, range: &EdgeRange<P>) -> bool {
        match self {
            EdgeAccess::Mdp { net, .. } => net.can_accept(ch, range),
            EdgeAccess::Direct { queues, .. } => !queues[ch].is_full(),
        }
    }

    /// Offers `range` at channel `ch`.
    ///
    /// # Errors
    ///
    /// Returns the range back if the unit cannot accept it this cycle.
    pub fn push(&mut self, ch: usize, range: EdgeRange<P>) -> Result<(), EdgeRange<P>> {
        match self {
            EdgeAccess::Mdp { net, .. } => net.push(ch, range),
            EdgeAccess::Direct { queues, stats, .. } => match queues[ch].push(range) {
                Ok(()) => {
                    stats.accepted += 1;
                    Ok(())
                }
                Err(r) => {
                    stats.rejected += 1;
                    Err(r)
                }
            },
        }
    }

    /// Issues this cycle's bank reads, allocating the result: the unit
    /// tests' form of [`EdgeAccess::issue_reads_into`].
    #[cfg(test)]
    pub(crate) fn issue_reads(&mut self, epe_has_space: &[bool]) -> Vec<BankRead<P>> {
        let mut reads = Vec::new();
        self.issue_reads_into(epe_has_space, &mut reads);
        reads
    }

    /// Issues this cycle's bank reads into `reads` (cleared first).
    /// `epe_has_space[b]` reports whether the ePE queue behind bank `b`
    /// can take one more edge; every bank issues at most one read per
    /// cycle.
    pub fn issue_reads_into(&mut self, epe_has_space: &[bool], reads: &mut Vec<BankRead<P>>) {
        reads.clear();
        match self {
            EdgeAccess::Mdp {
                net,
                bank_mask,
                read_ports,
                used,
            } => {
                // Only outputs presenting a range can issue. A
                // dispatcher's banks are private to it, so only the ePE
                // queues (and intra-group bank ports) gate the issue. The
                // final stage is a 2W2R module, so up to `read_ports`
                // ranges per output can issue per cycle when their bank
                // sets are disjoint. A range lies within its output's
                // group and never wraps, so its banks are one slice.
                for w in 0..net.occupied_outputs().len() {
                    let mut bits = net.occupied_outputs()[w];
                    while bits != 0 {
                        let o = 64 * w + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let (mut lo, mut hi) = (usize::MAX, 0);
                        for _read_port in 0..*read_ports {
                            let Some(range) = net.peek(o) else { break };
                            let first = (range.off & *bank_mask) as usize;
                            let banks = first..first + range.len as usize;
                            if !epe_has_space[banks.clone()].iter().all(|&space| space)
                                || used[banks.clone()].contains(&true)
                            {
                                break;
                            }
                            used[banks.clone()].fill(true);
                            (lo, hi) = (lo.min(banks.start), hi.max(banks.end));
                            reads.extend(banks.zip(range.off..).map(|(bank, edge_index)| {
                                BankRead {
                                    bank,
                                    edge_index,
                                    payload: range.payload,
                                }
                            }));
                            net.pop(o);
                        }
                        used[lo.min(hi)..hi].fill(false);
                    }
                }
            }
            EdgeAccess::Direct {
                queues,
                num_banks,
                next,
                stats,
                ports,
            } => {
                ports.reset();
                let n = queues.len();
                let (bank_mask, row_shift) = (*num_banks as u64 - 1, num_banks.trailing_zeros());
                let first_ch = *next;
                for ch in (first_ch..n).chain(0..first_ch) {
                    let Some(range) = queues[ch].peek() else {
                        continue;
                    };
                    let first = (range.off & bank_mask) as usize;
                    let row = range.off >> row_shift;
                    let banks = first..first + range.len as usize;
                    // The whole range must win all its banks and have ePE
                    // space; otherwise the head stalls (datapath conflict).
                    // Each bank read targets a distinct row, so banks are
                    // exclusive per cycle (no same-address sharing here).
                    // Like the offset arbitration, this is a centralized
                    // priority chain: the first blocked claim stops grant
                    // propagation for the cycle.
                    let ok = banks.clone().all(|b| ports.is_free(b) && epe_has_space[b]);
                    if !ok {
                        stats.hol_blocked += 1;
                        break;
                    }
                    for b in banks.clone() {
                        let claimed = ports.try_claim(b, row);
                        debug_assert!(claimed);
                    }
                    reads.extend(banks.zip(range.off..).map(|(bank, edge_index)| BankRead {
                        bank,
                        edge_index,
                        payload: range.payload,
                    }));
                    queues[ch].pop();
                    stats.delivered += 1;
                }
                *next = if first_ch + 1 == n { 0 } else { first_ch + 1 };
            }
        }
    }

    /// Advances internal state one cycle.
    pub fn tick(&mut self) {
        match self {
            EdgeAccess::Mdp { net, .. } => net.tick(),
            EdgeAccess::Direct { stats, .. } => stats.cycles += 1,
        }
    }

    /// Commits the per-cycle effect of [`EdgeAccess::issue_reads_into`] over
    /// `cycles` empty-unit cycles: the direct variant's arbitration
    /// pointer rotates every call even when nothing issues (the MDP
    /// variant's empty issue path is pure).
    pub(crate) fn commit_idle_issue(&mut self, cycles: u64) {
        if let EdgeAccess::Direct { queues, next, .. } = self {
            let n = queues.len();
            *next = (*next + (cycles % n as u64) as usize) % n;
        }
    }

    /// Whether any ranges are waiting or in flight.
    pub fn is_empty(&self) -> bool {
        match self {
            EdgeAccess::Mdp { net, .. } => net.is_empty(),
            EdgeAccess::Direct { queues, .. } => queues.iter().all(Fifo::is_empty),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> NetworkStats {
        match self {
            EdgeAccess::Mdp { net, .. } => *net.stats(),
            EdgeAccess::Direct { stats, .. } => *stats,
        }
    }
}

impl<P: Copy> ClockedComponent for EdgeAccess<P> {
    fn tick(&mut self) {
        EdgeAccess::tick(self);
    }

    fn in_flight(&self) -> usize {
        match self {
            EdgeAccess::Mdp { net, .. } => net.in_flight(),
            EdgeAccess::Direct { queues, .. } => queues.iter().map(Fifo::len).sum(),
        }
    }

    /// An idle tick of an empty unit only advances cycle counters.
    fn skip(&mut self, cycles: u64) {
        debug_assert!(
            cycles == 0 || ClockedComponent::in_flight(self) == 0,
            "skip() on an edge-access unit holding ranges"
        );
        match self {
            EdgeAccess::Mdp { net, .. } => ClockedComponent::skip(net, cycles),
            EdgeAccess::Direct { stats, .. } => stats.cycles += cycles,
        }
    }
}

/// At a drained boundary the range network and the direct unit's queues
/// are empty: the MDP variant records its fabric, the direct one its
/// arbitration pointer and counters.
impl<P> higraph_sim::Snapshot for EdgeAccess<P> {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        w.tag(b"EDGA");
        match self {
            EdgeAccess::Mdp { net, .. } => {
                w.u8(0);
                net.save(w);
            }
            EdgeAccess::Direct {
                num_banks,
                next,
                stats,
                ..
            } => {
                w.u8(1);
                w.usize(*num_banks);
                w.usize(*next);
                stats.save(w);
            }
        }
    }

    fn load(&mut self, r: &mut higraph_sim::SnapReader<'_>) -> Result<(), higraph_sim::SnapError> {
        r.expect_tag(b"EDGA")?;
        let variant = r.u8()?;
        match (variant, self) {
            (0, EdgeAccess::Mdp { net, .. }) => net.load(r),
            (
                1,
                EdgeAccess::Direct {
                    queues,
                    num_banks,
                    next,
                    stats,
                    ..
                },
            ) => {
                let banks = r.usize()?;
                if banks != *num_banks {
                    return Err(higraph_sim::SnapError::new(format!(
                        "edge-access bank mismatch: snapshot {banks}, live {num_banks}"
                    )));
                }
                let pointer = r.usize()?;
                if pointer >= queues.len() {
                    return Err(higraph_sim::SnapError::new(format!(
                        "edge-access arbitration pointer {pointer} out of range"
                    )));
                }
                *next = pointer;
                stats.load(r)
            }
            (v @ (0 | 1), _) => Err(higraph_sim::SnapError::new(format!(
                "edge-access variant mismatch: snapshot variant {v} does not match live unit"
            ))),
            (v, _) => Err(higraph_sim::SnapError::new(format!(
                "unknown edge-access variant {v}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(off: u64, len: u32) -> EdgeRange<u64> {
        EdgeRange {
            off,
            len,
            payload: 9,
        }
    }

    #[test]
    fn direct_grants_non_overlapping_ranges_together() {
        let mut ea = EdgeAccess::new_direct(2, 8, 4);
        ea.push(0, range(0, 4)).unwrap(); // banks 0..4
        ea.push(1, range(12, 4)).unwrap(); // banks 4..8
        let free = vec![true; 8];
        let reads = ea.issue_reads(&free);
        // banks 4..8 overlap? range(12,4) covers indices 12,13,14,15 →
        // banks 4,5,6,7; range(0,4) banks 0,1,2,3 → disjoint, both issue.
        assert_eq!(reads.len(), 8);
        assert!(ea.is_empty());
    }

    #[test]
    fn direct_serializes_overlapping_ranges() {
        let mut ea = EdgeAccess::new_direct(2, 8, 4);
        ea.push(0, range(0, 5)).unwrap(); // banks 0..5
        ea.push(1, range(8, 5)).unwrap(); // banks 0..5 too (8%8=0)
        let free = vec![true; 8];
        let first = ea.issue_reads(&free);
        assert_eq!(first.len(), 5);
        assert!(!ea.is_empty());
        ea.tick();
        let second = ea.issue_reads(&free);
        assert_eq!(second.len(), 5);
        assert!(ea.stats().hol_blocked >= 1);
    }

    #[test]
    fn direct_respects_epe_backpressure() {
        let mut ea = EdgeAccess::new_direct(1, 4, 2);
        ea.push(0, range(0, 3)).unwrap();
        let mut free = vec![true; 4];
        free[1] = false; // one target ePE is full
        assert!(ea.issue_reads(&free).is_empty());
        free[1] = true;
        assert_eq!(ea.issue_reads(&free).len(), 3);
    }

    #[test]
    fn mdp_variant_delivers_all_edges() {
        let mut ea = EdgeAccess::new_mdp(4, 16, 8, 2, 2);
        ea.push(0, range(0, 16)).unwrap(); // a full row
        let free = vec![true; 16];
        let mut got = Vec::new();
        for _ in 0..20 {
            got.extend(ea.issue_reads(&free).into_iter().map(|r| r.edge_index));
            ea.tick();
        }
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        assert!(ea.is_empty());
    }

    #[test]
    fn mdp_reads_carry_payload_and_bank() {
        let mut ea = EdgeAccess::new_mdp(2, 8, 8, 2, 2);
        ea.push(1, range(9, 2)).unwrap(); // banks 1,2
        let free = vec![true; 8];
        let mut reads = Vec::new();
        for _ in 0..8 {
            reads.extend(ea.issue_reads(&free));
            ea.tick();
        }
        assert_eq!(reads.len(), 2);
        for r in &reads {
            assert_eq!(r.payload, 9);
            assert_eq!(r.bank, (r.edge_index % 8) as usize);
        }
    }
}
