//! The MDP-network variant for Edge Array access (Sec. 4.2, Fig. 6).
//!
//! The access pattern in reading the Edge Array is one-to-multiple: one
//! `{Off, nOff}` pair requires several consecutive interleaved banks. The
//! paper's pipeline is:
//!
//! 1. **Replay Engine** — divides `{Off, nOff}` into `{Off, Len}` chunks of
//!    an appropriate length (at most one bank row, so a chunk never wraps
//!    around the bank interleaving);
//! 2. **Range MDP-network** — propagates `{Off, Len}` stage by stage; when
//!    a chunk spans the boundary between two target ranges it is *split*
//!    (the paper's example: `Off 4, Len 9` → `Off 4, Len 4` + `Off 8,
//!    Len 5`), so competition for subsequent datapaths reduces stage by
//!    stage;
//! 3. **Dispatcher** — a small terminal unit per output channel that fans a
//!    final (narrow) range onto its group of consecutive banks (the
//!    edge-access unit of `higraph-accel` issues those bank reads).

use crate::network::{MdpFabric, SplitRule};
use crate::topology::Topology;
use higraph_sim::{ClockedComponent, NetworkStats};
use std::fmt;

/// A contiguous run of Edge Array entries, `[off, off + len)`, plus the
/// payload that must accompany the eventual edge reads (typically the
/// source vertex property).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRange<P> {
    /// Global index of the first edge.
    pub off: u64,
    /// Number of edges; always ≥ 1 inside the network.
    pub len: u32,
    /// Caller payload carried alongside the range.
    pub payload: P,
}

impl<P> EdgeRange<P> {
    /// Index one past the last edge.
    pub fn end(&self) -> u64 {
        self.off + u64::from(self.len)
    }
}

/// Errors constructing a [`RangeMdpNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeNetworkError {
    /// The bank count is not a power of two at least the channel count.
    BankChannelMismatch {
        /// Banks requested.
        num_banks: usize,
        /// Channels in the topology.
        num_channels: usize,
    },
}

impl fmt::Display for RangeNetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeNetworkError::BankChannelMismatch {
                num_banks,
                num_channels,
            } => write!(
                f,
                "bank count {num_banks} must be a power of two no smaller than channel count {num_channels}"
            ),
        }
    }
}

impl std::error::Error for RangeNetworkError {}

/// The Replay Engine: splits one `{Off, nOff}` request into row-aligned
/// `{Off, Len}` chunks, one per cycle.
///
/// A chunk never crosses a multiple of `num_banks` in edge-index space, so
/// the banks it touches are consecutive and non-wrapping — the form the
/// range MDP-network and dispatchers handle.
///
/// # Example
///
/// ```
/// use higraph_mdp::ReplayEngine;
///
/// let mut re = ReplayEngine::new(16);
/// assert!(re.load(4, 20, ()));
/// assert_eq!(re.emit().map(|r| (r.off, r.len)), Some((4, 12))); // up to row end
/// assert_eq!(re.emit().map(|r| (r.off, r.len)), Some((16, 4)));
/// assert_eq!(re.emit(), None);
/// assert!(re.is_idle());
/// ```
#[derive(Debug, Clone)]
pub struct ReplayEngine<P> {
    num_banks: u64,
    current: Option<(u64, u64, P)>,
}

impl<P: Copy> ReplayEngine<P> {
    /// Creates a replay engine over `num_banks` interleaved edge banks.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` is zero.
    pub fn new(num_banks: usize) -> Self {
        // lint:allow(panic-freedom): documented panic: a replay engine over zero banks has no semantics
        assert!(num_banks > 0, "need at least one bank");
        ReplayEngine {
            num_banks: num_banks as u64,
            current: None,
        }
    }

    /// Whether the engine can accept a new `{Off, nOff}` request.
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// Loads a new request. Returns `false` (dropping nothing) if the
    /// engine is still busy. Zero-length requests (`off == n_off`) complete
    /// immediately.
    pub fn load(&mut self, off: u64, n_off: u64, payload: P) -> bool {
        if !self.is_idle() {
            return false;
        }
        debug_assert!(off <= n_off, "offset pair must be ordered");
        if off < n_off {
            self.current = Some((off, n_off, payload));
        }
        true
    }

    /// Emits the next chunk, if the engine is busy. Call once per cycle.
    pub fn emit(&mut self) -> Option<EdgeRange<P>> {
        let (off, n_off, payload) = self.current?;
        let row_end = (off / self.num_banks + 1) * self.num_banks;
        let end = n_off.min(row_end);
        let chunk = EdgeRange {
            off,
            len: (end - off) as u32,
            payload,
        };
        self.current = if end < n_off {
            Some((end, n_off, payload))
        } else {
            None
        };
        Some(chunk)
    }
}

/// The range rule (Sec. 4.2): with `m` banks and `n` channels, an
/// [`EdgeRange`] is bound for the *dispatcher group* of its first bank
/// (group `g` owns banks `[g·m/n, (g+1)·m/n)`), and a stage routing on bits
/// `[shift, ..)` splits it at the boundaries of its `width << shift`-bank
/// regions — the paper's `Off 4, Len 9 → (4,4)+(8,5)` example.
///
/// Both counts are powers of two ([`RangeMdpNetwork::new`] refuses any
/// other bank count), so every bank, group and region is a mask or a
/// shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankRegions {
    /// `m - 1`: edge `off` lives in bank `off & bank_mask`.
    bank_mask: u64,
    /// `log2(m / n)`: the banks per dispatcher (output channel).
    width_log: u32,
}

impl<P: Copy> SplitRule<EdgeRange<P>> for BankRegions {
    #[inline]
    fn split_front(
        &self,
        shift: u32,
        range: &EdgeRange<P>,
    ) -> (usize, Option<(EdgeRange<P>, EdgeRange<P>)>) {
        let bank = range.off & self.bank_mask;
        let group = (bank >> self.width_log) as usize;
        let region = 1u64 << (self.width_log + shift);
        let room = region - (bank & (region - 1));
        if u64::from(range.len) <= room {
            return (group, None);
        }
        let piece = EdgeRange {
            len: room as u32,
            ..*range
        };
        let rest = EdgeRange {
            off: range.off + room,
            len: range.len - room as u32,
            payload: range.payload,
        };
        (group, Some((piece, rest)))
    }

    /// Non-empty ranges that do not wrap the bank interleaving (the
    /// replay engine emits no other kind).
    fn admits(&self, range: &EdgeRange<P>, _outputs: usize) -> bool {
        range.len >= 1 && (range.off & self.bank_mask) + u64::from(range.len) <= self.bank_mask + 1
    }
}

/// The range-splitting MDP-network for Edge Array access: the one
/// MDP-network model ([`MdpFabric`]) under the [`BankRegions`] rule.
/// Output ranges lie entirely within the output's dispatcher group.
pub type RangeMdpNetwork<P> = MdpFabric<EdgeRange<P>, BankRegions>;

impl<P: Copy> MdpFabric<EdgeRange<P>, BankRegions> {
    /// Builds the network over `topology.num_channels()` channels serving
    /// `num_banks` edge banks, with `fifo_capacity` entries per stage FIFO.
    ///
    /// # Errors
    ///
    /// Returns [`RangeNetworkError::BankChannelMismatch`] unless
    /// `num_banks` is a power of two no smaller than the channel count
    /// (itself a power of two), so each output's dispatcher owns the same
    /// power-of-two number of banks.
    pub fn new(
        topology: Topology,
        num_banks: usize,
        fifo_capacity: usize,
    ) -> Result<Self, RangeNetworkError> {
        let n = topology.num_channels();
        if !num_banks.is_power_of_two() || num_banks < n {
            return Err(RangeNetworkError::BankChannelMismatch {
                num_banks,
                num_channels: n,
            });
        }
        let rule = BankRegions {
            bank_mask: num_banks as u64 - 1,
            width_log: (num_banks / n).trailing_zeros(),
        };
        Ok(MdpFabric::with_rule(topology, rule, fifo_capacity))
    }

    /// Whether input `input` can accept every piece of `range` this cycle.
    pub fn can_accept(&self, input: usize, range: &EdgeRange<P>) -> bool {
        self.accepts(input, range)
    }

    /// Offers `range` at input `input`, splitting it if it spans first
    /// stage boundaries.
    ///
    /// # Errors
    ///
    /// Returns `Err(range)` (handing back the whole range) if any target
    /// FIFO lacks space; the producer must stall.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the range is empty or wraps the bank
    /// interleaving — the replay engine guarantees neither happens.
    pub fn push(&mut self, input: usize, range: EdgeRange<P>) -> Result<(), EdgeRange<P>> {
        self.offer(input, range)
    }

    /// The range presented at output `output`, if any.
    pub fn peek(&self, output: usize) -> Option<&EdgeRange<P>> {
        self.head(output)
    }

    /// Consumes the range presented at output `output`.
    pub fn pop(&mut self, output: usize) -> Option<EdgeRange<P>> {
        self.take(output)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &NetworkStats {
        self.counters()
    }

    /// Whether the network holds no ranges.
    pub fn is_empty(&self) -> bool {
        self.is_drained()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn net(n: usize, m: usize, cap: usize) -> RangeMdpNetwork<u32> {
        RangeMdpNetwork::new(Topology::new(n, 2).unwrap(), m, cap).unwrap()
    }

    /// The pieces `rule` cuts `range` into at a stage routing on bits
    /// `[shift, ..)`, in ascending bank order.
    fn pieces(rule: &BankRegions, shift: u32, range: EdgeRange<u32>) -> Vec<EdgeRange<u32>> {
        let mut out = Vec::new();
        let mut next = Some(range);
        while let Some(r) = next.take() {
            match rule.split_front(shift, &r) {
                (_, Some((piece, rest))) => {
                    out.push(piece);
                    next = Some(rest);
                }
                (_, None) => out.push(r),
            }
        }
        out
    }

    #[test]
    fn paper_example_off4_len9_splits_at_8() {
        // Fig. 6: m = 16, "Off 4 with Len 9 … split into Off 4 with Len 4
        // and Off 8 with Len 5" at stage 1 (boundary 8 = m/2).
        let n = net(4, 16, 8);
        let r = EdgeRange {
            off: 4,
            len: 9,
            payload: 0u32,
        };
        let rule = BankRegions {
            bank_mask: 15,
            width_log: 2,
        };
        let pieces = pieces(&rule, n.topology().stage(0).shift, r);
        assert_eq!(pieces.len(), 2);
        assert_eq!((pieces[0].off, pieces[0].len), (4, 4));
        assert_eq!((pieces[1].off, pieces[1].len), (8, 5));
    }

    #[test]
    fn replay_engine_chunks_are_row_aligned() {
        let mut re = ReplayEngine::new(8);
        assert!(re.load(5, 30, 7u32));
        assert!(!re.load(0, 1, 7u32), "busy engine rejects load");
        let mut chunks = Vec::new();
        while let Some(c) = re.emit() {
            chunks.push((c.off, c.len));
        }
        assert_eq!(chunks, vec![(5, 3), (8, 8), (16, 8), (24, 6)]);
        assert!(re.is_idle());
    }

    #[test]
    fn replay_engine_zero_length_is_noop() {
        let mut re = ReplayEngine::new(8);
        assert!(re.load(5, 5, ()));
        assert!(re.is_idle());
        assert_eq!(re.emit(), None);
    }

    #[test]
    fn delivered_ranges_cover_exactly_the_request() {
        // push chunks for a whole row and check output coverage
        let mut n = net(4, 16, 8);
        n.push(
            0,
            EdgeRange {
                off: 32,
                len: 16,
                payload: 1u32,
            },
        )
        .unwrap();
        let mut covered = Vec::new();
        for _ in 0..16 {
            for o in 0..4 {
                if let Some(r) = n.pop(o) {
                    // output range lies inside output o's dispatcher group
                    let b0 = (r.off % 16) as usize;
                    assert_eq!(b0 / 4, o);
                    assert!(b0 + r.len as usize <= (o + 1) * 4);
                    covered.extend(r.off..r.end());
                }
            }
            n.tick();
        }
        covered.sort_unstable();
        assert_eq!(covered, (32..48).collect::<Vec<_>>());
        assert!(n.is_empty());
    }

    #[test]
    fn no_edge_lost_under_random_load() {
        let mut n = net(8, 32, 4);
        let mut expected = 0u64;
        let mut got = 0u64;
        let mut seed = 12345u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed >> 33
        };
        for _ in 0..300 {
            for o in 0..8 {
                if let Some(r) = n.pop(o) {
                    got += u64::from(r.len);
                }
            }
            for i in 0..8 {
                let off = next() % 97 * 32 + next() % 20; // arbitrary rows
                let len = (next() % (32 - off % 32)).max(1) as u32;
                let r = EdgeRange {
                    off,
                    len,
                    payload: 0u32,
                };
                if n.push(i, r).is_ok() {
                    expected += u64::from(len);
                }
            }
            n.tick();
        }
        for _ in 0..100 {
            for o in 0..8 {
                if let Some(r) = n.pop(o) {
                    got += u64::from(r.len);
                }
            }
            n.tick();
        }
        assert!(n.is_empty());
        assert_eq!(got, expected);
    }

    #[test]
    fn rejects_mismatched_banks() {
        let t = Topology::new(4, 2).unwrap();
        assert!(RangeMdpNetwork::<u32>::new(t.clone(), 15, 4).is_err());
        assert!(RangeMdpNetwork::<u32>::new(t.clone(), 0, 4).is_err());
        // a multiple of the channel count that is not a power of two
        let err = RangeMdpNetwork::<u32>::new(t.clone(), 12, 4).unwrap_err();
        assert!(err.to_string().contains("power of two"), "{err}");
        // a power of two below the channel count
        assert!(RangeMdpNetwork::<u32>::new(t.clone(), 2, 4).is_err());
        assert!(RangeMdpNetwork::<u32>::new(t, 4, 4).is_ok());
    }

    #[test]
    fn push_splits_a_range_spanning_the_first_boundary() {
        let mut n = net(4, 16, 8);
        n.push(
            1,
            EdgeRange {
                off: 0,
                len: 10,
                payload: 0u32,
            },
        )
        .unwrap();
        // 0..10 spans the mid boundary 8: two pieces enter stage 0
        assert_eq!(n.in_flight(), 2);
        let mut edges = 0;
        for _ in 0..8 {
            for o in 0..4 {
                edges += n.pop(o).map_or(0, |r| r.len);
            }
            n.tick();
        }
        assert_eq!(edges, 10);
    }
}
