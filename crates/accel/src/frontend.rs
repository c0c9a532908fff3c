//! The scatter pipeline's front-end (Fig. 6, left): ActiveVertex parts →
//! offset-routing fabric → Offset Array access under the odd-even
//! arbiter → Replay Engines feeding the Edge Array access unit.
//!
//! [`FrontEnd`] owns stages 4–6 of the per-cycle protocol (the engine's
//! back-end owns 1–3); its [`FrontEnd::step`] method is the combinational
//! phase, and the clock edge comes from its
//! [`ClockedComponent`] implementation, driven by the shared
//! `higraph_sim::Scheduler`.

use crate::cache::{MemorySubsystem, QueryState};
use crate::edge_access::EdgeAccess;
use crate::metrics::Metrics;
use crate::netfactory::{AnyNetwork, NetworkFactory};
use crate::packets::VertexPacket;
use higraph_graph::{Csr, VertexId};
use higraph_mdp::{EdgeRange, ReplayEngine};
use higraph_sim::{BankPorts, ClockedComponent, Fifo, Network, NetworkStats, OddEvenArbiter};
use std::collections::VecDeque;

/// Front-end microarchitectural state, reused across scatter phases (and
/// across slices — it drains completely between phases, like the real
/// hardware).
#[derive(Debug)]
pub(crate) struct FrontEnd<P> {
    /// Per-part ActiveVertex queues, filled round-robin in activation
    /// order at the start of each scatter phase.
    av_parts: Vec<VecDeque<(u32, P)>>,
    /// The vertex-routing fabric in front of the Offset Array.
    offset_net: AnyNetwork<VertexPacket<P>>,
    /// Per-channel staging queues between the fabric and the Offset banks.
    offset_q: Vec<Fifo<VertexPacket<P>>>,
    /// Per-channel Replay Engines turning `{Off, nOff}` into chunks.
    replay: Vec<ReplayEngine<P>>,
    /// One-entry skid buffer per channel between replay and edge access.
    replay_out: Vec<Option<EdgeRange<P>>>,
    /// Odd-even alternating priority (HiGraph's Sec. 4.1 arbitration).
    odd_even: OddEvenArbiter,
    /// Rotating pointer of the GraphDynS-style centralized priority chain.
    offset_rr: usize,
    /// Whether the offset point uses the MDP-network (odd-even issue) or
    /// the centralized chain.
    mdp_offset: bool,
    /// Stage-5 issue-order scratch, reused every cycle (hot path: no
    /// per-cycle allocation).
    issue_order: Vec<usize>,
    /// Stage-5 Offset Array bank-port scratch, reset every cycle.
    offset_banks: BankPorts,
}

impl<P: Copy + 'static> FrontEnd<P> {
    /// Builds the front-end for a validated configuration.
    pub(crate) fn new(factory: &NetworkFactory) -> Self {
        let config = factory.config();
        let n = config.front_channels;
        let m = config.back_channels;
        // lint:allow-item(hot-path-alloc): construction-time: per-channel queues and replay scratch are built once per validated configuration
        FrontEnd {
            av_parts: vec![VecDeque::new(); n],
            offset_net: factory.offset_fabric(),
            offset_q: (0..n).map(|_| Fifo::new(config.staging_capacity)).collect(),
            replay: (0..n).map(|_| ReplayEngine::new(m)).collect(),
            replay_out: vec![None; n],
            odd_even: OddEvenArbiter::new(),
            offset_rr: 0,
            mdp_offset: config.offset_network == crate::config::NetworkKind::Mdp,
            issue_order: Vec::with_capacity(n),
            offset_banks: BankPorts::new(n),
        }
    }

    /// Loads a frontier into the ActiveVertex parts, round-robin in
    /// activation order.
    pub(crate) fn load_frontier(&mut self, frontier: &[VertexId], properties: &[P]) {
        let n = self.av_parts.len();
        for (seq, &v) in frontier.iter().enumerate() {
            self.av_parts[seq % n].push_back((v.0, properties[v.index()]));
        }
    }

    /// The front-end's combinational phase: replay staging, Offset Array
    /// arbitration, fabric drain, and ActiveVertex fetch (stages 4–6).
    ///
    /// Off-chip fetches gate two stages through `mem` (`docs/memory.md`):
    /// a replayed edge range may only enter the edge-access unit once its
    /// Edge Array lines are cached, and an Offset Array claim waits for
    /// its offset pair's line. Blocked channel-cycles accrue to
    /// `metrics.memory.stall_cycles`. With the default infinite
    /// subsystem both gates are always open and behaviour is
    /// bit-identical to the pre-memory-model pipeline.
    pub(crate) fn step(
        &mut self,
        graph: &Csr,
        edge_access: &mut EdgeAccess<P>,
        mem: &mut MemorySubsystem,
        metrics: &mut Metrics,
    ) {
        let n = self.av_parts.len();
        mem.begin_cycle();

        // (4) Replay engines: stage one chunk, offer it downstream once
        // its edge lines are resident.
        for c in 0..n {
            if self.replay_out[c].is_none() {
                self.replay_out[c] = self.replay[c].emit();
            }
            if let Some(chunk) = self.replay_out[c].take() {
                if mem.edges_ready(c, chunk.off, chunk.len) {
                    match edge_access.push(c, chunk) {
                        Ok(()) => {}
                        Err(chunk) => self.replay_out[c] = Some(chunk),
                    }
                } else {
                    metrics.memory.stall_cycles += 1;
                    self.replay_out[c] = Some(chunk);
                }
            }
        }

        // (5) Offset Array access: claim (u, u+1) bank pairs. Both the
        // issue order and the bank-port tracker are per-cycle state kept
        // in reusable scratch buffers owned by the front-end. The bank
        // count is a power of two: a vertex's bank is its low bits and
        // its row the rest.
        self.offset_banks.reset();
        let (bank_mask, row_shift) = (n as u64 - 1, n.trailing_zeros());
        let claim = |u: u32, ports: &mut BankPorts| -> bool {
            let (a, b) = (u64::from(u), u64::from(u) + 1);
            ports.try_claim_pair(
                ((a & bank_mask) as usize, a >> row_shift),
                ((b & bank_mask) as usize, b >> row_shift),
            )
        };
        self.issue_order.clear();
        if self.mdp_offset {
            // HiGraph: odd-even alternating priority (Sec. 4.1). Every
            // channel's conflict check is local (its own and its
            // neighbour's banks), so channels issue independently.
            self.issue_order
                .extend((0..n).filter(|&c| self.odd_even.has_priority(c)));
            self.issue_order
                .extend((0..n).filter(|&c| !self.odd_even.has_priority(c)));
        } else {
            // GraphDynS: the "delicate" centralized arbitration — a
            // rotating priority *chain*. Grants propagate down the chain
            // until the first conflicting claim; later channels cannot be
            // granted past a blocked one (skip-over would require full
            // per-bank parallel arbitration, exactly the centralization
            // the paper says caps this design at 4 channels).
            let first = self.offset_rr;
            self.issue_order.extend((first..n).chain(0..first));
            self.offset_rr = if first + 1 == n { 0 } else { first + 1 };
        }
        for i in 0..n {
            let c = self.issue_order[i];
            let Some(head) = self.offset_q[c].peek() else {
                continue;
            };
            if !self.replay[c].is_idle() {
                continue;
            }
            let u = head.u;
            // The offset pair must be on chip before the bank claim is
            // even attempted (a memory stall, not an arbitration
            // conflict — the grant chain is unaffected).
            if !mem.offset_ready(c, u) {
                metrics.memory.stall_cycles += 1;
                continue;
            }
            if claim(u, &mut self.offset_banks) {
                // lint:allow(panic-freedom): infallible: the pop follows a successful peek on the same queue this cycle
                let pkt = self.offset_q[c].pop().expect("peeked head");
                let (off, n_off) = graph.offset_pair(VertexId(u));
                let loaded = self.replay[c].load(off, n_off, pkt.prop);
                debug_assert!(loaded, "replay engine checked idle");
            } else {
                metrics.offset_conflicts += 1;
                if !self.mdp_offset {
                    break;
                }
            }
        }

        // (5b) Drain the offset-routing fabric into the channel queues.
        let offset_q = &mut self.offset_q;
        self.offset_net.for_each_output(|offset_net, c| {
            if !offset_q[c].is_full() {
                if let Some(pkt) = offset_net.pop(c) {
                    debug_assert_eq!(pkt.dest as usize, c);
                    offset_q[c]
                        .push(pkt)
                        // lint:allow(panic-freedom): push cannot fail: space was checked against this cycle's snapshot before the transfer
                        .unwrap_or_else(|_| unreachable!("space checked"));
                }
            }
        });

        // (6) ActiveVertex fetch: one vertex per part per cycle; a
        // rejected vertex stays at the head of its part.
        for c in 0..n {
            let Some(pkt) = self.head_packet(c) else {
                continue;
            };
            if self.offset_net.push(c, pkt).is_ok() {
                self.av_parts[c].pop_front();
            }
        }
    }

    /// The vertex packet part `c` offers the offset-routing fabric next,
    /// bound for the channel of its Offset bank (the low bits of `u`:
    /// the channel count is a power of two).
    fn head_packet(&self, c: usize) -> Option<VertexPacket<P>> {
        let bank_mask = self.av_parts.len() as u32 - 1;
        self.av_parts[c].front().map(|&(u, prop)| VertexPacket {
            u,
            dest: u & bank_mask,
            prop,
        })
    }

    /// Cumulative statistics of the offset-routing fabric.
    pub(crate) fn offset_stats(&self) -> NetworkStats {
        *self.offset_net.stats()
    }

    /// Whether the next [`FrontEnd::step`] can do anything beyond stall
    /// accounting. Mirrors `step` stage by stage: vertices to fetch or
    /// route, a replay engine that can emit, a staged chunk or offset
    /// head whose memory query is ready (or would advance) — any of
    /// these makes the cycle active. When it returns `false`, every
    /// held item is purely waiting on DRAM (or the front-end is
    /// drained), and [`MemorySubsystem::next_activity`] bounds the wait.
    pub(crate) fn has_immediate_work(&self, mem: &MemorySubsystem) -> bool {
        let n = self.av_parts.len();
        // (6) an ActiveVertex push that would be *accepted* is activity;
        // one the fabric keeps rejecting is deterministic bookkeeping
        // (committed in bulk by `commit_idle`).
        for c in 0..n {
            if let Some(pkt) = self.head_packet(c) {
                if self.offset_net.can_accept(c, &pkt) {
                    return true;
                }
            }
        }
        // (5b) + clock edge: internal fabric movement, or a delivery a
        // staging queue has room to take.
        if self.offset_net.in_flight() > 0 {
            if !self.offset_net.is_wedged() {
                return true;
            }
            for c in 0..n {
                if !self.offset_q[c].is_full() && self.offset_net.peek(c).is_some() {
                    return true;
                }
            }
        }
        for c in 0..self.av_parts.len() {
            match &self.replay_out[c] {
                // (4) a staged chunk advances unless its lines are still
                // on their way from DRAM.
                Some(chunk) => {
                    if mem.edge_query_state(c, chunk.off, chunk.len) != QueryState::Blocked {
                        return true;
                    }
                }
                // (4) a busy replay engine refills the skid buffer.
                None => {
                    if !self.replay[c].is_idle() {
                        return true;
                    }
                }
            }
            // (5) an offset head claims its bank pair once the replay
            // engine is free and its offset pair is on chip.
            if let Some(head) = self.offset_q[c].peek() {
                if self.replay[c].is_idle()
                    && mem.offset_query_state(c, head.u) != QueryState::Blocked
                {
                    return true;
                }
            }
        }
        false
    }

    /// Commits the per-cycle effects of `cycles` idle [`FrontEnd::step`]s
    /// in O(channels): one memory-stall cycle per blocked chunk and per
    /// ready-to-issue-but-waiting offset head, plus the GraphDynS
    /// rotating grant chain. Only valid when
    /// [`FrontEnd::has_immediate_work`] is `false` (the fast-forward
    /// precondition) — every counted item is then genuinely mem-blocked.
    pub(crate) fn commit_idle(&mut self, cycles: u64, metrics: &mut Metrics) {
        let n = self.av_parts.len();
        let mut stalled_channels = 0u64;
        let mut rejected_pushes = 0u64;
        for c in 0..n {
            if self.replay_out[c].is_some() {
                stalled_channels += 1;
            }
            if !self.offset_q[c].is_empty() && self.replay[c].is_idle() {
                stalled_channels += 1;
            }
            // (6) one rejected ActiveVertex push per blocked channel per
            // cycle (the fast-forward precondition: none could land)
            if !self.av_parts[c].is_empty() {
                rejected_pushes += 1;
            }
        }
        metrics.memory.stall_cycles += stalled_channels * cycles;
        self.offset_net.commit_rejected(rejected_pushes * cycles);
        if !self.mdp_offset {
            self.offset_rr = (self.offset_rr + (cycles % n as u64) as usize) % n;
        }
    }
}

impl<P: Copy + 'static> ClockedComponent for FrontEnd<P> {
    fn tick(&mut self) {
        self.offset_net.tick();
        self.odd_even.tick();
    }

    fn in_flight(&self) -> usize {
        self.av_parts.in_flight()
            + self.offset_net.in_flight()
            + self.offset_q.in_flight()
            + self.replay.iter().filter(|r| !r.is_idle()).count()
            + self.replay_out.iter().filter(|o| o.is_some()).count()
    }

    /// Short-circuiting drain check — evaluated every cycle by the
    /// scheduler, so it must not pay the full `in_flight` sum while any
    /// early part still holds work.
    fn is_drained(&self) -> bool {
        self.av_parts.is_drained()
            && self.offset_net.is_drained()
            && self.offset_q.is_drained()
            && self.replay.iter().all(ReplayEngine::is_idle)
            && self.replay_out.iter().all(Option::is_none)
    }

    // `next_activity` keeps the conservative default; the memory-aware
    // hint lives in `ScatterPipeline`, which owns the subsystem this
    // front-end's gates depend on (`FrontEnd::has_immediate_work`).

    /// The front-end's sequential state during an idle window: fabric
    /// cycle counters and the odd-even parity.
    fn skip(&mut self, cycles: u64) {
        self.offset_net.skip(cycles);
        self.odd_even.advance(cycles);
    }
}

/// At a drained boundary the ActiveVertex parts, the staging queues, the
/// Replay Engines and their skid buffers are empty, so the record is the
/// offset fabric and the two arbitration states.
impl<P> higraph_sim::Snapshot for FrontEnd<P> {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        w.tag(b"FRNT");
        w.usize(self.av_parts.len());
        w.bool(self.mdp_offset);
        w.usize(self.offset_rr);
        self.offset_net.save(w);
        self.odd_even.save(w);
    }

    fn load(&mut self, r: &mut higraph_sim::SnapReader<'_>) -> Result<(), higraph_sim::SnapError> {
        r.expect_tag(b"FRNT")?;
        let n = r.usize()?;
        let mdp_offset = r.bool()?;
        if n != self.av_parts.len() || mdp_offset != self.mdp_offset {
            return Err(higraph_sim::SnapError::new(format!(
                "front-end shape mismatch: snapshot {n} channels (mdp_offset={mdp_offset}), \
                 live {} (mdp_offset={})",
                self.av_parts.len(),
                self.mdp_offset
            )));
        }
        let offset_rr = r.usize()?;
        if offset_rr >= n {
            return Err(higraph_sim::SnapError::new(format!(
                "front-end arbitration pointer {offset_rr} out of range"
            )));
        }
        self.offset_rr = offset_rr;
        self.offset_net.load(r)?;
        self.odd_even.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use higraph_graph::gen::erdos_renyi;

    #[test]
    fn drains_a_small_frontier_into_edge_access() {
        let factory = NetworkFactory::new(&AcceleratorConfig::higraph_mini()).expect("valid");
        let graph = erdos_renyi(64, 512, 15, 3);
        let mut fe: FrontEnd<u64> = FrontEnd::new(&factory);
        let mut ea: EdgeAccess<u64> = factory.edge_access();
        let mut metrics = Metrics::default();
        let frontier: Vec<VertexId> = graph.vertices().take(8).collect();
        let props: Vec<u64> = (0..64).collect();
        fe.load_frontier(&frontier, &props);
        assert!(!fe.is_drained());
        let mut mem = MemorySubsystem::infinite();
        let mut scheduler = higraph_sim::Scheduler::new().with_stall_guard(10_000);
        let epe_space = vec![true; 32];
        let mut edges = 0usize;
        scheduler
            .drain(&mut fe, |fe, _| {
                edges += ea.issue_reads(&epe_space).len();
                fe.step(&graph, &mut ea, &mut mem, &mut metrics);
                ea.tick();
            })
            .expect("front-end drains");
        // keep draining the edge unit after the front-end empties
        for _ in 0..64 {
            edges += ea.issue_reads(&epe_space).len();
            ea.tick();
        }
        let expect: u64 = frontier.iter().map(|&v| graph.out_degree(v)).sum();
        assert_eq!(edges as u64, expect);
        assert!(fe.offset_stats().delivered >= 1);
    }
}
