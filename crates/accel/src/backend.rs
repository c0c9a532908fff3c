//! The scatter pipeline's back-end (Fig. 6, right): Edge Array access →
//! ePEs (`Process_Edge`) → dataflow propagation fabric → vPEs (`Reduce`)
//! into the tProperty banks.
//!
//! [`BackEnd`] owns stages 1–3 of the per-cycle protocol (the front-end
//! owns 4–6); its [`BackEnd::step`] method is the combinational phase and
//! the clock edge comes from its [`ClockedComponent`] implementation,
//! driven by the shared `higraph_sim::Scheduler`.

use crate::edge_access::{BankRead, EdgeAccess};
use crate::metrics::Metrics;
use crate::netfactory::{AnyNetwork, NetworkFactory};
use crate::packets::{ImmPacket, PendingEdge};
use higraph_graph::{Csr, EdgeId};
use higraph_sim::{ClockedComponent, Fifo, Network, NetworkStats};
use higraph_vcpm::VertexProgram;

/// Back-end microarchitectural state, reused across scatter phases.
#[derive(Debug)]
pub(crate) struct BackEnd<P> {
    /// The Edge Array access unit — the bridge the front-end's Replay
    /// Engines push `{Off, Len}` chunks into (hence `pub(crate)`: the
    /// engine hands it to `FrontEnd::step` each cycle).
    pub(crate) edge_access: EdgeAccess<P>,
    /// Per-channel pending-edge queues in front of the ePEs.
    epe_q: Vec<Fifo<PendingEdge<P>>>,
    /// Occupancy words of `epe_q`: bit `c % 64` of word `c / 64` is set
    /// iff queue `c` holds an edge, so stage 2 visits only busy ePEs.
    epe_busy: Vec<u64>,
    /// The ePE → vPE dataflow propagation fabric.
    dataflow: AnyNetwork<ImmPacket<P>>,
    /// Per-bank free-slot scratch for stage 3, reused every cycle.
    epe_space: Vec<bool>,
    /// Bank-read staging scratch for stage 3, reused every cycle.
    bank_reads: Vec<BankRead<P>>,
    /// Steps since the last [`BackEnd::fold_starvation`]: stage 1 polls
    /// every vPE once per step.
    polls: u64,
    /// Per-vPE packets stage 1 delivered since the last fold.
    deliveries: Vec<u64>,
}

impl<P: Copy + 'static> BackEnd<P> {
    /// Builds the back-end for a validated configuration.
    pub(crate) fn new(factory: &NetworkFactory) -> Self {
        let config = factory.config();
        let m = config.back_channels;
        // lint:allow-item(hot-path-alloc): construction-time: staging queues and scratch are built once per validated configuration
        BackEnd {
            edge_access: factory.edge_access(),
            epe_q: (0..m).map(|_| Fifo::new(config.staging_capacity)).collect(),
            epe_busy: vec![0; m.div_ceil(64)],
            dataflow: factory.dataflow_fabric(),
            epe_space: vec![false; m],
            bank_reads: Vec::new(),
            polls: 0,
            deliveries: vec![0; m],
        }
    }

    /// The back-end's combinational phase: vPE reduce, ePE process-edge,
    /// and edge-bank reads (stages 1–3, evaluated consumer-first).
    ///
    /// `t_props` is the tProperty window this back-end may write —
    /// global vertex `v` lives at `t_props[v - t_base]`. The serial
    /// engine passes the whole array with `t_base == 0`; the sharded
    /// executor passes each chip its owned destination interval, which
    /// is what lets the chips step concurrently on disjoint storage.
    pub(crate) fn step<Prog: VertexProgram<Prop = P>>(
        &mut self,
        program: &Prog,
        graph: &Csr,
        t_props: &mut [P],
        t_base: u32,
        metrics: &mut Metrics,
    ) {
        // (1) vPEs: drain the dataflow fabric, fold into tProperty. Every
        // vPE is polled; one that receives nothing starves this cycle,
        // which `fold_starvation` counts as polls minus deliveries.
        self.polls += 1;
        let deliveries = &mut self.deliveries;
        self.dataflow.for_each_output(|dataflow, c| {
            if let Some(pkt) = dataflow.pop(c) {
                debug_assert_eq!(pkt.dest as usize, c);
                let t = &mut t_props[(pkt.v - t_base) as usize];
                *t = program.reduce(*t, pkt.imm);
                deliveries[c] += 1;
            }
        });

        // (2) ePEs: Process_Edge and inject into the dataflow fabric; a
        // rejected edge stays at the head of its queue. The channel count
        // is a power of two, so a destination's vPE is its low bits.
        let vpe_mask = self.epe_q.len() as u32 - 1;
        for w in 0..self.epe_busy.len() {
            let mut bits = self.epe_busy[w];
            while bits != 0 {
                let c = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let Some(&edge) = self.epe_q[c].peek() else {
                    continue;
                };
                let pkt = ImmPacket {
                    v: edge.dst,
                    dest: edge.dst & vpe_mask,
                    imm: program.process_edge(edge.u_prop, edge.weight),
                };
                if self.dataflow.push(c, pkt).is_ok() {
                    self.epe_q[c].pop();
                    if self.epe_q[c].is_empty() {
                        self.epe_busy[w] &= !(1u64 << (c % 64));
                    }
                }
            }
        }

        // (3) Edge banks: one read per bank into the ePE queues.
        for (space, q) in self.epe_space.iter_mut().zip(&self.epe_q) {
            *space = !q.is_full();
        }
        self.edge_access
            .issue_reads_into(&self.epe_space, &mut self.bank_reads);
        for read in &self.bank_reads {
            let e = graph.edge(EdgeId(read.edge_index));
            let pending = PendingEdge {
                dst: e.dst.0,
                weight: e.weight,
                u_prop: read.payload,
            };
            if self.epe_q[read.bank].push(pending).is_err() {
                debug_assert!(false, "edge unit overran an ePE queue");
            }
            self.epe_busy[read.bank / 64] |= 1u64 << (read.bank % 64);
            metrics.edges_processed += 1;
        }
    }

    /// Adds the vPE starvation of the steps since the last fold to
    /// `metrics`: vPE `c` starved on each of the `polls` steps that
    /// delivered it nothing, `polls - deliveries[c]` cycles. The drain
    /// folds once when it returns, so the per-cycle step only counts.
    pub(crate) fn fold_starvation(&mut self, metrics: &mut Metrics) {
        for (starved, delivered) in metrics
            .vpe_starvation_per_channel
            .iter_mut()
            .zip(&mut self.deliveries)
        {
            let cycles = self.polls - *delivered;
            *starved += cycles;
            metrics.vpe_starvation_cycles += cycles;
            *delivered = 0;
        }
        self.polls = 0;
    }

    /// Commits the per-cycle effects of `cycles` idle [`BackEnd::step`]s
    /// in O(channels): stage 1 polls every vPE each cycle regardless of
    /// work (counting starvation when the fabric delivers nothing — and
    /// a drained back-end delivers nothing), and the direct edge-access
    /// variant's arbitration pointer rotates per issue call. Only valid
    /// when the back-end is drained (the fast-forward precondition).
    pub(crate) fn commit_idle(&mut self, cycles: u64, metrics: &mut Metrics) {
        let m = self.epe_q.len() as u64;
        metrics.vpe_starvation_cycles += m * cycles;
        for per_channel in metrics.vpe_starvation_per_channel.iter_mut() {
            *per_channel += cycles;
        }
        self.edge_access.commit_idle_issue(cycles);
    }

    /// Cumulative statistics of the edge-access unit.
    pub(crate) fn edge_stats(&self) -> NetworkStats {
        self.edge_access.stats()
    }

    /// Cumulative statistics of the dataflow fabric.
    pub(crate) fn dataflow_stats(&self) -> NetworkStats {
        *self.dataflow.stats()
    }
}

impl<P: Copy + 'static> ClockedComponent for BackEnd<P> {
    fn tick(&mut self) {
        self.edge_access.tick();
        self.dataflow.tick();
    }

    fn in_flight(&self) -> usize {
        ClockedComponent::in_flight(&self.edge_access)
            + self.epe_q.in_flight()
            + self.dataflow.in_flight()
    }

    /// Short-circuiting drain check — evaluated every cycle by the
    /// scheduler, so it must not pay the full `in_flight` sum while any
    /// early part still holds work.
    fn is_drained(&self) -> bool {
        self.edge_access.is_empty() && self.epe_q.is_drained() && self.dataflow.is_drained()
    }

    // `next_activity` keeps the default: a non-drained back-end always
    // does something at its next step (reads issue, ePEs fire, the
    // fabric moves or counts blocking), so only the drained state skips.

    fn skip(&mut self, cycles: u64) {
        ClockedComponent::skip(&mut self.edge_access, cycles);
        self.dataflow.skip(cycles);
    }
}

/// At a drained boundary the ePE queues are empty and the starvation
/// counts folded, so the record is the edge-access unit and the dataflow
/// fabric.
impl<P> higraph_sim::Snapshot for BackEnd<P> {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        debug_assert_eq!(self.polls, 0, "starvation is folded when a drain returns");
        w.tag(b"BACK");
        w.usize(self.epe_q.len());
        self.edge_access.save(w);
        self.dataflow.save(w);
    }

    fn load(&mut self, r: &mut higraph_sim::SnapReader<'_>) -> Result<(), higraph_sim::SnapError> {
        r.expect_tag(b"BACK")?;
        let m = r.usize()?;
        if m != self.epe_q.len() {
            return Err(higraph_sim::SnapError::new(format!(
                "back-end shape mismatch: snapshot {m} channels, live {}",
                self.epe_q.len()
            )));
        }
        self.edge_access.load(r)?;
        self.dataflow.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use higraph_graph::gen::erdos_renyi;
    use higraph_mdp::EdgeRange;
    use higraph_vcpm::programs::Sssp;

    #[test]
    fn processes_a_range_end_to_end() {
        let factory = NetworkFactory::new(&AcceleratorConfig::higraph_mini()).expect("valid");
        let graph = erdos_renyi(64, 512, 15, 5);
        let mut be: BackEnd<u64> = BackEnd::new(&factory);
        let prog = Sssp::from_source(0);
        let mut t_props = vec![higraph_vcpm::INF; 64];
        let mut metrics = Metrics {
            vpe_starvation_per_channel: vec![0; 32],
            ..Metrics::default()
        };
        let (off, n_off) = graph.offset_pair(higraph_graph::VertexId(0));
        let len = (n_off - off) as u32;
        be.edge_access
            .push(
                0,
                EdgeRange {
                    off,
                    len,
                    payload: 0u64,
                },
            )
            .expect("accepts first range");
        let mut scheduler = higraph_sim::Scheduler::new().with_stall_guard(10_000);
        scheduler
            .drain(&mut be, |be, _| {
                be.step(&prog, &graph, &mut t_props, 0, &mut metrics);
            })
            .expect("back-end drains");
        assert_eq!(metrics.edges_processed, u64::from(len));
        assert_eq!(metrics.dataflow_net, NetworkStats::default()); // not yet finalized
        assert!(be.dataflow_stats().delivered == u64::from(len));
        assert!(t_props.iter().any(|&t| t != higraph_vcpm::INF) || len == 0);
    }
}
