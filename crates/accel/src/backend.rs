//! The scatter pipeline's back-end (Fig. 6, right): Edge Array access →
//! ePEs (`Process_Edge`) → dataflow propagation fabric → vPEs (`Reduce`)
//! into the tProperty banks.
//!
//! [`BackEnd`] owns stages 1–3 of the per-cycle protocol (the front-end
//! owns 4–6); its [`BackEnd::step`] method is the combinational phase and
//! the clock edge comes from its [`ClockedComponent`] implementation,
//! driven by the shared `higraph_sim::Scheduler`.

use crate::arena::{EdgeArena, PairArena, INITIAL_CAPACITY};
use crate::edge_access::{BankRead, EdgeAccess};
use crate::metrics::Metrics;
use crate::netfactory::{AnyNetwork, NetworkFactory};
use crate::packets::{EdgeRef, ImmRef};
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
    /// Per-channel pending-edge queues in front of the ePEs. Hold
    /// 4-byte [`EdgeRef`] handles; the `(dst, weight, u_prop)` payloads
    /// stay put in `edges`.
    epe_q: Vec<Fifo<EdgeRef>>,
    /// The ePE → vPE dataflow propagation fabric. Moves 8-byte
    /// [`ImmRef`] handles into the `imms` arena.
    dataflow: AnyNetwork<ImmRef>,
    /// SoA store for pending-edge payloads (see `crate::arena`).
    edges: EdgeArena<P>,
    /// SoA store for `(v, imm)` update payloads.
    imms: PairArena<P>,
    /// Per-bank free-slot scratch for stage 3, reused every cycle.
    epe_space: Vec<bool>,
    /// Bank-read staging scratch for stage 3, reused every cycle.
    bank_reads: Vec<BankRead<P>>,
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
            dataflow: factory.dataflow_fabric(),
            edges: EdgeArena::with_capacity(INITIAL_CAPACITY),
            imms: PairArena::with_capacity(INITIAL_CAPACITY),
            epe_space: vec![false; m],
            bank_reads: Vec::new(),
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
        let m = self.epe_q.len();

        // (1) vPEs: drain the dataflow fabric, fold into tProperty.
        for c in 0..m {
            match self.dataflow.pop(c) {
                Some(pkt) => {
                    debug_assert_eq!(pkt.dest as usize, c);
                    let v = self.imms.key(pkt.handle);
                    let imm = self.imms.payload(pkt.handle);
                    self.imms.free(pkt.handle);
                    let t = &mut t_props[(v - t_base) as usize];
                    *t = program.reduce(*t, imm);
                }
                None => {
                    metrics.vpe_starvation_cycles += 1;
                    metrics.vpe_starvation_per_channel[c] += 1;
                }
            }
        }

        // (2) ePEs: Process_Edge and inject into the dataflow fabric
        // (alloc-then-free-on-reject, see `crate::arena`).
        for c in 0..m {
            let Some(&EdgeRef(edge)) = self.epe_q[c].peek() else {
                continue;
            };
            let dst = self.edges.dst(edge);
            let imm = program.process_edge(self.edges.u_prop(edge), self.edges.weight(edge));
            let handle = self.imms.alloc(dst, imm);
            let pkt = ImmRef {
                handle,
                dest: dst % m as u32,
            };
            if self.dataflow.push(c, pkt).is_ok() {
                self.epe_q[c].pop();
                self.edges.free(edge);
            } else {
                self.imms.free(handle);
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
            let handle = self.edges.alloc(e.dst.0, e.weight, read.payload);
            if let Err(rejected) = self.epe_q[read.bank].push(EdgeRef(handle)) {
                debug_assert!(false, "edge unit overran an ePE queue");
                self.edges.free(rejected.0);
            }
            metrics.edges_processed += 1;
        }
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
        // lint:allow(panic-freedom): infallible: every fabric constructor installs a stats block
        self.dataflow.network_stats().expect("fabrics keep stats")
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

impl<P: higraph_sim::SnapValue> higraph_sim::Snapshot for BackEnd<P> {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        w.tag(b"BACK");
        w.usize(self.epe_q.len());
        self.edge_access.save(w);
        self.epe_q[..].save(w);
        self.dataflow.save(w);
        self.edges.save(w);
        self.imms.save(w);
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
        self.epe_q[..].load(r)?;
        self.dataflow.load(r)?;
        self.edges.load(r)?;
        self.imms.load(r)?;
        // Per-cycle scratch is not state.
        self.bank_reads.clear();
        Ok(())
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
