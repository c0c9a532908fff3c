//! The per-layer metrics a traced run prints, and the simulated
//! counters they are derived from.

use crate::stats::ratio;
use higraph::pool::PoolSnapshot;
use higraph::prelude::{MemoryMetrics, Metrics};
use higraph::sim::selection::SelectionCounts;
use higraph::sim::NetworkStats;
use std::collections::BTreeMap;

/// Every per-layer metric with its unit. A traced run prints all of
/// them on every workload; a layer a workload does not exercise reads 0,
/// and those zeros are themselves checks (README.md lists them).
pub const LAYERS: [(&str, &str); 37] = [
    ("graph.build_ms", "ms"),
    ("accel.engine_new_ms", "ms"),
    ("accel.run_ms", "ms"),
    ("accel.host_ns_per_edge", "ns"),
    ("accel.frontend.offset_conflicts_per_kedge", "1/kedge"),
    ("accel.backend.vpe_starvation_per_kcycle", "1/kcycle"),
    ("accel.scatter_cycle_share", "ratio"),
    ("accel.cache.hit_ratio", "ratio"),
    ("accel.cache.stall_cycles", "cycles"),
    ("mdp.offset_net.accept_ratio", "ratio"),
    ("mdp.edge_net.accept_ratio", "ratio"),
    ("mdp.dataflow_net.accept_ratio", "ratio"),
    ("mdp.dataflow_net.hol_blocked", "count"),
    ("mdp.dataflow_net.delivered", "count"),
    ("sim.dram.row_hit_ratio", "ratio"),
    ("sim.dram.reject_ratio", "ratio"),
    ("sim.wheel.windows", "count"),
    ("sim.wheel.windows_per_kcycle", "1/kcycle"),
    ("sim.poll.windows", "count"),
    ("sim.link.packets", "count"),
    ("sim.link.reject_ratio", "ratio"),
    ("pool.lease_requests", "count"),
    ("pool.lease_workers_granted", "count"),
    ("pool.oversubscribed", "count"),
    ("pool.tasks_stolen", "count"),
    ("pool.occupancy", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.step_ms.miss", "ms"),
    ("serve.step_ms.hit", "ms"),
    ("serve.step_ms.park", "ms"),
    ("serve.step_ms.resume", "ms"),
    ("memo.hit_ratio", "ratio"),
    ("memo.evictions", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("bench.self_share", "ratio"),
];

/// Values a workload measured, by metric name.
#[derive(Debug, Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYERS.iter().any(|&(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// The full table in [`LAYERS`] order, 0 where nothing was set.
    pub fn table(&self) -> Vec<(&'static str, &'static str, f64)> {
        LAYERS
            .iter()
            .map(|&(name, unit)| (name, unit, self.0.get(name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Simulated totals over a fixed set of runs; deterministic for a seed.
#[derive(Debug, Default)]
pub struct SimTotals {
    /// Aggregate (critical-path) cycles.
    pub cycles: u64,
    /// Cycles summed over chips: the simulated work the host computed.
    pub chip_cycles: u64,
    pub edges: u64,
    /// Modelled execution time: cycles over the design's clock.
    pub sim_time_ns: f64,
    scatter_cycles: u64,
    starvation: u64,
    offset_conflicts: u64,
    offset_net: NetworkStats,
    edge_net: NetworkStats,
    dataflow_net: NetworkStats,
    memory: MemoryMetrics,
    link_packets: u64,
    link: NetworkStats,
    pub selections: SelectionCounts,
}

impl SimTotals {
    /// Adds one run: its aggregate metrics, per-chip cycle sum and
    /// inter-chip link traffic.
    pub fn add(&mut self, m: &Metrics, chip_cycles: u64, link_packets: u64, link: &NetworkStats) {
        self.cycles += m.cycles;
        self.chip_cycles += chip_cycles;
        self.edges += m.edges_processed;
        self.sim_time_ns += m.time_ns();
        self.scatter_cycles += m.scatter_cycles;
        self.starvation += m.vpe_starvation_cycles;
        self.offset_conflicts += m.offset_conflicts;
        self.offset_net.merge(&m.offset_net);
        self.edge_net.merge(&m.edge_net);
        self.dataflow_net.merge(&m.dataflow_net);
        self.memory.merge(&m.memory);
        self.link_packets += link_packets;
        self.link.merge(link);
    }

    /// Modelled throughput: total edges over total modelled time.
    pub fn gteps(&self) -> f64 {
        ratio(self.edges as f64, self.sim_time_ns)
    }

    /// Sets the deterministic per-layer counters.
    pub fn set_layers(&self, layers: &mut LayerValues) {
        let accept = |s: &NetworkStats| ratio(s.accepted as f64, (s.accepted + s.rejected) as f64);
        let reject = |s: &NetworkStats| ratio(s.rejected as f64, (s.accepted + s.rejected) as f64);
        layers.set(
            "accel.frontend.offset_conflicts_per_kedge",
            1e3 * ratio(self.offset_conflicts as f64, self.edges as f64),
        );
        layers.set(
            "accel.backend.vpe_starvation_per_kcycle",
            1e3 * ratio(self.starvation as f64, self.cycles as f64),
        );
        layers.set(
            "accel.scatter_cycle_share",
            ratio(self.scatter_cycles as f64, self.cycles as f64),
        );
        layers.set("accel.cache.hit_ratio", self.memory.cache_hit_rate());
        layers.set("accel.cache.stall_cycles", self.memory.stall_cycles as f64);
        layers.set("mdp.offset_net.accept_ratio", accept(&self.offset_net));
        layers.set("mdp.edge_net.accept_ratio", accept(&self.edge_net));
        layers.set("mdp.dataflow_net.accept_ratio", accept(&self.dataflow_net));
        layers.set(
            "mdp.dataflow_net.hol_blocked",
            self.dataflow_net.hol_blocked as f64,
        );
        layers.set(
            "mdp.dataflow_net.delivered",
            self.dataflow_net.delivered as f64,
        );
        let dram = &self.memory.dram;
        layers.set("sim.dram.row_hit_ratio", dram.row_hit_rate());
        layers.set(
            "sim.dram.reject_ratio",
            ratio(dram.rejected as f64, (dram.accepted + dram.rejected) as f64),
        );
        layers.set("sim.wheel.windows", self.selections.wheel_windows as f64);
        layers.set(
            "sim.wheel.windows_per_kcycle",
            1e3 * ratio(
                self.selections.wheel_windows as f64,
                self.chip_cycles as f64,
            ),
        );
        layers.set("sim.poll.windows", self.selections.poll_windows as f64);
        layers.set("sim.link.packets", self.link_packets as f64);
        layers.set("sim.link.reject_ratio", reject(&self.link));
    }
}

/// Pool activity across the timed phase, per pass or batch (`units`).
pub fn set_pool_layers(
    layers: &mut LayerValues,
    d: &PoolSnapshot,
    window_ns: u64,
    units: u64,
    workers: usize,
) {
    let per = |x: u64| ratio(x as f64, units as f64);
    layers.set("pool.lease_requests", per(d.lease_requests));
    layers.set("pool.lease_workers_granted", per(d.lease_workers_granted));
    layers.set("pool.oversubscribed", per(d.lease_workers_oversubscribed));
    layers.set("pool.tasks_stolen", per(d.tasks_stolen));
    layers.set("pool.occupancy", d.occupancy(window_ns, workers));
}
