//! Accelerator configuration and the Table 1 presets.

use higraph_model::NetworkKindModel;
use higraph_sim::DramTiming;
use std::fmt;

/// Off-chip memory hierarchy knobs: the edge/offset cache and the HBM
/// channel geometry behind it (see `docs/memory.md`).
///
/// `AcceleratorConfig::memory` is `None` by default — infinite
/// bandwidth, zero latency — which keeps every metric bit-identical to
/// the pre-memory-model simulator. Set `Some(MemoryConfig::hbm2())` (or
/// a customized value) to make off-chip fetches cost cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// HBM channels; lines interleave across them.
    pub channels: usize,
    /// Row-buffered banks per channel.
    pub banks_per_channel: usize,
    /// Request-queue depth per channel (producers stall beyond it).
    pub queue_depth: usize,
    /// Cache line size in bytes (power of two, at least one edge —
    /// `cache::EDGE_BYTES` — so per-line accounting never undercounts).
    pub line_bytes: usize,
    /// DRAM row size in bytes (power-of-two multiple of the line size);
    /// sets how many consecutive lines share one row-buffer activation.
    pub row_bytes: usize,
    /// Capacity of the on-chip edge/offset cache in KiB.
    pub cache_kb: usize,
    /// tCAS-class latency parameters, in accelerator clock cycles.
    pub timing: DramTiming,
}

impl MemoryConfig {
    /// An HBM2-class stack at a 1 GHz accelerator clock: 8 channels ×
    /// 16 banks, 2 KiB rows, 64 B lines, a 256 KiB edge/offset cache.
    pub fn hbm2() -> Self {
        MemoryConfig {
            channels: 8,
            banks_per_channel: 16,
            queue_depth: 16,
            line_bytes: 64,
            row_bytes: 2048,
            cache_kb: 256,
            timing: DramTiming::default(),
        }
    }

    /// This configuration with a different cache capacity (the `repro
    /// mem` sweep axis).
    pub fn with_cache_kb(mut self, cache_kb: usize) -> Self {
        self.cache_kb = cache_kb;
        self
    }

    /// Validates the memory knobs.
    ///
    /// # Errors
    ///
    /// Returns a message if any count is zero, the line size is not a
    /// power of two, or the row size is not a multiple of the line size.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.banks_per_channel == 0 || self.queue_depth == 0 {
            return Err("memory channels, banks, and queue depth must be positive".to_string());
        }
        if !self.line_bytes.is_power_of_two() || (self.line_bytes as u64) < crate::cache::EDGE_BYTES
        {
            return Err(format!(
                "cache line size {} must be a power of two >= one edge ({} B)",
                self.line_bytes,
                crate::cache::EDGE_BYTES
            ));
        }
        if self.row_bytes < self.line_bytes || !self.row_bytes.is_multiple_of(self.line_bytes) {
            return Err(format!(
                "row size {} must be a multiple of the line size {}",
                self.row_bytes, self.line_bytes
            ));
        }
        if self.cache_kb == 0 {
            return Err("cache capacity must be positive".to_string());
        }
        Ok(())
    }

    /// Worst-case memory cycles one scatter phase can spend, used to size
    /// the stall guard: every line the phase can touch (edges plus one
    /// offset pair per frontier vertex) paying a full row conflict, plus
    /// queue-depth serialization slack per line.
    pub(crate) fn stall_guard_bonus(&self, iteration_edges: u64, frontier_len: u64) -> u64 {
        let per_line = self.timing.conflict_cycles() + self.queue_depth as u64 + 4;
        let edge_lines = iteration_edges + 16; // ≥ lines touched (16 B edges, ≥ 16 B lines)
        let offset_lines = 2 * frontier_len + 16;
        (edge_lines + offset_lines).saturating_mul(per_line)
    }
}

/// A seeded schedule of transient hardware faults (link stalls, DRAM
/// channel brown-outs, chip pauses) injected into a run — the
/// deterministic fault-injection harness of `docs/robustness.md`.
///
/// `None` on [`AcceleratorConfig::fault_plan`] (the default everywhere)
/// injects nothing and leaves every run bit-identical to a build without
/// the harness. `Some(_)` expands to concrete windows via
/// [`crate::faults::FaultRuntime`]; the same plan always produces the
/// same schedule, so faulted runs are exactly reproducible and
/// memoizable. Fault runs tick per-cycle (fast-forward is forced off),
/// so windows land on exact cycles on every host and thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the event schedule (splitmix64 stream).
    pub seed: u64,
    /// Number of fault windows to draw.
    pub events: u32,
    /// Maximum duration of one window, in cycles (each window lasts
    /// `1..=max_duration`).
    pub max_duration: u64,
    /// Scheduling horizon: window start cycles are drawn from
    /// `[0, horizon)` on the global scatter-cycle timeline.
    pub horizon: u64,
}

impl FaultPlan {
    /// Validates the plan's bounds.
    ///
    /// # Errors
    ///
    /// Returns a message when a non-empty schedule has a zero duration
    /// or horizon (windows could neither start nor last).
    pub fn validate(&self) -> Result<(), String> {
        if self.events > 0 && (self.max_duration == 0 || self.horizon == 0) {
            return Err(format!(
                "fault plan with {} events needs a positive max_duration \
                 (got {}) and horizon (got {})",
                self.events, self.max_duration, self.horizon
            ));
        }
        Ok(())
    }
}

/// Which fabric serves an interaction point (Sec. 2.2's three conflict
/// sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// Centralized crossbar with round-robin arbitration (previous
    /// accelerators: Graphicionado, GraphDynS).
    Crossbar,
    /// The paper's MDP-network.
    Mdp,
    /// The naive nW1R FIFO of Fig. 5 (b/c); only meaningful for the
    /// dataflow-propagation point.
    NaiveFifo,
}

impl NetworkKind {
    /// The corresponding frequency-model kind.
    pub fn model_kind(self) -> NetworkKindModel {
        match self {
            NetworkKind::Crossbar => NetworkKindModel::Crossbar,
            NetworkKind::Mdp => NetworkKindModel::Mdp,
            NetworkKind::NaiveFifo => NetworkKindModel::NaiveFifo,
        }
    }
}

impl fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NetworkKind::Crossbar => "crossbar",
            NetworkKind::Mdp => "MDP-network",
            NetworkKind::NaiveFifo => "nW1R-FIFO",
        };
        f.write_str(s)
    }
}

/// The paper's optimization ablation steps (Fig. 10): which interaction
/// points get an MDP-network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OptLevel {
    /// Opt-O: MDP-network for Offset Array access.
    pub opt_o: bool,
    /// Opt-E: MDP-network for Edge Array access.
    pub opt_e: bool,
    /// Opt-D: MDP-network for Dataflow Propagation.
    pub opt_d: bool,
}

impl OptLevel {
    /// No optimizations (Fig. 10 "Baseline").
    pub const BASELINE: OptLevel = OptLevel {
        opt_o: false,
        opt_e: false,
        opt_d: false,
    };
    /// Opt-O only.
    pub const O: OptLevel = OptLevel {
        opt_o: true,
        opt_e: false,
        opt_d: false,
    };
    /// Opt-O + Opt-E.
    pub const OE: OptLevel = OptLevel {
        opt_o: true,
        opt_e: true,
        opt_d: false,
    };
    /// Opt-O + Opt-E + Opt-D (full HiGraph).
    pub const OED: OptLevel = OptLevel {
        opt_o: true,
        opt_e: true,
        opt_d: true,
    };

    /// The four ablation steps in Fig. 10 order.
    pub const ALL: [OptLevel; 4] = [Self::BASELINE, Self::O, Self::OE, Self::OED];

    /// Figure label for this step.
    pub fn label(self) -> &'static str {
        match (self.opt_o, self.opt_e, self.opt_d) {
            (false, false, false) => "Baseline",
            (true, false, false) => "OPT-O",
            (true, true, false) => "OPT-O + OPT-E",
            (true, true, true) => "OPT-O + OPT-E + OPT-D",
            _ => "custom",
        }
    }
}

/// Full configuration of a simulated accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcceleratorConfig {
    /// Human-readable design name.
    pub name: String,
    /// Number of front-end channels `n` (ActiveVertex/Offset parts).
    pub front_channels: usize,
    /// Number of back-end channels `m` (Edge/tProperty parts, ePEs, vPEs).
    pub back_channels: usize,
    /// Fabric for Offset Array access (front-end vertex routing).
    pub offset_network: NetworkKind,
    /// Fabric for Edge Array access.
    pub edge_network: NetworkKind,
    /// Fabric for dataflow propagation (ePE → vPE).
    pub dataflow_network: NetworkKind,
    /// Buffer entries per channel in the dataflow fabric (the paper's
    /// Fig. 12 x-axis; HiGraph uses 160, the crossbar baseline 128).
    pub dataflow_buffer_per_channel: usize,
    /// Capacity of the small staging queues between pipeline stages.
    pub staging_capacity: usize,
    /// MDP-network radix (Sec. 5.4 design option; the paper chooses 2).
    pub radix: usize,
    /// Read ports of each terminal edge Dispatcher (the final stage of the
    /// Edge-Array MDP-network is a 2W2R module, so 2 is the paper-faithful
    /// value; 1 models a single-read-port dispatcher for ablation).
    pub dispatcher_read_ports: usize,
    /// Off-chip memory model. `None` (the default for every preset) is
    /// infinite bandwidth: offset and edge fetches are free, exactly the
    /// pre-memory-model behaviour. `Some(_)` routes them through the
    /// edge/offset cache and the HBM channel model (`docs/memory.md`).
    pub memory: Option<MemoryConfig>,
    /// Initial capacity (in packets) of each per-chip payload arena —
    /// the SoA stores behind the handle-based packet types
    /// (`crate::arena`). A host-simulation sizing hint only: arenas grow
    /// on demand, and the modeled hardware is unaffected.
    pub arena_capacity: usize,
    /// Event-wheel horizon in cycles for the scheduler's indexed window
    /// selection (DRAM channels, multi-chip drains). Must be a power of
    /// two in `[higraph_sim::wheel::MIN_WHEEL_HORIZON,
    /// higraph_sim::wheel::MAX_WHEEL_HORIZON]`; wakes beyond it spill to
    /// an overflow list, so this trades wheel memory against overflow
    /// scans. Purely a host-simulation knob: cycle counts and `Metrics`
    /// are bit-identical for any valid value.
    pub wheel_horizon: usize,
    /// Deterministic fault-injection schedule. `None` (every preset)
    /// injects nothing; `Some(_)` makes the run degrade gracefully under
    /// seeded link stalls, DRAM brown-outs, and chip pauses
    /// (`docs/robustness.md`).
    pub fault_plan: Option<FaultPlan>,
}

impl AcceleratorConfig {
    /// Table 1 "HiGraph": 32 front-end channels, 32 back-end channels,
    /// MDP-networks everywhere, 160-entry dataflow buffers.
    pub fn higraph() -> Self {
        AcceleratorConfig {
            name: "HiGraph".to_string(),
            front_channels: 32,
            back_channels: 32,
            offset_network: NetworkKind::Mdp,
            edge_network: NetworkKind::Mdp,
            dataflow_network: NetworkKind::Mdp,
            dataflow_buffer_per_channel: 160,
            staging_capacity: 8,
            radix: 2,
            dispatcher_read_ports: 2,
            memory: None,
            arena_capacity: 1024,
            wheel_horizon: higraph_sim::wheel::DEFAULT_WHEEL_HORIZON,
            fault_plan: None,
        }
    }

    /// Table 1 "HiGraph-mini": HiGraph with only 4 front-end channels, for
    /// a front-end-fair comparison against GraphDynS.
    pub fn higraph_mini() -> Self {
        AcceleratorConfig {
            name: "HiGraph-mini".to_string(),
            front_channels: 4,
            ..AcceleratorConfig::higraph()
        }
    }

    /// Table 1 "GraphDynS": the crossbar-based state-of-the-art baseline,
    /// 4 front-end channels (more would sink its frequency — Sec. 5.1),
    /// 32 back-end channels, 128-entry buffers.
    pub fn graphdyns() -> Self {
        AcceleratorConfig {
            name: "GraphDynS".to_string(),
            front_channels: 4,
            back_channels: 32,
            offset_network: NetworkKind::Crossbar,
            edge_network: NetworkKind::Crossbar,
            dataflow_network: NetworkKind::Crossbar,
            dataflow_buffer_per_channel: 128,
            staging_capacity: 8,
            radix: 2,
            dispatcher_read_ports: 2,
            memory: None,
            arena_capacity: 1024,
            wheel_horizon: higraph_sim::wheel::DEFAULT_WHEEL_HORIZON,
            fault_plan: None,
        }
    }

    /// HiGraph geometry with a chosen subset of the paper's optimizations
    /// (the Fig. 10 ablation): un-optimized points fall back to crossbars.
    pub fn higraph_with_opts(opts: OptLevel) -> Self {
        let k = |on: bool| {
            if on {
                NetworkKind::Mdp
            } else {
                NetworkKind::Crossbar
            }
        };
        AcceleratorConfig {
            name: format!("HiGraph[{}]", opts.label()),
            offset_network: k(opts.opt_o),
            edge_network: k(opts.opt_e),
            dataflow_network: k(opts.opt_d),
            ..AcceleratorConfig::higraph()
        }
    }

    /// Scales the design to `channels` front- and back-end channels
    /// (the Fig. 11 scalability sweep).
    pub fn scaled_to(mut self, channels: usize) -> Self {
        self.front_channels = channels;
        self.back_channels = channels;
        self.name = format!("{}x{channels}", self.name);
        self
    }

    /// The clock this design achieves, in GHz: the 1 GHz target capped by
    /// the slowest fabric at its widest interaction point (Fig. 4 model).
    pub fn effective_frequency_ghz(&self) -> f64 {
        let mut worst = [
            (self.offset_network, self.front_channels),
            (
                self.edge_network,
                self.back_channels.max(self.front_channels),
            ),
            (self.dataflow_network, self.back_channels),
        ]
        .into_iter()
        .map(|(kind, ch)| higraph_model::effective_frequency_ghz(kind.model_kind(), ch.max(2)))
        .fold(f64::INFINITY, f64::min);
        // A radix-r MDP stage is itself an r-port interaction point
        // (Sec. 5.4: too-large radices re-introduce design centralization).
        let uses_mdp = [
            self.offset_network,
            self.edge_network,
            self.dataflow_network,
        ]
        .contains(&NetworkKind::Mdp);
        if uses_mdp {
            worst = worst.min(
                higraph_model::mdp_radix_frequency_ghz(self.radix)
                    .min(higraph_model::frequency::TARGET_GHZ),
            );
        }
        worst
    }

    /// Validates the structural requirements of the chosen fabrics.
    ///
    /// # Errors
    ///
    /// Returns a message if channel counts are zero, not powers of two
    /// where MDP-networks require it, or the back-end is not a multiple of
    /// the front-end (needed by the edge dispatchers).
    pub fn validate(&self) -> Result<(), String> {
        if self.front_channels == 0 || self.back_channels == 0 {
            return Err("channel counts must be positive".to_string());
        }
        if !self.front_channels.is_power_of_two() || !self.back_channels.is_power_of_two() {
            return Err("channel counts must be powers of two".to_string());
        }
        if !self.back_channels.is_multiple_of(self.front_channels) {
            return Err(format!(
                "back-end channels {} must be a multiple of front-end channels {}",
                self.back_channels, self.front_channels
            ));
        }
        if self.radix < 2 || !self.radix.is_power_of_two() {
            return Err(format!("radix {} must be a power of two >= 2", self.radix));
        }
        if self.staging_capacity == 0 || self.dataflow_buffer_per_channel == 0 {
            return Err("buffer capacities must be positive".to_string());
        }
        if self.dispatcher_read_ports == 0 {
            return Err("dispatchers need at least one read port".to_string());
        }
        if self.arena_capacity == 0 {
            return Err(format!(
                "arena capacity 0 is invalid for '{}': packet arenas need room for at least \
                 one in-flight packet; valid capacities: 1 ..= usize::MAX (the default is 1024, \
                 and arenas grow on demand, so the capacity only sets the initial allocation)",
                self.name
            ));
        }
        if let Err(reason) = higraph_sim::EventWheel::try_new(1, self.wheel_horizon) {
            return Err(format!(
                "wheel horizon rejected for '{}': {reason}",
                self.name
            ));
        }
        if let Some(memory) = &self.memory {
            memory.validate()?;
        }
        if let Some(faults) = &self.fault_plan {
            faults.validate()?;
        }
        Ok(())
    }

    /// A canonical, stable textual encoding of every *behavioural* field
    /// — everything except the free-form `name` label — for use as a
    /// memoization key: two configurations with the same encoding
    /// produce bit-identical runs on the same graph. Field order is
    /// fixed; extending the struct must extend (never reorder) this
    /// encoding so existing keys stay distinct.
    pub fn canonical_encoding(&self) -> String {
        let net = |k: NetworkKind| match k {
            NetworkKind::Crossbar => "xbar",
            NetworkKind::Mdp => "mdp",
            NetworkKind::NaiveFifo => "fifo",
        };
        let mut s = format!(
            "fc={};bc={};on={};en={};dn={};buf={};stage={};radix={};ports={};arena={};wheel={}",
            self.front_channels,
            self.back_channels,
            net(self.offset_network),
            net(self.edge_network),
            net(self.dataflow_network),
            self.dataflow_buffer_per_channel,
            self.staging_capacity,
            self.radix,
            self.dispatcher_read_ports,
            self.arena_capacity,
            self.wheel_horizon,
        );
        match &self.memory {
            None => s.push_str(";mem=none"),
            Some(m) => {
                s.push_str(&format!(
                    ";mem=ch{}xb{}q{}l{}r{}c{}cas{}rcd{}rp{}",
                    m.channels,
                    m.banks_per_channel,
                    m.queue_depth,
                    m.line_bytes,
                    m.row_bytes,
                    m.cache_kb,
                    m.timing.t_cas,
                    m.timing.t_rcd,
                    m.timing.t_rp,
                ));
            }
        }
        // Appended (never reordered) so pre-fault-plan keys stay valid.
        match &self.fault_plan {
            None => s.push_str(";faults=none"),
            Some(f) => {
                s.push_str(&format!(
                    ";faults=s{}e{}d{}h{}",
                    f.seed, f.events, f.max_duration, f.horizon
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets() {
        let h = AcceleratorConfig::higraph();
        assert_eq!((h.front_channels, h.back_channels), (32, 32));
        let m = AcceleratorConfig::higraph_mini();
        assert_eq!((m.front_channels, m.back_channels), (4, 32));
        let g = AcceleratorConfig::graphdyns();
        assert_eq!((g.front_channels, g.back_channels), (4, 32));
        assert_eq!(g.dataflow_network, NetworkKind::Crossbar);
        for c in [h, m, g] {
            c.validate().expect("presets are valid");
            // Table 1: all three run at 1 GHz
            assert!(
                (c.effective_frequency_ghz() - 1.0).abs() < 1e-9,
                "{}",
                c.name
            );
        }
    }

    #[test]
    fn graphdyns_loses_frequency_at_64_channels() {
        let g = AcceleratorConfig::graphdyns().scaled_to(64);
        assert!(g.effective_frequency_ghz() < 1.0);
        let h = AcceleratorConfig::higraph().scaled_to(256);
        assert_eq!(h.effective_frequency_ghz(), 1.0);
    }

    #[test]
    fn opt_levels_map_to_networks() {
        let b = AcceleratorConfig::higraph_with_opts(OptLevel::BASELINE);
        assert_eq!(b.offset_network, NetworkKind::Crossbar);
        assert_eq!(b.dataflow_network, NetworkKind::Crossbar);
        let oe = AcceleratorConfig::higraph_with_opts(OptLevel::OE);
        assert_eq!(oe.offset_network, NetworkKind::Mdp);
        assert_eq!(oe.edge_network, NetworkKind::Mdp);
        assert_eq!(oe.dataflow_network, NetworkKind::Crossbar);
        assert_eq!(OptLevel::OED.label(), "OPT-O + OPT-E + OPT-D");
    }

    #[test]
    fn memory_defaults_to_infinite_and_validates() {
        assert!(AcceleratorConfig::higraph().memory.is_none());
        let mut c = AcceleratorConfig::higraph();
        c.memory = Some(MemoryConfig::hbm2());
        c.validate().expect("hbm2 preset is valid");
        c.memory = Some(MemoryConfig {
            line_bytes: 48,
            ..MemoryConfig::hbm2()
        });
        assert!(c.validate().is_err());
        // a power-of-two line smaller than one edge would break the
        // per-line stall-guard accounting
        c.memory = Some(MemoryConfig {
            line_bytes: 8,
            ..MemoryConfig::hbm2()
        });
        assert!(c.validate().is_err());
        c.memory = Some(MemoryConfig {
            line_bytes: 16,
            row_bytes: 2048,
            ..MemoryConfig::hbm2()
        });
        assert!(c.validate().is_ok());
        c.memory = Some(MemoryConfig {
            channels: 0,
            ..MemoryConfig::hbm2()
        });
        assert!(c.validate().is_err());
        c.memory = Some(MemoryConfig {
            row_bytes: 96,
            ..MemoryConfig::hbm2()
        });
        assert!(c.validate().is_err());
        c.memory = Some(MemoryConfig::hbm2().with_cache_kb(0));
        assert!(c.validate().is_err());
    }

    #[test]
    fn canonical_encoding_ignores_name_and_tracks_behaviour() {
        let a = AcceleratorConfig::higraph();
        let mut renamed = a.clone();
        renamed.name = "something else".to_string();
        assert_eq!(a.canonical_encoding(), renamed.canonical_encoding());

        assert_ne!(
            a.canonical_encoding(),
            AcceleratorConfig::higraph_mini().canonical_encoding()
        );
        assert_ne!(
            a.canonical_encoding(),
            AcceleratorConfig::graphdyns().canonical_encoding()
        );

        let mut with_mem = a.clone();
        with_mem.memory = Some(MemoryConfig::hbm2());
        assert_ne!(a.canonical_encoding(), with_mem.canonical_encoding());
        let mut bigger_cache = with_mem.clone();
        bigger_cache.memory = Some(MemoryConfig::hbm2().with_cache_kb(512));
        assert_ne!(
            with_mem.canonical_encoding(),
            bigger_cache.canonical_encoding()
        );
    }

    #[test]
    fn fault_plan_encodes_and_validates() {
        let mut c = AcceleratorConfig::higraph();
        assert!(c.fault_plan.is_none());
        assert!(c.canonical_encoding().ends_with(";faults=none"));
        let plan = FaultPlan {
            seed: 11,
            events: 4,
            max_duration: 100,
            horizon: 5000,
        };
        c.fault_plan = Some(plan);
        c.validate().expect("well-formed plan");
        assert!(c.canonical_encoding().ends_with(";faults=s11e4d100h5000"));
        assert_ne!(
            c.canonical_encoding(),
            AcceleratorConfig::higraph().canonical_encoding()
        );
        c.fault_plan = Some(FaultPlan {
            max_duration: 0,
            ..plan
        });
        assert!(c.validate().is_err());
        c.fault_plan = Some(FaultPlan { horizon: 0, ..plan });
        assert!(c.validate().is_err());
        // an empty schedule is trivially valid regardless of bounds
        c.fault_plan = Some(FaultPlan {
            seed: 0,
            events: 0,
            max_duration: 0,
            horizon: 0,
        });
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_geometry() {
        let mut c = AcceleratorConfig::higraph();
        c.front_channels = 12;
        assert!(c.validate().is_err());
        let mut c = AcceleratorConfig::higraph();
        c.front_channels = 64;
        c.back_channels = 32;
        assert!(c.validate().is_err());
        let mut c = AcceleratorConfig::higraph();
        c.radix = 3;
        assert!(c.validate().is_err());
    }
}
