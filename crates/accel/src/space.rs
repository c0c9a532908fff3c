//! The `repro dse` design space: a discrete genome over
//! [`AcceleratorConfig`], with seeded sampling, local mutation, and
//! objective assembly against the calibrated cost models.
//!
//! A candidate design is a [`Genome`] — one index per [`Axis`] into that
//! axis's value list. [`DesignSpace::build`] maps a genome to a validated
//! [`DesignPoint`] (an [`AcceleratorConfig`] plus a chip count),
//! deterministically repairing the one cross-axis constraint (front-end
//! channels never exceed back-end channels). [`DesignPoint::objectives`]
//! turns a simulated cycle count into the minimize-all
//! [`Objectives`] tuple the Pareto front
//! compares: time at the design's effective clock, silicon area, and run
//! energy, each assembled from `higraph-model`'s calibrated area, power
//! and frequency models (see `docs/model.md` and `docs/dse.md`).
//!
//! Everything is deterministic: sampling and mutation draw only from the
//! caller's seeded [`StdRng`], and building a genome never consults one.

use crate::config::{AcceleratorConfig, MemoryConfig, NetworkKind};
use crate::sharded::ShardConfig;
use higraph_model::{
    cache_area_mm2, cache_power_mw, energy_nj, fabric_area_mm2, fabric_power_mw, Objectives,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Number of genome axes.
pub const AXES: usize = 10;

/// One tunable dimension of the design space.
///
/// Every axis takes values from a small fixed list ([`Axis::values`]);
/// a genome stores the *index* into that list. All axes except
/// [`Axis::Fabric`] are ordered (their values are monotone sizes), which
/// is what lets [`DesignSpace::mutate`] take ±1 hill-climbing steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Front-end channel count `n`.
    FrontChannels,
    /// Back-end channel count `m`.
    BackChannels,
    /// Fabric assignment for the three interaction points (categorical):
    /// `0` = MDP everywhere (HiGraph), `1` = crossbar everywhere
    /// (GraphDynS-style), `2` = MDP front/edge with the naive nW1R FIFO
    /// at the dataflow point (Fig. 5 b/c ablation).
    Fabric,
    /// Dataflow-fabric buffer entries per channel (Fig. 12 x-axis).
    DataflowBuffer,
    /// Staging-queue capacity between pipeline stages.
    Staging,
    /// MDP-network radix (Sec. 5.4 design option).
    Radix,
    /// On-chip edge/offset cache in KiB; `0` selects *no* memory model
    /// (infinite bandwidth), in which case the two DRAM axes are inert.
    CacheKb,
    /// HBM channel count (only when a memory model is selected).
    DramChannels,
    /// DRAM banks per channel (only when a memory model is selected).
    DramBanks,
    /// Chip count `P`; values above 1 shard the graph across chips.
    Chips,
}

impl Axis {
    /// Every axis, in genome order (`axis as usize` is its slot).
    pub const ALL: [Axis; AXES] = [
        Axis::FrontChannels,
        Axis::BackChannels,
        Axis::Fabric,
        Axis::DataflowBuffer,
        Axis::Staging,
        Axis::Radix,
        Axis::CacheKb,
        Axis::DramChannels,
        Axis::DramBanks,
        Axis::Chips,
    ];

    /// The value list this axis draws from (genomes store indices into
    /// it). For [`Axis::Fabric`] the values are the categorical codes
    /// documented on the variant.
    pub fn values(self) -> &'static [usize] {
        match self {
            Axis::FrontChannels => &[4, 8, 16, 32],
            Axis::BackChannels => &[16, 32, 64, 128],
            Axis::Fabric => &[0, 1, 2],
            Axis::DataflowBuffer => &[40, 80, 128, 160, 240, 320],
            Axis::Staging => &[4, 8, 16],
            Axis::Radix => &[2, 4, 8],
            Axis::CacheKb => &[0, 64, 256, 1024],
            Axis::DramChannels => &[2, 4, 8],
            Axis::DramBanks => &[4, 8, 16],
            Axis::Chips => &[1, 2, 4],
        }
    }

    /// Whether the values form a monotone scale (±1 steps are local
    /// moves). Only the fabric assignment is categorical.
    pub fn is_ordered(self) -> bool {
        !matches!(self, Axis::Fabric)
    }
}

/// A candidate design as one value-index per [`Axis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Genome(pub [usize; AXES]);

impl Genome {
    /// The stored index for `axis`.
    pub fn index(&self, axis: Axis) -> usize {
        self.0[axis as usize]
    }

    /// The dereferenced value for `axis`.
    pub fn value(&self, axis: Axis) -> usize {
        axis.values()[self.index(axis)]
    }

    /// This genome with `axis` set to the value-list index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the axis.
    pub fn with(mut self, axis: Axis, index: usize) -> Genome {
        // lint:allow(panic-freedom): documented panic: Genome::with rejects an out-of-range axis index
        assert!(
            index < axis.values().len(),
            "index out of range for {axis:?}"
        );
        self.0[axis as usize] = index;
        self
    }
}

/// A buildable design: a validated configuration plus a chip count.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The per-chip accelerator configuration.
    pub config: AcceleratorConfig,
    /// Number of chips the run is sharded across.
    pub chips: usize,
    /// The genome this point was built from.
    pub genome: Genome,
}

impl DesignPoint {
    /// The shard geometry for multi-chip points (`None` when `chips` is
    /// 1, meaning a plain single-[`Engine`](crate::engine::Engine) run).
    pub fn shard_config(&self) -> Option<ShardConfig> {
        (self.chips > 1).then(|| ShardConfig::new(self.chips))
    }

    /// Total modeled silicon area in mm²: the three interaction fabrics
    /// plus the on-chip cache, multiplied by the chip count.
    pub fn area_mm2(&self) -> f64 {
        let c = &self.config;
        let fabrics = fabric_area_mm2(
            c.offset_network.model_kind(),
            c.front_channels,
            c.staging_capacity,
        ) + fabric_area_mm2(
            c.edge_network.model_kind(),
            c.back_channels.max(c.front_channels),
            c.staging_capacity,
        ) + fabric_area_mm2(
            c.dataflow_network.model_kind(),
            c.back_channels,
            c.dataflow_buffer_per_channel,
        );
        let cache = c.memory.map_or(0.0, |m| cache_area_mm2(m.cache_kb));
        (fabrics + cache) * self.chips as f64
    }

    /// Total modeled power in mW, assembled like [`Self::area_mm2`].
    pub fn power_mw(&self) -> f64 {
        let c = &self.config;
        let fabrics = fabric_power_mw(
            c.offset_network.model_kind(),
            c.front_channels,
            c.staging_capacity,
        ) + fabric_power_mw(
            c.edge_network.model_kind(),
            c.back_channels.max(c.front_channels),
            c.staging_capacity,
        ) + fabric_power_mw(
            c.dataflow_network.model_kind(),
            c.back_channels,
            c.dataflow_buffer_per_channel,
        );
        let cache = c.memory.map_or(0.0, |m| cache_power_mw(m.cache_kb));
        (fabrics + cache) * self.chips as f64
    }

    /// The minimize-all objective tuple for a run that took `cycles`
    /// simulated cycles: time at the design's effective clock, area, and
    /// energy (power × time).
    pub fn objectives(&self, cycles: u64) -> Objectives {
        let ghz = self.config.effective_frequency_ghz();
        let time_ns = cycles as f64 / ghz;
        Objectives {
            cycles,
            time_ns,
            area_mm2: self.area_mm2(),
            energy_mj: energy_nj(self.power_mw(), time_ns) / 1e6,
        }
    }
}

/// Seeded sampling, mutation and construction over the genome lattice.
///
/// All functions are associated (the space itself is static data on
/// [`Axis`]); randomness comes only from the caller's [`StdRng`], so the
/// whole DSE is reproducible from one seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesignSpace;

impl DesignSpace {
    /// Number of points in the lattice (before constraint repair folds a
    /// few onto each other).
    pub fn size() -> usize {
        Axis::ALL.iter().map(|a| a.values().len()).product()
    }

    /// Draws a uniform genome.
    pub fn sample(rng: &mut StdRng) -> Genome {
        let mut g = [0usize; AXES];
        for axis in Axis::ALL {
            g[axis as usize] = rng.gen_range(0..axis.values().len());
        }
        Genome(g)
    }

    /// One local move: picks an axis, then steps its index ±1 (ordered
    /// axes, reflecting at the ends) or re-draws a different category
    /// (the fabric axis). The result always differs from `genome` in
    /// exactly one slot.
    pub fn mutate(genome: &Genome, rng: &mut StdRng) -> Genome {
        let axis = Axis::ALL[rng.gen_range(0..AXES)];
        let len = axis.values().len();
        let idx = genome.index(axis);
        let new = if axis.is_ordered() {
            if idx == 0 {
                1
            } else if idx == len - 1 {
                len - 2
            } else if rng.gen_bool(0.5) {
                idx + 1
            } else {
                idx - 1
            }
        } else {
            (idx + 1 + rng.gen_range(0..len - 1)) % len
        };
        genome.with(axis, new)
    }

    /// Builds the genome into a validated [`DesignPoint`].
    ///
    /// The one cross-axis constraint — back-end channels must be a
    /// multiple of front-end channels — is repaired deterministically by
    /// clamping the front-end to the back-end width (both are powers of
    /// two, so clamped-front always divides back). Distinct genomes can
    /// therefore build the same configuration; the Pareto front's
    /// weak-dominance rejection keeps such duplicates off the front.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorConfig::validate`]'s message if the composed
    /// configuration is structurally invalid (no lattice point should
    /// be, which `space::tests` sweeps).
    pub fn build(genome: &Genome) -> Result<DesignPoint, String> {
        let back = genome.value(Axis::BackChannels);
        let front = genome.value(Axis::FrontChannels).min(back);
        let (offset_network, edge_network, dataflow_network) = match genome.value(Axis::Fabric) {
            0 => (NetworkKind::Mdp, NetworkKind::Mdp, NetworkKind::Mdp),
            1 => (
                NetworkKind::Crossbar,
                NetworkKind::Crossbar,
                NetworkKind::Crossbar,
            ),
            2 => (NetworkKind::Mdp, NetworkKind::Mdp, NetworkKind::NaiveFifo),
            code => return Err(format!("unknown fabric code {code}")),
        };
        let cache_kb = genome.value(Axis::CacheKb);
        let memory = (cache_kb > 0).then(|| MemoryConfig {
            channels: genome.value(Axis::DramChannels),
            banks_per_channel: genome.value(Axis::DramBanks),
            cache_kb,
            ..MemoryConfig::hbm2()
        });
        let chips = genome.value(Axis::Chips);
        let fabric_tag = match genome.value(Axis::Fabric) {
            0 => "mdp",
            1 => "xbar",
            _ => "fifo",
        };
        let mem_tag = match &memory {
            None => "nomem".to_string(),
            Some(m) => format!("c{}k/d{}x{}", m.cache_kb, m.channels, m.banks_per_channel),
        };
        let config = AcceleratorConfig {
            name: format!(
                "dse[f{front} b{back} {fabric_tag} buf{buf} s{stag} r{radix} {mem_tag} P{chips}]",
                buf = genome.value(Axis::DataflowBuffer),
                stag = genome.value(Axis::Staging),
                radix = genome.value(Axis::Radix),
            ),
            front_channels: front,
            back_channels: back,
            offset_network,
            edge_network,
            dataflow_network,
            dataflow_buffer_per_channel: genome.value(Axis::DataflowBuffer),
            staging_capacity: genome.value(Axis::Staging),
            radix: genome.value(Axis::Radix),
            dispatcher_read_ports: 2,
            memory,
            fault_plan: None,
        };
        config.validate()?;
        if let Some(shard) = (chips > 1).then(|| ShardConfig::new(chips)) {
            shard.validate()?;
        }
        Ok(DesignPoint {
            config,
            chips,
            genome: *genome,
        })
    }

    /// The paper's two Sec. 5.4 synthesis configurations as lattice
    /// points, `(label, genome)`: the HiGraph MDP fabric with 160-entry
    /// buffers, and the FIFO-plus-crossbar baseline fabric with
    /// 128-entry buffers, both at 32 channels and 1 GHz. The DSE gate
    /// asserts these stay on (or within tolerance of) the discovered
    /// front.
    pub fn anchors() -> [(&'static str, Genome); 2] {
        let base = Genome([0; AXES])
            .with(Axis::FrontChannels, 3) // 32
            .with(Axis::BackChannels, 1) // 32
            .with(Axis::Staging, 1) // 8
            .with(Axis::Radix, 0) // 2
            .with(Axis::CacheKb, 0) // no memory model
            .with(Axis::Chips, 0); // single chip
        [
            (
                "MDP-160",
                base.with(Axis::Fabric, 0).with(Axis::DataflowBuffer, 3), // 160
            ),
            (
                "FIFO+Crossbar-128",
                base.with(Axis::Fabric, 1).with(Axis::DataflowBuffer, 2), // 128
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn every_sampled_genome_builds_a_valid_design() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            let g = DesignSpace::sample(&mut rng);
            let p = DesignSpace::build(&g).expect("lattice point must build");
            p.config.validate().expect("built config validates");
            assert!(p.config.back_channels >= p.config.front_channels);
            assert!(p.chips >= 1);
        }
    }

    #[test]
    fn mutation_chains_stay_on_the_lattice() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut g = DesignSpace::sample(&mut rng);
        for _ in 0..300 {
            let next = DesignSpace::mutate(&g, &mut rng);
            let differing = (0..AXES).filter(|&i| g.0[i] != next.0[i]).count();
            assert_eq!(differing, 1, "mutation changes exactly one slot");
            DesignSpace::build(&next).expect("mutants build");
            g = next;
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32)
                .map(|_| DesignSpace::sample(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn front_end_is_clamped_to_the_back_end() {
        // front index 3 = 32 channels, back index 0 = 16 channels
        let g = Genome([0; AXES])
            .with(Axis::FrontChannels, 3)
            .with(Axis::BackChannels, 0);
        let p = DesignSpace::build(&g).unwrap();
        assert_eq!(p.config.front_channels, 16);
        assert_eq!(p.config.back_channels, 16);
    }

    #[test]
    fn cache_axis_zero_disables_the_memory_model() {
        let g = Genome([0; AXES]).with(Axis::CacheKb, 0);
        assert!(DesignSpace::build(&g).unwrap().config.memory.is_none());
        let g = g.with(Axis::CacheKb, 2).with(Axis::DramChannels, 1);
        let m = DesignSpace::build(&g).unwrap().config.memory.unwrap();
        assert_eq!(m.cache_kb, 256);
        assert_eq!(m.channels, 4);
    }

    #[test]
    fn anchors_build_to_the_paper_synthesis_points() {
        let [(mdp_label, mdp_g), (xbar_label, xbar_g)] = DesignSpace::anchors();
        let mdp = DesignSpace::build(&mdp_g).unwrap();
        let xbar = DesignSpace::build(&xbar_g).unwrap();
        assert_eq!(mdp_label, "MDP-160");
        assert_eq!(xbar_label, "FIFO+Crossbar-128");
        assert_eq!(mdp.config.dataflow_network, NetworkKind::Mdp);
        assert_eq!(mdp.config.dataflow_buffer_per_channel, 160);
        assert_eq!(xbar.config.dataflow_network, NetworkKind::Crossbar);
        assert_eq!(xbar.config.dataflow_buffer_per_channel, 128);
        // Table 1 / Sec. 5.3: both synthesis points hold the 1 GHz target
        assert_eq!(mdp.config.effective_frequency_ghz(), 1.0);
        assert_eq!(xbar.config.effective_frequency_ghz(), 1.0);
        // Sec. 5.4's trade, through the whole assembly: the MDP fabric
        // pays area and power over FIFO+crossbar at equal geometry
        assert!(mdp.area_mm2() > xbar.area_mm2());
        assert!(mdp.power_mw() > xbar.power_mw());
        // and the dataflow-fabric term alone reproduces the paper numbers
        let df = higraph_model::mdp_area_mm2(32, 160);
        assert!((df - 0.375).abs() < 1e-4);
    }

    #[test]
    fn objectives_scale_with_cycles_and_chips() {
        let [(_, mdp_g), _] = DesignSpace::anchors();
        let single = DesignSpace::build(&mdp_g).unwrap();
        let o1 = single.objectives(1_000);
        let o2 = single.objectives(2_000);
        assert!(o1.is_finite() && o2.is_finite());
        // 1 GHz clock: time in ns equals cycles
        assert!((o1.time_ns - 1_000.0).abs() < 1e-9);
        assert!((o2.time_ns - 2.0 * o1.time_ns).abs() < 1e-9);
        assert_eq!(o1.area_mm2, o2.area_mm2);
        assert!((o2.energy_mj - 2.0 * o1.energy_mj).abs() < 1e-12);

        let quad = DesignSpace::build(&mdp_g.with(Axis::Chips, 2)).unwrap();
        assert_eq!(quad.chips, 4);
        assert!(quad.shard_config().is_some());
        assert!((quad.area_mm2() - 4.0 * single.area_mm2()).abs() < 1e-9);
    }

    #[test]
    fn lattice_size_is_in_the_advertised_range() {
        let n = DesignSpace::size();
        assert_eq!(n, 279_936, "docs/dse.md quotes the lattice size");
    }
}
