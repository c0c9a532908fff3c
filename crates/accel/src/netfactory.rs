//! Runtime-selectable propagation fabrics and the validated factory that
//! builds them.
//!
//! [`AnyNetwork`] wraps the three interchangeable fabrics behind one type
//! so the engine can swap them per configuration (the paper's ablations
//! and the Fig. 12 comparison) without generics at every call site.
//!
//! [`NetworkFactory`] is the single construction path: it validates an
//! [`AcceleratorConfig`] once (channel geometry, radix, buffer budgets,
//! bank divisibility) and then hands out any fabric of the accelerator —
//! offset routing, edge access, dataflow propagation — infallibly. The
//! engine, the pipeline stages and the tests all build their networks
//! through it, so an invalid geometry is rejected in exactly one place
//! instead of panicking somewhere inside a constructor.

use crate::cache::MemorySubsystem;
use crate::config::{AcceleratorConfig, NetworkKind};
use crate::edge_access::EdgeAccess;
use higraph_mdp::{MdpNetwork, NaiveFifoNetwork, Topology};
use higraph_sim::{ClockedComponent, CrossbarNetwork, Network, NetworkStats, Packet};

/// A crossbar, MDP-network, or naive nW1R-FIFO fabric.
#[derive(Debug, Clone)]
pub enum AnyNetwork<T> {
    /// Input-queued crossbar.
    Crossbar(CrossbarNetwork<T>),
    /// MDP-network.
    Mdp(MdpNetwork<T>),
    /// Per-output nW1R FIFO.
    Naive(NaiveFifoNetwork<T>),
}

impl<T: Packet> AnyNetwork<T> {
    /// Builds a square `channels × channels` fabric of the given kind with
    /// a total buffer budget of `buffer_per_channel` entries per channel
    /// and the given MDP radix.
    ///
    /// # Errors
    ///
    /// Returns a message if `channels` is not a valid size for the chosen
    /// kind (the MDP-network needs a power-of-two channel count reachable
    /// by the radix).
    pub fn try_build(
        kind: NetworkKind,
        channels: usize,
        buffer_per_channel: usize,
        radix: usize,
    ) -> Result<Self, String> {
        Ok(match kind {
            NetworkKind::Crossbar => AnyNetwork::Crossbar(CrossbarNetwork::new(
                channels,
                channels,
                buffer_per_channel.max(1),
            )),
            NetworkKind::Mdp => {
                let topo = Topology::new_mixed(channels, radix).map_err(|e| e.to_string())?;
                AnyNetwork::Mdp(MdpNetwork::with_channel_budget(topo, buffer_per_channel))
            }
            NetworkKind::NaiveFifo => AnyNetwork::Naive(NaiveFifoNetwork::new(
                channels,
                channels,
                buffer_per_channel.max(1),
            )),
        })
    }

    /// Whether the next tick can move nothing inside the fabric — the
    /// wedge half of the fast-forward contract (output consumption and
    /// input offers are the owner's side). See the concrete fabrics'
    /// `is_wedged` docs.
    pub fn is_wedged(&self) -> bool {
        match self {
            AnyNetwork::Crossbar(n) => n.is_wedged(),
            AnyNetwork::Mdp(n) => n.is_wedged(),
            AnyNetwork::Naive(n) => n.is_wedged(),
        }
    }

    /// Bulk-commits `count` deterministic input rejections.
    pub fn commit_rejected(&mut self, count: u64) {
        match self {
            AnyNetwork::Crossbar(n) => n.commit_rejected(count),
            AnyNetwork::Mdp(n) => n.commit_rejected(count),
            AnyNetwork::Naive(n) => n.commit_rejected(count),
        }
    }

    /// Builds like [`AnyNetwork::try_build`].
    ///
    /// # Panics
    ///
    /// Panics on invalid shapes; use [`NetworkFactory`] (which validates
    /// up front) or [`AnyNetwork::try_build`] in fallible contexts.
    pub fn build(
        kind: NetworkKind,
        channels: usize,
        buffer_per_channel: usize,
        radix: usize,
    ) -> Self {
        AnyNetwork::try_build(kind, channels, buffer_per_channel, radix)
            // lint:allow(panic-freedom): documented panicking convenience; try_build is the fallible path
            .expect("invalid fabric shape")
    }
}

impl<T: Packet> Network<T> for AnyNetwork<T> {
    fn num_inputs(&self) -> usize {
        match self {
            AnyNetwork::Crossbar(n) => n.num_inputs(),
            AnyNetwork::Mdp(n) => n.num_inputs(),
            AnyNetwork::Naive(n) => n.num_inputs(),
        }
    }

    fn num_outputs(&self) -> usize {
        match self {
            AnyNetwork::Crossbar(n) => n.num_outputs(),
            AnyNetwork::Mdp(n) => n.num_outputs(),
            AnyNetwork::Naive(n) => n.num_outputs(),
        }
    }

    fn can_accept(&self, input: usize, packet: &T) -> bool {
        match self {
            AnyNetwork::Crossbar(n) => n.can_accept(input, packet),
            AnyNetwork::Mdp(n) => n.can_accept(input, packet),
            AnyNetwork::Naive(n) => n.can_accept(input, packet),
        }
    }

    fn push(&mut self, input: usize, packet: T) -> Result<(), T> {
        match self {
            AnyNetwork::Crossbar(n) => n.push(input, packet),
            AnyNetwork::Mdp(n) => n.push(input, packet),
            AnyNetwork::Naive(n) => n.push(input, packet),
        }
    }

    fn peek(&self, output: usize) -> Option<&T> {
        match self {
            AnyNetwork::Crossbar(n) => n.peek(output),
            AnyNetwork::Mdp(n) => n.peek(output),
            AnyNetwork::Naive(n) => n.peek(output),
        }
    }

    fn pop(&mut self, output: usize) -> Option<T> {
        match self {
            AnyNetwork::Crossbar(n) => n.pop(output),
            AnyNetwork::Mdp(n) => n.pop(output),
            AnyNetwork::Naive(n) => n.pop(output),
        }
    }

    fn stats(&self) -> &NetworkStats {
        match self {
            AnyNetwork::Crossbar(n) => n.stats(),
            AnyNetwork::Mdp(n) => n.stats(),
            AnyNetwork::Naive(n) => n.stats(),
        }
    }
}

impl<T: Packet> ClockedComponent for AnyNetwork<T> {
    fn tick(&mut self) {
        match self {
            AnyNetwork::Crossbar(n) => n.tick(),
            AnyNetwork::Mdp(n) => n.tick(),
            AnyNetwork::Naive(n) => n.tick(),
        }
    }

    fn in_flight(&self) -> usize {
        match self {
            AnyNetwork::Crossbar(n) => n.in_flight(),
            AnyNetwork::Mdp(n) => n.in_flight(),
            AnyNetwork::Naive(n) => n.in_flight(),
        }
    }

    fn network_stats(&self) -> Option<NetworkStats> {
        Some(*self.stats())
    }

    fn next_activity(&self) -> Option<u64> {
        match self {
            AnyNetwork::Crossbar(n) => n.next_activity(),
            AnyNetwork::Mdp(n) => n.next_activity(),
            AnyNetwork::Naive(n) => n.next_activity(),
        }
    }

    fn skip(&mut self, cycles: u64) {
        match self {
            AnyNetwork::Crossbar(n) => n.skip(cycles),
            AnyNetwork::Mdp(n) => n.skip(cycles),
            AnyNetwork::Naive(n) => n.skip(cycles),
        }
    }
}

/// Validated builder for every fabric of one accelerator configuration.
///
/// Construction runs all structural checks; afterwards the builder
/// methods cannot fail.
#[derive(Debug, Clone)]
pub struct NetworkFactory {
    config: AcceleratorConfig,
}

impl NetworkFactory {
    /// Validates `config` and captures it for fabric construction.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure: the basic geometry checks of
    /// [`AcceleratorConfig::validate`] plus the fabric-specific shape
    /// requirements (MDP topology reachability for each interaction point
    /// that uses an MDP-network).
    pub fn new(config: &AcceleratorConfig) -> Result<Self, String> {
        config.validate()?;
        // Prove each MDP interaction point can actually build its
        // topology, so the infallible builders below cannot panic.
        if config.offset_network == NetworkKind::Mdp {
            Topology::new_mixed(config.front_channels, config.radix)
                .map_err(|e| format!("offset network: {e}"))?;
        }
        if config.edge_network == NetworkKind::Mdp {
            // Bank divisibility (m a multiple of n) is already part of
            // `AcceleratorConfig::validate`; only the topology shape is
            // fabric-specific.
            Topology::new_mixed(config.front_channels, config.radix)
                .map_err(|e| format!("edge network: {e}"))?;
        }
        if config.dataflow_network == NetworkKind::Mdp {
            Topology::new_mixed(config.back_channels, config.radix)
                .map_err(|e| format!("dataflow network: {e}"))?;
        }
        Ok(NetworkFactory {
            config: config.clone(),
        })
    }

    /// The validated configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The front-end offset-routing fabric (`n × n`).
    pub fn offset_fabric<T: Packet>(&self) -> AnyNetwork<T> {
        let c = &self.config;
        AnyNetwork::try_build(
            c.offset_network,
            c.front_channels,
            c.staging_capacity.max(4),
            c.radix,
        )
        // lint:allow(panic-freedom): infallible: NetworkFactory::try_new already validated this fabric shape
        .expect("validated at factory construction")
    }

    /// The back-end dataflow-propagation fabric (`m × m`).
    pub fn dataflow_fabric<T: Packet>(&self) -> AnyNetwork<T> {
        let c = &self.config;
        AnyNetwork::try_build(
            c.dataflow_network,
            c.back_channels,
            c.dataflow_buffer_per_channel,
            c.radix,
        )
        // lint:allow(panic-freedom): infallible: NetworkFactory::try_new already validated this fabric shape
        .expect("validated at factory construction")
    }

    /// The Edge Array access unit (`n` channels over `m` banks).
    pub fn edge_access<P: Copy>(&self) -> EdgeAccess<P> {
        let c = &self.config;
        match c.edge_network {
            NetworkKind::Mdp => EdgeAccess::new_mdp(
                c.front_channels,
                c.back_channels,
                c.staging_capacity.max(4),
                c.radix,
                c.dispatcher_read_ports,
            ),
            _ => {
                EdgeAccess::new_direct(c.front_channels, c.back_channels, c.staging_capacity.max(4))
            }
        }
    }

    /// The off-chip memory subsystem (cache → DRAM channels); the
    /// infinite-bandwidth stub when the configuration models no memory.
    pub fn memory_subsystem(&self) -> MemorySubsystem {
        match &self.config.memory {
            Some(memory) => MemorySubsystem::modeled(memory, self.config.front_channels),
            None => MemorySubsystem::infinite(),
        }
    }
}

impl<T: higraph_sim::SnapValue> higraph_sim::Snapshot for AnyNetwork<T> {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        w.tag(b"ANET");
        match self {
            AnyNetwork::Crossbar(n) => {
                w.u8(0);
                n.save(w);
            }
            AnyNetwork::Mdp(n) => {
                w.u8(1);
                n.save(w);
            }
            AnyNetwork::Naive(n) => {
                w.u8(2);
                n.save(w);
            }
        }
    }

    fn load(&mut self, r: &mut higraph_sim::SnapReader<'_>) -> Result<(), higraph_sim::SnapError> {
        r.expect_tag(b"ANET")?;
        let variant = r.u8()?;
        match (variant, self) {
            (0, AnyNetwork::Crossbar(n)) => n.load(r),
            (1, AnyNetwork::Mdp(n)) => n.load(r),
            (2, AnyNetwork::Naive(n)) => n.load(r),
            (v @ 0..=2, _) => Err(higraph_sim::SnapError::new(format!(
                "fabric variant mismatch: snapshot variant {v} does not match live fabric"
            ))),
            (v, _) => Err(higraph_sim::SnapError::new(format!(
                "unknown fabric variant {v}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy)]
    struct P(usize);
    impl Packet for P {
        fn dest(&self) -> usize {
            self.0
        }
    }

    fn exercise(mut net: AnyNetwork<P>) {
        assert_eq!(net.num_inputs(), 8);
        assert_eq!(net.num_outputs(), 8);
        assert!(net.is_empty());
        net.push(0, P(5)).unwrap();
        for _ in 0..8 {
            net.tick();
        }
        assert_eq!(net.pop(5).map(|p| p.0), Some(5));
        assert!(net.is_empty());
        assert!(net.stats().delivered >= 1);
    }

    #[test]
    fn all_kinds_route_correctly() {
        for kind in [
            NetworkKind::Crossbar,
            NetworkKind::Mdp,
            NetworkKind::NaiveFifo,
        ] {
            exercise(AnyNetwork::build(kind, 8, 16, 2));
        }
    }

    #[test]
    fn mdp_radix_respected() {
        let net: AnyNetwork<P> = AnyNetwork::build(NetworkKind::Mdp, 16, 32, 4);
        match net {
            AnyNetwork::Mdp(m) => assert_eq!(m.topology().radix(), 4),
            _ => panic!("expected MDP"),
        }
    }

    #[test]
    fn try_build_rejects_bad_mdp_shapes() {
        assert!(AnyNetwork::<P>::try_build(NetworkKind::Mdp, 6, 8, 2).is_err());
        assert!(AnyNetwork::<P>::try_build(NetworkKind::Crossbar, 6, 8, 2).is_ok());
    }

    #[test]
    fn factory_validates_once_then_builds_all_fabrics() {
        let factory = NetworkFactory::new(&AcceleratorConfig::higraph()).expect("valid");
        let offset: AnyNetwork<P> = factory.offset_fabric();
        let dataflow: AnyNetwork<P> = factory.dataflow_fabric();
        assert_eq!(offset.num_inputs(), 32);
        assert_eq!(dataflow.num_inputs(), 32);
        let ea: EdgeAccess<u32> = factory.edge_access();
        assert!(ea.is_empty());
    }

    #[test]
    fn factory_rejects_invalid_geometry() {
        let mut cfg = AcceleratorConfig::higraph();
        cfg.front_channels = 3;
        assert!(NetworkFactory::new(&cfg).is_err());
        let mut cfg = AcceleratorConfig::higraph();
        cfg.radix = 6;
        assert!(NetworkFactory::new(&cfg).is_err());
    }

    #[test]
    fn clocked_stats_match_network_stats() {
        let mut net: AnyNetwork<P> = AnyNetwork::build(NetworkKind::Crossbar, 8, 4, 2);
        net.push(0, P(1)).unwrap();
        let unified = ClockedComponent::network_stats(&net).expect("fabrics keep stats");
        assert_eq!(&unified, net.stats());
    }
}
