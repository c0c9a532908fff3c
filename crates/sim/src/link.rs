//! A modeled inter-chip interconnect for sharded multi-chip execution.
//!
//! When a graph is partitioned across several accelerator chips, edge
//! updates whose source vertex lives on one chip and whose destination
//! interval lives on another must cross a board-level link. Unlike the
//! on-chip fabrics, such links are latency- and bandwidth-dominated, so
//! [`InterChipLink`] models exactly those two quantities and nothing
//! else: per-endpoint egress queues of bounded depth, a fixed serialized
//! injection rate per endpoint, and a fixed in-flight latency.
//!
//! The component follows the crate's per-cycle protocol ([`Network`] on
//! top of [`ClockedComponent`]) and is driven by the same
//! [`crate::Scheduler`] that clocks the chip pipelines, so a multi-chip
//! run drains compute and communication on one cycle timeline.
//!
//! # Timing contract
//!
//! A packet pushed during cycle `c` becomes poppable at its destination
//! during cycle `c + 1 + latency` at the earliest, later if the egress
//! queue is backed up behind more than `bandwidth` packets per cycle.
//! With `latency == 0` the link degenerates to the one-stage-per-cycle
//! minimum every component in this crate obeys.

use crate::clock::ClockedComponent;
use crate::fifo::Fifo;
use crate::network::{Network, Packet};
use crate::stats::NetworkStats;
use std::collections::VecDeque;

/// A point-to-point-complete link fabric between `num_chips` endpoints
/// with modeled latency and per-endpoint injection bandwidth.
#[derive(Debug, Clone)]
pub struct InterChipLink<T> {
    /// Per-source egress queues awaiting serialization onto the link.
    egress: Vec<Fifo<T>>,
    /// Packets on the wire: `(deliver_at_cycle, packet)`, ordered by
    /// delivery time (insertion order with a constant latency).
    flight: VecDeque<(u64, T)>,
    /// Arrived packets per destination endpoint.
    ingress: Vec<VecDeque<T>>,
    latency: u64,
    bandwidth: usize,
    now: u64,
    stats: NetworkStats,
}

impl<T: Packet> InterChipLink<T> {
    /// Creates a link fabric between `num_chips` endpoints.
    ///
    /// `latency` is the in-flight cycle count added on top of the
    /// one-cycle stage minimum; `bandwidth` is the number of packets each
    /// endpoint can serialize onto the link per cycle; `egress_capacity`
    /// bounds each endpoint's egress queue (producers stall beyond it).
    ///
    /// # Panics
    ///
    /// Panics if `num_chips`, `bandwidth`, or `egress_capacity` is zero.
    // lint:allow-item(panic-freedom): documented constructor panics; link shapes come from validated MultiChipConfig, checked once before any cycle
    pub fn new(num_chips: usize, latency: u64, bandwidth: usize, egress_capacity: usize) -> Self {
        assert!(num_chips > 0, "a link needs at least one endpoint");
        assert!(bandwidth > 0, "link bandwidth must be positive");
        assert!(egress_capacity > 0, "egress queues need capacity");
        InterChipLink {
            egress: (0..num_chips).map(|_| Fifo::new(egress_capacity)).collect(),
            flight: VecDeque::new(),
            ingress: (0..num_chips).map(|_| VecDeque::new()).collect(),
            latency,
            bandwidth,
            now: 0,
            stats: NetworkStats::new(),
        }
    }

    /// The modeled in-flight latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Packets each endpoint can inject per cycle.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }
}

impl<T: Packet> ClockedComponent for InterChipLink<T> {
    fn tick(&mut self) {
        self.now += 1;
        self.stats.cycles += 1;
        // Serialize up to `bandwidth` packets per endpoint onto the wire.
        for q in &mut self.egress {
            for _ in 0..self.bandwidth {
                match q.pop() {
                    Some(pkt) => self.flight.push_back((self.now + self.latency, pkt)),
                    None => break,
                }
            }
        }
        // Land everything whose flight time has elapsed.
        while let Some(&(deliver_at, _)) = self.flight.front() {
            if deliver_at > self.now {
                break;
            }
            let Some((_, pkt)) = self.flight.pop_front() else {
                break;
            };
            self.ingress[pkt.dest()].push_back(pkt);
        }
    }

    fn in_flight(&self) -> usize {
        self.egress.in_flight()
            + self.flight.len()
            + self.ingress.iter().map(VecDeque::len).sum::<usize>()
    }

    fn network_stats(&self) -> Option<NetworkStats> {
        Some(self.stats)
    }

    /// Arrived packets are poppable now and queued egress serializes at
    /// the next tick; otherwise the earliest on-the-wire delivery bounds
    /// the idle window (`flight` is ordered by delivery time).
    fn next_activity(&self) -> Option<u64> {
        if self.ingress.iter().any(|q| !q.is_empty()) {
            return Some(0);
        }
        if self.egress.iter().any(|q| !q.is_empty()) {
            return Some(0);
        }
        self.flight
            .front()
            .map(|&(deliver_at, _)| deliver_at.saturating_sub(self.now + 1))
    }

    fn skip(&mut self, cycles: u64) {
        debug_assert!(
            self.next_activity().is_none_or(|w| cycles <= w),
            "skip() overran the link's activity window"
        );
        self.now += cycles;
        self.stats.cycles += cycles;
    }
}

impl<T: Packet> Network<T> for InterChipLink<T> {
    fn num_inputs(&self) -> usize {
        self.egress.len()
    }

    fn num_outputs(&self) -> usize {
        self.ingress.len()
    }

    fn can_accept(&self, input: usize, _packet: &T) -> bool {
        !self.egress[input].is_full()
    }

    fn push(&mut self, input: usize, packet: T) -> Result<(), T> {
        match self.egress[input].push(packet) {
            Ok(()) => {
                self.stats.accepted += 1;
                Ok(())
            }
            Err(packet) => {
                self.stats.rejected += 1;
                Err(packet)
            }
        }
    }

    fn peek(&self, output: usize) -> Option<&T> {
        self.ingress[output].front()
    }

    fn pop(&mut self, output: usize) -> Option<T> {
        let pkt = self.ingress[output].pop_front();
        if pkt.is_some() {
            self.stats.delivered += 1;
        }
        pkt
    }

    fn stats(&self) -> &NetworkStats {
        &self.stats
    }
}

impl<T: crate::snapshot::SnapValue> crate::snapshot::Snapshot for InterChipLink<T> {
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        w.tag(b"LINK");
        w.usize(self.egress.len());
        w.u64(self.now);
        self.stats.save(w);
        self.egress[..].save(w);
        self.flight.save(w);
        self.ingress[..].save(w);
    }

    fn load(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        r.expect_tag(b"LINK")?;
        let num_chips = r.usize()?;
        if num_chips != self.egress.len() {
            return Err(crate::snapshot::SnapError::new(format!(
                "link endpoint mismatch: snapshot {num_chips}, live {}",
                self.egress.len()
            )));
        }
        self.now = r.u64()?;
        self.stats.load(r)?;
        self.egress[..].load(r)?;
        self.flight.load(r)?;
        self.ingress[..].load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Scheduler;
    use crate::network::testing::TestPacket;

    fn pkt(dest: usize, tag: u64) -> TestPacket {
        TestPacket { dest, tag }
    }

    #[test]
    fn respects_latency() {
        let mut link: InterChipLink<TestPacket> = InterChipLink::new(2, 3, 1, 4);
        link.push(0, pkt(1, 7)).unwrap();
        // not visible for 1 (stage) + 3 (latency) ticks
        for cycle in 0..4 {
            assert!(link.peek(1).is_none(), "cycle {cycle}");
            link.tick();
        }
        assert_eq!(link.pop(1), Some(pkt(1, 7)));
        assert!(link.is_drained());
    }

    #[test]
    fn zero_latency_is_one_stage() {
        let mut link: InterChipLink<TestPacket> = InterChipLink::new(2, 0, 1, 4);
        link.push(0, pkt(0, 1)).unwrap();
        assert!(link.peek(0).is_none()); // same-cycle visibility forbidden
        link.tick();
        assert_eq!(link.pop(0), Some(pkt(0, 1)));
    }

    #[test]
    fn bandwidth_serializes_bursts() {
        // 4 packets through a bandwidth-2 endpoint: two ticks to inject,
        // so the last packet lands one cycle after the first pair.
        let mut link: InterChipLink<TestPacket> = InterChipLink::new(2, 0, 2, 8);
        for tag in 0..4 {
            link.push(0, pkt(1, tag)).unwrap();
        }
        link.tick();
        assert_eq!(link.ingress[1].len(), 2);
        link.tick();
        assert_eq!(link.ingress[1].len(), 4);
        // delivery preserves per-source FIFO order
        let tags: Vec<u64> = std::iter::from_fn(|| link.pop(1)).map(|p| p.tag).collect();
        assert_eq!(tags, [0, 1, 2, 3]);
    }

    #[test]
    fn full_egress_rejects_and_counts() {
        let mut link: InterChipLink<TestPacket> = InterChipLink::new(2, 0, 1, 2);
        assert!(link.can_accept(0, &pkt(1, 0)));
        link.push(0, pkt(1, 0)).unwrap();
        link.push(0, pkt(1, 1)).unwrap();
        assert!(!link.can_accept(0, &pkt(1, 2)));
        assert_eq!(link.push(0, pkt(1, 2)), Err(pkt(1, 2)));
        assert_eq!(link.stats().accepted, 2);
        assert_eq!(link.stats().rejected, 1);
    }

    #[test]
    fn drains_under_the_scheduler() {
        let mut link: InterChipLink<TestPacket> = InterChipLink::new(4, 5, 2, 16);
        for src in 0..4usize {
            for tag in 0..8 {
                link.push(src, pkt((src + 1) % 4, tag)).unwrap();
            }
        }
        let mut got = 0usize;
        let mut scheduler = Scheduler::new().with_stall_guard(1_000);
        let spent = scheduler
            .drain(&mut link, |link, _| {
                for out in 0..4 {
                    while link.pop(out).is_some() {
                        got += 1;
                    }
                }
            })
            .expect("drains");
        assert_eq!(got, 32);
        // 8 packets per endpoint at bandwidth 2 = 4 injection cycles,
        // plus 5 cycles of flight, plus the delivery stage.
        assert!(spent >= 9, "spent {spent}");
        assert_eq!(link.stats().delivered, 32);
        assert_eq!(link.stats().accepted, 32);
    }

    #[test]
    fn activity_hint_tracks_flight_time() {
        let mut link: InterChipLink<TestPacket> = InterChipLink::new(2, 5, 1, 4);
        assert_eq!(link.next_activity(), None, "empty link is quiescent");
        link.push(0, pkt(1, 3)).unwrap();
        assert_eq!(link.next_activity(), Some(0), "egress serializes next tick");
        link.tick(); // on the wire: lands 5 cycles later
        let window = link.next_activity().expect("packet in flight");
        assert_eq!(window, 4);
        ClockedComponent::skip(&mut link, window);
        link.tick();
        assert_eq!(link.next_activity(), Some(0), "arrived packet is poppable");
        assert_eq!(link.pop(1), Some(pkt(1, 3)));
        assert_eq!(link.stats().cycles, 6);
    }

    #[test]
    fn fast_forward_drain_is_bit_identical() {
        let run = |fast: bool| {
            let mut link: InterChipLink<TestPacket> = InterChipLink::new(3, 9, 1, 8);
            for src in 0..3usize {
                for tag in 0..5 {
                    link.push(src, pkt((src + 1) % 3, tag)).unwrap();
                }
            }
            let mut got = 0usize;
            let mut s = Scheduler::new()
                .with_stall_guard(1_000)
                .with_fast_forward(fast);
            let spent = s
                .drain(&mut link, |link, _| {
                    for out in 0..3 {
                        while link.pop(out).is_some() {
                            got += 1;
                        }
                    }
                })
                .expect("drains");
            (spent, got, *link.stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = InterChipLink::<TestPacket>::new(2, 0, 0, 4);
    }
}
