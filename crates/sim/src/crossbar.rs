//! Input-queued crossbar with head-of-line blocking.
//!
//! This is the "arbitration solution like crossbar \[that\] is prevalently
//! used to deal with interaction of multiple channels" in previous
//! accelerators (Sec. 2.2). Each input has a FIFO; every cycle, each output
//! port independently grants one requesting input (round-robin) and moves
//! that input's head packet to the output register. Inputs that lose
//! arbitration stall — and because only the queue *head* participates,
//! packets behind a blocked head suffer head-of-line blocking even when
//! their own output is idle. This is the datapath-conflict inefficiency the
//! MDP-network removes.
//!
//! Design centralization — the frequency decline of large crossbars
//! (Fig. 4) — is modeled separately in `higraph-model`; at cycle level a
//! crossbar is conflict-limited, not frequency-limited.

use crate::clock::ClockedComponent;
use crate::fifo::Fifo;
use crate::network::{Network, Packet};
use crate::stats::NetworkStats;

/// An `n_in × n_out` input-queued crossbar.
///
/// # Example
///
/// ```
/// use higraph_sim::{ClockedComponent, CrossbarNetwork, Network};
///
/// #[derive(Debug)]
/// struct P(usize);
/// impl higraph_sim::Packet for P {
///     fn dest(&self) -> usize { self.0 }
/// }
///
/// let mut xbar = CrossbarNetwork::new(2, 2, 4);
/// xbar.push(0, P(1)).ok();
/// xbar.tick();
/// assert_eq!(xbar.pop(1).map(|p| p.0), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarNetwork<T> {
    input_queues: Vec<Fifo<T>>,
    /// One-entry output registers, as in a registered crossbar switch.
    outputs: Vec<Option<T>>,
    priority: usize,
    stats: NetworkStats,
    /// Per-output grant scratch, reused every tick (hot path: no
    /// per-cycle allocation).
    granted: Vec<Option<usize>>,
    /// Cached packet count (queues + output registers): `in_flight` is
    /// O(1) and an empty crossbar's tick early-outs. A tick conserves
    /// the count; push/pop maintain it.
    occupancy: usize,
}

impl<T: Packet> CrossbarNetwork<T> {
    /// Creates a crossbar with `n_in` input queues of `queue_capacity`
    /// entries each and `n_out` output registers.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the capacity is zero.
    // lint:allow-item(hot-path-alloc): construction-time: input queues, output registers and grant scratch are allocated once per crossbar
    pub fn new(n_in: usize, n_out: usize, queue_capacity: usize) -> Self {
        // lint:allow(panic-freedom): documented constructor panic; fabric shapes are validated before any crossbar is built
        assert!(
            n_in > 0 && n_out > 0,
            "crossbar dimensions must be positive"
        );
        CrossbarNetwork {
            input_queues: (0..n_in).map(|_| Fifo::new(queue_capacity)).collect(),
            outputs: (0..n_out).map(|_| None).collect(),
            priority: 0,
            stats: NetworkStats::new(),
            granted: vec![None; n_out],
            occupancy: 0,
        }
    }

    /// Capacity of each input queue.
    pub fn queue_capacity(&self) -> usize {
        self.input_queues[0].capacity()
    }

    /// Whether the next tick can grant nothing: every queue head's
    /// output register is still occupied (output draining is the
    /// owner's concern via [`Network::pop`]). The winner's identity
    /// depends on the rotating priority, but *whether* any grant happens
    /// does not, so a wedged tick is pure bookkeeping — committed in
    /// bulk by [`ClockedComponent::skip`]. Vacuously true when empty.
    pub fn is_wedged(&self) -> bool {
        self.input_queues
            .iter()
            .filter_map(Fifo::peek)
            .all(|head| self.outputs[head.dest()].is_some())
    }

    /// Bulk-commits `count` deterministic input rejections (a producer
    /// retrying a push against a full input queue every cycle).
    pub fn commit_rejected(&mut self, count: u64) {
        self.stats.rejected += count;
    }
}

impl<T: Packet> Network<T> for CrossbarNetwork<T> {
    fn num_inputs(&self) -> usize {
        self.input_queues.len()
    }

    fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    fn can_accept(&self, input: usize, _packet: &T) -> bool {
        !self.input_queues[input].is_full()
    }

    fn push(&mut self, input: usize, packet: T) -> Result<(), T> {
        debug_assert!(packet.dest() < self.outputs.len(), "dest out of range");
        match self.input_queues[input].push(packet) {
            Ok(()) => {
                self.stats.accepted += 1;
                self.occupancy += 1;
                Ok(())
            }
            Err(p) => {
                self.stats.rejected += 1;
                Err(p)
            }
        }
    }

    fn peek(&self, output: usize) -> Option<&T> {
        self.outputs[output].as_ref()
    }

    fn pop(&mut self, output: usize) -> Option<T> {
        let p = self.outputs[output].take();
        if p.is_some() {
            self.stats.delivered += 1;
            self.occupancy -= 1;
        }
        p
    }

    fn stats(&self) -> &NetworkStats {
        &self.stats
    }
}

impl<T: Packet> ClockedComponent for CrossbarNetwork<T> {
    fn tick(&mut self) {
        self.stats.cycles += 1;
        let n_in = self.input_queues.len();
        let first = self.priority;
        self.priority = if first + 1 == n_in { 0 } else { first + 1 };
        if self.occupancy == 0 {
            // An empty crossbar's tick only rotates the priority.
            return;
        }

        // Per-output round-robin arbitration over the input queue heads,
        // starting at the rotating priority pointer. A single pointer is
        // shared across outputs, matching a matrix arbiter with global
        // rotation.
        self.granted.iter_mut().for_each(|g| *g = None);
        let (mut heads, mut grants) = (0u64, 0u64);
        for i in (first..n_in).chain(0..first) {
            if let Some(head) = self.input_queues[i].peek() {
                heads += 1;
                let d = head.dest();
                if self.outputs[d].is_none() && self.granted[d].is_none() {
                    self.granted[d] = Some(i);
                    grants += 1;
                }
            }
        }

        // Count head-of-line blocking: a non-empty queue that was not
        // granted this cycle has its head (and everything behind it)
        // stalled. An input has one head and wins at most one grant, so
        // those queues number `heads - grants`.
        self.stats.hol_blocked += heads - grants;

        for (d, g) in self.granted.iter().enumerate() {
            if let Some(i) = g {
                let pkt = self.input_queues[*i]
                    .pop()
                    // lint:allow(panic-freedom): infallible: the arbiter only grants inputs whose queue reported a head this cycle
                    .expect("granted queue has a head");
                debug_assert_eq!(pkt.dest(), d);
                self.outputs[d] = Some(pkt);
            }
        }
    }

    fn in_flight(&self) -> usize {
        debug_assert_eq!(
            self.occupancy,
            self.input_queues.iter().map(Fifo::len).sum::<usize>()
                + self.outputs.iter().filter(|o| o.is_some()).count(),
            "cached occupancy out of sync"
        );
        self.occupancy
    }

    // `next_activity` keeps the default: only the owner (who knows the
    // consumer side) can prove a non-empty crossbar inert, via
    // `CrossbarNetwork::is_wedged`.

    /// An idle tick over an empty *or wedged* crossbar only advances the
    /// cycle counter, the rotating priority, and (when wedged) the
    /// per-queue HoL counts; commit all three in O(1).
    fn skip(&mut self, cycles: u64) {
        debug_assert!(
            cycles == 0 || self.is_wedged(),
            "skip() on a crossbar that can still grant"
        );
        self.stats.cycles += cycles;
        let blocked_queues = self.input_queues.iter().filter(|q| !q.is_empty()).count() as u64;
        self.stats.hol_blocked += cycles * blocked_queues;
        let n_in = self.input_queues.len();
        self.priority = (self.priority + (cycles % n_in as u64) as usize) % n_in;
    }
}

/// At a drained boundary the queues and output registers are empty, so
/// only the counters and the rotating priority outlive it.
impl<T> crate::snapshot::Snapshot for CrossbarNetwork<T> {
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        w.tag(b"XBAR");
        w.usize(self.input_queues.len());
        w.usize(self.outputs.len());
        w.usize(self.priority);
        self.stats.save(w);
    }

    fn load(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        r.expect_tag(b"XBAR")?;
        let n_in = r.usize()?;
        let n_out = r.usize()?;
        if n_in != self.input_queues.len() || n_out != self.outputs.len() {
            return Err(crate::snapshot::SnapError::new(format!(
                "crossbar shape mismatch: snapshot {n_in}x{n_out}, live {}x{}",
                self.input_queues.len(),
                self.outputs.len()
            )));
        }
        let priority = r.usize()?;
        if priority >= n_in {
            return Err(crate::snapshot::SnapError::new(format!(
                "crossbar priority {priority} out of range for {n_in} inputs"
            )));
        }
        self.priority = priority;
        self.stats.load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::testing::TestPacket;

    fn p(dest: usize, tag: u64) -> TestPacket {
        TestPacket { dest, tag }
    }

    #[test]
    fn routes_to_destination() {
        let mut x = CrossbarNetwork::new(2, 4, 4);
        x.push(0, p(3, 1)).unwrap();
        x.tick();
        assert_eq!(x.peek(3).map(|q| q.tag), Some(1));
        assert_eq!(x.pop(3).map(|q| q.tag), Some(1));
        assert!(x.is_empty());
    }

    #[test]
    fn conflicting_inputs_serialize() {
        let mut x = CrossbarNetwork::new(2, 2, 4);
        x.push(0, p(0, 10)).unwrap();
        x.push(1, p(0, 11)).unwrap();
        x.tick();
        // only one can win output 0
        let first = x.pop(0).unwrap();
        x.tick();
        let second = x.pop(0).unwrap();
        assert_ne!(first.tag, second.tag);
        assert!(x.stats().hol_blocked >= 1);
    }

    #[test]
    fn hol_count_is_exact_under_contention() {
        // Three inputs contend for one output that is emptied every
        // cycle: each tick grants one head and blocks the other two.
        let k = 12u64;
        let mut x = CrossbarNetwork::new(3, 1, k as usize);
        for input in 0..3 {
            for tag in 0..k {
                x.push(input, p(0, tag)).unwrap();
            }
        }
        for _ in 0..k {
            x.tick();
            assert!(x.pop(0).is_some());
        }
        assert_eq!(x.stats().hol_blocked, 2 * k);
        // An occupied output register grants nothing: every head blocks.
        x.tick();
        x.tick();
        assert_eq!(x.stats().hol_blocked, 2 * k + 2 + 3);
    }

    #[test]
    fn head_of_line_blocking_blocks_idle_output() {
        let mut x = CrossbarNetwork::new(2, 2, 4);
        // input 0: head wants output 0 (contended), second wants output 1 (idle)
        x.push(0, p(0, 1)).unwrap();
        x.push(0, p(1, 2)).unwrap();
        x.push(1, p(0, 3)).unwrap();
        x.tick();
        // whichever input lost output 0 is fully blocked; if input 0 lost,
        // output 1 stays empty despite a waiting packet for it.
        let out0 = x.pop(0).unwrap();
        if out0.tag == 3 {
            assert!(x.peek(1).is_none(), "HoL should block packet for output 1");
        }
    }

    #[test]
    fn output_register_backpressure() {
        let mut x = CrossbarNetwork::new(1, 1, 2);
        x.push(0, p(0, 1)).unwrap();
        x.tick();
        x.push(0, p(0, 2)).unwrap();
        x.tick(); // output still occupied by tag 1 → tag 2 must wait
        assert_eq!(x.peek(0).map(|q| q.tag), Some(1));
        x.pop(0);
        x.tick();
        assert_eq!(x.pop(0).map(|q| q.tag), Some(2));
    }

    #[test]
    fn full_queue_rejects_and_counts() {
        let mut x = CrossbarNetwork::new(1, 1, 1);
        x.push(0, p(0, 1)).unwrap();
        assert!(x.push(0, p(0, 2)).is_err());
        assert_eq!(x.stats().rejected, 1);
        assert_eq!(x.stats().accepted, 1);
    }

    #[test]
    fn fairness_under_saturation() {
        // two inputs permanently fighting for one output: both must make
        // progress (round-robin, no starvation).
        let mut x = CrossbarNetwork::new(2, 1, 2);
        let mut delivered = [0u32; 2];
        for t in 0..40 {
            let _ = x.push(0, p(0, 0));
            let _ = x.push(1, p(0, 1));
            x.tick();
            if let Some(q) = x.pop(0) {
                delivered[q.tag as usize] += 1;
            }
            let _ = t;
        }
        assert!(delivered[0] >= 15 && delivered[1] >= 15, "{delivered:?}");
    }
}
