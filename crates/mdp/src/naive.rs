//! The naive nW1R-FIFO solution (Fig. 5 b/c) — kept as a baseline.
//!
//! One FIFO per output channel, with as many write ports as there are
//! input channels. In a single cycle every input whose packet targets
//! output `o` may write into FIFO `o` — but, as the paper observes, a
//! hardware nW1R FIFO "can accept data only when the remaining capacity is
//! not less than n" (it cannot know how many writers will fire), causing a
//! large buffer requirement and low utilization; and the n-ported FIFO
//! itself is a centralization point that does not scale. The cycle model
//! reproduces the capacity rule; the frequency penalty of the wide FIFO is
//! modeled in `higraph-model`.

use higraph_sim::{ClockedComponent, Fifo, Network, NetworkStats, Packet};

/// An `n_in → n_out` network made of per-output nW1R FIFOs.
#[derive(Debug, Clone)]
pub struct NaiveFifoNetwork<T> {
    n_in: usize,
    fifos: Vec<Fifo<T>>,
    /// Free space in each FIFO at the start of the current cycle; writes
    /// this cycle are admitted only if `free_snapshot >= n_in` (the
    /// conservative acceptance rule of a real nW1R FIFO).
    free_snapshot: Vec<usize>,
    stats: NetworkStats,
}

impl<T: Packet> NaiveFifoNetwork<T> {
    /// Creates the network with `capacity` entries per output FIFO.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `capacity` is zero.
    // lint:allow-item(panic-freedom, hot-path-alloc): construction: the documented zero-dimension panic and one-time FIFO allocation happen before any cycle runs
    pub fn new(n_in: usize, n_out: usize, capacity: usize) -> Self {
        assert!(n_in > 0 && n_out > 0, "dimensions must be positive");
        let fifos: Vec<Fifo<T>> = (0..n_out).map(|_| Fifo::new(capacity)).collect();
        let free_snapshot = fifos.iter().map(Fifo::free).collect();
        NaiveFifoNetwork {
            n_in,
            fifos,
            free_snapshot,
            stats: NetworkStats::new(),
        }
    }

    /// Capacity of each output FIFO.
    pub fn capacity(&self) -> usize {
        self.fifos[0].capacity()
    }

    /// The nW1R network never moves packets at a tick (delivery is the
    /// same-cycle push), so it is always safely skippable from the
    /// clock's perspective; acceptance changes only when a consumer pops
    /// (the owner's concern).
    pub fn is_wedged(&self) -> bool {
        true
    }

    /// Bulk-commits `count` deterministic input rejections (a producer
    /// retrying a push the capacity rule keeps refusing).
    pub fn commit_rejected(&mut self, count: u64) {
        self.stats.rejected += count;
    }
}

impl<T: Packet> Network<T> for NaiveFifoNetwork<T> {
    fn num_inputs(&self) -> usize {
        self.n_in
    }

    fn num_outputs(&self) -> usize {
        self.fifos.len()
    }

    fn can_accept(&self, _input: usize, packet: &T) -> bool {
        let d = packet.dest();
        self.free_snapshot[d] >= self.n_in && !self.fifos[d].is_full()
    }

    fn push(&mut self, input: usize, packet: T) -> Result<(), T> {
        if !self.can_accept(input, &packet) {
            self.stats.rejected += 1;
            return Err(packet);
        }
        let d = packet.dest();
        match self.fifos[d].push(packet) {
            Ok(()) => {
                self.stats.accepted += 1;
                Ok(())
            }
            Err(p) => {
                self.stats.rejected += 1;
                Err(p)
            }
        }
    }

    fn peek(&self, output: usize) -> Option<&T> {
        self.fifos[output].peek()
    }

    fn pop(&mut self, output: usize) -> Option<T> {
        let p = self.fifos[output].pop();
        if p.is_some() {
            self.stats.delivered += 1;
        }
        p
    }

    fn stats(&self) -> &NetworkStats {
        &self.stats
    }
}

impl<T: Packet> ClockedComponent for NaiveFifoNetwork<T> {
    fn tick(&mut self) {
        self.stats.cycles += 1;
        for (snap, f) in self.free_snapshot.iter_mut().zip(&self.fifos) {
            *snap = f.free();
        }
    }

    fn in_flight(&self) -> usize {
        self.fifos.iter().map(Fifo::len).sum()
    }

    /// Idle ticks only advance the cycle counter and refresh the
    /// free-space snapshot (a fixpoint when no pushes or pops happen).
    fn skip(&mut self, cycles: u64) {
        self.stats.cycles += cycles;
        if cycles > 0 {
            for (snap, f) in self.free_snapshot.iter_mut().zip(&self.fifos) {
                *snap = f.free();
            }
        }
    }
}

/// At a drained boundary every FIFO is empty and its free-space
/// snapshot full, as in a fresh network: only the counters outlive it.
impl<T> higraph_sim::Snapshot for NaiveFifoNetwork<T> {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        debug_assert!(
            self.fifos
                .iter()
                .zip(&self.free_snapshot)
                .all(|(f, &free)| f.is_empty() && free == f.capacity()),
            "a snapshot of an undrained nW1R network"
        );
        w.tag(b"NVFF");
        w.usize(self.n_in);
        w.usize(self.fifos.len());
        self.stats.save(w);
    }

    fn load(&mut self, r: &mut higraph_sim::SnapReader<'_>) -> Result<(), higraph_sim::SnapError> {
        r.expect_tag(b"NVFF")?;
        let n_in = r.usize()?;
        let n_out = r.usize()?;
        if n_in != self.n_in || n_out != self.fifos.len() {
            return Err(higraph_sim::SnapError::new(format!(
                "nW1R network shape mismatch: snapshot {n_in}x{n_out}, live {}x{}",
                self.n_in,
                self.fifos.len()
            )));
        }
        self.stats.load(r)
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

    #[test]
    fn delivers_same_cycle_zero_latency() {
        let mut n = NaiveFifoNetwork::new(4, 4, 16);
        n.push(0, P(3)).unwrap();
        assert_eq!(n.pop(3).map(|p| p.0), Some(3));
    }

    #[test]
    fn conservative_capacity_rule() {
        // 4 writers, capacity 18: admits only while free_snapshot >= 4, so
        // acceptance stops at 16 entries and the last 2 slots are wasted —
        // the paper's "large requirement and low utilization of buffer
        // capacity".
        let mut n = NaiveFifoNetwork::new(4, 2, 18);
        let mut accepted = 0;
        for _ in 0..6 {
            for i in 0..4 {
                if n.push(i, P(0)).is_ok() {
                    accepted += 1;
                }
            }
            n.tick();
        }
        assert_eq!(accepted, 16);
        assert!(n.stats().rejected > 0);
        assert!(n.in_flight() < 18, "last free(n-1) slots must stay unused");
    }

    #[test]
    fn low_utilization_versus_plain_fifo() {
        // with n_in = 8 and capacity 8, nothing can ever be admitted once
        // a single entry is queued (free 7 < 8) — the paper's "large buffer
        // requirement" pathology in its extreme form.
        let mut n = NaiveFifoNetwork::new(8, 1, 8);
        assert!(n.push(0, P(0)).is_ok());
        n.tick();
        assert!(n.push(1, P(0)).is_err());
    }

    #[test]
    fn multiple_writers_same_cycle() {
        let mut n = NaiveFifoNetwork::new(4, 1, 32);
        for i in 0..4 {
            n.push(i, P(0)).unwrap();
        }
        assert_eq!(n.in_flight(), 4);
    }
}
