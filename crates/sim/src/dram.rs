//! A modeled off-chip memory system: HBM-style channels with per-bank
//! row buffers.
//!
//! The on-chip fabrics in this crate arbitrate *ports*; off-chip memory
//! is dominated by a different mechanism entirely — row-buffer locality
//! inside DRAM banks and the bounded queue in front of each channel.
//! [`MemoryChannel`] models exactly that: a bounded request queue feeding
//! `B` banks, each with one open row, serving one access at a time with
//! hit / miss / conflict latencies derived from tCAS-class timing
//! parameters ([`DramTiming`]). [`DramSystem`] interleaves a flat line
//! address space across `C` such channels.
//!
//! Like [`crate::link::InterChipLink`], the model follows the crate's
//! per-cycle protocol ([`ClockedComponent`]) and is driven by the same
//! [`crate::Scheduler`] that clocks the compute pipelines, so a run
//! drains compute and memory under one clock.
//!
//! # Timing contract
//!
//! A request accepted during cycle `c` starts service at the earliest in
//! cycle `c + 1` (the one-stage-per-cycle minimum every component in
//! this crate obeys), and only once its bank is idle. Service takes
//!
//! * [`DramTiming::hit_cycles`] when the bank's open row matches
//!   (row-buffer **hit**: just the column access, tCAS),
//! * [`DramTiming::miss_cycles`] when the bank has no open row
//!   (row **miss**: activate + column access, tRCD + tCAS),
//! * [`DramTiming::conflict_cycles`] when a different row is open
//!   (row **conflict**: precharge + activate + column access,
//!   tRP + tRCD + tCAS).
//!
//! The completed line is poppable via [`MemoryChannel::pop_ready`] in
//! the cycle after service ends. Requests queue in arrival order; each
//! idle bank may begin at most one request per cycle, and a request only
//! waits on requests ahead of it that target the *same* bank
//! (bank-level parallelism, no reordering within a bank).

use crate::clock::ClockedComponent;
use std::collections::VecDeque;

/// DRAM timing parameters in accelerator clock cycles.
///
/// The three classic latency components; the per-access latencies are
/// derived sums (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramTiming {
    /// Column access latency, tCAS.
    pub t_cas: u64,
    /// Row activation latency, tRCD.
    pub t_rcd: u64,
    /// Precharge latency, tRP.
    pub t_rp: u64,
}

impl Default for DramTiming {
    /// HBM2-class timings at a 1 GHz accelerator clock (~14 ns each).
    fn default() -> Self {
        DramTiming {
            t_cas: 14,
            t_rcd: 14,
            t_rp: 14,
        }
    }
}

impl DramTiming {
    /// Service cycles for a row-buffer hit (tCAS).
    pub fn hit_cycles(&self) -> u64 {
        self.t_cas.max(1)
    }

    /// Service cycles for a row miss on a closed bank (tRCD + tCAS).
    pub fn miss_cycles(&self) -> u64 {
        (self.t_rcd + self.t_cas).max(1)
    }

    /// Service cycles for a row conflict (tRP + tRCD + tCAS).
    pub fn conflict_cycles(&self) -> u64 {
        (self.t_rp + self.t_rcd + self.t_cas).max(1)
    }
}

/// Cumulative counters of a memory channel (or a merged system).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Requests accepted into a channel queue.
    pub accepted: u64,
    /// Requests rejected because the channel queue was full.
    pub rejected: u64,
    /// Lines whose service completed.
    pub completed: u64,
    /// Accesses that hit an open row (tCAS only).
    pub row_hits: u64,
    /// Accesses that opened a closed bank (tRCD + tCAS).
    pub row_misses: u64,
    /// Accesses that evicted a different open row (tRP + tRCD + tCAS).
    pub row_conflicts: u64,
    /// Cycles simulated.
    pub cycles: u64,
}

impl MemoryStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        MemoryStats::default()
    }

    /// Fraction of serviced accesses that hit an open row — the
    /// row-buffer locality figure. 0.0 when nothing was serviced.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Folds `other` into `self` by summing every counter (same contract
    /// as [`crate::NetworkStats::merge`]: `cycles` sums too).
    pub fn merge(&mut self, other: &MemoryStats) {
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.cycles += other.cycles;
    }
}

/// One queued line fetch, pre-decoded to its bank and row.
#[derive(Debug, Clone, Copy)]
struct Request {
    /// Opaque line id handed back on completion.
    line: u64,
    bank: usize,
    row: u64,
}

/// One in-service access at a bank.
#[derive(Debug, Clone, Copy)]
struct Service {
    line: u64,
    done_at: u64,
}

/// One DRAM bank: an open-row register and at most one access in flight.
#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    service: Option<Service>,
}

/// One memory channel: a bounded request queue over `B` row-buffered
/// banks.
#[derive(Debug, Clone)]
pub struct MemoryChannel {
    queue: VecDeque<Request>,
    queue_depth: usize,
    banks: Vec<Bank>,
    ready: VecDeque<u64>,
    now: u64,
    timing: DramTiming,
    stats: MemoryStats,
    /// Per-bank issued-this-cycle scratch, reused every tick (hot path:
    /// no per-cycle allocation).
    issued: Vec<bool>,
    /// Earliest `done_at` across in-service banks (`u64::MAX` when all
    /// banks are idle): ticks before it cannot land anything.
    min_done_at: u64,
    /// Whether the issue scan is provably a no-op: after any full tick
    /// every still-queued request targets a busy bank (the scan is
    /// greedy), so nothing can issue until a completion frees a bank or
    /// a new request is accepted — both clear this flag. Together with
    /// `min_done_at` this makes between-event ticks O(1), which is what
    /// keeps loaded-channel idle windows cheap (`skip` ticks them for
    /// real).
    issue_quiet: bool,
    /// Fault-injection brown-out: while set, the channel accepts and
    /// completes but issues nothing, so queued requests sit until the
    /// window lifts (`docs/robustness.md`).
    paused: bool,
}

impl MemoryChannel {
    /// Creates a channel with `num_banks` banks and a `queue_depth`-entry
    /// request queue.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` or `queue_depth` is zero.
    // lint:allow-item(panic-freedom, hot-path-alloc): construction: documented zero-size panics plus one-time bank/scratch allocation, before any cycle runs
    pub fn new(num_banks: usize, queue_depth: usize, timing: DramTiming) -> Self {
        assert!(num_banks > 0, "a channel needs at least one bank");
        assert!(queue_depth > 0, "request queues need capacity");
        MemoryChannel {
            queue: VecDeque::new(),
            queue_depth,
            banks: vec![Bank::default(); num_banks],
            ready: VecDeque::new(),
            now: 0,
            timing,
            stats: MemoryStats::new(),
            issued: vec![false; num_banks],
            min_done_at: u64::MAX,
            issue_quiet: true,
            paused: false,
        }
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// Sets the brown-out flag: a paused channel still lands in-service
    /// completions (the DRAM core keeps its timing) but issues no new
    /// accesses, so queued requests wait out the window. Finite windows
    /// therefore stall, never lose, traffic.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
        if !paused {
            // Queued work may now issue; the quiet-scan cache is stale.
            self.issue_quiet = false;
        }
    }

    /// Whether the request queue can take one more request.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.queue_depth
    }

    /// Offers a line fetch for `(bank, row)`; `line` is handed back by
    /// [`MemoryChannel::pop_ready`] on completion.
    ///
    /// Returns whether the request was accepted (`false` = queue full,
    /// counted in [`MemoryStats::rejected`]).
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn try_request(&mut self, line: u64, bank: usize, row: u64) -> bool {
        // lint:allow(panic-freedom): documented precondition: bank indices come from the address mapper, which reduces modulo the bank count
        assert!(bank < self.banks.len(), "bank out of range");
        if !self.can_accept() {
            self.stats.rejected += 1;
            return false;
        }
        self.queue.push_back(Request { line, bank, row });
        self.stats.accepted += 1;
        self.issue_quiet = false;
        true
    }

    /// Pops one completed line fetch, if any finished.
    pub fn pop_ready(&mut self) -> Option<u64> {
        self.ready.pop_front()
    }

    /// Whether a rejected request would keep being rejected, identically,
    /// every cycle: the queue is full and no queued request targets an
    /// idle bank (so no queue slot frees by issue) until the channel's
    /// next service completion — which bounds every fast-forward window.
    /// Producers that retry a rejected fetch each cycle can then
    /// bulk-commit their per-cycle rejections
    /// ([`MemoryChannel::commit_rejected`]) instead of being stepped.
    pub fn retry_stable(&self) -> bool {
        !self.can_accept()
            && self
                .queue
                .iter()
                .all(|req| self.banks[req.bank].service.is_some())
    }

    /// Commits `count` deterministic retry rejections at once (the
    /// fast-forward twin of `count` failed [`MemoryChannel::try_request`]
    /// calls under [`MemoryChannel::retry_stable`] conditions).
    pub fn commit_rejected(&mut self, count: u64) {
        self.stats.rejected += count;
    }

    /// Cumulative channel statistics.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }
}

impl ClockedComponent for MemoryChannel {
    fn tick(&mut self) {
        self.now += 1;
        self.stats.cycles += 1;
        // Between events a tick is pure time-keeping: nothing lands
        // before `min_done_at`, and a provably-no-op issue scan stays a
        // no-op until a completion or a new accept clears the flag.
        if self.issue_quiet && self.min_done_at > self.now {
            return;
        }
        // Land accesses whose service time elapsed.
        for bank in &mut self.banks {
            if let Some(s) = bank.service {
                if s.done_at <= self.now {
                    self.ready.push_back(s.line);
                    self.stats.completed += 1;
                    bank.service = None;
                }
            }
        }
        // A browned-out channel lands completions but issues nothing;
        // the quiet-scan cache stays off so un-pausing resumes issue.
        if self.paused {
            self.min_done_at = self
                .banks
                .iter()
                .filter_map(|b| b.service.map(|s| s.done_at))
                .min()
                .unwrap_or(u64::MAX);
            self.issue_quiet = false;
            return;
        }
        // Issue: scan the queue in arrival order; each idle bank begins
        // at most one access per cycle. A request only waits behind
        // older requests to the *same* bank.
        self.issued.iter_mut().for_each(|b| *b = false);
        let mut i = 0;
        while i < self.queue.len() {
            let req = self.queue[i];
            let bank = &mut self.banks[req.bank];
            if bank.service.is_some() || self.issued[req.bank] {
                i += 1;
                continue;
            }
            let latency = match bank.open_row {
                Some(open) if open == req.row => {
                    self.stats.row_hits += 1;
                    self.timing.hit_cycles()
                }
                None => {
                    self.stats.row_misses += 1;
                    self.timing.miss_cycles()
                }
                Some(_) => {
                    self.stats.row_conflicts += 1;
                    self.timing.conflict_cycles()
                }
            };
            bank.open_row = Some(req.row);
            bank.service = Some(Service {
                line: req.line,
                done_at: self.now + latency,
            });
            self.issued[req.bank] = true;
            self.queue.remove(i);
        }
        // Cache the next-event state: everything still queued targets a
        // busy bank (the scan above was greedy), so the next tick that
        // can do anything is the next completion — or a new accept.
        self.min_done_at = self
            .banks
            .iter()
            .filter_map(|b| b.service.map(|s| s.done_at))
            .min()
            .unwrap_or(u64::MAX);
        self.issue_quiet = true;
    }

    fn in_flight(&self) -> usize {
        self.queue.len()
            + self.banks.iter().filter(|b| b.service.is_some()).count()
            + self.ready.len()
    }

    /// Cycles until a line can next land in `ready` — the only externally
    /// observable event a channel produces. Request *issue* is internal
    /// (it changes no consumer-visible state), so a loaded channel still
    /// reports a positive window: in-service accesses complete at their
    /// known `done_at`, and a queued request cannot complete sooner than
    /// an issue next tick plus the fastest (row-hit) service.
    fn next_activity(&self) -> Option<u64> {
        if !self.ready.is_empty() {
            return Some(0);
        }
        let service = self
            .banks
            .iter()
            .filter_map(|b| b.service.map(|s| s.done_at.saturating_sub(self.now + 1)))
            .min();
        let queued = if self.queue.is_empty() {
            None
        } else {
            Some(self.timing.hit_cycles())
        };
        crate::clock::min_activity(service, queued)
    }

    /// With work in motion the window's ticks still issue and serve
    /// accesses, so they run for real (each is O(banks + queue), far
    /// cheaper than a pipeline step); an empty channel's ticks are pure
    /// time-keeping, committed in O(1).
    fn skip(&mut self, cycles: u64) {
        debug_assert!(
            self.next_activity().is_none_or(|w| cycles <= w),
            "skip() overran the channel's activity window"
        );
        if self.queue.is_empty() && self.banks.iter().all(|b| b.service.is_none()) {
            debug_assert!(self.ready.is_empty() || cycles == 0);
            self.now += cycles;
            self.stats.cycles += cycles;
        } else {
            for _ in 0..cycles {
                self.tick();
            }
        }
    }
}

/// A `C`-channel memory system over a flat line address space.
///
/// Line `l` maps to channel `l % C`; within a channel, consecutive lines
/// fill one row (`row_lines` lines per row) before moving to the next
/// bank, so streaming accesses enjoy row-buffer hits while independent
/// streams spread across banks.
#[derive(Debug, Clone)]
pub struct DramSystem {
    channels: Vec<MemoryChannel>,
    row_lines: u64,
}

impl DramSystem {
    /// Creates `num_channels` channels of `num_banks` banks each, with
    /// `row_lines` cache lines per DRAM row.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    // lint:allow-item(panic-freedom, hot-path-alloc): construction: documented zero-size panics plus one-time channel allocation, before any cycle runs
    pub fn new(
        num_channels: usize,
        num_banks: usize,
        queue_depth: usize,
        row_lines: u64,
        timing: DramTiming,
    ) -> Self {
        assert!(num_channels > 0, "need at least one channel");
        assert!(row_lines > 0, "rows must hold at least one line");
        DramSystem {
            channels: (0..num_channels)
                .map(|_| MemoryChannel::new(num_banks, queue_depth, timing))
                .collect(),
            row_lines,
        }
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Browns out (or restores) one channel for fault injection.
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn set_channel_paused(&mut self, channel: usize, paused: bool) {
        // Documented precondition: fault plans are validated against the
        // channel count before injection, so the index is in range.
        self.channels[channel].set_paused(paused);
    }

    /// Decodes a line address to `(channel, bank, row)`.
    fn map(&self, line: u64) -> (usize, usize, u64) {
        let c = self.channels.len() as u64;
        let channel = (line % c) as usize;
        let row = (line / c) / self.row_lines;
        let bank = (row % self.channels[channel].num_banks() as u64) as usize;
        (channel, bank, row)
    }

    /// Offers a fetch of `line`; returns whether the owning channel
    /// accepted it.
    pub fn try_request(&mut self, line: u64) -> bool {
        let (channel, bank, row) = self.map(line);
        self.channels[channel].try_request(line, bank, row)
    }

    /// Whether a rejected fetch of `line` stays rejected every cycle
    /// until its channel's next completion (see
    /// [`MemoryChannel::retry_stable`]).
    pub fn line_retry_stable(&self, line: u64) -> bool {
        let (channel, _, _) = self.map(line);
        self.channels[channel].retry_stable()
    }

    /// Bulk-commits `count` deterministic retry rejections of `line`
    /// against its owning channel.
    pub fn commit_rejected(&mut self, line: u64, count: u64) {
        let (channel, _, _) = self.map(line);
        self.channels[channel].commit_rejected(count);
    }

    /// Pops one completed line from any channel (round-robin-free:
    /// channels are scanned in index order each call).
    pub fn pop_ready(&mut self) -> Option<u64> {
        self.channels.iter_mut().find_map(MemoryChannel::pop_ready)
    }

    /// Statistics merged across all channels.
    pub fn stats(&self) -> MemoryStats {
        let mut all = MemoryStats::new();
        for ch in &self.channels {
            all.merge(ch.stats());
        }
        all
    }
}

/// The system clocks as its bank of channels: its window is the earliest
/// channel's (an O(channels) fold), and a skip is committed to every
/// channel, busy or not (empty channels have no window to overrun).
impl ClockedComponent for DramSystem {
    fn tick(&mut self) {
        self.channels.tick();
    }

    fn in_flight(&self) -> usize {
        self.channels.in_flight()
    }

    fn next_activity(&self) -> Option<u64> {
        self.channels.next_activity()
    }

    fn skip(&mut self, cycles: u64) {
        self.channels.skip(cycles);
    }
}

impl crate::snapshot::Snapshot for MemoryStats {
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        w.tag(b"MSTA");
        w.u64(self.accepted);
        w.u64(self.rejected);
        w.u64(self.completed);
        w.u64(self.row_hits);
        w.u64(self.row_misses);
        w.u64(self.row_conflicts);
        w.u64(self.cycles);
    }

    fn load(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        r.expect_tag(b"MSTA")?;
        self.accepted = r.u64()?;
        self.rejected = r.u64()?;
        self.completed = r.u64()?;
        self.row_hits = r.u64()?;
        self.row_misses = r.u64()?;
        self.row_conflicts = r.u64()?;
        self.cycles = r.u64()?;
        Ok(())
    }
}

/// At a drained boundary the request queue, the banks' services and the
/// ready list are empty (so the cached next-event state is its fresh
/// value too): the clock, the open rows, the brown-out flag and the
/// counters are all that outlive it.
impl crate::snapshot::Snapshot for MemoryChannel {
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        w.tag(b"MCHN");
        w.usize(self.banks.len());
        w.usize(self.queue_depth);
        w.u64(self.now);
        w.bool(self.paused);
        self.stats.save(w);
        for bank in &self.banks {
            w.value(&bank.open_row);
        }
    }

    fn load(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        r.expect_tag(b"MCHN")?;
        let banks = r.usize()?;
        let depth = r.usize()?;
        if banks != self.banks.len() || depth != self.queue_depth {
            return Err(crate::snapshot::SnapError::new(format!(
                "memory channel shape mismatch: snapshot {banks} banks / depth {depth}, \
                 live {} / {}",
                self.banks.len(),
                self.queue_depth
            )));
        }
        self.now = r.u64()?;
        self.paused = r.bool()?;
        self.stats.load(r)?;
        for bank in &mut self.banks {
            bank.open_row = r.value()?;
        }
        Ok(())
    }
}

impl crate::snapshot::Snapshot for DramSystem {
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        w.tag(b"DSYS");
        w.usize(self.channels.len());
        self.channels[..].save(w);
    }

    fn load(
        &mut self,
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<(), crate::snapshot::SnapError> {
        r.expect_tag(b"DSYS")?;
        let channels = r.usize()?;
        if channels != self.channels.len() {
            return Err(crate::snapshot::SnapError::new(format!(
                "channel count mismatch: snapshot {channels}, live {}",
                self.channels.len()
            )));
        }
        self.channels[..].load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Scheduler;

    fn channel(banks: usize, depth: usize) -> MemoryChannel {
        MemoryChannel::new(banks, depth, DramTiming::default())
    }

    /// Drives `ch` until `line` completes; returns the cycles it took.
    fn cycles_to_complete(ch: &mut MemoryChannel) -> u64 {
        let mut got = Vec::new();
        let mut s = Scheduler::new().with_stall_guard(10_000);
        let spent = s
            .drain(ch, |ch, _| {
                while let Some(l) = ch.pop_ready() {
                    got.push(l);
                }
            })
            .expect("drains");
        assert!(!got.is_empty());
        spent
    }

    #[test]
    fn closed_bank_pays_miss_then_open_row_hits() {
        let t = DramTiming::default();
        let mut ch = channel(4, 8);
        assert!(ch.try_request(0, 0, 0));
        let first = cycles_to_complete(&mut ch);
        assert!(first >= t.miss_cycles(), "first access activates: {first}");
        assert_eq!(ch.stats().row_misses, 1);
        // same row again: a hit, strictly faster
        assert!(ch.try_request(1, 0, 0));
        let second = cycles_to_complete(&mut ch);
        assert!(second < first, "hit {second} vs miss {first}");
        assert_eq!(ch.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let t = DramTiming::default();
        let mut ch = channel(2, 8);
        ch.try_request(0, 0, 5);
        cycles_to_complete(&mut ch);
        // different row, same bank: conflict, the slowest access class
        ch.try_request(1, 0, 6);
        let cycles = cycles_to_complete(&mut ch);
        assert!(cycles >= t.conflict_cycles(), "{cycles}");
        assert_eq!(ch.stats().row_conflicts, 1);
        assert!((ch.stats().row_hit_rate() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn bounded_queue_rejects_and_counts() {
        let mut ch = channel(1, 2);
        assert!(ch.try_request(0, 0, 0));
        assert!(ch.try_request(1, 0, 0));
        assert!(!ch.can_accept());
        assert!(!ch.try_request(2, 0, 0));
        assert_eq!(ch.stats().rejected, 1);
        assert_eq!(ch.stats().accepted, 2);
    }

    #[test]
    fn banks_service_in_parallel_same_bank_serializes() {
        // two requests to different banks overlap; two to one bank do not
        let mut par = channel(2, 8);
        par.try_request(0, 0, 0);
        par.try_request(1, 1, 0);
        let overlapped = cycles_to_complete(&mut par);
        let mut ser = channel(2, 8);
        ser.try_request(0, 0, 0);
        ser.try_request(1, 0, 1);
        let serialized = cycles_to_complete(&mut ser);
        assert!(
            overlapped < serialized,
            "parallel {overlapped} vs serial {serialized}"
        );
    }

    #[test]
    fn system_interleaves_lines_across_channels() {
        let mut sys = DramSystem::new(4, 2, 8, 8, DramTiming::default());
        for line in 0..8u64 {
            assert!(sys.try_request(line), "line {line}");
        }
        let mut got = Vec::new();
        let mut s = Scheduler::new().with_stall_guard(10_000);
        s.drain(&mut sys, |sys, _| {
            while let Some(l) = sys.pop_ready() {
                got.push(l);
            }
        })
        .expect("drains");
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        let stats = sys.stats();
        assert_eq!(stats.completed, 8);
        // 2 consecutive lines land in each channel's first row: 1 miss +
        // 1 hit per channel
        assert_eq!(stats.row_misses, 4);
        assert_eq!(stats.row_hits, 4);
        assert!((stats.row_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn streaming_is_row_friendly() {
        // consecutive lines in one channel hit the open row until the
        // row boundary
        let mut sys = DramSystem::new(1, 4, 64, 16, DramTiming::default());
        for line in 0..32u64 {
            assert!(sys.try_request(line));
        }
        let mut s = Scheduler::new().with_stall_guard(100_000);
        s.drain(&mut sys, |sys, _| while sys.pop_ready().is_some() {})
            .expect("drains");
        let stats = sys.stats();
        // 2 rows of 16 lines: 2 activations, 30 hits
        assert_eq!(stats.row_misses + stats.row_conflicts, 2);
        assert_eq!(stats.row_hits, 30);
        assert!(stats.row_hit_rate() > 0.9);
    }

    #[test]
    fn activity_hint_tracks_service_completion() {
        let t = DramTiming::default();
        let mut ch = channel(2, 8);
        assert_eq!(ch.next_activity(), None, "empty channel is quiescent");
        assert!(ch.try_request(0, 0, 0));
        // a queued request is internal motion: the earliest observable
        // completion is an issue next tick plus a row-hit service
        assert_eq!(ch.next_activity(), Some(t.hit_cycles()));
        ch.tick(); // issue: service ends after miss_cycles
        let window = ch.next_activity().expect("service in flight");
        assert_eq!(window, t.miss_cycles() - 1);
        // skipping the window and ticking once must land the line —
        // bit-identical to ticking the whole way
        ClockedComponent::skip(&mut ch, window);
        assert_eq!(ch.next_activity(), Some(0));
        ch.tick();
        assert_eq!(ch.pop_ready(), Some(0));
        assert_eq!(ch.stats().cycles, t.miss_cycles() + 1);
        assert_eq!(ch.stats().completed, 1);
    }

    #[test]
    fn loaded_channel_skip_runs_real_ticks() {
        // skip over a window with queued + in-service work must be
        // bit-identical to ticking: issues happen inside the window
        let t = DramTiming::default();
        let mut a = channel(2, 8);
        let mut b = channel(2, 8);
        for ch in [&mut a, &mut b] {
            ch.try_request(0, 0, 0);
            ch.try_request(1, 1, 0);
            ch.tick(); // both issue
            ch.try_request(2, 0, 0); // queued behind bank 0
        }
        let window = a.next_activity().expect("loaded");
        assert!(window > 0 && window <= t.hit_cycles());
        ClockedComponent::skip(&mut a, window);
        for _ in 0..window {
            b.tick();
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.in_flight(), b.in_flight());
    }

    #[test]
    fn fast_forward_drain_is_bit_identical() {
        let run = |fast: bool| {
            let mut sys = DramSystem::new(2, 2, 8, 8, DramTiming::default());
            for line in 0..6u64 {
                assert!(sys.try_request(line));
            }
            let mut got = Vec::new();
            let mut s = Scheduler::new()
                .with_stall_guard(10_000)
                .with_fast_forward(fast);
            let spent = s
                .drain(&mut sys, |sys, _| {
                    while let Some(l) = sys.pop_ready() {
                        got.push(l);
                    }
                })
                .expect("drains");
            got.sort_unstable();
            (spent, got, sys.stats())
        };
        let naive = run(false);
        let fast = run(true);
        assert_eq!(naive, fast);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overran the channel's activity window")]
    fn over_optimistic_skip_is_caught() {
        let mut ch = channel(1, 4);
        ch.try_request(0, 0, 0);
        ch.tick(); // service in flight, window = miss_cycles - 1
        ClockedComponent::skip(&mut ch, 10_000);
    }

    #[test]
    fn stats_merge_and_zero_guards() {
        let s = MemoryStats::new();
        assert_eq!(s.row_hit_rate(), 0.0);
        let mut a = MemoryStats {
            accepted: 1,
            rejected: 2,
            completed: 3,
            row_hits: 4,
            row_misses: 5,
            row_conflicts: 6,
            cycles: 7,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.accepted, 2);
        assert_eq!(a.cycles, 14);
        assert_eq!(a.row_hits, 8);
    }
}
