//! The edge/offset cache and the memory subsystem it fronts.
//!
//! The scatter pipeline touches off-chip state at two points: the Offset
//! Array fetch that loads a Replay Engine (front-end stage 5) and the
//! Edge Array ranges the Replay Engines hand to the edge-access unit
//! (stage 4). [`MemorySubsystem`] sits at both: each fetch is translated
//! to cache-line addresses, looked up in a small direct-mapped cache,
//! and misses are fetched from a [`DramSystem`] of row-buffered HBM
//! channels (`higraph_sim::dram`). A fetch whose lines have not all
//! streamed in yet *stalls its pipeline stage* — the engine counts those
//! cycles as `Metrics::memory.stall_cycles`.
//!
//! The default subsystem is [`MemorySubsystem::infinite`]: every fetch is
//! resident, no state is kept, and runs are bit-identical to the
//! pre-memory-model simulator. See `docs/memory.md` for the timing
//! contract and the address-space model.
//!
//! # Streaming queries
//!
//! A multi-line fetch is a per-channel *query* consumed line by line in
//! address order: a line only has to be resident (or freshly arrived
//! from DRAM) for one cycle to be consumed, and consumed lines are never
//! needed again by that query. This mirrors a hardware stream buffer and
//! — crucially for a direct-mapped cache — guarantees forward progress:
//! requiring all lines of a range to be resident *simultaneously* can
//! livelock when two channels' ranges alias the same cache set and keep
//! evicting each other.
//!
//! # Address model
//!
//! Byte addresses on one flat line-granular space:
//!
//! * Edge Array: edge `e` occupies `[e * EDGE_BYTES, (e+1) * EDGE_BYTES)`
//!   from base 0 (16 B: destination, weight, padding);
//! * Offset Array: offset `u` occupies 8 B from [`OFFSET_REGION`],
//!   disjoint from the edge region.
//!
//! Counting: `misses` counts distinct line fetches sent to DRAM (an
//! outstanding line is tracked in the MSHR set and never fetched twice);
//! `hits` counts lines a query consumed without having requested them
//! itself — served by the cache or by another query's fetch. Re-asking
//! a *completed* query (a stage back-pressured downstream retries every
//! cycle) counts nothing, so the hit rate measures line reuse, not
//! arbitration stalls.

use higraph_sim::dram::{DramSystem, MemoryStats};
use higraph_sim::ClockedComponent;
use std::collections::BTreeSet;

use crate::config::MemoryConfig;

/// Bytes one edge occupies in the Edge Array (destination + weight,
/// padded to a power of two).
pub const EDGE_BYTES: u64 = 16;

/// Bytes one Offset Array entry occupies.
pub const OFFSET_BYTES: u64 = 8;

/// Base byte address of the Offset Array region (disjoint from the edge
/// region for any graph this simulator can hold).
pub const OFFSET_REGION: u64 = 1 << 40;

/// Cumulative cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lines consumed without a DRAM fetch by the consuming query.
    pub hits: u64,
    /// Distinct cache-line fetches issued to DRAM.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of line touches served without a DRAM fetch. 0.0 when
    /// the cache was never touched (or the subsystem is infinite).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Which pipeline stage a query belongs to (each channel may hold one
/// query per stage concurrently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Port {
    /// Stage-4 Edge Array ranges.
    Edge,
    /// Stage-5 Offset Array pairs.
    Offset,
}

/// What the next `*_ready` ask about a fetch would do — a non-mutating
/// probe for the fast-forward activity contract (`docs/simulation.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryState {
    /// The query has fully streamed in: the consuming stage can act now.
    Ready,
    /// The ask would mutate state this cycle in a way that depends on
    /// the cycle — start or replace a query, have a DRAM request
    /// accepted, or consume a resident line.
    Active,
    /// Waiting on DRAM: the next line is not resident and every missing
    /// line is either outstanding in the MSHR or retrying against a
    /// [`retry-stable`] full channel. Re-asking per cycle is then fully
    /// deterministic — nothing beyond the caller's stall accounting and
    /// the channels' rejection counters, both of which
    /// [`MemorySubsystem::commit_idle`] commits in bulk.
    ///
    /// [`retry-stable`]: higraph_sim::MemoryChannel::retry_stable
    Blocked,
}

/// One multi-line fetch, consumed in address order. The completed query
/// stays in its slot (`next > last`) until a *different* request
/// replaces it, so a stage that is back-pressured downstream can re-ask
/// about the same fetch every cycle without re-counting hits.
#[derive(Debug, Clone)]
struct LineQuery {
    /// Identity of the originating request, `(byte base, byte length)` —
    /// not the line span, which distinct requests can share.
    key: (u64, u64),
    /// Last line of the span.
    last: u64,
    /// Next line to consume (`> last` once complete).
    next: u64,
    /// Lines this query itself fetched from DRAM (their consumption is
    /// a miss already counted at request time, not a hit).
    fetched: BTreeSet<u64>,
}

/// The modeled half of the subsystem (absent in infinite mode).
#[derive(Debug, Clone)]
struct Modeled {
    /// Direct-mapped line tags, indexed by `line % tags.len()`.
    tags: Vec<Option<u64>>,
    line_bytes: u64,
    dram: DramSystem,
    /// Lines requested from DRAM and not yet installed.
    mshr: BTreeSet<u64>,
    /// Lines that arrived this cycle: consumable even if a same-cycle
    /// install of a conflicting line already evicted them.
    arrived: BTreeSet<u64>,
    /// Per-channel streaming queries, one slot per port.
    edge_q: Vec<Option<LineQuery>>,
    offset_q: Vec<Option<LineQuery>>,
    stats: CacheStats,
}

impl Modeled {
    fn set_of(&self, line: u64) -> usize {
        (line % self.tags.len() as u64) as usize
    }

    fn resident(&self, line: u64) -> bool {
        self.tags[self.set_of(line)] == Some(line) || self.arrived.contains(&line)
    }

    /// Starts a DRAM fetch for `line` unless it is resident, already
    /// outstanding, or the owning channel queue is full (retried next
    /// cycle). Records the requester's ownership for hit accounting.
    fn request(&mut self, line: u64, fetched: &mut BTreeSet<u64>) {
        if !self.mshr.contains(&line) && self.dram.try_request(line) {
            self.mshr.insert(line);
            self.stats.misses += 1;
            fetched.insert(line);
        }
    }

    /// Advances one query: request every still-missing line (they fetch
    /// in parallel), then consume in-order as far as residency allows.
    /// Returns whether the query completed. Re-asking a completed query
    /// (downstream backpressure) is free and counts nothing.
    fn step_query(
        &mut self,
        ch: usize,
        port: Port,
        key: (u64, u64),
        first: u64,
        last: u64,
    ) -> bool {
        let slot = match port {
            Port::Edge => &mut self.edge_q[ch],
            Port::Offset => &mut self.offset_q[ch],
        };
        if let Some(q) = slot.as_ref() {
            if q.key == key && q.next > q.last {
                // already streamed in: the consumer is waiting on
                // something else (arbitration, queue space), not us —
                // the hottest re-ask, answered without moving the query
                return true;
            }
        }
        let mut q = match slot.take() {
            Some(q) if q.key == key => q,
            _ => LineQuery {
                key,
                last,
                next: first,
                fetched: BTreeSet::new(),
            },
        };
        for line in q.next..=q.last {
            if !self.resident(line) {
                self.request(line, &mut q.fetched);
            }
        }
        while q.next <= q.last && self.resident(q.next) {
            if !q.fetched.remove(&q.next) {
                self.stats.hits += 1;
            }
            q.next += 1;
        }
        let done = q.next > q.last;
        let slot = match port {
            Port::Edge => &mut self.edge_q[ch],
            Port::Offset => &mut self.offset_q[ch],
        };
        *slot = Some(q);
        done
    }

    fn install_ready(&mut self) {
        self.arrived.clear();
        while let Some(line) = self.dram.pop_ready() {
            let set = self.set_of(line);
            self.tags[set] = Some(line);
            self.mshr.remove(&line);
            self.arrived.insert(line);
        }
    }

    /// Residency as the *next* cycle's `begin_cycle` will see it: the
    /// `arrived` set is cleared there, so activity probes (evaluated
    /// between cycles) must ignore it — a line surviving only in
    /// `arrived` will be re-requested next cycle, which is activity.
    fn tag_resident(&self, line: u64) -> bool {
        self.tags[self.set_of(line)] == Some(line)
    }

    /// Non-mutating twin of [`Modeled::step_query`]; see [`QueryState`].
    fn query_state(&self, ch: usize, port: Port, base: u64, bytes: u64) -> QueryState {
        let slot = match port {
            Port::Edge => &self.edge_q[ch],
            Port::Offset => &self.offset_q[ch],
        };
        match slot {
            Some(q) if q.key == (base, bytes) => {
                if q.next > q.last {
                    return QueryState::Ready;
                }
                for line in q.next..=q.last {
                    if !self.tag_resident(line)
                        && !self.mshr.contains(&line)
                        && !self.dram.line_retry_stable(line)
                    {
                        return QueryState::Active; // a (re)request would land
                    }
                }
                if self.tag_resident(q.next) {
                    QueryState::Active // would consume in order
                } else {
                    QueryState::Blocked
                }
            }
            // No query yet (or the slot holds a different request): the
            // next ask creates one and issues its fetches.
            _ => QueryState::Active,
        }
    }
}

/// The off-chip memory subsystem one chip owns: cache → DRAM channels.
#[derive(Debug, Clone)]
pub struct MemorySubsystem {
    inner: Option<Modeled>,
}

impl MemorySubsystem {
    /// The infinite-bandwidth subsystem: every fetch is resident, no
    /// cycles are ever spent. This is the default for every preset and
    /// keeps all pre-memory-model metrics bit-identical.
    pub fn infinite() -> Self {
        MemorySubsystem { inner: None }
    }

    /// Builds the modeled subsystem from validated configuration knobs,
    /// serving `channels` front-end channels.
    ///
    /// # Panics
    ///
    /// Panics on un-validated knobs (zero sizes); construct through
    /// `NetworkFactory`, which validates the [`MemoryConfig`] first.
    pub fn modeled(config: &MemoryConfig, channels: usize) -> Self {
        let line_bytes = config.line_bytes as u64;
        let num_lines = (config.cache_kb as u64 * 1024 / line_bytes).max(1) as usize;
        MemorySubsystem {
            inner: Some(Modeled {
                tags: vec![None; num_lines],
                line_bytes,
                dram: DramSystem::new(
                    config.channels,
                    config.banks_per_channel,
                    config.queue_depth,
                    (config.row_bytes as u64 / line_bytes).max(1),
                    config.timing,
                ),
                mshr: BTreeSet::new(),
                arrived: BTreeSet::new(),
                edge_q: vec![None; channels],
                offset_q: vec![None; channels],
                stats: CacheStats::default(),
            }),
        }
    }

    /// Whether this subsystem models finite memory.
    pub fn is_modeled(&self) -> bool {
        self.inner.is_some()
    }

    /// Installs DRAM lines that completed since the last cycle; call at
    /// the start of each combinational phase.
    pub fn begin_cycle(&mut self) {
        if let Some(m) = &mut self.inner {
            m.install_ready();
        }
    }

    /// Whether channel `ch`'s Offset Array pair `{Off[u], Off[u+1]}` has
    /// streamed in; advances the fetch if not.
    pub fn offset_ready(&mut self, ch: usize, u: u32) -> bool {
        let lo = OFFSET_REGION + u64::from(u) * OFFSET_BYTES;
        self.bytes_ready(ch, Port::Offset, lo, 2 * OFFSET_BYTES)
    }

    /// Whether channel `ch`'s Edge Array range `[off, off + len)` (edge
    /// indices) has streamed in; advances the fetch if not.
    pub fn edges_ready(&mut self, ch: usize, off: u64, len: u32) -> bool {
        if len == 0 {
            return true;
        }
        self.bytes_ready(
            ch,
            Port::Edge,
            off * EDGE_BYTES,
            u64::from(len) * EDGE_BYTES,
        )
    }

    /// Whether the query covering `[base, base + bytes)` completed.
    fn bytes_ready(&mut self, ch: usize, port: Port, base: u64, bytes: u64) -> bool {
        let Some(m) = &mut self.inner else {
            return true;
        };
        let first = base / m.line_bytes;
        let last = (base + bytes - 1) / m.line_bytes;
        m.step_query(ch, port, (base, bytes), first, last)
    }

    /// Commits the per-cycle effects of `cycles` idle cycles of blocked
    /// queries: every missing line that is neither resident nor in the
    /// MSHR was being re-requested — and deterministically rejected (the
    /// fast-forward precondition: no such line's request could land) —
    /// once per cycle by each query holding it.
    pub(crate) fn commit_idle(&mut self, cycles: u64) {
        let Some(m) = &mut self.inner else {
            return;
        };
        let mut retried: Vec<u64> = Vec::new();
        for q in m.edge_q.iter().chain(m.offset_q.iter()).flatten() {
            if q.next > q.last {
                continue;
            }
            for line in q.next..=q.last {
                if !m.tag_resident(line) && !m.mshr.contains(&line) {
                    retried.push(line);
                }
            }
        }
        for line in retried {
            m.dram.commit_rejected(line, cycles);
        }
    }

    /// Non-mutating probe of what the next [`MemorySubsystem::offset_ready`]
    /// ask for channel `ch`'s pair `{Off[u], Off[u+1]}` would do.
    pub(crate) fn offset_query_state(&self, ch: usize, u: u32) -> QueryState {
        let Some(m) = &self.inner else {
            return QueryState::Ready;
        };
        let lo = OFFSET_REGION + u64::from(u) * OFFSET_BYTES;
        m.query_state(ch, Port::Offset, lo, 2 * OFFSET_BYTES)
    }

    /// Non-mutating probe of what the next [`MemorySubsystem::edges_ready`]
    /// ask for channel `ch`'s range `[off, off + len)` would do.
    pub(crate) fn edge_query_state(&self, ch: usize, off: u64, len: u32) -> QueryState {
        let Some(m) = &self.inner else {
            return QueryState::Ready;
        };
        if len == 0 {
            return QueryState::Ready;
        }
        m.query_state(
            ch,
            Port::Edge,
            off * EDGE_BYTES,
            u64::from(len) * EDGE_BYTES,
        )
    }

    /// Number of modeled DRAM channels (0 in infinite mode).
    pub fn dram_channels(&self) -> usize {
        self.inner.as_ref().map_or(0, |m| m.dram.num_channels())
    }

    /// Browns out (or restores) one DRAM channel for fault injection;
    /// no-op on the infinite subsystem (it has no channels to pause).
    pub fn set_dram_channel_paused(&mut self, channel: usize, paused: bool) {
        if let Some(m) = &mut self.inner {
            m.dram.set_channel_paused(channel, paused);
        }
    }

    /// Cumulative cache counters (zero in infinite mode).
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.as_ref().map(|m| m.stats).unwrap_or_default()
    }

    /// DRAM counters merged across channels (zero in infinite mode).
    pub fn dram_stats(&self) -> MemoryStats {
        self.inner
            .as_ref()
            .map(|m| m.dram.stats())
            .unwrap_or_default()
    }
}

impl ClockedComponent for MemorySubsystem {
    fn tick(&mut self) {
        if let Some(m) = &mut self.inner {
            m.dram.tick();
        }
    }

    fn in_flight(&self) -> usize {
        self.inner.as_ref().map_or(0, |m| m.dram.in_flight())
    }

    /// The subsystem acts on its own only when DRAM does: queries advance
    /// exclusively when a pipeline stage asks (the stage's own activity
    /// is probed via `MemorySubsystem::edge_query_state` /
    /// `MemorySubsystem::offset_query_state`, which are crate-private).
    fn next_activity(&self) -> Option<u64> {
        self.inner.as_ref().and_then(|m| m.dram.next_activity())
    }

    fn skip(&mut self, cycles: u64) {
        if let Some(m) = &mut self.inner {
            m.dram.skip(cycles);
        }
    }
}

fn save_query(w: &mut higraph_sim::SnapWriter, slot: &Option<LineQuery>) {
    match slot {
        None => w.bool(false),
        Some(q) => {
            w.bool(true);
            w.u64(q.key.0);
            w.u64(q.key.1);
            w.u64(q.last);
            w.u64(q.next);
            w.seq(q.fetched.iter());
        }
    }
}

fn load_query(
    r: &mut higraph_sim::SnapReader<'_>,
) -> Result<Option<LineQuery>, higraph_sim::SnapError> {
    if !r.bool()? {
        return Ok(None);
    }
    let key = (r.u64()?, r.u64()?);
    let last = r.u64()?;
    let next = r.u64()?;
    let fetched: Vec<u64> = r.seq(u32::MAX as usize)?;
    Ok(Some(LineQuery {
        key,
        last,
        next,
        fetched: fetched.into_iter().collect(),
    }))
}

impl higraph_sim::Snapshot for MemorySubsystem {
    fn save(&self, w: &mut higraph_sim::SnapWriter) {
        w.tag(b"MSUB");
        match &self.inner {
            None => w.bool(false),
            Some(m) => {
                w.bool(true);
                w.usize(m.tags.len());
                w.u64(m.line_bytes);
                w.usize(m.edge_q.len());
                w.u64(m.stats.hits);
                w.u64(m.stats.misses);
                m.tags.save(w);
                m.dram.save(w);
                w.seq(m.mshr.iter());
                w.seq(m.arrived.iter());
                for q in &m.edge_q {
                    save_query(w, q);
                }
                for q in &m.offset_q {
                    save_query(w, q);
                }
            }
        }
    }

    fn load(&mut self, r: &mut higraph_sim::SnapReader<'_>) -> Result<(), higraph_sim::SnapError> {
        r.expect_tag(b"MSUB")?;
        let modeled = r.bool()?;
        match (modeled, &mut self.inner) {
            (false, None) => Ok(()),
            (true, Some(m)) => {
                let lines = r.usize()?;
                let line_bytes = r.u64()?;
                let channels = r.usize()?;
                if lines != m.tags.len() || line_bytes != m.line_bytes || channels != m.edge_q.len()
                {
                    return Err(higraph_sim::SnapError::new(format!(
                        "memory subsystem shape mismatch: snapshot {lines} lines x \
                         {line_bytes} B over {channels} channels, live {} x {} over {}",
                        m.tags.len(),
                        m.line_bytes,
                        m.edge_q.len()
                    )));
                }
                m.stats.hits = r.u64()?;
                m.stats.misses = r.u64()?;
                m.tags.load(r)?;
                m.dram.load(r)?;
                let mshr: Vec<u64> = r.seq(u32::MAX as usize)?;
                m.mshr = mshr.into_iter().collect();
                let arrived: Vec<u64> = r.seq(u32::MAX as usize)?;
                m.arrived = arrived.into_iter().collect();
                for q in &mut m.edge_q {
                    *q = load_query(r)?;
                }
                for q in &mut m.offset_q {
                    *q = load_query(r)?;
                }
                Ok(())
            }
            _ => Err(higraph_sim::SnapError::new(
                "memory-model mismatch: snapshot and live subsystem disagree on modeled memory",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(cache_kb: usize) -> MemoryConfig {
        MemoryConfig {
            cache_kb,
            ..MemoryConfig::hbm2()
        }
    }

    fn drive_until_ready(mem: &mut MemorySubsystem, ch: usize, off: u64, len: u32) -> u64 {
        let mut cycles = 0u64;
        while !mem.edges_ready(ch, off, len) {
            mem.tick();
            mem.begin_cycle();
            cycles += 1;
            assert!(cycles < 10_000, "range never streamed in");
        }
        cycles
    }

    #[test]
    fn infinite_is_always_ready_and_stateless() {
        let mut mem = MemorySubsystem::infinite();
        assert!(!mem.is_modeled());
        assert!(mem.offset_ready(0, 12345));
        assert!(mem.edges_ready(3, 99, 1000));
        mem.begin_cycle();
        mem.tick();
        assert_eq!(mem.in_flight(), 0);
        assert_eq!(mem.cache_stats(), CacheStats::default());
        assert_eq!(mem.dram_stats(), MemoryStats::default());
    }

    #[test]
    fn miss_blocks_until_dram_returns_then_hits() {
        let mut mem = MemorySubsystem::modeled(&small_config(64), 4);
        assert!(!mem.edges_ready(0, 0, 4), "cold cache must miss");
        assert_eq!(mem.cache_stats().misses, 1); // 4 edges = 1 line
        let cycles = drive_until_ready(&mut mem, 0, 0, 4);
        assert!(cycles >= 1, "DRAM must cost at least a cycle");
        assert_eq!(mem.cache_stats().misses, 1, "MSHR stops re-fetching");
        // a *different* request over the now-resident line is a hit
        assert!(mem.edges_ready(0, 1, 2));
        assert!(mem.cache_stats().hits >= 1);
        assert!(mem.dram_stats().completed >= 1);
    }

    #[test]
    fn backpressure_retries_do_not_recount_hits() {
        let mut mem = MemorySubsystem::modeled(&small_config(64), 2);
        // warm the line with one query, then a second request hits it
        drive_until_ready(&mut mem, 0, 0, 4);
        assert!(mem.edges_ready(0, 1, 2));
        let hits = mem.cache_stats().hits;
        assert!(hits >= 1);
        // a back-pressured stage re-asks the identical completed query
        // every cycle: free, and counted exactly zero more times
        for _ in 0..10 {
            assert!(mem.edges_ready(0, 1, 2));
        }
        assert_eq!(mem.cache_stats().hits, hits);
        // …until a different request takes the slot
        assert!(mem.edges_ready(0, 2, 1));
        assert_eq!(mem.cache_stats().hits, hits + 1);
    }

    #[test]
    fn multi_line_ranges_stream_in_order() {
        let mut mem = MemorySubsystem::modeled(&small_config(64), 2);
        // 32 edges × 16 B = 8 lines
        assert!(!mem.edges_ready(1, 0, 32));
        assert_eq!(mem.cache_stats().misses, 8, "all lines fetch in parallel");
        drive_until_ready(&mut mem, 1, 0, 32);
        assert_eq!(mem.cache_stats().misses, 8);
    }

    #[test]
    fn aliasing_queries_from_two_channels_both_complete() {
        // Two channels stream ranges whose lines alias the same cache
        // sets (tiny 1 KiB cache = 16 sets, ranges 16 sets apart): the
        // streaming consume must let both finish — the all-resident
        // formulation livelocks here.
        let mut mem = MemorySubsystem::modeled(
            &MemoryConfig {
                cache_kb: 1,
                ..MemoryConfig::hbm2()
            },
            2,
        );
        let apart = 16 * (64 / EDGE_BYTES); // one full cache of lines
        let mut done = [false; 2];
        let mut cycles = 0u64;
        while !(done[0] && done[1]) {
            done[0] = done[0] || mem.edges_ready(0, 0, 64);
            done[1] = done[1] || mem.edges_ready(1, apart, 64);
            mem.tick();
            mem.begin_cycle();
            cycles += 1;
            assert!(cycles < 10_000, "aliasing queries must both make progress");
        }
    }

    #[test]
    fn offset_and_edge_regions_do_not_alias() {
        let mut mem = MemorySubsystem::modeled(&small_config(64), 1);
        assert!(!mem.offset_ready(0, 0));
        assert!(!mem.edges_ready(0, 0, 1));
        // two distinct lines were fetched
        assert_eq!(mem.cache_stats().misses, 2);
    }

    #[test]
    fn zero_length_range_is_trivially_ready() {
        let mut mem = MemorySubsystem::modeled(&small_config(16), 1);
        assert!(mem.edges_ready(0, 7, 0));
        assert_eq!(mem.cache_stats(), CacheStats::default());
    }

    #[test]
    fn larger_cache_conflicts_less() {
        // Direct-mapped: with 2 alternating far-apart lines, a tiny cache
        // thrashes while a larger one keeps both.
        let lines_apart = 64 * 1024 / 64; // one 64 KiB cache worth of lines
        let mut small = MemorySubsystem::modeled(&small_config(64), 1);
        let mut large = MemorySubsystem::modeled(&small_config(256), 1);
        for mem in [&mut small, &mut large] {
            for _round in 0..4 {
                for &edge in &[0u64, lines_apart * (64 / EDGE_BYTES)] {
                    drive_until_ready(mem, 0, edge, 1);
                }
            }
        }
        assert!(small.cache_stats().misses > large.cache_stats().misses);
        assert!(small.cache_stats().hit_rate() < large.cache_stats().hit_rate());
    }

    #[test]
    fn hit_rate_guards_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
