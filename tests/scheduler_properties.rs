//! Property-based tests of the cycle scheduler (`higraph_sim::clock`).
//!
//! The invariants under randomized traffic and shapes:
//!
//! * driven through the shared [`ClockedComponent`] protocol, a packet
//!   crosses an MDP-network in no fewer cycles than its inter-stage hop
//!   count — "trading latency for throughput" means at most one stage
//!   per cycle, never a same-cycle shortcut;
//! * the scheduler's drain delivers every packet exactly once (no loss,
//!   no duplication) and its cycle accounting matches the fabric's own
//!   cycle counter;
//! * the stall guard converts backpressure deadlocks into errors instead
//!   of hangs.
//!
//! The tests compose a packet source with the fabric into one
//! [`ClockedComponent`] — the same pattern the accelerator engine uses
//! for its scatter pipeline — so `Scheduler::drain` owns the whole loop.
//!
//! The second half covers the event-driven fast-forward path
//! (`docs/simulation.md`): on random graphs, across serial / sliced /
//! sharded execution with the memory model on and off, the
//! fast-forward scheduler must drain in exactly the same cycle count
//! and produce bit-identical [`Metrics`] as the naive per-cycle loop —
//! and a component advertising an over-optimistic `next_activity`
//! window must be caught by a debug assertion, not silently corrupt
//! timing.
//!
//! The third section proves the cycle-exact checkpoint/restore
//! contract (`docs/robustness.md`): at a randomized cycle budget the
//! serial and sharded engines park BFS, SSSP, WCC or PageRank into a
//! serialized checkpoint, and a fresh engine restored from those bytes
//! must finish with properties and [`Metrics`] bit-identical to an
//! uninterrupted run — across the memory model on/off and fast-forward
//! on/off. A run parked at every boundary, each resume in a fresh
//! engine, must end where the uninterrupted one does. Serial and
//! one-chip checkpoints are the same bytes, and the retired serial
//! format is rejected by its tag.
//!
//! The final section drives a [`DramSystem`] fast-forwarded the way
//! `Scheduler::drain_with` does against one ticked every cycle: under
//! randomized traffic, arrival gaps and channel shapes, every line must
//! complete on the same cycle, with the same counters.

use higraph::mdp::{MdpNetwork, Topology};
use higraph::prelude::*;
use higraph::sim::{
    ClockedComponent, DramSystem, DramTiming, MemoryStats, Network, Packet, Scheduler,
};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct P {
    dest: usize,
    input: usize,
    tag: u64,
}

impl Packet for P {
    fn dest(&self) -> usize {
        self.dest
    }
}

/// A packet source composed with the fabric under test: drained only when
/// every pending packet has been injected *and* the fabric is empty.
struct Harness {
    net: MdpNetwork<P>,
    pending: Vec<P>,
    cursor: usize,
}

impl ClockedComponent for Harness {
    fn tick(&mut self) {
        self.net.tick();
    }

    fn in_flight(&self) -> usize {
        self.net.in_flight() + (self.pending.len() - self.cursor)
    }
}

impl Harness {
    fn new(net: MdpNetwork<P>, pending: Vec<P>) -> Self {
        Harness {
            net,
            pending,
            cursor: 0,
        }
    }

    /// Offers the next pending packet; returns it on acceptance.
    fn inject(&mut self) -> Option<P> {
        let p = *self.pending.get(self.cursor)?;
        if self.net.push(p.input, p).is_ok() {
            self.cursor += 1;
            Some(p)
        } else {
            None
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packets_advance_at_most_one_stage_per_cycle(
        log_n in 1usize..6,
        cap in 1usize..6,
        traffic in proptest::collection::vec((0usize..32, 0usize..32), 1..120),
    ) {
        let n = 1 << log_n;
        let topo = Topology::new(n, 2).expect("valid shape");
        let stages = topo.num_stages() as u64;
        let to_send: Vec<P> = traffic
            .iter()
            .enumerate()
            .map(|(i, &(input, dest))| P { dest: dest % n, input: input % n, tag: i as u64 })
            .collect();
        let total = to_send.len();
        let mut harness = Harness::new(MdpNetwork::new(topo, cap), to_send);

        // tag → cycle the packet was accepted
        let mut pushed_at: HashMap<u64, u64> = HashMap::new();
        let mut received: Vec<(u64, u64)> = Vec::new(); // (tag, arrival cycle)

        let mut scheduler = Scheduler::new().with_stall_guard(200_000);
        let spent = scheduler
            .drain(&mut harness, |h, cycle| {
                for o in 0..n {
                    if let Some(p) = h.net.pop(o) {
                        assert_eq!(p.dest, o, "misrouted packet");
                        received.push((p.tag, cycle));
                    }
                }
                if let Some(p) = h.inject() {
                    pushed_at.insert(p.tag, cycle);
                }
            })
            .expect("bounded traffic must drain");
        prop_assert_eq!(scheduler.cycles(), spent);

        // every packet was injected and arrived exactly once…
        prop_assert_eq!(received.len(), total, "lost or duplicated packets");
        // …and no packet beat the stage latency. A push is the write into
        // the stage-0 FIFO; each of the remaining `stages - 1` hops costs
        // one tick, and the final output read happens on a later cycle's
        // combinational phase — so at-most-one-stage-per-cycle means a
        // crossing can never take fewer than max(stages - 1, 1) cycles.
        let min_latency = (stages - 1).max(1);
        for &(tag, arrived) in &received {
            let pushed = pushed_at[&tag];
            prop_assert!(
                arrived >= pushed + min_latency,
                "tag {tag} crossed a {stages}-stage fabric in {} cycles (min {min_latency})",
                arrived - pushed
            );
        }
    }

    #[test]
    fn drain_cycle_accounting_matches_fabric_stats(
        log_n in 1usize..5,
        count in 1usize..40,
    ) {
        let n = 1 << log_n;
        let topo = Topology::new(n, 2).expect("valid");
        let to_send: Vec<P> = (0..count)
            .map(|i| P { dest: (i * 7) % n, input: i % n, tag: i as u64 })
            .collect();
        let mut harness = Harness::new(MdpNetwork::new(topo, 4), to_send);
        let mut got = 0usize;
        let mut scheduler = Scheduler::new().with_stall_guard(100_000);
        let spent = scheduler
            .drain(&mut harness, |h, _| {
                for o in 0..n {
                    if h.net.pop(o).is_some() {
                        got += 1;
                    }
                }
                h.inject();
            })
            .expect("drains");
        prop_assert_eq!(got, count);
        // the fabric saw exactly the cycles the scheduler drove
        prop_assert_eq!(harness.net.stats().cycles, spent);
        prop_assert_eq!(harness.net.stats().delivered, count as u64);
    }
}

/// The memory configurations the equivalence properties sweep: off
/// (infinite bandwidth) and a deliberately small, slow model so DRAM
/// waits, retries, and rejections all occur on tiny graphs.
fn memory_variants() -> [Option<MemoryConfig>; 2] {
    [
        None,
        Some(MemoryConfig {
            channels: 2,
            banks_per_channel: 2,
            queue_depth: 4,
            ..MemoryConfig::hbm2().with_cache_kb(4)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn fast_forward_is_bit_identical_serial_and_sliced(
        num_v in 48u32..160,
        edge_factor in 4u32..10,
        seed in 0u64..1_000,
        mem_idx in 0usize..2,
    ) {
        let g = higraph::graph::gen::erdos_renyi(num_v, u64::from(num_v * edge_factor), 31, seed);
        let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
        let prog = Sssp::from_source(src);
        let mut cfg = AcceleratorConfig::higraph_mini();
        cfg.memory = memory_variants()[mem_idx];
        // serial
        let run = |fast: bool| {
            let mut engine = Engine::new(cfg.clone(), &g);
            engine.set_fast_forward(fast);
            engine.run(&prog).expect("no stall")
        };
        let naive = run(false);
        let fast = run(true);
        prop_assert_eq!(&fast.properties, &naive.properties);
        prop_assert_eq!(&fast.metrics, &naive.metrics);
        // sliced (the Sec. 5.3 large-graph schedule shares the drains)
        let run_sliced = |fast: bool| {
            let mut engine = Engine::new(cfg.clone(), &g);
            engine.set_fast_forward(fast);
            engine.run_sliced(&prog, 3, 32).expect("no stall")
        };
        let naive = run_sliced(false);
        let fast = run_sliced(true);
        prop_assert_eq!(&fast.properties, &naive.properties);
        prop_assert_eq!(&fast.metrics, &naive.metrics);
        prop_assert_eq!(fast.swap_cycles_sequential, naive.swap_cycles_sequential);
        prop_assert_eq!(fast.swap_cycles_overlapped, naive.swap_cycles_overlapped);
    }

    #[test]
    fn fast_forward_is_bit_identical_sharded(
        num_v in 48u32..140,
        edge_factor in 4u32..9,
        seed in 0u64..1_000,
        chips in 2usize..5,
        mem_idx in 0usize..2,
    ) {
        let g = higraph::graph::gen::erdos_renyi(num_v, u64::from(num_v * edge_factor), 31, seed);
        let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
        let prog = Bfs::from_source(src);
        let mut cfg = AcceleratorConfig::higraph_mini();
        cfg.memory = memory_variants()[mem_idx];
        let run = |fast: bool| {
            let mut engine = ShardedEngine::new(cfg.clone(), ShardConfig::new(chips), &g);
            engine.set_fast_forward(fast);
            engine.run(&prog).expect("no stall")
        };
        let naive = run(false);
        let fast = run(true);
        prop_assert_eq!(&fast.properties, &naive.properties);
        prop_assert_eq!(&fast.metrics, &naive.metrics);
        prop_assert_eq!(&fast.chips, &naive.chips);
        prop_assert_eq!(&fast.link, &naive.link);
        prop_assert_eq!(fast.cross_chip_packets, naive.cross_chip_packets);
    }
}

/// Timed traffic in front of a [`DramSystem`]: each `(arrival, line)` is
/// offered in order from its arrival cycle on, and retried every cycle
/// until its channel accepts it. A pending line bounds the window by
/// its arrival, so fast-forward never skips past an offer.
struct DramTraffic {
    dram: DramSystem,
    lines: Vec<(u64, u64)>,
    cursor: usize,
    now: u64,
}

impl ClockedComponent for DramTraffic {
    fn tick(&mut self) {
        self.dram.tick();
        self.now += 1;
    }

    fn in_flight(&self) -> usize {
        self.dram.in_flight() + self.lines.len() - self.cursor
    }

    fn next_activity(&self) -> Option<u64> {
        let offer = self
            .lines
            .get(self.cursor)
            .map(|&(at, _)| at.saturating_sub(self.now));
        higraph::sim::min_activity(offer, self.dram.next_activity())
    }

    fn skip(&mut self, cycles: u64) {
        self.dram.skip(cycles);
        self.now += cycles;
    }
}

/// Drains `traffic` with fast-forward on or off; returns each line with
/// the cycle it was popped on, and the system's counters.
fn drain_dram(mut traffic: DramTraffic, fast: bool) -> (Vec<(u64, u64)>, MemoryStats) {
    let mut completions = Vec::new();
    Scheduler::new()
        .with_stall_guard(1_000_000)
        .with_fast_forward(fast)
        .drain(&mut traffic, |t, cycle| {
            while let Some(line) = t.dram.pop_ready() {
                completions.push((line, cycle));
            }
            while let Some(&(at, line)) = t.lines.get(t.cursor) {
                if at > t.now || !t.dram.try_request(line) {
                    break;
                }
                t.cursor += 1;
            }
        })
        .expect("finite traffic drains");
    (completions, traffic.dram.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DRAM fast-forward against per-cycle ticking: folding the window
    /// over the channels must never let a skip move a completion, a
    /// rejection or a row-buffer outcome. Channels span 1..=8 (the HBM2
    /// model has 8); lines arrive in bursts, so idle windows open
    /// between them and skips interleave with new requests.
    #[test]
    fn dram_fast_forward_matches_per_cycle_ticking(
        channels in 1usize..=8,
        banks in 1usize..4,
        depth in 1usize..5,
        lines in proptest::collection::vec(0u64..512, 1..160),
        burst in 1usize..24,
        gap in 0u64..200,
    ) {
        let traffic = || DramTraffic {
            dram: DramSystem::new(channels, banks, depth, 4, DramTiming::default()),
            lines: lines.iter().enumerate().map(|(i, &l)| ((i / burst) as u64 * gap, l)).collect(),
            cursor: 0,
            now: 0,
        };
        let ticked = drain_dram(traffic(), false);
        let fast = drain_dram(traffic(), true);
        prop_assert_eq!(fast.0.len(), lines.len());
        prop_assert_eq!(fast, ticked);
    }
}

/// Binds `$prog` to one of the programs the checkpoint properties draw
/// from — BFS, SSSP, WCC or 4-iteration PageRank, rooted at `$src` —
/// and evaluates `$body` with it.
macro_rules! with_program {
    ($idx:expr, $src:expr, |$prog:ident| $body:block) => {
        match $idx {
            0 => {
                let $prog = Bfs::from_source($src);
                $body
            }
            1 => {
                let $prog = Sssp::from_source($src);
                $body
            }
            2 => {
                let $prog = Wcc::new();
                $body
            }
            _ => {
                let $prog = PageRank::new(4);
                $body
            }
        }
    };
}

/// Early-exit failure for outcome-shape mismatches the `prop_assert*!`
/// macros cannot express (wrong enum variant).
fn fail(msg: &str) -> proptest::test_runner::TestCaseError {
    proptest::test_runner::TestCaseError::Fail(msg.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Checkpoint/restore bit-identity on the serial engine
    /// (`docs/robustness.md`): park an otherwise-identical run at a
    /// randomized cycle budget, serialize the checkpoint, restore it
    /// into a *fresh* engine, and require the continuation to finish
    /// with the exact properties and [`Metrics`] of the uninterrupted
    /// reference — across the memory model on/off and fast-forward
    /// on/off. An unbudgeted controlled run must also be
    /// indistinguishable from a plain `run`.
    #[test]
    fn checkpoint_restore_is_bit_identical_serial(
        num_v in 48u32..140,
        edge_factor in 4u32..9,
        seed in 0u64..1_000,
        prog_idx in 0usize..4,
        mem_idx in 0usize..2,
        fast in proptest::bool::ANY,
        budget_pct in 1u64..100,
    ) {
        let g = higraph::graph::gen::erdos_renyi(num_v, u64::from(num_v * edge_factor), 31, seed);
        let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
        let mut cfg = AcceleratorConfig::higraph_mini();
        cfg.memory = memory_variants()[mem_idx];
        let fresh = || {
            let mut engine = Engine::new(cfg.clone(), &g);
            engine.set_fast_forward(fast);
            engine
        };
        with_program!(prog_idx, src, |prog| {
            let reference = fresh().run(&prog).expect("no stall");

            // Unbudgeted controlled run: completes, bit-identical to `run`.
            let outcome = fresh()
                .run_controlled(&prog, &RunControl::new())
                .expect("no stall");
            let RunOutcome::Done(done) = outcome else {
                return Err(fail("unbudgeted run must complete"));
            };
            prop_assert_eq!(&done.properties, &reference.properties);
            prop_assert_eq!(&done.metrics, &reference.metrics);

            // Budgeted run parks at a committed boundary once the
            // randomized budget is spent; the restored continuation must
            // be exact. A budget landing past the last boundary
            // legitimately completes instead — then the result itself
            // must already be exact.
            let budget = (reference.metrics.cycles * budget_pct / 100).max(1);
            let control = RunControl::new();
            control.set_budget_cycles(Some(budget));
            match fresh().run_controlled(&prog, &control).expect("no stall") {
                RunOutcome::Parked(ck) => {
                    prop_assert!(
                        ck.cycles < reference.metrics.cycles,
                        "parked at cycle {} but the full run only takes {}",
                        ck.cycles,
                        reference.metrics.cycles
                    );
                    let resumed = match fresh()
                        .resume_controlled(&prog, &RunControl::new(), &ck.bytes)
                        .expect("checkpoint must restore")
                    {
                        RunOutcome::Done(r) => r,
                        _ => return Err(fail("resume must complete")),
                    };
                    prop_assert_eq!(&resumed.properties, &reference.properties);
                    prop_assert_eq!(&resumed.metrics, &reference.metrics);
                }
                RunOutcome::Done(done) => {
                    prop_assert_eq!(&done.properties, &reference.properties);
                    prop_assert_eq!(&done.metrics, &reference.metrics);
                }
                RunOutcome::Cancelled => {
                    return Err(fail("nobody requested a cancel"));
                }
            }
        })
    }

    /// The same round-trip on the multi-chip engine: a parked
    /// [`ShardedEngine`] continuation must reproduce the uninterrupted
    /// run bit-for-bit — aggregate and per-chip [`Metrics`], link
    /// stats, and cross-chip packet counts included.
    #[test]
    fn checkpoint_restore_is_bit_identical_sharded(
        num_v in 48u32..120,
        edge_factor in 4u32..9,
        seed in 0u64..1_000,
        chips in 2usize..5,
        prog_idx in 0usize..4,
        mem_idx in 0usize..2,
        fast in proptest::bool::ANY,
        budget_pct in 1u64..100,
    ) {
        let g = higraph::graph::gen::erdos_renyi(num_v, u64::from(num_v * edge_factor), 31, seed);
        let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
        let mut cfg = AcceleratorConfig::higraph_mini();
        cfg.memory = memory_variants()[mem_idx];
        let fresh = || {
            let mut engine = ShardedEngine::new(cfg.clone(), ShardConfig::new(chips), &g);
            engine.set_fast_forward(fast);
            engine
        };
        with_program!(prog_idx, src, |prog| {
            let reference = fresh().run(&prog).expect("no stall");

            let budget = (reference.metrics.cycles * budget_pct / 100).max(1);
            let control = RunControl::new();
            control.set_budget_cycles(Some(budget));
            match fresh().run_controlled(&prog, &control).expect("no stall") {
                RunOutcome::Parked(ck) => {
                    let resumed = match fresh()
                        .resume_controlled(&prog, &RunControl::new(), &ck.bytes)
                        .expect("checkpoint must restore")
                    {
                        RunOutcome::Done(r) => r,
                        _ => return Err(fail("resume must complete")),
                    };
                    prop_assert_eq!(&resumed.properties, &reference.properties);
                    prop_assert_eq!(&resumed.metrics, &reference.metrics);
                    prop_assert_eq!(&resumed.chips, &reference.chips);
                    prop_assert_eq!(&resumed.link, &reference.link);
                    prop_assert_eq!(resumed.cross_chip_packets, reference.cross_chip_packets);
                }
                RunOutcome::Done(done) => {
                    prop_assert_eq!(&done.properties, &reference.properties);
                    prop_assert_eq!(&done.metrics, &reference.metrics);
                    prop_assert_eq!(&done.chips, &reference.chips);
                }
                RunOutcome::Cancelled => {
                    return Err(fail("nobody requested a cancel"));
                }
            }
        })
    }
}

/// Runs a controlled program to completion, parking at every committed
/// iteration boundary and resuming each time in a fresh engine:
/// `start(control, None)` runs a new engine, `start(control,
/// Some(bytes))` resumes one. Returns the result and the park count.
fn park_at_every_boundary(
    start: impl Fn(&RunControl, Option<&[u8]>) -> RunOutcome<RunResult<u64>>,
) -> (RunResult<u64>, usize) {
    let control = RunControl::new();
    control.set_budget_cycles(Some(1));
    let mut outcome = start(&control, None);
    let mut parks = 0;
    loop {
        match outcome {
            RunOutcome::Done(result) => return (result, parks),
            RunOutcome::Parked(ck) => {
                parks += 1;
                control.set_budget_cycles(Some(ck.cycles + 1));
                outcome = start(&control, Some(&ck.bytes));
            }
            RunOutcome::Cancelled => panic!("nobody requested a cancel"),
        }
    }
}

#[test]
fn parking_at_every_boundary_matches_the_uninterrupted_run() {
    // Under the small memory model a completed cache query stays in its
    // slot across a boundary, and the next iteration's first ask of the
    // same request is answered from it; the checkpoint keeps the query's
    // key, so a restore answers that ask the same way and no cycle moves.
    let g = higraph::graph::gen::erdos_renyi(12, 40, 7, 3);
    let mut cfg = AcceleratorConfig::higraph();
    cfg.memory = memory_variants()[1];
    let prog = Wcc::new();

    let reference = Engine::new(cfg.clone(), &g).run(&prog).expect("no stall");
    let (serial, parks) = park_at_every_boundary(|control, checkpoint| {
        let mut engine = Engine::new(cfg.clone(), &g);
        match checkpoint {
            None => engine.run_controlled(&prog, control).expect("no stall"),
            Some(bytes) => engine
                .resume_controlled(&prog, control, bytes)
                .expect("checkpoint must restore"),
        }
    });
    assert!(parks >= 2, "the serial run parked {parks} times");
    assert_eq!(serial, reference, "serial");

    let sharded = || ShardedEngine::new(cfg.clone(), ShardConfig::new(4), &g);
    let reference = sharded().run(&prog).expect("no stall");
    let (four_chips, parks) = park_at_every_boundary(|control, checkpoint| match checkpoint {
        None => sharded().run_controlled(&prog, control).expect("no stall"),
        Some(bytes) => sharded()
            .resume_controlled(&prog, control, bytes)
            .expect("checkpoint must restore"),
    });
    assert!(parks >= 2, "the four-chip run parked {parks} times");
    assert_eq!(four_chips, reference, "P = 4");
}

/// A wrapper that lies about its activity window: it claims more idle
/// cycles than the wrapped DRAM channel really has. The channel's own
/// `skip` debug-asserts the window, so the corruption is caught instead
/// of silently shifting timing.
#[cfg(debug_assertions)]
struct OverOptimistic(higraph::sim::MemoryChannel);

#[cfg(debug_assertions)]
impl ClockedComponent for OverOptimistic {
    fn tick(&mut self) {
        self.0.tick();
    }

    fn in_flight(&self) -> usize {
        self.0.in_flight()
    }

    fn next_activity(&self) -> Option<u64> {
        self.0.next_activity().map(|w| w + 50)
    }

    fn skip(&mut self, cycles: u64) {
        self.0.skip(cycles);
    }
}

#[test]
fn serial_and_one_chip_checkpoints_share_one_format() {
    // The serial engine is a one-chip sharded engine, so it parks into
    // the same `SHRC` bytes; its retired `ENGC` tag fails by name.
    let g = higraph::graph::gen::erdos_renyi(128, 1024, 31, 1);
    let prog = Bfs::from_source(0);
    let cfg = AcceleratorConfig::higraph();
    let control = RunControl::new();
    control.set_budget_cycles(Some(1));
    let RunOutcome::Parked(serial) = Engine::new(cfg.clone(), &g)
        .run_controlled(&prog, &control)
        .expect("no stall")
    else {
        panic!("the serial run must park");
    };
    let RunOutcome::Parked(one_chip) = ShardedEngine::new(cfg.clone(), ShardConfig::new(1), &g)
        .run_controlled(&prog, &control)
        .expect("no stall")
    else {
        panic!("the one-chip run must park");
    };
    assert!(serial == one_chip, "serial and one-chip checkpoints differ");

    let mut legacy = higraph::sim::SnapWriter::new();
    legacy.tag(b"ENGC");
    let err = Engine::new(cfg, &g)
        .resume_controlled(&prog, &control, &legacy.finish())
        .expect_err("the retired format must be rejected");
    let text = err.to_string();
    assert!(text.contains("SHRC") && text.contains("ENGC"), "{text}");
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "overran the channel's activity window")]
fn over_optimistic_next_activity_is_caught_in_debug_builds() {
    let mut lying = OverOptimistic(higraph::sim::MemoryChannel::new(
        2,
        4,
        DramTiming::default(),
    ));
    lying.0.try_request(0, 0, 0);
    lying.tick(); // service in flight: the true window is miss_cycles - 1
    let mut scheduler = Scheduler::new()
        .with_stall_guard(10_000)
        .with_fast_forward(true);
    let _ = scheduler.drain(&mut lying, |ch, _| while ch.0.pop_ready().is_some() {});
}

#[test]
fn stall_guard_surfaces_deadlock_instead_of_hanging() {
    // Nobody pops: the fabric can never drain its delivered-but-unread
    // output, so the guard must fire.
    let topo = Topology::new(4, 2).expect("valid");
    let mut net: MdpNetwork<P> = MdpNetwork::new(topo, 2);
    net.push(
        0,
        P {
            dest: 1,
            input: 0,
            tag: 9,
        },
    )
    .expect("accepts");
    let mut scheduler = Scheduler::new().with_stall_guard(100);
    let err = scheduler.drain(&mut net, |_, _| {}).expect_err("deadlock");
    assert_eq!(err.limit, 100);
    assert_eq!(err.cycles, 100);
    assert!(!net.is_empty(), "packet still inside the fabric");
}
