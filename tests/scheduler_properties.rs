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
//! serial and sharded engines park into a serialized checkpoint, and a
//! fresh engine restored from those bytes must finish with properties
//! and [`Metrics`] bit-identical to an uninterrupted run — across the
//! memory model on/off and fast-forward on/off. Serial and one-chip
//! checkpoints are the same bytes, and the retired serial format is
//! rejected by its tag.
//!
//! The final section pins the event wheel to its legacy oracle: the
//! indexed window selection (`higraph_sim::wheel`) must return exactly
//! the minimum the retired O(components) poll would have folded, at
//! every selection of a drain, under randomized traffic and wheel
//! horizons — directly on a [`DramSystem`], and (via the debug-build
//! oracle asserts embedded in `DramSystem::next_activity` and the
//! multi-chip executor) across all execution modes.

use higraph::mdp::{MdpNetwork, Topology};
use higraph::prelude::*;
use higraph::sim::{ClockedComponent, DramTiming, MemoryChannel, Network, Packet, Scheduler};
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
        prop_assert_eq!(
            ClockedComponent::network_stats(&harness.net)
                .expect("fabric keeps stats")
                .delivered,
            count as u64
        );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The wheel-vs-poll oracle, checked at every drain step: drive a
    /// [`higraph::sim::DramSystem`] through the exact fast-forward
    /// discipline `Scheduler::drain_with` uses (select a window, skip it
    /// in bulk when positive, tick otherwise), and at every selection
    /// assert the wheel's `next_activity` equals the legacy
    /// `poll_next_activity` fold it replaced. Randomized traffic shapes
    /// exercise dirty re-registration (accepts), due wakes, bulk
    /// `advance`, and overflow migration (small horizons force wakes
    /// beyond the ring).
    #[test]
    fn wheel_window_matches_legacy_poll_at_every_step(
        channels in 1usize..5,
        banks in 1usize..4,
        depth in 1usize..5,
        log_horizon in 0u32..13, // horizons 1 ..= 4096, all powers of two
        lines in proptest::collection::vec(0u64..512, 1..160),
    ) {
        use higraph::sim::DramSystem;
        let mut dram = DramSystem::new(channels, banks, depth, 4, DramTiming::default());
        dram.set_wheel_horizon(1usize << log_horizon);
        let mut cursor = 0usize;
        let mut spent = 0u64;
        while cursor < lines.len() || dram.in_flight() > 0 {
            prop_assert_eq!(
                dram.next_activity(),
                dram.poll_next_activity(),
                "wheel diverged from the poll oracle at cycle {}",
                spent
            );
            while cursor < lines.len() && dram.try_request(lines[cursor]) {
                cursor += 1;
            }
            // Re-select after the accepts (they dirty the wheel) and
            // fast-forward pure waits the way the scheduler would.
            let window = dram.next_activity();
            prop_assert_eq!(window, dram.poll_next_activity());
            match window {
                Some(w) if w > 0 && cursor >= lines.len() => {
                    dram.skip(w);
                    spent += w;
                }
                _ => {
                    dram.tick();
                    spent += 1;
                }
            }
            while dram.pop_ready().is_some() {}
            prop_assert!(spent < 1_000_000, "stalled: {} lines undelivered", lines.len() - cursor);
        }
        // Quiescent at the end: both sides must agree on `None`.
        prop_assert_eq!(dram.next_activity(), None);
        prop_assert_eq!(dram.poll_next_activity(), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same oracle across execution modes: serial, sliced, and
    /// sharded drains with fast-forward on (the wheel-indexed path) and
    /// the memory model on and off. The step-level comparison lives in
    /// debug asserts inside `DramSystem::next_activity` and the
    /// multi-chip executor's window selection — this property runs under
    /// `cargo test` (debug), so any divergence at any selection of any
    /// drain panics here.
    #[test]
    fn wheel_oracle_holds_across_execution_modes(
        num_v in 48u32..120,
        seed in 0u64..1_000,
        chips in 2usize..4,
        mem_idx in 0usize..2,
    ) {
        let g = higraph::graph::gen::erdos_renyi(num_v, u64::from(num_v * 6), 31, seed);
        let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
        let prog = Bfs::from_source(src);
        let mut cfg = AcceleratorConfig::higraph_mini();
        cfg.memory = memory_variants()[mem_idx];

        let mut engine = Engine::new(cfg.clone(), &g);
        engine.set_fast_forward(true);
        let serial = engine.run(&prog).expect("serial drains");

        let mut engine = Engine::new(cfg.clone(), &g);
        engine.set_fast_forward(true);
        let sliced = engine.run_sliced(&prog, 3, 32).expect("sliced drains");
        prop_assert_eq!(&sliced.properties, &serial.properties);

        let mut engine = ShardedEngine::new(cfg, ShardConfig::new(chips), &g);
        engine.set_fast_forward(true);
        let sharded = engine.run(&prog).expect("sharded drains");
        prop_assert_eq!(&sharded.properties, &serial.properties);
    }
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
        mem_idx in 0usize..2,
        fast in proptest::bool::ANY,
        budget_pct in 1u64..100,
    ) {
        let g = higraph::graph::gen::erdos_renyi(num_v, u64::from(num_v * edge_factor), 31, seed);
        let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
        let prog = Bfs::from_source(src);
        let mut cfg = AcceleratorConfig::higraph_mini();
        cfg.memory = memory_variants()[mem_idx];
        let fresh = || {
            let mut engine = Engine::new(cfg.clone(), &g);
            engine.set_fast_forward(fast);
            engine
        };

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

        // Budgeted run parks at a committed boundary once the randomized
        // budget is spent; the restored continuation must be exact. A
        // budget landing past the last boundary legitimately completes
        // instead — then the result itself must already be exact.
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
        mem_idx in 0usize..2,
        fast in proptest::bool::ANY,
        budget_pct in 1u64..100,
    ) {
        let g = higraph::graph::gen::erdos_renyi(num_v, u64::from(num_v * edge_factor), 31, seed);
        let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
        let prog = Bfs::from_source(src);
        let mut cfg = AcceleratorConfig::higraph_mini();
        cfg.memory = memory_variants()[mem_idx];
        let fresh = || {
            let mut engine = ShardedEngine::new(cfg.clone(), ShardConfig::new(chips), &g);
            engine.set_fast_forward(fast);
            engine
        };

        let reference = fresh().run(&prog).expect("no stall");

        let budget = (reference.metrics.cycles * budget_pct / 100).max(1);
        let control = RunControl::new();
        control.set_budget_cycles(Some(budget));
        match fresh().run_controlled(&prog, &control).expect("no stall") {
            ShardedOutcome::Parked(ck) => {
                let resumed = match fresh()
                    .resume_controlled(&prog, &RunControl::new(), &ck.bytes)
                    .expect("checkpoint must restore")
                {
                    ShardedOutcome::Done(r) => r,
                    _ => return Err(fail("resume must complete")),
                };
                prop_assert_eq!(&resumed.properties, &reference.properties);
                prop_assert_eq!(&resumed.metrics, &reference.metrics);
                prop_assert_eq!(&resumed.chips, &reference.chips);
                prop_assert_eq!(&resumed.link, &reference.link);
                prop_assert_eq!(resumed.cross_chip_packets, reference.cross_chip_packets);
            }
            ShardedOutcome::Done(done) => {
                prop_assert_eq!(&done.properties, &reference.properties);
                prop_assert_eq!(&done.metrics, &reference.metrics);
                prop_assert_eq!(&done.chips, &reference.chips);
            }
            ShardedOutcome::Cancelled => {
                return Err(fail("nobody requested a cancel"));
            }
        }
    }
}

/// A wrapper that lies about its activity window: it claims more idle
/// cycles than the wrapped DRAM channel really has. The channel's own
/// `skip` debug-asserts the window, so the corruption is caught instead
/// of silently shifting timing.
struct OverOptimistic(MemoryChannel);

impl ClockedComponent for OverOptimistic {
    fn tick(&mut self) {
        self.0.tick();
    }

    fn in_flight(&self) -> usize {
        self.0.in_flight()
    }

    fn next_activity(&mut self) -> Option<u64> {
        self.0.activity_window().map(|w| w + 50)
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
    let ShardedOutcome::Parked(one_chip) = ShardedEngine::new(cfg.clone(), ShardConfig::new(1), &g)
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
    let mut lying = OverOptimistic(MemoryChannel::new(2, 4, DramTiming::default()));
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
