//! Sharded multi-chip execution must compute exactly what the serial
//! engine computes, and its modeled inter-chip traffic must agree with
//! the partitioner's static cut.
//!
//! Four layers of guarantees:
//!
//! * **P = 1 bit-identity** — one chip is the serial engine: identical
//!   Property Array *and* identical `Metrics` (cycles, starvation, fabric
//!   counters), on the Twitter stand-in. The serial engine is built as a
//!   one-chip sharded engine, so this now holds by construction.
//! * **Pinned counts** — serial, sliced and four-chip runs reproduce
//!   exact cycle and stall counts recorded when each mode had its own
//!   loop, so the shared driver is checked against something other than
//!   itself.
//! * **P > 1 result identity** — any chip count yields the serial
//!   Property Array; only the timing model changes.
//! * **Traffic accounting** — over one full-frontier iteration, the
//!   packets carried by the link fabric equal the partitioner's reported
//!   cut-edge count (property-tested across random graphs and chip
//!   counts), and the link delivers every packet it accepts.

use higraph::graph::gen::{erdos_renyi, power_law};
use higraph::graph::slicing::{partition, total_cut_edges};
use higraph::prelude::*;
use proptest::prelude::*;

fn twitter_standin() -> Csr {
    // ÷16 keeps the conflict-heavy shape at integration-test cost.
    Dataset::Twitter.build_scaled(16)
}

#[test]
fn one_chip_is_bit_identical_to_serial_on_twitter() {
    let g = twitter_standin();
    let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
    let prog = Bfs::from_source(src);
    let serial = Engine::new(AcceleratorConfig::higraph(), &g)
        .run(&prog)
        .expect("no stall");
    let sharded = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(1), &g)
        .run(&prog)
        .expect("no stall");
    assert_eq!(sharded.properties, serial.properties);
    assert_eq!(sharded.metrics, serial.metrics, "aggregate == serial");
    assert_eq!(sharded.chips[0], serial.metrics, "chip 0 == serial");
    assert_eq!(sharded.cross_chip_packets, 0);
}

#[test]
fn four_chips_match_serial_results_on_twitter() {
    let g = twitter_standin();
    let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
    for_programs(&g, src, |name, serial_props, sharded| {
        assert_eq!(sharded.properties, serial_props, "{name}");
        assert!(
            sharded.cross_chip_packets > 0,
            "{name}: 4-way cut is never free"
        );
        assert_eq!(sharded.link.delivered, sharded.link.accepted, "{name}");
    });
}

/// Runs BFS and PR through both engines at P=4 and hands the results to
/// `check`.
fn for_programs<F>(g: &Csr, src: u32, mut check: F)
where
    F: FnMut(&str, Vec<u64>, RunResult<u64>),
{
    let bfs = Bfs::from_source(src);
    let serial = Engine::new(AcceleratorConfig::higraph(), g)
        .run(&bfs)
        .expect("no stall");
    let sharded = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), g)
        .run(&bfs)
        .expect("no stall");
    check("BFS", serial.properties, sharded);

    let pr = PageRank::new(3);
    let serial = Engine::new(AcceleratorConfig::higraph(), g)
        .run(&pr)
        .expect("no stall");
    let sharded = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), g)
        .run(&pr)
        .expect("no stall");
    check("PR", serial.properties, sharded);
}

#[test]
fn sharded_jobs_match_through_the_batch_runner() {
    let g = power_law(400, 3600, 2.0, 31, 51);
    let make_jobs = || {
        vec![
            BatchJob::new("serial", &g, PageRank::new(4), AcceleratorConfig::higraph()),
            BatchJob::new("p2", &g, PageRank::new(4), AcceleratorConfig::higraph())
                .sharded(ShardConfig::new(2)),
            BatchJob::new("p8", &g, PageRank::new(4), AcceleratorConfig::higraph())
                .sharded(ShardConfig::new(8)),
        ]
    };
    let runs = |results: Vec<BatchResult<u64>>| -> Vec<(String, RunResult<u64>)> {
        results
            .into_iter()
            .map(|r| (r.label, r.run.expect("well-sized config")))
            .collect()
    };
    let par = runs(BatchRunner::parallel().run(make_jobs()).0);
    let ser = runs(BatchRunner::serial().run(make_jobs()).0);
    for ((label, p), (_, s)) in par.iter().zip(&ser) {
        assert_eq!(p.properties, s.properties, "{label}");
        assert_eq!(p.metrics, s.metrics, "{label}");
        // the chip count, per-chip cycles and cross-chip packets
        assert_eq!(p.chips, s.chips, "{label}");
        assert_eq!(p.cross_chip_packets, s.cross_chip_packets, "{label}");
    }
    // all three modes agree on the algorithm result
    assert_eq!(par[0].1.properties, par[1].1.properties);
    assert_eq!(par[0].1.properties, par[2].1.properties);
}

/// The counters [`every_mode_keeps_its_recorded_cycle_counts`] pins:
/// cycles, scatter and apply cycles, vPE starvation, offset conflicts,
/// dataflow deliveries and memory stall cycles.
fn pinned(m: &Metrics) -> [u64; 7] {
    [
        m.cycles,
        m.scatter_cycles,
        m.apply_cycles,
        m.vpe_starvation_cycles,
        m.offset_conflicts,
        m.dataflow_net.delivered,
        m.memory.stall_cycles,
    ]
}

#[test]
fn every_mode_keeps_its_recorded_cycle_counts() {
    // Serial and one-chip runs share one driver, so comparing them checks
    // the driver against itself. Exact counts pin the simulated machine
    // instead: a change to any of them changes the model.
    let g = power_law(300, 2700, 2.0, 31, 23);
    let prog = Sssp::from_source(higraph::graph::stats::hub_vertex(&g).expect("non-empty").0);
    let cases = [
        (
            "memory off",
            None,
            [513, 401, 112, 8034, 191, 4798, 0],
            [861, 749, 112, 19170, 642, 4798, 0],
            (7208, 6694),
            [411, 355, 56, 25506, 836, 4798, 0],
        ),
        (
            "16 KiB cache",
            Some(MemoryConfig::hbm2().with_cache_kb(16)),
            [3102, 2990, 112, 90882, 17, 4798, 54398],
            [4741, 4629, 112, 143330, 142, 4798, 61219],
            (7208, 4316),
            [2127, 2071, 56, 235906, 194, 4798, 121137],
        ),
    ];
    for (label, memory, serial, sliced, swap, sharded) in cases {
        let mut cfg = AcceleratorConfig::higraph();
        cfg.memory = memory;
        let mut engine = Engine::new(cfg.clone(), &g);
        let s = engine.run(&prog).expect("no stall");
        assert_eq!(pinned(&s.metrics), serial, "serial, {label}");
        let k = engine.run_sliced(&prog, 3, 32).expect("no stall");
        assert_eq!(pinned(&k.metrics), sliced, "sliced k = 3, {label}");
        assert_eq!(
            (k.swap_cycles_sequential, k.swap_cycles_overlapped),
            swap,
            "sliced swap cycles, {label}"
        );
        let p = ShardedEngine::new(cfg, ShardConfig::new(4), &g)
            .run(&prog)
            .expect("no stall");
        assert_eq!(pinned(&p.metrics), sharded, "P = 4, {label}");
        assert_eq!(p.properties, s.properties, "{label}");
        assert_eq!(k.properties, s.properties, "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One full-frontier iteration ships exactly the partitioner's cut:
    /// the link fabric's packet count equals `total_cut_edges`, for any
    /// graph shape and chip count.
    #[test]
    fn cross_shard_packets_equal_cut_edges(
        n in 16u32..200,
        m in 32u64..1600,
        chips in 2usize..9,
        seed in 0u64..50,
    ) {
        let g = erdos_renyi(n, m, 15, seed);
        let cut = total_cut_edges(&partition(&g, chips));
        let mut engine =
            ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(chips), &g);
        prop_assert_eq!(engine.cut_edges(), cut);
        // PageRank's first (and here only) iteration activates every vertex,
        // so each edge is processed exactly once.
        let r = engine.run(&PageRank::new(1)).expect("no stall");
        prop_assert_eq!(r.cross_chip_packets, cut);
        prop_assert_eq!(r.link.accepted, cut);
        prop_assert_eq!(r.link.delivered, cut);
        // and the traversal itself covers every edge exactly once
        prop_assert_eq!(r.metrics.edges_processed, g.num_edges());
    }
}
