//! Intra-run parallelism determinism: a sharded run's cycles, metrics,
//! properties, and link counters are bit-identical whether the chips are
//! ticked by the serial drain or by 2 or 8 worker threads, with
//! fast-forward on or off. The worker count is a host-performance knob,
//! never a results knob — see `docs/performance.md`.

use higraph::prelude::*;
use higraph::sim::NetworkStats;

/// A P=4 sharded run of `prog` with an explicit worker-thread setting.
fn run_with_threads<Prog>(
    cfg: &AcceleratorConfig,
    graph: &Csr,
    prog: &Prog,
    threads: usize,
    fast_forward: bool,
) -> (Vec<Prog::Prop>, Metrics, Vec<Metrics>, u64, NetworkStats)
where
    Prog: VertexProgram + Sync,
    Prog::Prop: Send,
{
    let mut engine = ShardedEngine::new(cfg.clone(), ShardConfig::new(4), graph);
    engine.set_threads(Some(threads));
    engine.set_fast_forward(fast_forward);
    let r = engine.run(prog).expect("well-sized config");
    (
        r.properties,
        r.metrics,
        r.chips,
        r.cross_chip_packets,
        r.link,
    )
}

fn assert_identical_across_thread_counts<Prog>(cfg: &AcceleratorConfig, graph: &Csr, prog: &Prog)
where
    Prog: VertexProgram + Sync,
    Prog::Prop: Send + std::fmt::Debug + PartialEq,
{
    for fast_forward in [true, false] {
        let serial = run_with_threads(cfg, graph, prog, 1, fast_forward);
        for threads in [2usize, 8] {
            let parallel = run_with_threads(cfg, graph, prog, threads, fast_forward);
            let label = format!("{} threads, fast_forward={fast_forward}", threads);
            assert_eq!(parallel.0, serial.0, "properties differ ({label})");
            assert_eq!(parallel.1, serial.1, "aggregate metrics differ ({label})");
            assert_eq!(parallel.2, serial.2, "per-chip metrics differ ({label})");
            assert_eq!(parallel.3, serial.3, "cross-chip packets differ ({label})");
            assert_eq!(parallel.4, serial.4, "link stats differ ({label})");
        }
    }
}

#[test]
fn sharded_run_is_bit_identical_across_worker_threads() {
    let g = higraph::graph::gen::power_law(300, 2700, 2.0, 31, 91);
    let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
    assert_identical_across_thread_counts(
        &AcceleratorConfig::higraph(),
        &g,
        &Sssp::from_source(src),
    );
}

#[test]
fn parallel_drain_is_bit_identical_under_modeled_memory() {
    // Memory-stalled drains exercise the fast-forward window path (bulk
    // skip + commit_idle) on the worker side.
    let g = higraph::graph::gen::power_law(300, 2400, 2.0, 31, 93);
    let mut cfg = AcceleratorConfig::higraph();
    cfg.memory = Some(MemoryConfig::hbm2().with_cache_kb(16));
    assert_identical_across_thread_counts(&cfg, &g, &PageRank::new(2));
}

#[test]
fn parallel_drain_matches_reference_results() {
    let g = higraph::graph::gen::erdos_renyi(256, 2048, 31, 95);
    let prog = Bfs::from_source(0);
    let expect = higraph::vcpm::reference::execute(&prog, &g);
    for threads in [2usize, 4, 8] {
        let (properties, metrics, ..) =
            run_with_threads(&AcceleratorConfig::higraph(), &g, &prog, threads, true);
        assert_eq!(properties, expect.properties, "{threads} threads");
        assert_eq!(
            metrics.edges_processed, expect.edges_processed,
            "{threads} threads"
        );
    }
}

#[test]
fn parallel_drain_reports_stalls_like_serial() {
    let g = higraph::graph::gen::erdos_renyi(128, 1024, 31, 97);
    let run = |threads: usize| {
        let mut engine = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g);
        engine.set_threads(Some(threads));
        engine.set_stall_guard(Some(2));
        engine.run(&Bfs::from_source(0)).expect_err("must stall")
    };
    let serial = run(1);
    for threads in [2usize, 8] {
        let parallel = run(threads);
        assert_eq!(parallel, serial, "{threads} threads");
    }
}

#[test]
fn fault_plan_run_is_bit_identical_across_worker_threads() {
    // Fault windows pause chips, brown out DRAM channels and stall the
    // link on the global cycle timeline, inside each per-chip drain.
    let g = higraph::graph::gen::power_law(300, 2700, 2.0, 31, 101);
    let prog = PageRank::new(2);
    let clean = run_with_threads(&AcceleratorConfig::higraph(), &g, &prog, 1, true);
    let mut cfg = AcceleratorConfig::higraph();
    cfg.memory = Some(MemoryConfig::hbm2().with_cache_kb(16));
    cfg.fault_plan = Some(FaultPlan {
        seed: 11,
        events: 12,
        max_duration: 200,
        horizon: clean.1.scatter_cycles,
    });
    assert_identical_across_thread_counts(&cfg, &g, &prog);
}

#[test]
fn parked_and_resumed_run_is_bit_identical_across_worker_threads() {
    let g = higraph::graph::gen::power_law(300, 2700, 2.0, 31, 103);
    let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
    let prog = Sssp::from_source(src);
    let run = |threads: usize| {
        let mut engine = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g);
        engine.set_threads(Some(threads));
        let control = RunControl::new();
        control.set_budget_cycles(Some(1));
        let parked = match engine.run_controlled(&prog, &control).expect("no stall") {
            ShardedOutcome::Parked(ck) => ck,
            other => panic!("expected a parked run, got {other:?}"),
        };
        control.set_budget_cycles(None);
        match engine
            .resume_controlled(&prog, &control, &parked.bytes)
            .expect("resumes")
        {
            ShardedOutcome::Done(r) => (r.properties, r.metrics, r.chips, r.link),
            other => panic!("expected completion, got {other:?}"),
        }
    };
    let serial = run(1);
    for threads in [2usize, 8] {
        assert_eq!(run(threads), serial, "{threads} threads");
    }
}

// ---------------------------------------------------------------------
// Pool stress suite: the shared work-stealing CorePool under
// oversubscription, randomized injection order, and mid-run
// cancellation. The invariant is always the same — every completed
// job's results are bit-identical to a serial (one-thread) run of that
// job alone, no matter how the host cores were contended for.
// ---------------------------------------------------------------------

/// One stress job: SSSP from `source` on `graphs[graph]`, P = 4 chips,
/// with the drain's lease policy chosen by `threads`.
fn stress_job(
    graphs: &[Csr],
    (graph, source): (usize, u32),
    threads: Option<usize>,
) -> (Vec<u64>, Metrics, u64) {
    let mut engine = ShardedEngine::new(
        AcceleratorConfig::higraph(),
        ShardConfig::new(4),
        &graphs[graph],
    );
    engine.set_threads(threads);
    let r = engine
        .run(&Sssp::from_source(source))
        .expect("well-sized config");
    (r.properties, r.metrics, r.cross_chip_packets)
}

fn stress_graphs() -> Vec<Csr> {
    (0..3u64)
        .map(|i| higraph::graph::gen::power_law(220, 1700 + 100 * i, 2.0, 31, 111 + i))
        .collect()
}

fn stress_jobs(graphs: &[Csr]) -> Vec<(usize, u32)> {
    (0..12u32)
        .map(|j| {
            let graph = j as usize % graphs.len();
            (graph, j % graphs[graph].num_vertices())
        })
        .collect()
}

#[test]
fn oversubscribed_job_batch_is_bit_identical_to_serial() {
    // 12 jobs x 4 chips on a laptop-sized host: batch tasks and drain
    // teams vastly outnumber cores, so every lease path (full grant,
    // partial grant, empty grant -> serial fallback) gets exercised.
    let graphs = stress_graphs();
    let jobs = stress_jobs(&graphs);
    let serial: Vec<_> = jobs
        .iter()
        .map(|&job| stress_job(&graphs, job, Some(1)))
        .collect();
    let pool = higraph::pool::CorePool::global();
    let concurrent = pool.run_ordered(jobs.len(), |i| stress_job(&graphs, jobs[i], None));
    for (i, (got, want)) in concurrent.iter().zip(&serial).enumerate() {
        assert_eq!(got, want, "job {i} ({:?}) diverged from serial", jobs[i]);
    }
}

#[test]
fn seeded_injection_order_does_not_change_results() {
    // Shuffling the submission order perturbs which worker deque each
    // job lands on and therefore the steal interleaving; results must
    // not notice. (Fisher-Yates over a seeded StdRng keeps the
    // permutations themselves reproducible.)
    use rand::{Rng, SeedableRng};
    let graphs = stress_graphs();
    let jobs = stress_jobs(&graphs);
    let serial: Vec<_> = jobs
        .iter()
        .map(|&job| stress_job(&graphs, job, Some(1)))
        .collect();
    let pool = higraph::pool::CorePool::global();
    for seed in [7u64, 19, 83] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let shuffled = pool.run_ordered(order.len(), |i| stress_job(&graphs, jobs[order[i]], None));
        for (slot, result) in order.iter().zip(&shuffled) {
            assert_eq!(
                *result, serial[*slot],
                "seed {seed}: job {slot} diverged under shuffled injection"
            );
        }
    }
}

#[test]
fn cancellation_mid_run_leaves_completed_jobs_bit_identical() {
    // Drive the job service a step at a time: cancel a queued job while
    // another is already done, then check each *completed* job against a
    // pinned-serial run of the same specification.
    use higraph_bench::{Algo, ServeSession};
    let mut session = ServeSession::new();
    let submit = |algo: &str, id: &str, priority: i64| {
        format!(
            "{{\"op\": \"submit\", \"id\": \"{id}\", \"algo\": \"{algo}\", \
             \"chips\": 2, \"divisor\": 32, \"priority\": {priority}}}"
        )
    };
    for line in [
        submit("wcc", "keep-1", 5),
        submit("bfs", "doomed", 1),
        submit("sssp", "keep-2", 3),
    ] {
        let out = session.handle_line(&line);
        assert!(out[0].contains("\"event\": \"queued\""), "{out:?}");
    }
    let first = session.step().expect("three jobs queued");
    assert!(
        first.contains("\"id\": \"keep-1\""),
        "highest priority first"
    );
    let out = session.handle_line("{\"op\": \"cancel\", \"id\": \"doomed\"}");
    assert!(out[0].contains("\"event\": \"cancelled\""), "{out:?}");
    let mut results = vec![first];
    while let Some(line) = session.step() {
        results.push(line);
    }
    assert_eq!(results.len(), 2, "cancelled job never ran: {results:?}");
    let cycles_of = |line: &str| {
        line.split("\"cycles\": ")
            .nth(1)
            .expect("result line has cycles")
            .split([',', '}'])
            .next()
            .unwrap()
            .parse::<u64>()
            .unwrap()
    };
    let graph = Dataset::Vote.build_scaled(32);
    for (algo, id, line) in [
        (Algo::Wcc, "keep-1", &results[0]),
        (Algo::Sssp, "keep-2", &results[1]),
    ] {
        assert!(line.contains(&format!("\"id\": \"{id}\"")), "{line}");
        let reference = algo
            .run_sharded_threads(
                &AcceleratorConfig::higraph(),
                ShardConfig::new(2),
                &graph,
                3,
                Some(1),
            )
            .expect("well-sized config");
        assert_eq!(
            cycles_of(line),
            reference.metrics.cycles,
            "{id}: service run diverged from pinned-serial"
        );
    }
}

#[test]
fn auto_thread_count_is_capped_by_chips() {
    let g = higraph::graph::gen::erdos_renyi(64, 256, 15, 99);
    let mut engine = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(2), &g);
    assert!(engine.worker_threads() >= 1);
    assert!(engine.worker_threads() <= 2, "capped at the chip count");
    engine.set_threads(Some(64));
    assert_eq!(engine.worker_threads(), 2);
    engine.set_threads(Some(1));
    assert_eq!(engine.worker_threads(), 1);
}
