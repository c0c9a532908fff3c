//! Intra-run parallelism determinism: a sharded run's cycles, metrics,
//! properties, and link counters are bit-identical however many pool
//! workers drain its phases, with fast-forward on or off, and whatever
//! else the pool is running. The pool size is a host-performance knob,
//! never a results knob — see `docs/performance.md`.

use higraph::pool::CorePool;
use higraph::prelude::*;
use higraph::sim::{content_checksum, NetworkStats};
use std::process::Command;

/// The test that each cross-pool-size test re-runs at each pool size.
const CHILD: &str = "sharded_scenarios_print_their_results";
/// Names the one scenario a re-run [`CHILD`] prints; unset, it prints all.
const SCENARIO: &str = "HIGRAPH_DETERMINISM_SCENARIO";
/// Prefix of every line the child prints for comparison.
const MARK: &str = "determinism| ";

/// A P=4 sharded run of `prog`.
fn run_p4<Prog>(
    cfg: &AcceleratorConfig,
    graph: &Csr,
    prog: &Prog,
    fast_forward: bool,
) -> (Vec<Prog::Prop>, Metrics, Vec<Metrics>, u64, NetworkStats)
where
    Prog: VertexProgram + Sync,
    Prog::Prop: Send,
{
    let mut engine = ShardedEngine::new(cfg.clone(), ShardConfig::new(4), graph);
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

/// Prints the run of `prog` with fast-forward on and off, which must
/// agree.
fn print_both_modes<Prog>(label: &str, cfg: &AcceleratorConfig, graph: &Csr, prog: &Prog)
where
    Prog: VertexProgram + Sync,
    Prog::Prop: Send + std::fmt::Debug + PartialEq,
{
    let fast = run_p4(cfg, graph, prog, true);
    let naive = run_p4(cfg, graph, prog, false);
    assert_eq!(fast, naive, "{label}: fast-forward moved a result");
    println!("{MARK}{label}: {fast:?}");
}

fn sssp_scenario() {
    let g = higraph::graph::gen::power_law(300, 2700, 2.0, 31, 91);
    let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
    print_both_modes(
        "sssp",
        &AcceleratorConfig::higraph(),
        &g,
        &Sssp::from_source(src),
    );
}

/// Memory-stalled drains exercise the fast-forward window path (bulk
/// skip + commit_idle) on the worker side.
fn modeled_memory_scenario() {
    let g = higraph::graph::gen::power_law(300, 2400, 2.0, 31, 93);
    let mut cfg = AcceleratorConfig::higraph();
    cfg.memory = Some(MemoryConfig::hbm2().with_cache_kb(16));
    print_both_modes("pr hbm2 16KiB", &cfg, &g, &PageRank::new(2));
}

/// Fault windows pause chips, brown out DRAM channels and stall the
/// link on the global cycle timeline, inside each per-chip drain.
fn fault_plan_scenario() {
    let g = higraph::graph::gen::power_law(300, 2700, 2.0, 31, 101);
    let prog = PageRank::new(2);
    let clean = run_p4(&AcceleratorConfig::higraph(), &g, &prog, true);
    let mut cfg = AcceleratorConfig::higraph();
    cfg.memory = Some(MemoryConfig::hbm2().with_cache_kb(16));
    cfg.fault_plan = Some(FaultPlan {
        seed: 11,
        events: 12,
        max_duration: 200,
        horizon: clean.1.scatter_cycles,
    });
    print_both_modes("pr fault plan", &cfg, &g, &prog);
}

fn stall_scenario() {
    let g = higraph::graph::gen::erdos_renyi(128, 1024, 31, 97);
    let mut engine = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g);
    engine.set_stall_guard(Some(2));
    let stall = engine.run(&Bfs::from_source(0)).expect_err("must stall");
    println!("{MARK}stall at guard 2: {stall:?}");
}

fn park_and_resume_scenario() {
    let g = higraph::graph::gen::power_law(300, 2700, 2.0, 31, 103);
    let src = higraph::graph::stats::hub_vertex(&g).expect("non-empty").0;
    let prog = Sssp::from_source(src);
    let mut engine = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g);
    let control = RunControl::new();
    control.set_budget_cycles(Some(1));
    let parked = match engine.run_controlled(&prog, &control).expect("no stall") {
        RunOutcome::Parked(ck) => ck,
        other => panic!("expected a parked run, got {other:?}"),
    };
    println!(
        "{MARK}parked at budget 1: {} bytes, checksum {:#x}, {} cycles, {} iterations",
        parked.bytes.len(),
        content_checksum(&parked.bytes),
        parked.cycles,
        parked.iterations
    );
    control.set_budget_cycles(None);
    match engine
        .resume_controlled(&prog, &control, &parked.bytes)
        .expect("resumes")
    {
        RunOutcome::Done(r) => println!(
            "{MARK}resumed: {:?}",
            (r.properties, r.metrics, r.chips, r.link)
        ),
        other => panic!("expected completion, got {other:?}"),
    }
}

/// The cross-pool-size scenarios, by the name [`SCENARIO`] selects.
const SCENARIOS: [(&str, fn()); 5] = [
    ("sssp", sssp_scenario),
    ("modeled memory", modeled_memory_scenario),
    ("fault plan", fault_plan_scenario),
    ("stall", stall_scenario),
    ("park and resume", park_and_resume_scenario),
];

/// Runs the scenario [`SCENARIO`] names (every scenario when it is
/// unset) at this process's pool size and prints one line per result;
/// [`assert_identical_across_pool_sizes`] compares the lines across
/// pool sizes.
#[test]
fn sharded_scenarios_print_their_results() {
    println!("{MARK}pool workers {}", CorePool::global().workers());
    let only = std::env::var(SCENARIO).ok();
    for (name, scenario) in SCENARIOS {
        if only.as_deref().is_none_or(|only| only == name) {
            scenario();
        }
    }
}

/// Re-runs this test binary's [`CHILD`] on `scenario` with `workers`
/// resident pool workers and returns its result lines.
fn child_results(scenario: &str, workers: usize) -> Vec<String> {
    let out = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", CHILD, "--nocapture"])
        .env("HIGRAPH_POOL_THREADS", workers.to_string())
        .env(SCENARIO, scenario)
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{scenario} child at {workers} workers failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines = stdout.lines().filter_map(|line| {
        line.find(MARK)
            .map(|at| line[at + MARK.len()..].to_string())
    });
    assert_eq!(
        lines.next(),
        Some(format!("pool workers {workers}")),
        "the child must run at the pool size it was given:\n{stdout}"
    );
    let results: Vec<String> = lines.collect();
    assert!(
        !results.is_empty(),
        "the {scenario} child printed no results:\n{stdout}"
    );
    results
}

/// Runs `scenario` in a child process at 0, 1 and 4 pool workers and
/// asserts that every child prints the same results. The pool size is
/// fixed per process at first use, so each size gets its own process.
/// With no workers every drain runs on the calling thread; with 4, each
/// lane of a P = 4 phase (the link and four chips) can run on its own
/// thread.
fn assert_identical_across_pool_sizes(scenario: &str) {
    let serial = child_results(scenario, 0);
    for workers in [1usize, 4] {
        let parallel = child_results(scenario, workers);
        assert_eq!(
            parallel.len(),
            serial.len(),
            "{scenario}: {workers} workers"
        );
        for (got, want) in parallel.iter().zip(&serial) {
            assert!(
                got == want,
                "{scenario}: {workers} workers diverged from 0:\n{got}\n{want}"
            );
        }
    }
}

#[test]
fn sharded_run_is_bit_identical_across_worker_threads() {
    assert_identical_across_pool_sizes("sssp");
}

#[test]
fn parallel_drain_is_bit_identical_under_modeled_memory() {
    assert_identical_across_pool_sizes("modeled memory");
}

#[test]
fn fault_plan_run_is_bit_identical_across_worker_threads() {
    assert_identical_across_pool_sizes("fault plan");
}

#[test]
fn parallel_drain_reports_stalls_like_serial() {
    assert_identical_across_pool_sizes("stall");
}

#[test]
fn parked_and_resumed_run_is_bit_identical_across_worker_threads() {
    assert_identical_across_pool_sizes("park and resume");
}

#[test]
fn parallel_drain_matches_reference_results() {
    let g = higraph::graph::gen::erdos_renyi(256, 2048, 31, 95);
    let prog = Bfs::from_source(0);
    let expect = higraph::vcpm::reference::execute(&prog, &g);
    let (properties, metrics, ..) = run_p4(&AcceleratorConfig::higraph(), &g, &prog, true);
    assert_eq!(properties, expect.properties);
    assert_eq!(metrics.edges_processed, expect.edges_processed);
}

// ---------------------------------------------------------------------
// Pool stress suite: the shared work-stealing CorePool under
// oversubscription, randomized injection order, and mid-run
// cancellation. The invariant is always the same — every completed
// job's results are bit-identical to a run of that job alone, no
// matter how the host cores were contended for.
// ---------------------------------------------------------------------

/// One stress job: SSSP from `source` on `graphs[graph]`, P = 4 chips.
fn stress_job(graphs: &[Csr], (graph, source): (usize, u32)) -> (Vec<u64>, Metrics, u64) {
    let mut engine = ShardedEngine::new(
        AcceleratorConfig::higraph(),
        ShardConfig::new(4),
        &graphs[graph],
    );
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
    // 12 jobs x 4 chips on a laptop-sized host: jobs and their phases'
    // drains, each a batch nested in a job, vastly outnumber cores, so
    // drains run on idle workers, on the job's own thread, or both.
    let graphs = stress_graphs();
    let jobs = stress_jobs(&graphs);
    let alone: Vec<_> = jobs.iter().map(|&job| stress_job(&graphs, job)).collect();
    let pool = CorePool::global();
    let concurrent = pool.run_ordered(jobs.len(), |i| stress_job(&graphs, jobs[i]));
    for (i, (got, want)) in concurrent.iter().zip(&alone).enumerate() {
        assert_eq!(
            got, want,
            "job {i} ({:?}) diverged from its run alone",
            jobs[i]
        );
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
    let alone: Vec<_> = jobs.iter().map(|&job| stress_job(&graphs, job)).collect();
    let pool = CorePool::global();
    for seed in [7u64, 19, 83] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let shuffled = pool.run_ordered(order.len(), |i| stress_job(&graphs, jobs[order[i]]));
        for (slot, result) in order.iter().zip(&shuffled) {
            assert_eq!(
                *result, alone[*slot],
                "seed {seed}: job {slot} diverged under shuffled injection"
            );
        }
    }
}

#[test]
fn cancellation_mid_run_leaves_completed_jobs_bit_identical() {
    // Drive the job service a step at a time: cancel a queued job while
    // another is already done, then check each *completed* job against a
    // direct run of the same specification.
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
            .run_sharded(
                &AcceleratorConfig::higraph(),
                ShardConfig::new(2),
                &graph,
                3,
            )
            .expect("well-sized config");
        assert_eq!(
            cycles_of(line),
            reference.metrics.cycles,
            "{id}: service run diverged from a direct run"
        );
    }
}
