//! The batch runner's contract: parallel execution is an optimization,
//! never a semantic change. Every batched simulation must be bit-identical
//! to the same job run serially through `Engine::run` / `Engine::run_sliced`,
//! including on hosts where the parallel path genuinely crosses threads
//! (the shared `CorePool` is pinned to 4 resident workers via
//! `HIGRAPH_POOL_THREADS` before its first use, so this holds on
//! single-core CI too).

use higraph::prelude::*;
use higraph_bench::Scale;

/// Pins the shared `CorePool` to 4 resident workers. Must run before
/// anything touches `CorePool::global()` in this process — every test
/// in this binary that uses the parallel runner goes through here, so
/// the first one to execute wins and the rest agree.
fn pin_pool_workers() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        if std::env::var_os("HIGRAPH_POOL_THREADS").is_none() {
            std::env::set_var("HIGRAPH_POOL_THREADS", "4");
        }
    });
}

/// Runs `jobs` through the parallel batch runner on a 4-worker pool, so
/// the threaded path is exercised regardless of host core count.
fn run_on_pool<Prog>(jobs: Vec<BatchJob<'_, Prog>>) -> Vec<BatchResult<Prog::Prop>>
where
    Prog: VertexProgram + Sync,
    Prog::Prop: Send,
{
    pin_pool_workers();
    BatchRunner::parallel().run(jobs).0
}

#[test]
fn parallel_batch_is_bit_identical_to_serial_engine_runs() {
    let scale = Scale::tiny();
    let graph = scale.build(Dataset::Vote);
    let source = higraph::graph::stats::hub_vertex(&graph)
        .map(|v| v.0)
        .unwrap_or(0);

    // ≥ 4 (program × config) points: one program across four designs…
    let configs = [
        AcceleratorConfig::higraph(),
        AcceleratorConfig::higraph_mini(),
        AcceleratorConfig::graphdyns(),
        AcceleratorConfig::higraph_with_opts(OptLevel::OE),
    ];
    let jobs: Vec<_> = configs
        .iter()
        .map(|c| BatchJob::new(&c.name, &graph, Bfs::from_source(source), c.clone()))
        .collect();
    let batched = run_on_pool(jobs);
    assert_eq!(batched.len(), configs.len());
    for (result, config) in batched.iter().zip(&configs) {
        let serial = Engine::new(config.clone(), &graph)
            .run(&Bfs::from_source(source))
            .expect("no stall");
        assert_eq!(result.label, config.name);
        assert_eq!(result.properties, serial.properties, "{}", config.name);
        assert_eq!(result.metrics, serial.metrics, "{}", config.name);
    }

    // …and a second program over two designs, so the sweep covers
    // multiple (program × config) combinations end to end.
    let pr_configs = [AcceleratorConfig::higraph(), AcceleratorConfig::graphdyns()];
    let pr_jobs: Vec<_> = pr_configs
        .iter()
        .map(|c| BatchJob::new(&c.name, &graph, PageRank::new(scale.pr_iters), c.clone()))
        .collect();
    for (result, config) in run_on_pool(pr_jobs).iter().zip(&pr_configs) {
        let serial = Engine::new(config.clone(), &graph)
            .run(&PageRank::new(scale.pr_iters))
            .expect("no stall");
        assert_eq!(result.properties, serial.properties, "PR {}", config.name);
        assert_eq!(result.metrics, serial.metrics, "PR {}", config.name);
    }
}

#[test]
fn batched_sliced_runs_match_serial_run_sliced() {
    let graph = Dataset::Vote.build_scaled(16);
    let jobs: Vec<_> = [2usize, 4]
        .into_iter()
        .map(|slices| {
            BatchJob::new(
                &format!("sliced×{slices}"),
                &graph,
                PageRank::new(3),
                AcceleratorConfig::higraph(),
            )
            .sliced(slices, 64)
        })
        .collect();
    let batched = run_on_pool(jobs);
    for (result, slices) in batched.iter().zip([2usize, 4]) {
        let serial = Engine::new(AcceleratorConfig::higraph(), &graph)
            .run_sliced(&PageRank::new(3), slices, 64)
            .expect("no stall");
        assert_eq!(result.properties, serial.properties, "{slices} slices");
        assert_eq!(result.metrics, serial.metrics, "{slices} slices");
        let timing = result.sliced.expect("sliced timing reported");
        assert_eq!(timing.num_slices, slices);
        assert_eq!(timing.swap_cycles_sequential, serial.swap_cycles_sequential);
        assert_eq!(timing.swap_cycles_overlapped, serial.swap_cycles_overlapped);
    }
}

#[test]
fn zero_slice_job_fails_alone() {
    // A zero slice count is a bad job, not a broken batch: it fails its
    // own entry with a configuration error while its neighbours run.
    let graph = Dataset::Vote.build_scaled(16);
    let job = |label: &str| {
        BatchJob::new(
            label,
            &graph,
            PageRank::new(2),
            AcceleratorConfig::higraph(),
        )
    };
    let jobs = vec![
        job("whole"),
        job("zero").sliced(0, 64),
        job("two").sliced(2, 64),
    ];
    let results = run_on_pool(jobs);
    assert!(results[0].is_ok() && results[2].is_ok());
    assert!(results[1].properties.is_empty());
    match &results[1].error {
        Some(BatchError::Config(message)) => assert!(message.contains("slice"), "{message}"),
        other => panic!("expected a configuration error, got {other:?}"),
    }
    assert_eq!(results[0].properties, results[2].properties);
}

#[test]
fn report_aggregates_and_preserves_job_order() {
    let graph = Dataset::Vote.build_scaled(16);
    let jobs: Vec<_> = (0..6)
        .map(|i| {
            BatchJob::new(
                &format!("job{i}"),
                &graph,
                Bfs::from_source(i),
                AcceleratorConfig::higraph_mini(),
            )
        })
        .collect();
    pin_pool_workers();
    let (results, report) = BatchRunner::parallel().run(jobs);
    let labels: Vec<_> = results.iter().map(|r| r.label.as_str()).collect();
    assert_eq!(labels, ["job0", "job1", "job2", "job3", "job4", "job5"]);
    assert_eq!(report.jobs, 6);
    assert_eq!(
        report.total_simulated_cycles,
        results.iter().map(|r| r.metrics.cycles).sum::<u64>()
    );
    assert!(report.total_edges_processed > 0);
    assert!(report.sims_per_second() > 0.0);
}
