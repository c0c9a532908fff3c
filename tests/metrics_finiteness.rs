//! Degenerate-workload coverage: empty graphs and empty initial
//! frontiers must run to completion on every execution path — serial
//! engine, batch runner, sharded engine — with *finite* metrics and no
//! stall panic, and a mis-sized design point must fail only its own
//! batch entry. The machine-readable report round-trips such runs
//! without emitting `null`.

use higraph::prelude::*;
use higraph::vcpm::programs::Wcc;
use higraph_bench::report::{check_against_baseline, parse_flat_json, Report, DEFAULT_TOLERANCE};

/// Every derived metric quantity, as one vector of floats to audit.
fn derived(m: &Metrics) -> Vec<(&'static str, f64)> {
    vec![
        ("gteps", m.gteps()),
        ("time_ns", m.time_ns()),
        ("speedup_over_self", m.speedup_over(m)),
        ("starvation_per_vpe", m.starvation_per_vpe(32)),
        ("starvation_imbalance", m.starvation_imbalance()),
        ("cache_hit_rate", m.memory.cache_hit_rate()),
        ("row_hit_rate", m.memory.row_hit_rate()),
    ]
}

fn assert_finite(m: &Metrics, context: &str) {
    for (name, value) in derived(m) {
        assert!(value.is_finite(), "{context}: {name} = {value}");
    }
}

fn empty_graph() -> Csr {
    EdgeList::new(0).into_csr()
}

fn edgeless_graph() -> Csr {
    EdgeList::new(8).into_csr()
}

#[test]
fn empty_graph_runs_with_finite_metrics() {
    let g = empty_graph();
    let r = Engine::new(AcceleratorConfig::higraph(), &g)
        .run(&Wcc::new())
        .expect("empty graph must not stall");
    assert_eq!(r.metrics.cycles, 0);
    assert_eq!(r.metrics.edges_processed, 0);
    assert_finite(&r.metrics, "empty graph");
}

#[test]
fn empty_frontier_runs_with_finite_metrics() {
    let g = edgeless_graph();
    // out-of-range source → empty initial frontier, zero iterations
    let r = Engine::new(AcceleratorConfig::higraph(), &g)
        .run(&Bfs::from_source(9_999))
        .expect("empty frontier must not stall");
    assert_eq!(r.metrics.iterations, 0);
    assert_eq!(r.metrics.cycles, 0);
    assert_finite(&r.metrics, "empty frontier");
    // a frontier over an edgeless graph still applies and terminates
    let r = Engine::new(AcceleratorConfig::higraph(), &g)
        .run(&Bfs::from_source(0))
        .expect("edgeless graph must not stall");
    assert_eq!(r.metrics.edges_processed, 0);
    assert_finite(&r.metrics, "edgeless graph");
}

#[test]
fn batch_runner_handles_degenerate_jobs() {
    let empty = empty_graph();
    let edgeless = edgeless_graph();
    let jobs = vec![
        BatchJob::new(
            "empty",
            &empty,
            Bfs::from_source(0),
            AcceleratorConfig::higraph(),
        ),
        BatchJob::new(
            "edgeless",
            &edgeless,
            Bfs::from_source(0),
            AcceleratorConfig::higraph(),
        ),
        BatchJob::new(
            "no-frontier",
            &edgeless,
            Bfs::from_source(9_999),
            AcceleratorConfig::higraph(),
        ),
    ];
    let (results, report) = BatchRunner::serial().run(jobs);
    assert_eq!(report.jobs, 3);
    assert_eq!(report.failed_jobs, 0);
    for r in &results {
        let run = r
            .run
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", r.label));
        assert_finite(&run.metrics, &r.label);
    }
    assert!(report.aggregate_gteps().is_finite());
    assert!(report.sims_per_second().is_finite());
    assert!(report.simulated_meps().is_finite());
}

#[test]
fn sharded_engine_handles_degenerate_runs() {
    for (label, g) in [("empty", empty_graph()), ("edgeless", edgeless_graph())] {
        let r = ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(4), &g)
            .run(&Wcc::new())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_finite(&r.metrics, label);
        assert!(r.cycles_per_edge().is_finite(), "{label}");
        assert_eq!(r.cross_chip_packets, 0, "{label}");
        for (i, chip) in r.chips.iter().enumerate() {
            assert_finite(chip, &format!("{label} chip {i}"));
        }
    }
}

#[test]
fn stalled_entry_fails_alone_not_the_sweep() {
    let g = higraph::graph::gen::erdos_renyi(128, 1024, 31, 7);
    let jobs = vec![
        BatchJob::new("ok", &g, Bfs::from_source(0), AcceleratorConfig::higraph()),
        // a 1-cycle budget cannot drain any real scatter phase
        BatchJob::new(
            "doomed",
            &g,
            Bfs::from_source(0),
            AcceleratorConfig::higraph(),
        )
        .with_stall_guard(1),
        BatchJob::new(
            "also-ok",
            &g,
            Bfs::from_source(0),
            AcceleratorConfig::graphdyns(),
        ),
    ];
    let (results, report) = BatchRunner::serial().run(jobs);
    assert_eq!(report.jobs, 3);
    assert_eq!(report.failed_jobs, 1);
    assert!(results[0].run.is_ok());
    assert!(results[2].run.is_ok());
    let err = results[1].run.as_ref().expect_err("doomed entry fails");
    let diagnostic = err.stall().expect("runtime stall, not a config error");
    assert_eq!(diagnostic.stall.limit, 1);
    assert!(err.to_string().contains("stalled"));
    // failed entries contribute nothing to the aggregate totals
    let edges = |i: usize| {
        results[i]
            .run
            .as_ref()
            .map_or(0, |r| r.metrics.edges_processed)
    };
    assert_eq!(report.total_edges_processed, edges(0) + edges(2));
}

#[test]
fn invalid_config_fails_its_entry_not_the_sweep() {
    // A zero staging capacity would build a zero-entry FIFO; validation
    // catches it at engine construction, so the batch entry fails with a
    // config error instead of the whole sweep aborting on a panic.
    let g = higraph::graph::gen::erdos_renyi(64, 512, 31, 11);
    let mut zero_staging = AcceleratorConfig::higraph();
    zero_staging.staging_capacity = 0;
    let mut bad_channels = AcceleratorConfig::higraph();
    bad_channels.front_channels = 12;
    let jobs = vec![
        BatchJob::new("ok", &g, Bfs::from_source(0), AcceleratorConfig::higraph()),
        BatchJob::new("zero-staging", &g, Bfs::from_source(0), zero_staging),
        BatchJob::new(
            "bad-channels",
            &g,
            Bfs::from_source(0),
            bad_channels.clone(),
        ),
        BatchJob::new("bad-sharded", &g, Bfs::from_source(0), bad_channels)
            .sharded(ShardConfig::new(2)),
    ];
    let (results, report) = BatchRunner::serial().run(jobs);
    assert_eq!(report.jobs, 4);
    assert_eq!(report.failed_jobs, 3);
    assert!(results[0].run.is_ok());
    for r in &results[1..] {
        // a failed entry carries its error and no result at all
        let err = r
            .run
            .as_ref()
            .err()
            .unwrap_or_else(|| panic!("{} must fail", r.label));
        assert!(err.stall().is_none(), "{}: {err}", r.label);
        assert!(
            err.to_string().contains("invalid configuration"),
            "{}: {err}",
            r.label
        );
    }
    assert_eq!(
        report.total_edges_processed,
        results[0]
            .run
            .as_ref()
            .map_or(0, |r| r.metrics.edges_processed)
    );
}

#[test]
fn degenerate_metrics_round_trip_through_the_report() {
    // A formerly-NaN metric (gteps of a zero-cycle run) is now 0.0 and
    // must survive writer → parser → perf gate without a `null`.
    let g = empty_graph();
    let r = Engine::new(AcceleratorConfig::higraph(), &g)
        .run(&Wcc::new())
        .expect("no stall");
    let mut report = Report::new();
    report.ran("mem");
    report.record("mem.degenerate.gteps", r.metrics.gteps());
    report.record(
        "mem.degenerate.cache_hit_rate",
        r.metrics.memory.cache_hit_rate(),
    );
    let json = report.to_json();
    assert!(
        !json.contains("null"),
        "degenerate metrics must be finite: {json}"
    );
    let metrics_obj = json
        .split("\"metrics\": ")
        .nth(1)
        .expect("metrics key")
        .trim_end()
        .trim_end_matches('}')
        .trim_end();
    let parsed = parse_flat_json(metrics_obj).expect("round trip parses");
    assert_eq!(parsed["mem.degenerate.gteps"], 0.0);
    let violations = check_against_baseline(&parsed, &parsed.clone(), DEFAULT_TOLERANCE);
    assert!(violations.is_empty(), "{violations:?}");
}
