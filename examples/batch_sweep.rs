//! Batch-runner walkthrough: sweep one workload across design points in
//! parallel and read the aggregate report.
//!
//! ```sh
//! cargo run --release -p higraph --example batch_sweep
//! ```

use higraph::prelude::*;

fn main() {
    // One synthetic social graph shared by every job.
    let graph = higraph::graph::gen::power_law(20_000, 160_000, 2.0, 63, 7);
    let source = higraph::graph::stats::hub_vertex(&graph)
        .expect("non-empty")
        .0;

    // A (program × config) batch: the three Table 1 designs, a narrow
    // dataflow-buffer variant, and a sliced large-graph schedule.
    let mut narrow = AcceleratorConfig::higraph();
    narrow.name = "HiGraph[buf=40]".to_string();
    narrow.dataflow_buffer_per_channel = 40;
    let jobs = vec![
        BatchJob::new(
            "GraphDynS",
            &graph,
            Sssp::from_source(source),
            AcceleratorConfig::graphdyns(),
        ),
        BatchJob::new(
            "HiGraph-mini",
            &graph,
            Sssp::from_source(source),
            AcceleratorConfig::higraph_mini(),
        ),
        BatchJob::new(
            "HiGraph",
            &graph,
            Sssp::from_source(source),
            AcceleratorConfig::higraph(),
        ),
        BatchJob::new("HiGraph[buf=40]", &graph, Sssp::from_source(source), narrow),
        BatchJob::new(
            "HiGraph/6 slices",
            &graph,
            Sssp::from_source(source),
            AcceleratorConfig::higraph(),
        )
        .sliced(6, 64),
    ];

    let (results, report) = BatchRunner::parallel().run(jobs);

    println!(
        "SSSP on a 20k-vertex power-law graph, {} parallel jobs:\n",
        report.jobs
    );
    // A job that cannot run fails its own entry; these presets all run.
    let runs: Vec<&RunResult<u64>> = results
        .iter()
        .map(|r| r.run.as_ref().expect("well-sized config"))
        .collect();
    for (r, run) in results.iter().zip(&runs) {
        print!(
            "{:<18} {:>6.2} GTEPS  {:>9} cycles",
            r.label,
            run.metrics.gteps(),
            run.metrics.cycles
        );
        // Swap cycles are 0 unless the job was sliced.
        match run.swap_cycles_overlapped {
            0 => println!(),
            swap => println!("  (+{swap} swap cycles double-buffered)"),
        }
    }
    // All design points computed the same answer — the sweep varies
    // timing, never results.
    assert!(runs.windows(2).all(|w| w[0].properties == w[1].properties));

    println!(
        "\n{} workers, {:.2}s wall — {:.2} sims/s, {:.1}M simulated edges/s",
        report.workers,
        report.wall_seconds,
        report.sims_per_second(),
        report.simulated_meps()
    );
}
