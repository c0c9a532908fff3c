//! Regenerates every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p higraph-bench --bin repro -- all
//! cargo run --release -p higraph-bench --bin repro -- fig8 fig9 --full
//! cargo run --release -p higraph-bench --bin repro -- table1 shard --json
//! ```
//!
//! Targets: `table1 table2 fig4 fig5 fig7 fig8 fig9 fig10a fig10b fig11
//! fig12 radix areapower ablation batch shard shardfull mem simspeed
//! hostperf dse faults all`. Default scale divides Table 2 datasets by 4
//! (Figs. 5/10/11/12 and the radix sweep always run full-scale R14);
//! `--full` uses the paper's exact sizes everywhere. Every sweep
//! executes through the parallel batch runner, so wall time scales down
//! with core count.
//!
//! `shardfull` runs the six-algorithm sharded sweep (nightly);
//! `simspeed` measures the host-time speedup of the event-driven
//! fast-forward scheduler on the memory sweep and, under `--check`,
//! gates it against a generous 1.5x minimum (host time is noisy; the
//! real win is larger); `hostperf` records absolute simulated cycles
//! per host second on two fixed workloads (the P=4 `shardfull` suite
//! with intra-run chip parallelism, and the bandwidth-starved memory
//! sweep) — informational only, never gated, so future PRs have a
//! host-performance trajectory; `dse` runs the seeded Pareto-front
//! design-space exploration over the cost model (`docs/dse.md`) on its
//! own pinned fidelity schedule (ignores `--full`), sized by
//! `--dse-budget` and gated under `--check` by the anchor
//! `front_excess` threshold plus the budget-independent
//! `dse.anchor.*` baseline keys. A design point that stalls fails its
//! own row — printed as `STALL` and recorded as a `…stalled` metric —
//! without aborting the sweep; `faults` soaks the engines under seeded
//! fault plans (link stalls, DRAM brown-outs, chip pauses —
//! `docs/robustness.md`): faulty runs must complete with the same
//! results as clean ones at a cycle cost, rerun bit-identically,
//! park/restore mid-fault into the same final metrics, and an
//! overloaded run must surface a `StallDiagnostic` instead of hanging —
//! all gated under `--check`.
//!
//! Flags:
//!
//! * `--json` — additionally write the machine-readable metrics to
//!   `bench-report.json` for CI artifacts and offline comparison.
//!   Recording targets: `table1`, `fig4`, `fig8`/`fig9` (the shared
//!   sweep records both), `fig11`, `batch`, `shard`, `shardfull`,
//!   `mem`, `simspeed` — per-figure cycles, throughput, shard traffic,
//!   memory-hierarchy rates, and simulator host speed. The remaining
//!   targets print human-readable output only;
//! * `--check <baseline.json>` — compare this run against a flat
//!   `{"metric.key": number}` baseline and exit non-zero if any baseline
//!   metric is missing or deviates more than 10%. Baseline keys owned by
//!   targets that did not run this invocation are skipped, so partial
//!   runs gate only what they measured;
//! * `--full` — paper-exact dataset sizes;
//! * `--dse-budget <n>` — rung-0 cohort size for the `dse` target
//!   (default 48; the nightly leg uses 224).

#![forbid(unsafe_code)]

use higraph::prelude::{
    AcceleratorConfig, Bfs, Dataset, Engine, FaultPlan, Metrics, RunControl, ShardConfig,
};
use higraph_bench::dse::{DseOutcome, DseSettings, MAX_ANCHOR_FRONT_EXCESS};
use higraph_bench::report::{
    check_against_baseline, filter_baseline_to_targets, parse_flat_json, DEFAULT_TOLERANCE,
};
use higraph_bench::{figures, Algo, ControlledOutcome, Report, Scale};
use std::collections::BTreeSet;
use std::process::ExitCode;

/// Path `--json` writes to, and the artifact name CI uploads.
const REPORT_PATH: &str = "bench-report.json";

/// Every runnable target, plus the `all` alias.
const KNOWN_TARGETS: [&str; 22] = [
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig9",
    "fig10a",
    "fig10b",
    "fig11",
    "fig12",
    "radix",
    "areapower",
    "ablation",
    "batch",
    "shard",
    "shardfull",
    "mem",
    "simspeed",
    "hostperf",
    "dse",
    "faults",
];

/// Minimum host-time speedup the fast-forward scheduler must deliver on
/// the memory sweep for the `simspeed --check` gate — deliberately
/// generous (the measured ratio is much larger) so host-load noise
/// cannot flake CI.
const MIN_SIMSPEED_RATIO: f64 = 1.5;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut full = false;
    let mut json = false;
    let mut check: Option<String> = None;
    let mut dse_budget: Option<usize> = None;
    let mut targets: BTreeSet<String> = BTreeSet::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => full = true,
            "--json" => json = true,
            "--check" => {
                i += 1;
                match args.get(i) {
                    Some(path) => check = Some(path.clone()),
                    None => {
                        eprintln!("--check needs a baseline path");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--dse-budget" => {
                i += 1;
                match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                    Some(n) if n > 0 => dse_budget = Some(n),
                    _ => {
                        eprintln!("--dse-budget needs a positive integer");
                        return ExitCode::FAILURE;
                    }
                }
            }
            flag if flag.starts_with("--") => {
                eprintln!(
                    "unknown flag {flag} (known: --full --json --check <path> --dse-budget <n>)"
                );
                return ExitCode::FAILURE;
            }
            target => {
                let target = target.to_lowercase();
                if target != "all" && !KNOWN_TARGETS.contains(&target.as_str()) {
                    eprintln!(
                        "unknown target {target} (known: all {})",
                        KNOWN_TARGETS.join(" ")
                    );
                    return ExitCode::FAILURE;
                }
                targets.insert(target);
            }
        }
        i += 1;
    }
    let scale = if full { Scale::full() } else { Scale::quick() };
    if targets.is_empty() || targets.contains("all") {
        targets = KNOWN_TARGETS.into_iter().map(String::from).collect();
    }

    // Read and parse the baseline up front: a bad path or malformed file
    // must fail in milliseconds, not after the whole sweep has run.
    let baseline = match &check {
        None => None,
        Some(path) => match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("failed to read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
            Ok(text) => match parse_flat_json(&text) {
                Err(e) => {
                    eprintln!("malformed baseline {path}: {e}");
                    return ExitCode::FAILURE;
                }
                Ok(map) => Some((path.clone(), map)),
            },
        },
    };

    println!(
        "== HiGraph reproduction harness (scale: ÷{}, PR iterations: {}) ==",
        scale.divisor, scale.pr_iters
    );
    println!("   (Figs. 5 and 10-12 + radix always use full-scale R14; see EXPERIMENTS.md)\n");

    let mut report = Report::new();
    if targets.contains("table1") {
        report.ran("table1");
        table1(&mut report);
    }
    if targets.contains("table2") {
        report.ran("table2");
        table2(scale);
    }
    if targets.contains("fig4") {
        report.ran("fig4");
        fig4(&mut report);
    }
    if targets.contains("fig5") {
        report.ran("fig5");
        fig5(scale);
    }
    if targets.contains("fig7") {
        report.ran("fig7");
        fig7();
    }
    // fig8 and fig9 share the expensive sweep
    if targets.contains("fig8") || targets.contains("fig9") {
        let rows = figures::overall(scale);
        record_overall(&mut report, &rows);
        if targets.contains("fig8") {
            report.ran("fig8");
            fig8(&rows);
        }
        if targets.contains("fig9") {
            report.ran("fig9");
            fig9(&rows);
        }
    }
    if targets.contains("fig10a") || targets.contains("fig10b") {
        let rows = figures::fig10(scale);
        if targets.contains("fig10a") {
            report.ran("fig10a");
            fig10a(&rows);
        }
        if targets.contains("fig10b") {
            report.ran("fig10b");
            fig10b(&rows);
        }
    }
    if targets.contains("fig11") {
        report.ran("fig11");
        fig11(scale, &mut report);
    }
    if targets.contains("fig12") {
        report.ran("fig12");
        fig12(scale);
    }
    if targets.contains("radix") {
        report.ran("radix");
        radix(scale);
    }
    if targets.contains("areapower") {
        report.ran("areapower");
        areapower();
    }
    if targets.contains("ablation") {
        report.ran("ablation");
        ablation(scale);
    }
    if targets.contains("batch") {
        report.ran("batch");
        batch(scale, &mut report);
    }
    if targets.contains("shard") {
        report.ran("shard");
        shard(scale, &mut report);
    }
    if targets.contains("shardfull") {
        report.ran("shardfull");
        shardfull(scale, &mut report);
    }
    if targets.contains("mem") {
        report.ran("mem");
        mem(scale, &mut report);
    }
    let mut simspeed_ratio = None;
    if targets.contains("simspeed") {
        report.ran("simspeed");
        simspeed_ratio = Some(simspeed(scale, &mut report));
    }
    if targets.contains("hostperf") {
        report.ran("hostperf");
        hostperf(scale, &mut report);
    }
    let mut dse_outcome = None;
    if targets.contains("dse") {
        report.ran("dse");
        dse_outcome = Some(dse(dse_budget, &mut report));
    }
    let mut faults_outcome = None;
    if targets.contains("faults") {
        report.ran("faults");
        faults_outcome = Some(faults(scale, &mut report));
    }

    if json {
        if let Err(e) = std::fs::write(REPORT_PATH, report.to_json()) {
            eprintln!("failed to write {REPORT_PATH}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} metrics to {REPORT_PATH}", report.metrics.len());
    }
    if let Some((baseline_path, baseline)) = baseline {
        // The simspeed gate is a fixed threshold, not a baseline value:
        // host-time ratios vary with machine load, so the baseline file
        // carries no simspeed entries and the gate only demands the
        // generous minimum.
        if let Some(ratio) = simspeed_ratio {
            if ratio < MIN_SIMSPEED_RATIO {
                eprintln!(
                    "perf gate FAILED: fast-forward host speedup {ratio:.2}x \
                     below the {MIN_SIMSPEED_RATIO:.1}x minimum"
                );
                return ExitCode::FAILURE;
            }
            println!(
                "perf gate: fast-forward host speedup {ratio:.2}x >= {MIN_SIMSPEED_RATIO:.1}x minimum"
            );
        }
        // The DSE anchor gate is likewise a fixed threshold: the front's
        // exact membership shifts with the candidate budget, so the gate
        // only demands that the paper's two synthesised designs are on or
        // near the Pareto front, however many candidates were explored.
        if let Some(outcome) = &dse_outcome {
            if outcome.front.is_empty() {
                eprintln!("dse gate FAILED: exploration produced an empty Pareto front");
                return ExitCode::FAILURE;
            }
            for anchor in &outcome.anchors {
                if anchor.front_excess > MAX_ANCHOR_FRONT_EXCESS {
                    eprintln!(
                        "dse gate FAILED: anchor {} has front excess {:.2}, \
                         above the {MAX_ANCHOR_FRONT_EXCESS:.1} maximum",
                        anchor.label, anchor.front_excess
                    );
                    return ExitCode::FAILURE;
                }
            }
            println!(
                "dse gate: {} anchors within {MAX_ANCHOR_FRONT_EXCESS:.1}x of the {}-point front",
                outcome.anchors.len(),
                outcome.front.len()
            );
        }
        // The fault-injection gates are boolean invariants, not noisy
        // measurements: faulty runs must be reproducible, restorable
        // mid-fault, and must stall loudly under overload.
        if let Some(outcome) = &faults_outcome {
            if !outcome.deterministic {
                eprintln!("faults gate FAILED: a faulty run was not bit-reproducible");
                return ExitCode::FAILURE;
            }
            if !outcome.degraded_gracefully {
                eprintln!(
                    "faults gate FAILED: a faulty run finished faster than its clean \
                     reference or changed its results"
                );
                return ExitCode::FAILURE;
            }
            if !outcome.park_resume_identical {
                eprintln!(
                    "faults gate FAILED: a mid-fault checkpoint did not restore into \
                     the uninterrupted run's metrics"
                );
                return ExitCode::FAILURE;
            }
            if !outcome.overload_stalled {
                eprintln!(
                    "faults gate FAILED: an overloaded faulty run did not surface a \
                     StallDiagnostic"
                );
                return ExitCode::FAILURE;
            }
            println!(
                "faults gate: faulty runs deterministic, degradation graceful, \
                 mid-fault park/restore bit-identical, overload stalls loudly"
            );
        }
        let gated = filter_baseline_to_targets(&baseline, &report.targets, &KNOWN_TARGETS);
        let violations = check_against_baseline(&report.metrics, &gated, DEFAULT_TOLERANCE);
        if violations.is_empty() {
            println!(
                "perf gate: {} of {} baseline metrics gated (targets that ran) — all within {:.0}% of {baseline_path}",
                gated.len(),
                baseline.len(),
                DEFAULT_TOLERANCE * 100.0
            );
        } else {
            eprintln!("perf gate FAILED against {baseline_path}:");
            for v in &violations {
                eprintln!("  {v}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn batch(scale: Scale, out: &mut Report) {
    println!("-- Batch runner: parallel (program × config) sweep (PR, Slashdot) --");
    let (rows, report) = figures::batch_throughput(scale);
    for r in &rows {
        println!(
            "{:<18} {:5.1} GTEPS over {:>11} cycles{}",
            r.label,
            r.gteps,
            r.cycles,
            if r.sliced { "  (sliced)" } else { "" }
        );
        out.record(format!("batch.{}.cycles", r.label), r.cycles as f64);
        out.record(format!("batch.{}.gteps", r.label), r.gteps);
    }
    println!(
        "{} sims on {} workers: {:.2}s wall, {:.2} sims/s, {:.1}M simulated edges/s host-side,\n\
         aggregate modeled throughput {:.1} GTEPS\n",
        report.jobs,
        report.workers,
        report.wall_seconds,
        report.sims_per_second(),
        report.simulated_meps(),
        report.aggregate_gteps()
    );
}

/// Prints one sharded sweep row and records it under `prefix`; a stalled
/// cell prints its diagnostic and records a `…stalled` marker instead.
fn shard_row(r: &figures::ShardSweepRow, prefix: &str, out: &mut Report) {
    match &r.result {
        Ok(p) => {
            println!(
                "{:<6} {:>5} {:>12} {:>8.1} {:>12.3} {:>13} {:>14} {:>13.1}%",
                r.algo.label(),
                r.chips,
                p.cycles,
                p.gteps,
                p.cycles_per_edge,
                p.max_chip_scatter_cycles,
                p.cross_chip_packets,
                100.0 * p.cross_chip_packets as f64 / p.edges.max(1) as f64
            );
            out.record(format!("{prefix}.cycles"), p.cycles as f64);
            out.record(format!("{prefix}.gteps"), p.gteps);
            out.record(format!("{prefix}.cycles_per_edge"), p.cycles_per_edge);
            out.record(
                format!("{prefix}.cross_chip_packets"),
                p.cross_chip_packets as f64,
            );
            out.record(
                format!("{prefix}.max_chip_scatter_cycles"),
                p.max_chip_scatter_cycles as f64,
            );
        }
        Err(stall) => {
            println!("{:<6} {:>5} STALL: {stall}", r.algo.label(), r.chips);
            out.record(format!("{prefix}.stalled"), 1.0);
        }
    }
}

fn shard(scale: Scale, out: &mut Report) {
    println!("-- Multi-chip sharding: PR on the Twitter stand-in, P = 1/2/4/8 chips --");
    println!(
        "{:<6} {:>5} {:>12} {:>8} {:>12} {:>13} {:>14} {:>14}",
        "algo",
        "chips",
        "cycles",
        "GTEPS",
        "cycles/edge",
        "compute-max",
        "x-chip pkts",
        "pkts/edge"
    );
    for r in figures::shard_sweep(scale) {
        // legacy key shape (no algo segment): the smoke sweep is PR-only
        let prefix = format!("shard.p{}", r.chips);
        shard_row(&r, &prefix, out);
    }
    println!(
        "(P=1 is bit-identical to the serial engine; cross-chip packets are modeled\n\
         through the latency/bandwidth link fabric — see docs/sharding.md)\n"
    );
}

fn shardfull(scale: Scale, out: &mut Report) {
    println!("-- Multi-chip sharding, full workload suite: six algorithms, P = 1/4 chips --");
    println!(
        "{:<6} {:>5} {:>12} {:>8} {:>12} {:>13} {:>14} {:>14}",
        "algo",
        "chips",
        "cycles",
        "GTEPS",
        "cycles/edge",
        "compute-max",
        "x-chip pkts",
        "pkts/edge"
    );
    for r in figures::shard_sweep_full(scale) {
        let prefix = format!("shardfull.{}.p{}", r.algo.label(), r.chips);
        shard_row(&r, &prefix, out);
    }
    println!("(the nightly six-algorithm coverage of the sharded executor)\n");
}

fn simspeed(scale: Scale, out: &mut Report) -> f64 {
    println!("-- Simulator speed: event-driven fast-forward vs per-cycle ticking (mem sweep) --");
    let (rows, speedup) = figures::simspeed(scale);
    for r in &rows {
        println!(
            "{:<13} {:>8.2}s host, {:>11} simulated cycles, {:>12.0} cycles/s",
            r.mode, r.host_seconds, r.simulated_cycles, r.cycles_per_host_second
        );
        let p = format!("simspeed.{}", r.mode);
        out.record(format!("{p}.host_seconds"), r.host_seconds);
        out.record(
            format!("{p}.cycles_per_host_second"),
            r.cycles_per_host_second,
        );
        out.record(format!("{p}.simulated_cycles"), r.simulated_cycles as f64);
    }
    out.record("simspeed.speedup", speedup);
    println!(
        "fast-forward host speedup: {speedup:.2}x (cycle counts bit-identical; \
         see docs/simulation.md)\n"
    );
    speedup
}

fn hostperf(scale: Scale, out: &mut Report) {
    println!("-- Host performance: simulated cycles per host second (informational) --");
    let (rows, pool) = figures::hostperf(scale);
    for r in rows {
        println!(
            "{:<13} {:>8.2}s host, {:>13} simulated cycles, {:>12.0} cycles/s, {} worker(s), \
             {} window selections{}",
            r.name,
            r.host_seconds,
            r.simulated_cycles,
            r.cycles_per_host_second,
            r.workers,
            r.poll_windows,
            if r.stalled > 0 {
                format!(", {} STALLED", r.stalled)
            } else {
                String::new()
            }
        );
        let p = format!("hostperf.{}", r.name);
        out.record(format!("{p}.host_seconds"), r.host_seconds);
        out.record(
            format!("{p}.cycles_per_host_second"),
            r.cycles_per_host_second,
        );
        out.record(format!("{p}.simulated_cycles"), r.simulated_cycles as f64);
        out.record(format!("{p}.workers"), r.workers as f64);
        out.record(format!("{p}.poll_windows"), r.poll_windows as f64);
        if r.stalled > 0 {
            out.record(format!("{p}.stalled"), r.stalled as f64);
        }
    }
    println!(
        "pool          {} resident worker(s), {:.1}% occupancy; {} task(s) ({} stolen, \
         {} inline), {} lease(s) for {} worker(s) (+{} oversubscribed)",
        pool.workers,
        pool.occupancy * 100.0,
        pool.tasks_executed,
        pool.tasks_stolen,
        pool.tasks_inline,
        pool.lease_requests,
        pool.lease_workers_granted,
        pool.lease_workers_oversubscribed,
    );
    out.record("hostperf.pool.workers".to_string(), pool.workers as f64);
    out.record(
        "hostperf.pool.tasks_executed".to_string(),
        pool.tasks_executed as f64,
    );
    out.record(
        "hostperf.pool.tasks_stolen".to_string(),
        pool.tasks_stolen as f64,
    );
    out.record(
        "hostperf.pool.tasks_inline".to_string(),
        pool.tasks_inline as f64,
    );
    out.record(
        "hostperf.pool.lease_requests".to_string(),
        pool.lease_requests as f64,
    );
    out.record(
        "hostperf.pool.lease_workers_granted".to_string(),
        pool.lease_workers_granted as f64,
    );
    out.record(
        "hostperf.pool.lease_workers_oversubscribed".to_string(),
        pool.lease_workers_oversubscribed as f64,
    );
    out.record("hostperf.pool.occupancy".to_string(), pool.occupancy);
    println!(
        "(absolute host speed is machine-dependent — recorded for the trajectory,\n\
         never gated; cycle counts are deterministic. Window-selection counts\n\
         show how often fast-forward chose a window — see docs/simulation.md)\n"
    );
}

/// Pareto-front design-space exploration over the cost model
/// (`docs/dse.md`). Runs on its own pinned fidelity schedule — the
/// `--full` scale flag does not apply — so the anchor objective values
/// are budget- and scale-independent and can live in the baseline.
fn dse(budget: Option<usize>, out: &mut Report) -> DseOutcome {
    let mut settings = DseSettings::smoke();
    if let Some(budget) = budget {
        settings = settings.with_budget(budget);
    }
    println!(
        "-- Design-space exploration: time x area x energy Pareto front (PR) --\n\
         seed {}, rung-0 cohort {}, eta {}, {} refinement rounds, {} fidelity rungs",
        settings.seed,
        settings.budget,
        settings.eta,
        settings.refine_rounds,
        settings.rungs.len()
    );
    let outcome = higraph_bench::dse::explore(&settings);
    println!(
        "evaluated {} design points out of a {}-point lattice ({} memo hits)\n",
        outcome.points_evaluated, outcome.space_size, outcome.memo_hits
    );
    println!(
        "{:<52} {:>10} {:>11} {:>9} {:>11}",
        "front member", "cycles", "time (us)", "mm^2", "energy (mJ)"
    );
    for (i, row) in outcome.front.iter().enumerate() {
        let o = &row.objectives;
        println!(
            "{:<52} {:>10} {:>11.2} {:>9.3} {:>11.4}",
            row.name,
            o.cycles,
            o.time_ns / 1e3,
            o.area_mm2,
            o.energy_mj
        );
        let p = format!("dse.front.{i}");
        out.record(format!("{p}.cycles"), o.cycles as f64);
        out.record(format!("{p}.time_ns"), o.time_ns);
        out.record(format!("{p}.area_mm2"), o.area_mm2);
        out.record(format!("{p}.energy_mj"), o.energy_mj);
    }
    println!();
    for anchor in &outcome.anchors {
        let o = &anchor.objectives;
        println!(
            "anchor {:<20} {:>10} cycles, {:>8.2} us, {:>7.3} mm^2, {:>9.4} mJ — \
             front excess {:.2}{}",
            anchor.label,
            o.cycles,
            o.time_ns / 1e3,
            o.area_mm2,
            o.energy_mj,
            anchor.front_excess,
            if anchor.on_front() { " (on front)" } else { "" }
        );
        let p = format!("dse.anchor.{}", anchor.label);
        out.record(format!("{p}.cycles"), o.cycles as f64);
        out.record(format!("{p}.time_ns"), o.time_ns);
        out.record(format!("{p}.area_mm2"), o.area_mm2);
        out.record(format!("{p}.energy_mj"), o.energy_mj);
        out.record(format!("{p}.front_excess"), anchor.front_excess);
    }
    out.record("dse.front.size".to_string(), outcome.front.len() as f64);
    out.record(
        "dse.points_evaluated".to_string(),
        outcome.points_evaluated as f64,
    );
    out.record("dse.memo_hits".to_string(), outcome.memo_hits as f64);
    out.record(
        "dse.memo_evictions".to_string(),
        outcome.memo_evictions as f64,
    );
    println!(
        "(front membership and size vary with --dse-budget; only the anchor\n\
         objectives are baselined. Anchors must sit within {MAX_ANCHOR_FRONT_EXCESS:.1}x of the\n\
         front under --check — see docs/dse.md)\n"
    );
    outcome
}

fn mem(scale: Scale, out: &mut Report) {
    println!("-- Off-chip memory: cache-size sweep under the HBM2 model (PR, Twitter stand-in) --");
    println!(
        "{:>8} {:>12} {:>8} {:>10} {:>12} {:>10} {:>13}",
        "cache", "cycles", "GTEPS", "hit-rate", "misses", "row-hits", "stall-cycles"
    );
    for r in figures::mem_sweep(scale) {
        let p = format!("mem.c{}", r.cache_kb);
        match &r.result {
            Ok(m) => {
                println!(
                    "{:>5}KiB {:>12} {:>8.1} {:>9.1}% {:>12} {:>9.1}% {:>13}",
                    r.cache_kb,
                    m.cycles,
                    m.gteps,
                    100.0 * m.cache_hit_rate,
                    m.cache_misses,
                    100.0 * m.dram_row_hit_rate,
                    m.mem_stall_cycles
                );
                out.record(format!("{p}.cycles"), m.cycles as f64);
                out.record(format!("{p}.gteps"), m.gteps);
                out.record(format!("{p}.cache_hit_rate"), m.cache_hit_rate);
                out.record(format!("{p}.cache_misses"), m.cache_misses as f64);
                out.record(format!("{p}.dram_row_hit_rate"), m.dram_row_hit_rate);
                out.record(format!("{p}.mem_stall_cycles"), m.mem_stall_cycles as f64);
            }
            Err(stall) => {
                println!("{:>5}KiB STALL: {stall}", r.cache_kb);
                out.record(format!("{p}.stalled"), 1.0);
            }
        }
    }
    println!(
        "(default configs model no memory — this sweep enables MemoryConfig::hbm2();\n\
         hit rate rises and stall cycles fall monotonically with cache size —\n\
         see docs/memory.md for the timing contract)\n"
    );
}

/// Formats one sweep cell: the renderer for a successful run, a stall
/// marker otherwise (the diagnostic was already the cell's result).
fn cell<T>(r: &Result<T, higraph::prelude::StallDiagnostic>, f: impl Fn(&T) -> String) -> String {
    match r {
        Ok(v) => f(v),
        Err(_) => "STALL".to_string(),
    }
}

fn fig5(scale: Scale) {
    println!("-- Fig. 5 design theory: dataflow fabric candidates (PR, RMAT14) --");
    for r in figures::fig5_design_theory(scale) {
        println!(
            "{:<12} buf {:>3}/ch: {}",
            r.fabric,
            r.buffer,
            cell(&r.metrics, |m| format!(
                "{:5.1} GTEPS  rejected {:>9}  HoL-blocked {:>9}",
                m.gteps(),
                m.dataflow_net.rejected,
                m.dataflow_net.hol_blocked
            ))
        );
    }
    println!(
        "(the nW1R FIFO is an ideal output-queued switch at cycle level, but its\n\
         n-write-port mux is as centralized as a crossbar: at 128 channels it would\n\
         clock at {:.2} GHz vs the MDP-network's 1.00 GHz — Fig. 5c's real blocker —\n\
         and it rejects writes whenever fewer than n slots are free)\n",
        higraph::model::crossbar_frequency_ghz(128)
    );
}

fn ablation(scale: Scale) {
    println!("-- Ablation: dispatcher read ports (PR, Epinions; 2 = paper's 2W2R) --");
    for r in figures::dispatcher_ablation(scale) {
        println!(
            "{}R dispatcher: {}",
            r.read_ports,
            cell(&r.metrics, |m| format!(
                "{:5.1} GTEPS over {:>9} cycles",
                m.gteps(),
                m.cycles
            ))
        );
    }
    println!();
}

fn table1(out: &mut Report) {
    println!("-- Table 1: configurations --");
    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>14}",
        "", "Frequency", "#Front-end", "#Back-end", "On-chip memory"
    );
    for r in figures::table1() {
        println!(
            "{:<14} {:>7.0}GHz {:>12} {:>12} {:>12}MB",
            r.name, r.frequency_ghz, r.front_channels, r.back_channels, r.onchip_mb
        );
        let p = format!("table1.{}", r.name);
        out.record(format!("{p}.frequency_ghz"), r.frequency_ghz);
        out.record(format!("{p}.front_channels"), r.front_channels as f64);
        out.record(format!("{p}.back_channels"), r.back_channels as f64);
        out.record(format!("{p}.onchip_mb"), r.onchip_mb as f64);
    }
    println!();
}

fn table2(scale: Scale) {
    println!("-- Table 2: benchmark datasets (spec | built at this scale) --");
    println!(
        "{:<5} {:>11} {:>11} {:>5} | {:>11} {:>11} {:>7}",
        "Name", "#Vertices", "#Edges", "#Deg", "built V", "built E", "deg"
    );
    for r in figures::table2(scale) {
        println!(
            "{:<5} {:>11} {:>11} {:>5} | {:>11} {:>11} {:>7.1}",
            r.dataset.abbrev(),
            r.spec_vertices,
            r.spec_edges,
            r.spec_degree,
            r.built_vertices,
            r.built_edges,
            r.built_degree
        );
    }
    println!();
}

fn fig4(out: &mut Report) {
    println!("-- Fig. 4: crossbar frequency vs port count --");
    for (ports, ghz) in figures::fig4() {
        println!("{ports:>4} ports: {ghz:5.2} GHz  {}", bar(ghz / 2.5, 40));
        out.record(format!("fig4.ports{ports}.frequency_ghz"), ghz);
    }
    println!();
}

fn record_overall(out: &mut Report, rows: &[figures::OverallRow]) {
    for r in rows {
        let p = format!("fig9.{}.{}", r.algo.label(), r.dataset.abbrev());
        let mut design = |key: &str, m: &figures::CellResult, f: &dyn Fn(&Metrics) -> f64| match m {
            Ok(m) => out.record(format!("{p}.{key}"), f(m)),
            Err(_) => out.record(format!("{p}.{key}_stalled"), 1.0),
        };
        design("graphdyns_gteps", &r.graphdyns, &Metrics::gteps);
        design("higraph_mini_gteps", &r.higraph_mini, &Metrics::gteps);
        design("higraph_gteps", &r.higraph, &Metrics::gteps);
        design("higraph_cycles", &r.higraph, &|m| m.cycles as f64);
        if let Some(speedup) = r.higraph_speedup() {
            out.record(
                format!(
                    "fig8.{}.{}.higraph_speedup",
                    r.algo.label(),
                    r.dataset.abbrev()
                ),
                speedup,
            );
        }
    }
}

fn fig7() {
    println!("-- Fig. 7: on-chip memory layout (HiGraph, 16 MB class) --");
    let (layout, fits) = figures::fig7();
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    println!("Edge Array            {:5.1} MB", mb(layout.edge_bytes));
    println!(
        "Edge Info Array       {:5.1} MB",
        mb(layout.edge_info_bytes)
    );
    println!("Offset Array          {:5.1} MB", mb(layout.offset_bytes));
    println!("Property Array        {:5.1} MB", mb(layout.property_bytes));
    println!(
        "ActiveVertex + tProp  {:5.1} MB",
        mb(layout.active_tprop_bytes)
    );
    println!(
        "capacity: {} vertices, {} edges",
        layout.max_vertices(),
        layout.max_edges()
    );
    for (d, ok) in fits {
        println!(
            "  {d:<4} fits on chip: {}",
            if ok { "yes" } else { "NO (needs slicing)" }
        );
    }
    println!();
}

fn fig8(rows: &[figures::OverallRow]) {
    println!("-- Fig. 8: speedup over GraphDynS --");
    println!(
        "{:<6} {:<4} {:>14} {:>10}",
        "algo", "data", "HiGraph-mini", "HiGraph"
    );
    let fmt = |s: Option<f64>| match s {
        Some(s) => format!("{s:.2}x"),
        None => "STALL".to_string(),
    };
    let (mut sum_mini, mut sum_hi, mut n) = (0.0, 0.0, 0);
    for r in rows {
        println!(
            "{:<6} {:<4} {:>14} {:>10}",
            r.algo.label(),
            r.dataset.abbrev(),
            fmt(r.mini_speedup()),
            fmt(r.higraph_speedup())
        );
        if let (Some(mini), Some(hi)) = (r.mini_speedup(), r.higraph_speedup()) {
            sum_mini += mini;
            sum_hi += hi;
            n += 1;
        }
    }
    if n > 0 {
        println!(
            "avg: HiGraph-mini {:.2}x, HiGraph {:.2}x (paper, 4-algo suite: 1.46x / 1.54x; \
             max {:.2}x, paper 2.23x)\n",
            sum_mini / n as f64,
            sum_hi / n as f64,
            rows.iter()
                .filter_map(figures::OverallRow::higraph_speedup)
                .fold(0.0, f64::max)
        );
    }
}

fn fig9(rows: &[figures::OverallRow]) {
    println!("-- Fig. 9: throughput (GTEPS, ideal 32) --");
    println!(
        "{:<6} {:<4} {:>10} {:>13} {:>8}",
        "algo", "data", "GraphDynS", "HiGraph-mini", "HiGraph"
    );
    let gteps = |m: &figures::CellResult| cell(m, |m| format!("{:.1}", m.gteps()));
    for r in rows {
        println!(
            "{:<6} {:<4} {:>10} {:>13} {:>8}",
            r.algo.label(),
            r.dataset.abbrev(),
            gteps(&r.graphdyns),
            gteps(&r.higraph_mini),
            gteps(&r.higraph)
        );
    }
    let best = rows
        .iter()
        .filter_map(|r| r.higraph.as_ref().ok().map(Metrics::gteps))
        .fold(0.0, f64::max);
    println!(
        "peak HiGraph: {best:.1} GTEPS = {:.1}% of ideal (paper: 25.0 / 78.1%)\n",
        100.0 * best / 32.0
    );
}

fn fig10a(rows: &[figures::AblationRow]) {
    println!("-- Fig. 10a: throughput under optimization steps (RMAT14) --");
    print_ablation(rows, |m| format!("{:6.1}", m.gteps()));
}

fn fig10b(rows: &[figures::AblationRow]) {
    println!("-- Fig. 10b: vPE starvation cycles (RMAT14, x10000) --");
    print_ablation(rows, |m| {
        format!("{:6.1}", m.vpe_starvation_cycles as f64 / 1e4)
    });
}

fn print_ablation(rows: &[figures::AblationRow], value: impl Fn(&Metrics) -> String) {
    print!("{:<22}", "");
    for a in Algo::ALL {
        print!(" {:>7}", a.label());
    }
    println!();
    for opts in higraph::prelude::OptLevel::ALL {
        print!("{:<22}", opts.label());
        for a in Algo::ALL {
            let r = rows
                .iter()
                .find(|r| r.algo == a && r.opts == opts)
                .expect("complete sweep");
            print!(" {:>7}", cell(&r.metrics, &value));
        }
        println!();
    }
    println!();
}

fn fig11(scale: Scale, out: &mut Report) {
    println!("-- Fig. 11: throughput vs #back-end channels (PR, RMAT14) --");
    let rows = figures::fig11(scale);
    println!("{:<10} {:>8} {:>8} {:>8} {:>8}", "", 32, 64, 128, 256);
    for design in ["GraphDynS", "HiGraph"] {
        print!("{design:<10}");
        for ch in [32usize, 64, 128, 256] {
            let r = rows
                .iter()
                .find(|r| r.design == design && r.channels == ch)
                .expect("complete sweep");
            match &r.result {
                Some(Ok(m)) => {
                    print!(" {:>8.1}", m.gteps());
                    out.record(format!("fig11.{design}.ch{ch}.gteps"), m.gteps());
                }
                Some(Err(_)) => {
                    print!(" {:>8}", "STALL");
                    out.record(format!("fig11.{design}.ch{ch}.stalled"), 1.0);
                }
                None => print!(" {:>8}", "n/a"),
            }
        }
        println!();
    }
    println!("(GraphDynS unsupported past 64 channels — Fig. 4 frequency wall)\n");
}

fn fig12(scale: Scale) {
    println!("-- Fig. 12: throughput vs per-channel buffer size (PR, RMAT14) --");
    let rows = figures::fig12(scale);
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "", 10, 20, 40, 80, 160, 240, 320
    );
    for design in ["FIFO+Crossbar", "MDP-network"] {
        print!("{design:<14}");
        for buf in [10usize, 20, 40, 80, 160, 240, 320] {
            let r = rows
                .iter()
                .find(|r| r.design == design && r.buffer == buf)
                .expect("complete sweep");
            print!(" {:>6}", cell(&r.gteps, |g| format!("{g:.1}")));
        }
        println!();
    }
    println!();
}

fn radix(scale: Scale) {
    println!("-- Sec. 5.4: MDP-network radix sweep (PR, RMAT14, 64 channels) --");
    for r in figures::radix_sweep(scale) {
        println!(
            "radix {:>2}: {:5.2} GHz  {} GTEPS  {}",
            r.radix,
            r.frequency_ghz,
            cell(&r.gteps, |g| format!("{g:5.1}")),
            if r.radix == 2 {
                "<- paper's choice"
            } else {
                ""
            }
        );
    }
    println!();
}

fn areapower() {
    println!("-- Sec. 5.4: dataflow fabric area & power (TSMC 12nm model) --");
    for r in figures::area_power() {
        println!(
            "{:<14} buffer {:>3}/channel: {:5.3} mm2, {:6.1} mW",
            r.design, r.buffer, r.area_mm2, r.power_mw
        );
    }
    println!();
}

fn bar(fraction: f64, width: usize) -> String {
    let filled = (fraction.clamp(0.0, 1.0) * width as f64) as usize;
    "#".repeat(filled)
}

/// Boolean gate inputs from the `faults` soak (`--check` enforces them).
struct FaultsOutcome {
    /// Every faulty run reproduced bit-identically on a second run.
    deterministic: bool,
    /// Faults cost cycles but never changed results or convergence.
    degraded_gracefully: bool,
    /// A mid-fault checkpoint restored into the uninterrupted metrics.
    park_resume_identical: bool,
    /// A pathologically overloaded run stalled loudly instead of hanging.
    overload_stalled: bool,
}

fn faults(scale: Scale, out: &mut Report) -> FaultsOutcome {
    println!("-- Fault injection: seeded link stalls, DRAM brown-outs, chip pauses --");
    let plan = FaultPlan {
        seed: 0xD15EA5E,
        events: 6,
        max_duration: 96,
        horizon: 4096,
    };
    let clean_cfg = AcceleratorConfig::higraph();
    let mut faulty_cfg = AcceleratorConfig::higraph();
    faulty_cfg.fault_plan = Some(plan);
    let graph = Dataset::Vote.build_scaled(scale.divisor);
    out.record("faults.plan.events".to_string(), f64::from(plan.events));

    println!(
        "{:<6} {:>5} {:>12} {:>13} {:>9} {:>13} {:>9}",
        "algo", "chips", "clean cyc", "faulty cyc", "overhead", "park@cyc", "restore"
    );
    let mut deterministic = true;
    let mut degraded_gracefully = true;
    let mut park_resume_identical = true;
    for (algo, chips) in [(Algo::Bfs, 1), (Algo::Wcc, 2), (Algo::Pr, 4)] {
        let shard = ShardConfig::new(chips);
        let clean = algo
            .run_sharded(&clean_cfg, shard, &graph, scale.pr_iters)
            .expect("clean reference run");
        let faulty = algo
            .run_sharded(&faulty_cfg, shard, &graph, scale.pr_iters)
            .expect("faulty run must complete (graceful degradation)");
        let again = algo
            .run_sharded(&faulty_cfg, shard, &graph, scale.pr_iters)
            .expect("faulty rerun");
        deterministic &= faulty.metrics == again.metrics;
        degraded_gracefully &= faulty.metrics.cycles >= clean.metrics.cycles
            && faulty.metrics.edges_processed == clean.metrics.edges_processed
            && faulty.metrics.iterations == clean.metrics.iterations;

        // Park under fault, restore, and demand the uninterrupted result.
        let control = RunControl::new();
        control.set_budget_cycles(Some((faulty.metrics.cycles / 2).max(1)));
        let partial = algo
            .run_sharded_controlled(&faulty_cfg, shard, &graph, scale.pr_iters, &control, None)
            .expect("controlled faulty run");
        let (park_cycles, restored) = match partial {
            ControlledOutcome::Parked(ck) => {
                let resume = RunControl::new();
                match algo
                    .run_sharded_controlled(
                        &faulty_cfg,
                        shard,
                        &graph,
                        scale.pr_iters,
                        &resume,
                        Some(&ck.bytes),
                    )
                    .expect("resume from mid-fault checkpoint")
                {
                    ControlledOutcome::Done(resumed) => {
                        (ck.cycles, resumed.metrics == faulty.metrics)
                    }
                    _ => (ck.cycles, false),
                }
            }
            // A half-budget that fails to park means the budget plumbing
            // broke; fail the gate rather than skip it.
            _ => (0, false),
        };
        park_resume_identical &= restored;

        let overhead = faulty.metrics.cycles as f64 / clean.metrics.cycles.max(1) as f64;
        println!(
            "{:<6} {:>5} {:>12} {:>13} {:>8.2}x {:>13} {:>9}",
            algo.label(),
            chips,
            clean.metrics.cycles,
            faulty.metrics.cycles,
            overhead,
            park_cycles,
            if restored { "exact" } else { "MISMATCH" }
        );
        let p = format!("faults.{}.p{}", algo.label(), chips);
        out.record(format!("{p}.clean_cycles"), clean.metrics.cycles as f64);
        out.record(format!("{p}.faulty_cycles"), faulty.metrics.cycles as f64);
    }

    // Overload: a one-cycle stall guard under the same fault plan must
    // produce a StallDiagnostic, never a hang or a panic.
    let mut engine = Engine::new(faulty_cfg, &graph);
    engine.set_stall_guard(Some(1));
    let overload_stalled = engine.run(&Bfs::from_source(0)).is_err();
    out.record(
        "faults.overload.stalled".to_string(),
        f64::from(u8::from(overload_stalled)),
    );
    println!(
        "overload: stall guard 1 under faults -> {}\n\
         (fault windows are drawn from the plan's seeded splitmix64 stream; faulty\n\
         runs tick every cycle, with fast-forward off, and drain each chip and the\n\
         link on its own like any run — see docs/robustness.md)\n",
        if overload_stalled {
            "StallDiagnostic (graceful)"
        } else {
            "NO DIAGNOSTIC"
        }
    );
    FaultsOutcome {
        deterministic,
        degraded_gracefully,
        park_resume_identical,
        overload_stalled,
    }
}
