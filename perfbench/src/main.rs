//! The repository benchmark for the HiGraph simulator.
//!
//! ```text
//! perfbench --workload <shardfull_p4|memstarved|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the workspace crates through their public functions, checks
//! every output, and prints one JSON object as its last line:
//! end-to-end metrics from an untraced run (`--trace 0`), or per-layer
//! metrics from a traced run (`--trace 1`). See `perfbench/README.md`
//! for the workloads, the metrics and how each layer maps onto them.

mod clock;
mod direct;
mod layers;
mod serve_mix;
mod stats;
mod trace;

use higraph::prelude::Dataset;
use stats::Timing;
use std::fmt::Write as _;
use std::path::Path;
use trace::Tracer;

/// The seed whose graphs equal the repository's `Dataset` stand-ins.
pub const DEFAULT_SEED: u64 = 0;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Spawns the shared pool (on first use) and wakes every worker once.
pub fn warm_pool(tracer: &mut Tracer, k: u64) {
    let span = tracer.enter("pool.warmup", k);
    let pool = higraph::pool::CorePool::global();
    std::hint::black_box(pool.run_ordered(pool.workers() + 1, |i| i));
    tracer.exit(span);
}

/// The generator seed of `dataset` under workload seed `seed`: the
/// stand-in's own seed (`Dataset::build_scaled`) at [`DEFAULT_SEED`], a
/// different graph of the same shape under any other seed.
pub fn graph_seed(dataset: Dataset, seed: u64) -> u64 {
    (0xD0C5 ^ dataset as u64) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} must be in (0, 120]"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Operations attempted and the ones that failed a check.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; `check` returns why it failed, if it did.
    pub fn op(&mut self, label: &str, check: impl FnOnce() -> Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check() {
            self.failures.push(format!("{label}: {why}"));
        }
    }
}

/// The end-to-end metrics every workload reports.
#[derive(Debug)]
pub struct EndToEnd {
    pub sim_cycles_per_host_s: f64,
    pub edges_per_host_s: f64,
    pub sim_gteps: f64,
    pub jobs_per_s: f64,
    pub latency_ms: Timing,
    pub setup_s: f64,
}

pub struct Outcome {
    pub checks: Checks,
    pub end_to_end: EndToEnd,
    pub layers: layers::LayerValues,
    /// Context lines printed before the result.
    pub notes: Vec<String>,
}

/// The process's resident-memory high-water mark in MiB (0 when the
/// platform does not report it).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git work tree.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new();
    let outcome = match args.workload.as_str() {
        "shardfull_p4" => direct::run(direct::Kind::ShardfullP4, &args, &mut tracer),
        "memstarved" => direct::run(direct::Kind::Memstarved, &args, &mut tracer),
        "serve_mix" => serve_mix::run(&args, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other} (shardfull_p4, memstarved, serve_mix)");
            std::process::exit(2);
        }
    };

    let nproc = higraph::accel::sharded::auto_worker_threads();
    let workers = higraph::pool::CorePool::global().workers();
    let host = format!(
        "host: nproc={nproc} pool_workers={workers} commit={} workload={} seed={} seconds={} trace={}",
        commit(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        let path = Path::new(".perfbench")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let header = format!("{{\"host\": \"{host}\"}}");
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => println!("# spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }

    let Outcome {
        checks,
        end_to_end: e,
        layers,
        notes,
    } = outcome;
    for note in &notes {
        println!("# {note}");
    }
    println!("# {host}");
    for f in &checks.failures {
        println!("# FAILED {f}");
    }
    let failed = checks.failures.len() as u64;
    println!(
        "# error_rate {} ({failed} of {} operations failed)",
        stats::ratio(failed as f64, checks.attempted as f64),
        checks.attempted
    );
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        layers.table()
    } else {
        println!(
            "# latency over {} samples: p50 {:.3} ms, p{:.1} {:.3} ms",
            e.latency_ms.samples, e.latency_ms.median, e.latency_ms.tail_pct, e.latency_ms.tail
        );
        vec![
            ("sim_cycles_per_host_s", "cycles/s", e.sim_cycles_per_host_s),
            ("edges_per_host_s", "edges/s", e.edges_per_host_s),
            ("sim_gteps", "GTEPS", e.sim_gteps),
            ("jobs_per_s", "jobs/s", e.jobs_per_s),
            ("latency_p50_ms", "ms", e.latency_ms.median),
            ("latency_tail_ms", "ms", e.latency_ms.tail),
            ("setup_s", "s", e.setup_s),
            ("peak_rss_mb", "MiB", peak_rss_mb()),
        ]
    };
    let mut json = String::new();
    for (name, unit, value) in &metrics {
        println!("# {name} = {} {unit}", num(*value));
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0 && checks.attempted > 0,
        checks.attempted.max(1)
    );
}
