//! The cross-version digest: one line per run over a fixed matrix of
//! graphs × configurations × the six programs × execution modes, each
//! line the run's key, its cycles and a checksum over everything the run
//! reports (`repro digest`).
//!
//! Simulated cycles and `Metrics` must not move under a change that
//! claims only host speed. `repro digest --check digest-baseline.txt`
//! reruns the matrix and fails on the first line that differs from the
//! checked-in file, naming it. A change that moves cycles on purpose
//! regenerates the file (`repro digest > digest-baseline.txt`) and says
//! why.
//!
//! The checksum covers the aggregate and per-chip [`Metrics`], the link
//! counters, cross-chip packets, slice-swap cycles and the final
//! properties, in the fixed encoding of [`run_checksum`]. Checkpoint
//! bytes stay out, so a checkpoint format change does not churn the
//! file: a park-and-resume line shows only that the resumed run ends
//! where an uninterrupted one does.

use crate::workload::{Algo, ProgramRun};
use higraph::graph::gen::{erdos_renyi, power_law};
use higraph::pool::CorePool;
use higraph::prelude::*;
use higraph::sim::{content_checksum, NetworkStats};

/// PageRank power iterations of every digest run.
const PR_ITERS: u32 = 3;

/// Slices of the sliced mode, and their modeled load bandwidth.
const SLICES: usize = 3;
const SLICE_BYTES_PER_CYCLE: u64 = 32;

/// Chips of the sharded and sharded-park modes.
const CHIPS: usize = 4;

/// How one digest run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One chip, the whole graph.
    Serial { fast_forward: bool },
    /// One chip, [`SLICES`] destination-interval slices.
    Sliced { fast_forward: bool },
    /// [`CHIPS`] chips.
    Sharded { fast_forward: bool },
    /// `chips` chips parked at the first iteration boundary, then
    /// resumed from the checkpoint bytes in a fresh engine.
    Park { chips: usize },
}

impl Mode {
    /// Every mode, in line order.
    const ALL: [Mode; 8] = [
        Mode::Serial { fast_forward: true },
        Mode::Serial {
            fast_forward: false,
        },
        Mode::Sliced { fast_forward: true },
        Mode::Sliced {
            fast_forward: false,
        },
        Mode::Sharded { fast_forward: true },
        Mode::Sharded {
            fast_forward: false,
        },
        Mode::Park { chips: 1 },
        Mode::Park { chips: CHIPS },
    ];

    fn label(self) -> String {
        let ff = |on: bool| if on { "ff" } else { "tick" };
        match self {
            Mode::Serial { fast_forward } => format!("serial-{}", ff(fast_forward)),
            Mode::Sliced { fast_forward } => format!("sliced{SLICES}-{}", ff(fast_forward)),
            Mode::Sharded { fast_forward } => format!("p{CHIPS}-{}", ff(fast_forward)),
            Mode::Park { chips } => format!("park-p{chips}"),
        }
    }
}

/// The digest's graphs: a uniform random graph, a skewed power-law
/// graph, and a scaled SNAP stand-in.
fn graphs() -> Vec<(&'static str, Csr)> {
    vec![
        ("erdos256", erdos_renyi(256, 2048, 15, 3)),
        ("powerlaw300", power_law(300, 2400, 2.0, 15, 7)),
        ("vote16", Dataset::Vote.build_scaled(16)),
    ]
}

/// The digest's configurations: the Table 1 presets, the Fig. 10
/// ablation steps, the radix and read-port design options, a wide back
/// end, the nW1R dataflow fabric, the memory model and fault plans.
fn configs() -> Vec<(String, AcceleratorConfig)> {
    let mut out = vec![
        ("higraph".to_string(), AcceleratorConfig::higraph()),
        (
            "higraph-mini".to_string(),
            AcceleratorConfig::higraph_mini(),
        ),
        ("graphdyns".to_string(), AcceleratorConfig::graphdyns()),
    ];
    for (label, opts) in ["base", "o", "oe", "oed"].into_iter().zip(OptLevel::ALL) {
        out.push((
            format!("opt-{label}"),
            AcceleratorConfig::higraph_with_opts(opts),
        ));
    }
    for radix in [2, 4, 8, 64] {
        let mut cfg = AcceleratorConfig::higraph().scaled_to(64);
        cfg.radix = radix;
        out.push((format!("radix{radix}x64"), cfg));
    }
    for (preset, base) in [
        ("higraph", AcceleratorConfig::higraph()),
        ("higraph-mini", AcceleratorConfig::higraph_mini()),
    ] {
        for ports in [1, 2, 4] {
            let mut cfg = base.clone();
            cfg.dispatcher_read_ports = ports;
            out.push((format!("{preset}-ports{ports}"), cfg));
        }
    }
    let mut wide = AcceleratorConfig::higraph();
    wide.back_channels = 128;
    out.push(("back128".to_string(), wide));
    let mut naive = AcceleratorConfig::higraph();
    naive.dataflow_network = NetworkKind::NaiveFifo;
    out.push(("nw1r-dataflow".to_string(), naive));
    let hbm = || Some(MemoryConfig::hbm2().with_cache_kb(16));
    for (label, base) in [
        ("higraph", AcceleratorConfig::higraph()),
        ("graphdyns", AcceleratorConfig::graphdyns()),
    ] {
        let mut cfg = base;
        cfg.memory = hbm();
        out.push((format!("{label}-hbm16k"), cfg));
    }
    let plan = FaultPlan {
        seed: 11,
        events: 6,
        max_duration: 400,
        horizon: 4_000,
    };
    for (label, base, memory) in [
        ("higraph", AcceleratorConfig::higraph(), None),
        ("higraph-mini", AcceleratorConfig::higraph_mini(), hbm()),
    ] {
        let mut cfg = base;
        cfg.memory = memory;
        cfg.fault_plan = Some(plan);
        out.push((format!("{label}-faults"), cfg));
    }
    out
}

/// Appends `v` in the digest's fixed encoding (little-endian u64).
fn put(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_stats(buf: &mut Vec<u8>, s: &NetworkStats) {
    for v in [s.accepted, s.rejected, s.delivered, s.cycles, s.hol_blocked] {
        put(buf, v);
    }
}

fn put_metrics(buf: &mut Vec<u8>, m: &Metrics) {
    for v in [
        m.cycles,
        m.scatter_cycles,
        m.apply_cycles,
        m.edges_processed,
        u64::from(m.iterations),
        m.vpe_starvation_cycles,
        m.vpe_starvation_per_channel.len() as u64,
    ] {
        put(buf, v);
    }
    for &v in &m.vpe_starvation_per_channel {
        put(buf, v);
    }
    put(buf, m.offset_conflicts);
    put(buf, m.frequency_ghz.to_bits());
    for stats in [&m.offset_net, &m.edge_net, &m.dataflow_net] {
        put_stats(buf, stats);
    }
    let mem = &m.memory;
    let dram = &mem.dram;
    for v in [
        mem.cache_hits,
        mem.cache_misses,
        mem.stall_cycles,
        dram.accepted,
        dram.rejected,
        dram.completed,
        dram.row_hits,
        dram.row_misses,
        dram.row_conflicts,
        dram.cycles,
    ] {
        put(buf, v);
    }
}

/// The checksum of one run: aggregate and per-chip metrics, link
/// counters, cross-chip packets, swap cycles and properties.
pub fn run_checksum(r: &RunResult<u64>) -> u64 {
    let mut buf = Vec::new();
    put_metrics(&mut buf, &r.metrics);
    put(&mut buf, r.chips.len() as u64);
    for chip in &r.chips {
        put_metrics(&mut buf, chip);
    }
    put_stats(&mut buf, &r.link);
    put(&mut buf, r.cross_chip_packets);
    put(&mut buf, r.swap_cycles_sequential);
    put(&mut buf, r.swap_cycles_overlapped);
    put(&mut buf, r.properties.len() as u64);
    for &p in &r.properties {
        put(&mut buf, p);
    }
    content_checksum(&buf)
}

/// One digest run of whichever program [`Algo::with_program`] builds.
struct DigestRun<'a> {
    config: &'a AcceleratorConfig,
    graph: &'a Csr,
    mode: Mode,
}

impl ProgramRun for DigestRun<'_> {
    type Output = Result<RunResult<u64>, String>;

    fn run<Prog: VertexProgram<Prop = u64> + Sync>(self, program: &Prog) -> Self::Output {
        let DigestRun {
            config,
            graph,
            mode,
        } = self;
        let engine = |chips: usize, fast_forward: bool| {
            let mut engine = ShardedEngine::new(config.clone(), ShardConfig::new(chips), graph);
            engine.set_fast_forward(fast_forward);
            engine
        };
        match mode {
            Mode::Serial { fast_forward } => engine(1, fast_forward)
                .run(program)
                .map_err(|e| e.to_string()),
            Mode::Sliced { fast_forward } => {
                let mut engine = Engine::new(config.clone(), graph);
                engine.set_fast_forward(fast_forward);
                engine
                    .run_sliced(program, SLICES, SLICE_BYTES_PER_CYCLE)
                    .map_err(|e| e.to_string())
            }
            Mode::Sharded { fast_forward } => engine(CHIPS, fast_forward)
                .run(program)
                .map_err(|e| e.to_string()),
            Mode::Park { chips } => park_and_resume(program, || engine(chips, true)),
        }
    }
}

/// Parks a run at its first iteration boundary and resumes the
/// checkpoint in a second engine from `engine`; a run that finishes
/// before it can park reports its result as is.
fn park_and_resume<'g, Prog>(
    program: &Prog,
    engine: impl Fn() -> ShardedEngine<'g>,
) -> Result<RunResult<u64>, String>
where
    Prog: VertexProgram<Prop = u64> + Sync,
{
    let control = RunControl::new();
    control.set_budget_cycles(Some(1));
    let parked = match engine()
        .run_controlled(program, &control)
        .map_err(|e| e.to_string())?
    {
        RunOutcome::Parked(checkpoint) => checkpoint,
        RunOutcome::Done(result) => return Ok(result),
        RunOutcome::Cancelled => return Err("cancelled".to_string()),
    };
    control.set_budget_cycles(None);
    match engine()
        .resume_controlled(program, &control, &parked.bytes)
        .map_err(|e| e.to_string())?
    {
        RunOutcome::Done(result) => Ok(result),
        RunOutcome::Parked(_) => Err("re-parked after resume".to_string()),
        RunOutcome::Cancelled => Err("cancelled".to_string()),
    }
}

/// Runs the whole matrix (each run on the shared core pool) and returns
/// its lines in matrix order: `graph/config/program/mode cycles=N
/// sum=HEX`, or `… error=<message>` for a run that fails.
pub fn digest_lines() -> Vec<String> {
    let graphs = graphs();
    let configs = configs();
    let mut runs = Vec::new();
    for (graph_label, graph) in &graphs {
        for (config_label, config) in &configs {
            for algo in Algo::ALL {
                for mode in Mode::ALL {
                    runs.push((graph_label, graph, config_label, config, algo, mode));
                }
            }
        }
    }
    CorePool::global().run_ordered(runs.len(), |i| {
        let (graph_label, graph, config_label, config, algo, mode) = runs[i];
        let key = format!(
            "{graph_label}/{config_label}/{}/{}",
            algo.label(),
            mode.label()
        );
        let run = DigestRun {
            config,
            graph,
            mode,
        };
        match algo.with_program(graph, PR_ITERS, run) {
            Ok(result) => format!(
                "{key} cycles={} sum={:016x}",
                result.metrics.cycles,
                run_checksum(&result)
            ),
            Err(e) => format!("{key} error={e}"),
        }
    })
}

/// Compares `lines` with a checked-in digest: `Err` names the first line
/// that differs (or is missing on either side).
///
/// # Errors
///
/// The first difference, with its line number and both texts.
pub fn check_digest(lines: &[String], baseline: &str) -> Result<(), String> {
    let expected: Vec<&str> = baseline.lines().collect();
    for (i, (got, want)) in lines.iter().zip(&expected).enumerate() {
        if got != want {
            return Err(format!("line {}: expected `{want}`, got `{got}`", i + 1));
        }
    }
    match lines.len().cmp(&expected.len()) {
        std::cmp::Ordering::Equal => Ok(()),
        std::cmp::Ordering::Less => Err(format!(
            "line {}: expected `{}`, got no line (the run has {} lines)",
            lines.len() + 1,
            expected[lines.len()],
            lines.len()
        )),
        std::cmp::Ordering::Greater => Err(format!(
            "line {}: expected no line (the baseline has {} lines), got `{}`",
            expected.len() + 1,
            expected.len(),
            lines[expected.len()]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_names_the_first_differing_line() {
        let lines: Vec<String> = ["a cycles=1", "b cycles=2"].map(String::from).to_vec();
        assert_eq!(check_digest(&lines, "a cycles=1\nb cycles=2\n"), Ok(()));
        let err = check_digest(&lines, "a cycles=1\nb cycles=3\n").unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("b cycles=3"),
            "{err}"
        );
        let err = check_digest(&lines, "a cycles=1\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = check_digest(&lines, "a cycles=1\nb cycles=2\nc cycles=3").unwrap_err();
        assert!(
            err.starts_with("line 3:") && err.contains("c cycles=3"),
            "{err}"
        );
    }

    #[test]
    fn checksum_sees_every_reported_part() {
        let g = erdos_renyi(64, 400, 15, 5);
        let run = |chips: usize| {
            ShardedEngine::new(AcceleratorConfig::higraph(), ShardConfig::new(chips), &g)
                .run(&Wcc::new())
                .expect("no stall")
        };
        let base = run(2);
        let sum = run_checksum(&base);
        assert_eq!(run_checksum(&run(2)), sum, "deterministic");
        let mut moved = base.clone();
        moved.chips[1].vpe_starvation_per_channel[3] += 1;
        assert_ne!(run_checksum(&moved), sum);
        let mut moved = base.clone();
        moved.link.hol_blocked += 1;
        assert_ne!(run_checksum(&moved), sum);
        let mut moved = base;
        moved.properties[0] ^= 1;
        assert_ne!(run_checksum(&moved), sum);
    }
}
