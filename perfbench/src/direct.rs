//! The two direct-run workloads: `shardfull_p4` and `memstarved`.
//!
//! Both build a seeded graph and their engines during set-up, then run a
//! fixed list of slots (one engine run each) pass after pass until the
//! time is up. Every run is checked against the `vcpm` software
//! reference, and at the default seed its cycles against the numbers the
//! repository already records.

use crate::clock::Clock;
use crate::layers::{set_pool_layers, LayerValues, SimTotals};
use crate::stats::{median, median_ms, ratio, Timing};
use crate::trace::Tracer;
use crate::{graph_seed, warm_pool, Args, Checks, EndToEnd, Outcome, SETUPS};
use higraph::graph::gen::power_law;
use higraph::pool::CorePool;
use higraph::prelude::*;
use higraph::sim::selection;
use higraph::sim::NetworkStats;
use higraph_bench::{simspeed_memory, Algo, MEM_SWEEP_CACHE_KB};
use std::time::Instant;

/// `shardfull.<ALGO>.p4.cycles` in `bench-baseline.json`: the aggregate
/// critical-path cycles of each program at P = 4 on the default-seed
/// Twitter/4 stand-in.
const SHARDFULL_P4_BASELINE: [(Algo, u64); 6] = [
    (Algo::Bfs, 25_273),
    (Algo::Sssp, 62_121),
    (Algo::Sswp, 88_379),
    (Algo::Pr, 110_970),
    (Algo::Wcc, 95_442),
    (Algo::Msbfs, 79_628),
];

/// The cycle total `repro hostperf` prints for its `memstarved` leg on
/// the default-seed Twitter/32 stand-in.
const MEMSTARVED_BASELINE_CYCLES: u64 = 9_912_511;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Six programs on 4 chips, idealized memory, auto thread lease.
    ShardfullP4,
    /// Single-chip PR x2 across four cache sizes on one DDR-class stack.
    Memstarved,
}

impl Kind {
    fn divisor(self) -> u32 {
        match self {
            Kind::ShardfullP4 => 4,
            Kind::Memstarved => 32,
        }
    }

    /// The shardfull drain runs on a lease of pool workers, so it keeps
    /// wall time; memstarved simulates on the calling thread alone.
    fn clock(self) -> Clock {
        match self {
            Kind::ShardfullP4 => Clock::Wall,
            Kind::Memstarved => Clock::process_cpu(),
        }
    }

    fn pr_iters(self) -> u32 {
        match self {
            Kind::ShardfullP4 => 5,
            Kind::Memstarved => 2,
        }
    }
}

/// A vertex program with its parameters bound to one graph.
enum Program {
    Bfs(Bfs),
    Sssp(Sssp),
    Sswp(Sswp),
    Pr(PageRank),
    Wcc(Wcc),
    Msbfs(MultiSourceBfs),
}

/// Evaluates `$body` with `$p` bound to the concrete program inside.
macro_rules! with_program {
    ($program:expr, $p:ident => $body:expr) => {
        match $program {
            Program::Bfs($p) => $body,
            Program::Sssp($p) => $body,
            Program::Sswp($p) => $body,
            Program::Pr($p) => $body,
            Program::Wcc($p) => $body,
            Program::Msbfs($p) => $body,
        }
    };
}

impl Program {
    /// The same sources and landmarks `Algo::run` picks: the hub vertex,
    /// and up to 64 evenly spaced landmarks for MS-BFS.
    fn new(algo: Algo, graph: &Csr, pr_iters: u32) -> Program {
        let source = higraph::graph::stats::hub_vertex(graph).map_or(u32::MAX, |v| v.0);
        match algo {
            Algo::Bfs => Program::Bfs(Bfs::from_source(source)),
            Algo::Sssp => Program::Sssp(Sssp::from_source(source)),
            Algo::Sswp => Program::Sswp(Sswp::from_source(source)),
            Algo::Pr => Program::Pr(PageRank::new(pr_iters)),
            Algo::Wcc => Program::Wcc(Wcc::new()),
            Algo::Msbfs => {
                let n = graph.num_vertices() as usize;
                let count = n.clamp(1, 64);
                let step = (n / count).max(1);
                let sources = (0..count).map(|i| (i * step) as u32).collect();
                Program::Msbfs(MultiSourceBfs::new(sources).expect("1..=64 landmarks"))
            }
        }
    }

    fn reference(&self, graph: &Csr) -> Vec<u64> {
        with_program!(self, p => higraph::vcpm::reference::execute(p, graph).properties)
    }
}

/// One engine, single-chip or sharded.
enum Runner<'g> {
    Single(Engine<'g>),
    Sharded(ShardedEngine<'g>),
}

/// What one run produced.
struct RunOut {
    properties: Vec<u64>,
    metrics: Metrics,
    /// Cycles summed over chips: the simulated work the host computed.
    chip_cycles: u64,
    link_packets: u64,
    link: NetworkStats,
}

impl Runner<'_> {
    fn run(&mut self, program: &Program) -> Result<RunOut, StallDiagnostic> {
        match self {
            Runner::Single(e) => with_program!(program, p => e.run(p)).map(|r| RunOut {
                chip_cycles: r.metrics.cycles,
                properties: r.properties,
                metrics: r.metrics,
                link_packets: 0,
                link: NetworkStats::default(),
            }),
            Runner::Sharded(e) => with_program!(program, p => e.run(p)).map(|r| RunOut {
                chip_cycles: r.chips.iter().map(|c| c.cycles).sum(),
                properties: r.properties,
                metrics: r.metrics,
                link_packets: r.cross_chip_packets,
                link: r.link,
            }),
        }
    }
}

/// One timed call: a program on an engine.
struct Slot {
    label: String,
    engine: usize,
    program: Program,
    reference: Vec<u64>,
    /// Aggregate cycles the default seed must reproduce, when recorded.
    expected_cycles: Option<u64>,
}

fn build_graph(kind: Kind, seed: u64, tracer: &mut Tracer, k: u64) -> Csr {
    let span = tracer.enter("graph.build", k);
    let spec = Dataset::Twitter.spec();
    let d = kind.divisor();
    let n = (spec.num_vertices / d).max(16);
    let m = (spec.num_edges / u64::from(d)).max(64);
    let g = power_law(n, m, 2.0, 63, graph_seed(Dataset::Twitter, seed));
    tracer.exit(span);
    g
}

fn build_engines<'g>(kind: Kind, graph: &'g Csr, tracer: &mut Tracer, k: u64) -> Vec<Runner<'g>> {
    let span = tracer.enter("accel.engine_new", k);
    let engines = match kind {
        Kind::ShardfullP4 => vec![Runner::Sharded(ShardedEngine::new(
            AcceleratorConfig::higraph(),
            ShardConfig::new(4),
            graph,
        ))],
        Kind::Memstarved => MEM_SWEEP_CACHE_KB
            .iter()
            .map(|&kb| {
                let mut cfg = AcceleratorConfig::higraph();
                cfg.name = format!("HiGraph[perfbench,c{kb}KB]");
                cfg.memory = Some(simspeed_memory(kb));
                let mut e = Engine::new(cfg, graph);
                e.set_fast_forward(true);
                Runner::Single(e)
            })
            .collect(),
    };
    tracer.exit(span);
    engines
}

fn slots(kind: Kind, graph: &Csr, seed: u64) -> Vec<Slot> {
    let default_seed = seed == crate::DEFAULT_SEED;
    match kind {
        Kind::ShardfullP4 => SHARDFULL_P4_BASELINE
            .iter()
            .map(|&(algo, cycles)| Slot {
                label: algo.label().to_string(),
                engine: 0,
                program: Program::new(algo, graph, kind.pr_iters()),
                reference: Vec::new(),
                expected_cycles: default_seed.then_some(cycles),
            })
            .collect(),
        Kind::Memstarved => MEM_SWEEP_CACHE_KB
            .iter()
            .enumerate()
            .map(|(i, kb)| Slot {
                label: format!("PR c{kb}KB"),
                engine: i,
                program: Program::new(Algo::Pr, graph, kind.pr_iters()),
                reference: Vec::new(),
                expected_cycles: None,
            })
            .collect(),
    }
}

/// Host time of each slot across passes, split by whether the pass was
/// traced.
struct SlotTimes {
    untraced: Vec<Vec<u64>>,
    traced: Vec<Vec<u64>>,
}

impl SlotTimes {
    fn side(&self, traced: bool) -> &[Vec<u64>] {
        if traced {
            &self.traced
        } else {
            &self.untraced
        }
    }
}

pub fn run(kind: Kind, args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut checks = Checks::default();
    let clock = kind.clock();
    tracer.set_enabled(args.trace);
    let root = tracer.enter("workload", args.seed);

    // Set-up: graph generation, engine construction and pool warm-up,
    // repeated; the last one's graph and engines are kept.
    let mut setup_s = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS as u64 - 1 {
        let span = tracer.enter("setup", k);
        let t = clock.now_ns();
        let g = build_graph(kind, args.seed, tracer, k);
        std::hint::black_box(build_engines(kind, &g, tracer, k));
        warm_pool(tracer, k);
        setup_s.push(clock.since_ns(t) as f64 / 1e9);
        tracer.exit(span);
    }
    let k = SETUPS as u64 - 1;
    let span = tracer.enter("setup", k);
    let t = clock.now_ns();
    let graph = build_graph(kind, args.seed, tracer, k);
    let mut engines = build_engines(kind, &graph, tracer, k);
    warm_pool(tracer, k);
    setup_s.push(clock.since_ns(t) as f64 / 1e9);
    tracer.exit(span);

    // Untimed: the software reference of every slot, and at the default
    // seed the generated graph must be the repository's stand-in.
    let span = tracer.enter("vcpm.reference", 0);
    let mut slots = slots(kind, &graph, args.seed);
    for s in &mut slots {
        s.reference = s.program.reference(&graph);
    }
    tracer.exit(span);
    if args.seed == crate::DEFAULT_SEED {
        let standin = Dataset::Twitter.build_scaled(kind.divisor());
        checks.op("default-seed graph", || {
            (graph == standin)
                .then_some(())
                .ok_or_else(|| "generated graph differs from the Dataset stand-in".to_string())
        });
    }

    // Timed phase. With tracing, passes alternate untraced, traced,
    // traced, untraced, so the overhead is measured in the same process
    // and state and a drift over the run does not land on one side.
    let pool = CorePool::global();
    let pool_before = pool.snapshot();
    let phase = Instant::now();
    let timed = tracer.enter("timed", 0);
    let mut times = SlotTimes {
        untraced: vec![Vec::new(); slots.len()],
        traced: vec![Vec::new(); slots.len()],
    };
    let mut first = SimTotals::default();
    let mut passes = 0u64;
    let mut run_id = 0u64;
    loop {
        let traced = args.trace && matches!(passes % 4, 1 | 2);
        tracer.set_enabled(traced);
        let pass_span = tracer.enter("pass", passes);
        let sel_before = selection::snapshot();
        let mut pass_cycles = 0u64;
        for (i, slot) in slots.iter().enumerate() {
            let span = tracer.enter("accel.run", run_id);
            let t = clock.now_ns();
            let out = engines[slot.engine].run(&slot.program);
            let ns = clock.since_ns(t);
            tracer.exit(span);
            let v = tracer.enter("verify", run_id);
            run_id += 1;
            if traced {
                times.traced[i].push(ns);
            } else {
                times.untraced[i].push(ns);
            }
            checks.op(&slot.label, || {
                let out = out.map_err(|stall| format!("stalled: {stall}"))?;
                if out.properties != slot.reference {
                    return Err("properties differ from the vcpm reference".to_string());
                }
                if let Some(want) = slot.expected_cycles {
                    if out.metrics.cycles != want {
                        return Err(format!("{} cycles, baseline {want}", out.metrics.cycles));
                    }
                }
                pass_cycles += out.metrics.cycles;
                if passes == 0 {
                    first.add(&out.metrics, out.chip_cycles, out.link_packets, &out.link);
                }
                Ok(())
            });
            tracer.exit(v);
        }
        if passes == 0 {
            first.selections = selection::snapshot().since(&sel_before);
        }
        if kind == Kind::Memstarved && args.seed == crate::DEFAULT_SEED {
            checks.op("memstarved cycle total", || {
                (pass_cycles == MEMSTARVED_BASELINE_CYCLES)
                    .then_some(())
                    .ok_or_else(|| {
                        format!("{pass_cycles} cycles, hostperf {MEMSTARVED_BASELINE_CYCLES}")
                    })
            });
        }
        tracer.exit(pass_span);
        passes += 1;
        let sides_done = !args.trace || passes >= 2;
        if sides_done && phase.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    tracer.set_enabled(args.trace);
    tracer.exit(timed);
    let window_ns = phase.elapsed().as_nanos() as u64;
    let pool_delta = pool.snapshot().since(&pool_before);
    tracer.exit(root);

    // A shared host slows the program in bursts of a second or so, and
    // no slot run is faster than the undisturbed program. So the pass is
    // rebuilt from each slot's fastest run, and throughput divides the
    // pass's simulated work by that time.
    let best_pass_s = |traced: bool| -> f64 {
        times
            .side(traced)
            .iter()
            .map(|ns| ns.iter().copied().min().unwrap_or(0) as f64 / 1e9)
            .sum()
    };
    let untraced_s = best_pass_s(false);
    // A job of a direct workload is one pass, the whole `hostperf` leg:
    // its latency is the host time of the rebuilt pass.
    let latencies = [untraced_s * 1e3];
    let end_to_end = EndToEnd {
        sim_cycles_per_host_s: ratio(first.chip_cycles as f64, untraced_s),
        edges_per_host_s: ratio(first.edges as f64, untraced_s),
        sim_gteps: first.gteps(),
        jobs_per_s: ratio(1.0, untraced_s),
        latency_ms: Timing::of(&latencies),
        setup_s: median(&setup_s),
    };

    let mut layers = LayerValues::default();
    if args.trace {
        let traced_s = best_pass_s(true);
        let traced_passes = times.traced[0].len() as f64;
        let selfs = tracer.self_ns();
        let self_of = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64;
        let pass_ns: f64 = tracer.durations("pass").iter().map(|&n| n as f64).sum();
        layers.set(
            "graph.build_ms",
            median_ms(&tracer.durations("graph.build")),
        );
        layers.set(
            "accel.engine_new_ms",
            median_ms(&tracer.durations("accel.engine_new")),
        );
        layers.set("accel.run_ms", median_ms(&tracer.durations("accel.run")));
        layers.set(
            "accel.host_ns_per_edge",
            ratio(self_of("accel.run"), first.edges as f64 * traced_passes),
        );
        layers.set(
            "bench.self_share",
            ratio(pass_ns - self_of("accel.run"), pass_ns),
        );
        layers.set(
            "trace.overhead_ratio",
            ratio(
                ratio(first.chip_cycles as f64, untraced_s),
                ratio(first.chip_cycles as f64, traced_s),
            ),
        );
        layers.set("trace.spans", tracer.spans().len() as f64);
        first.set_layers(&mut layers);
        set_pool_layers(&mut layers, &pool_delta, window_ns, passes, pool.workers());
    }

    let notes = vec![
        format!(
            "host time: {} clock; each slot's fastest of {} untraced runs",
            clock.label(),
            times.untraced[0].len()
        ),
        format!(
            "graph: Twitter/{}-shaped power-law, {} vertices, {} edges; {} slots x {passes} passes",
            kind.divisor(),
            graph.num_vertices(),
            graph.num_edges(),
            slots.len()
        ),
        format!(
            "per pass: {} aggregate cycles, {} chip-cycles, {} edges; wheel/poll windows {}/{}",
            first.cycles,
            first.chip_cycles,
            first.edges,
            first.selections.wheel_windows,
            first.selections.poll_windows
        ),
    ];
    Outcome {
        checks,
        end_to_end,
        layers,
        notes,
    }
}
