//! The `serve_mix` workload: one closed-loop client driving an
//! in-process `ServeSession` through `handle_line` and `step`.
//!
//! The client plays one block of jobs again and again, each time on a
//! fresh session. Within a block it submits a batch, waits for every
//! result (resuming the job that parks), then submits the next batch.
//! The seed picks the block's extras; the session builds its graphs
//! itself from the dataset names in the submit lines, so the graphs are
//! the repository's `Dataset` stand-ins under every seed. After the
//! timed phase every distinct job is re-run directly (`Algo::run_sharded`,
//! untimed) and its cycles must equal what the session reported.
//!
//! Every block issues the same operations (submit, cancel, step, resume)
//! in the same order, which the benchmark checks, so operation `k` of one
//! block repeats operation `k` of every other. As for the direct
//! workloads, a shared host slows the program in bursts, so the block's
//! timeline is rebuilt from each operation's fastest repetition, and
//! every end-to-end metric is read off that timeline. The session
//! simulates on the calling thread, so host time is the process CPU clock
//! (see `clock.rs`).

use crate::clock::Clock;
use crate::layers::{set_pool_layers, LayerValues, SimTotals};
use crate::stats::{median, median_ms, ratio, Timing};
use crate::trace::Tracer;
use crate::{warm_pool, Args, Checks, EndToEnd, Outcome};
use higraph::pool::CorePool;
use higraph::prelude::*;
use higraph::sim::selection;
use higraph_bench::workload::ShardedSummary;
use higraph_bench::{Algo, ServeSession};
use std::collections::BTreeMap;
use std::time::Instant;

/// Base jobs per closed-loop batch.
const BATCH: usize = 6;
/// Exact repeats of completed jobs per batch: a quarter of the results.
const REPEATS: usize = 2;

/// Each dataset with the two divisors that scale it to about 55 k and
/// 28 k edges, so a job costs about the same whichever graph it names.
const DATASETS: [(Dataset, [u32; 2]); 4] = [
    (Dataset::Vote, [2, 4]),
    (Dataset::Epinions, [8, 16]),
    (Dataset::Slashdot, [16, 32]),
    (Dataset::Twitter, [32, 64]),
];
const PRESETS: [&str; 3] = ["higraph", "higraph-mini", "graphdyns"];
const PR_ITERS: u32 = 3;

/// SplitMix64: a small seeded generator for the job mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// What a job asks the session to simulate. Equal specs share a memo
/// entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Spec {
    dataset: Dataset,
    divisor: u32,
    algo: Algo,
    preset: &'static str,
    chips: usize,
    cache_kb: Option<usize>,
}

impl Spec {
    fn submit_line(&self, id: &str, budget_cycles: Option<u64>) -> String {
        let mut s = format!(
            "{{\"op\": \"submit\", \"id\": \"{id}\", \"dataset\": \"{}\", \"algo\": \"{}\", \
             \"config\": \"{}\", \"divisor\": {}, \"chips\": {}, \"pr_iters\": {PR_ITERS}",
            self.dataset.abbrev(),
            self.algo.label().to_ascii_lowercase(),
            self.preset,
            self.divisor,
            self.chips
        );
        if let Some(kb) = self.cache_kb {
            s.push_str(&format!(", \"cache_kb\": {kb}"));
        }
        if let Some(b) = budget_cycles {
            s.push_str(&format!(", \"budget_cycles\": {b}"));
        }
        s.push('}');
        s
    }

    /// Identifies the spec: its submit fields without id or budget.
    fn key(&self) -> String {
        self.submit_line("", None)
    }

    /// The accelerator configuration the session builds for this spec.
    fn config(&self) -> AcceleratorConfig {
        let mut cfg = match self.preset {
            "higraph" => AcceleratorConfig::higraph(),
            "higraph-mini" => AcceleratorConfig::higraph_mini(),
            _ => AcceleratorConfig::graphdyns(),
        };
        if let Some(kb) = self.cache_kb {
            cfg.memory = Some(MemoryConfig::hbm2().with_cache_kb(kb));
        }
        cfg
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    /// Parks at a cycle budget, then the client resumes it.
    Budget(u64),
    /// Cancelled while still queued.
    Cancel,
}

/// One job of the block.
struct Planned {
    spec: Spec,
    mode: Mode,
    batch: usize,
    /// A plain repeat of a spec an earlier batch completed.
    expect_hit: bool,
}

/// The block every run plays: 24 base jobs, every (dataset, program)
/// pair once, in batches of [`BATCH`].
///
/// Preset, chips, divisor and cache rotate with the pair's index, so the
/// block holds every preset, chip count 1-4 and cache option. The base
/// jobs, their order and their batches are the same under every seed, so
/// runs with different seeds simulate the same work and queue it the same
/// way. The seed picks the rest of each batch, submitted before its base
/// jobs: which completed specs are repeated (memo hits), which job is
/// cancelled while queued, and the cycle budget at which the batch's last
/// base job parks. The parked job is the last one so that its resume,
/// which queues it again, reorders no other job.
fn plan_block(seed: u64) -> Vec<Planned> {
    let mut base = Vec::new();
    for (dataset, divisors) in DATASETS {
        for algo in Algo::ALL {
            let k = base.len();
            base.push(Spec {
                dataset,
                divisor: divisors[k % 2],
                algo,
                preset: PRESETS[k % 3],
                chips: 1 + k % 4,
                cache_kb: match k % 8 {
                    0 => Some(64),
                    4 => Some(256),
                    _ => None,
                },
            });
        }
    }
    let mut order = Rng(0xB10C);
    for i in (1..base.len()).rev() {
        let j = order.below(i + 1);
        base.swap(i, j);
    }

    let mut rng = Rng(seed ^ 0x5E12_7E00);
    let mut plan = Vec::new();
    for (batch, chunk) in base.chunks(BATCH).enumerate() {
        let done = batch * BATCH;
        if done > 0 {
            for _ in 0..REPEATS {
                plan.push(Planned {
                    spec: base[rng.below(done)].clone(),
                    mode: Mode::Plain,
                    batch,
                    expect_hit: true,
                });
            }
        }
        plan.push(Planned {
            spec: base[rng.below(base.len())].clone(),
            mode: Mode::Cancel,
            batch,
            expect_hit: false,
        });
        for (i, spec) in chunk.iter().enumerate() {
            let mode = if i + 1 == chunk.len() {
                Mode::Budget(1_000 + rng.below(3_000) as u64)
            } else {
                Mode::Plain
            };
            plan.push(Planned {
                spec: spec.clone(),
                mode,
                batch,
                expect_hit: false,
            });
        }
    }
    plan
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Submit,
    Cancel,
    Step,
    Resume,
}

/// What the client observed of one job in one block.
#[derive(Default)]
struct Seen {
    /// Timeline indices of the job's submit and of the step that
    /// returned its result.
    submit_op: usize,
    result_op: Option<usize>,
    parked: bool,
    memo_hit: bool,
    cycles: u64,
    /// Clock readings for the traced queue wait.
    queued_at: u64,
    first_step: Option<u64>,
}

/// One played block: the host time of each operation in order, what
/// each operation was, and what each job returned.
struct Block {
    traced: bool,
    op_ns: Vec<u64>,
    ops: Vec<(Op, usize)>,
    seen: Vec<Seen>,
    memo_evictions: f64,
}

/// The value of `"key": …` in a flat JSON event line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
    Some(&rest[..end])
}

/// A fresh session with every graph of the mix built and an engine
/// constructed once per graph: each warm-up job parks before its first
/// cycle and is then cancelled, so nothing is simulated or memoized.
fn warm_session(tracer: &mut Tracer, k: u64) -> ServeSession {
    let span = tracer.enter("setup.session", k);
    let mut session = ServeSession::new();
    for (ds, divisors) in DATASETS {
        for d in divisors {
            let id = format!("warm-{}-{d}", ds.abbrev());
            session.handle_line(&format!(
                "{{\"op\": \"submit\", \"id\": \"{id}\", \"dataset\": \"{}\", \"divisor\": {d}, \"budget_ms\": 0}}",
                ds.abbrev()
            ));
            session.handle_line("{\"op\": \"run\"}");
            session.handle_line(&format!("{{\"op\": \"cancel\", \"id\": \"{id}\"}}"));
        }
    }
    warm_pool(tracer, k);
    tracer.exit(span);
    session
}

/// Plays the block once on a fresh `session`.
fn play_block(
    b: u64,
    traced: bool,
    plan: &[Planned],
    mut session: ServeSession,
    clock: Clock,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Block {
    let mut block = Block {
        traced,
        op_ns: Vec::new(),
        ops: Vec::new(),
        seen: (0..plan.len()).map(|_| Seen::default()).collect(),
        memo_evictions: 0.0,
    };
    let ids: Vec<String> = (0..plan.len()).map(|j| format!("j{j}")).collect();
    let batches = plan.last().map_or(0, |p| p.batch + 1);
    for batch in 0..batches {
        let batch_span = tracer.enter("serve.batch", b);
        let jobs: Vec<usize> = (0..plan.len())
            .filter(|&j| plan[j].batch == batch)
            .collect();
        for &j in &jobs {
            let p = &plan[j];
            let budget = match p.mode {
                Mode::Budget(c) => Some(c),
                _ => None,
            };
            let line = p.spec.submit_line(&ids[j], budget);
            let t = clock.now_ns();
            let span = tracer.enter("serve.submit", j as u64);
            let out = session.handle_line(&line);
            tracer.exit(span);
            block.seen[j].queued_at = clock.now_ns();
            block.seen[j].submit_op = block.ops.len();
            block.op_ns.push(block.seen[j].queued_at.saturating_sub(t));
            block.ops.push((Op::Submit, j));
            let queued = out.len() == 1 && field(&out[0], "event") == Some("queued");
            checks.op(&ids[j], || {
                queued
                    .then_some(())
                    .ok_or_else(|| format!("submit answered {out:?}"))
            });
            if p.mode == Mode::Cancel {
                let t = clock.now_ns();
                let span = tracer.enter("serve.cancel", j as u64);
                let out =
                    session.handle_line(&format!("{{\"op\": \"cancel\", \"id\": \"{}\"}}", ids[j]));
                tracer.exit(span);
                block.op_ns.push(clock.since_ns(t));
                block.ops.push((Op::Cancel, j));
                let ok = out.len() == 1
                    && field(&out[0], "event") == Some("cancelled")
                    && field(&out[0], "stage") == Some("queued");
                checks.op(&format!("{} cancel", ids[j]), || {
                    ok.then_some(())
                        .ok_or_else(|| format!("cancel answered {out:?}"))
                });
            }
        }
        // Closed loop: step until every job of the batch has an answer.
        loop {
            let t = clock.now_ns();
            let span = tracer.enter("serve.step", b);
            let Some(line) = session.step() else {
                tracer.exit(span);
                break;
            };
            let event = field(&line, "event").unwrap_or("");
            let id = field(&line, "id").unwrap_or("");
            let Some(j) = jobs.iter().copied().find(|&j| ids[j] == id) else {
                tracer.exit(span);
                checks.op("step", || Err(format!("event for an unknown job: {line}")));
                continue;
            };
            let seen = &mut block.seen[j];
            seen.first_step.get_or_insert(t);
            let kind = match event {
                "result" if field(&line, "status") != Some("ok") => {
                    checks.op(&ids[j], || Err(format!("did not complete: {line}")));
                    None
                }
                "result" => {
                    seen.memo_hit = field(&line, "memo_hit") == Some("1");
                    seen.cycles = field(&line, "cycles")
                        .and_then(|c| c.parse().ok())
                        .unwrap_or(0);
                    seen.result_op = Some(block.ops.len());
                    Some(if seen.memo_hit {
                        "serve.step_ms.hit"
                    } else if seen.parked {
                        "serve.step_ms.resume"
                    } else {
                        "serve.step_ms.miss"
                    })
                }
                "parked" => {
                    seen.parked = true;
                    Some("serve.step_ms.park")
                }
                _ => {
                    checks.op(&ids[j], || Err(format!("unexpected event: {line}")));
                    None
                }
            };
            tracer.exit_as(span, kind);
            block.op_ns.push(clock.since_ns(t));
            block.ops.push((Op::Step, j));
            if event == "parked" {
                let t = clock.now_ns();
                let span = tracer.enter("serve.resume", b);
                let out = session.handle_line(&format!("{{\"op\": \"resume\", \"id\": \"{id}\"}}"));
                tracer.exit(span);
                block.op_ns.push(clock.since_ns(t));
                block.ops.push((Op::Resume, j));
                if out.len() != 1 || field(&out[0], "event") != Some("resuming") {
                    checks.op(id, || Err(format!("resume answered {out:?}")));
                }
            }
        }
        tracer.exit(batch_span);
    }
    let stats = session.handle_line("{\"op\": \"stats\"}");
    block.memo_evictions = stats
        .first()
        .and_then(|l| field(l, "memo_evictions"))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    block
}

/// The block's timeline rebuilt from `blocks`: each operation's fastest
/// repetition, in nanoseconds.
fn best_timeline(blocks: &[&Block]) -> Vec<u64> {
    let mut best = blocks.first().map_or_else(Vec::new, |b| b.op_ns.clone());
    for b in blocks {
        for (t, &ns) in best.iter_mut().zip(&b.op_ns) {
            *t = (*t).min(ns);
        }
    }
    best
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut checks = Checks::default();
    let clock = Clock::process_cpu();
    tracer.set_enabled(args.trace);
    let root = tracer.enter("workload", args.seed);
    let plan = plan_block(args.seed);

    // Timed phase: blocks until the time is up, each on a fresh session.
    // Building the session is set-up: timed, but outside every
    // operation. A traced run alternates blocks untraced, traced, traced,
    // untraced, so a drift over the run does not land on one side.
    let min_blocks = if args.trace { 4 } else { 2 };
    let pool = CorePool::global();
    let pool_before = pool.snapshot();
    let mut fixed_selections = Default::default();
    let mut setup_s = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();
    let phase = Instant::now();
    let timed = tracer.enter("timed", 0);
    loop {
        let b = blocks.len() as u64;
        let traced = args.trace && matches!(b % 4, 1 | 2);
        tracer.set_enabled(traced);
        let t = clock.now_ns();
        let session = warm_session(tracer, b);
        setup_s.push(clock.since_ns(t) as f64 / 1e9);
        let sel_before = selection::snapshot();
        blocks.push(play_block(
            b,
            traced,
            &plan,
            session,
            clock,
            tracer,
            &mut checks,
        ));
        if b == 0 {
            fixed_selections = selection::snapshot().since(&sel_before);
        }
        if blocks.len() >= min_blocks && phase.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    tracer.set_enabled(args.trace);
    tracer.exit(timed);
    let window_ns = phase.elapsed().as_nanos() as u64;
    let pool_delta = pool.snapshot().since(&pool_before);
    for (b, block) in blocks.iter().enumerate().skip(1) {
        checks.op(&format!("block {b} operations"), || {
            (block.ops == blocks[0].ops)
                .then_some(())
                .ok_or_else(|| "a different operation sequence from block 0".to_string())
        });
    }

    // Untimed verification: one direct run per distinct spec, spread
    // over the pool.
    let span = tracer.enter("verify", 0);
    let mut specs: Vec<&Spec> = Vec::new();
    for p in &plan {
        if p.mode != Mode::Cancel && !specs.contains(&&p.spec) {
            specs.push(&p.spec);
        }
    }
    let mut graphs: BTreeMap<(Dataset, u32), Csr> = BTreeMap::new();
    for spec in &specs {
        graphs
            .entry((spec.dataset, spec.divisor))
            .or_insert_with(|| {
                let span = tracer.enter("graph.build", u64::from(spec.divisor));
                let g = spec.dataset.build_scaled(spec.divisor);
                tracer.exit(span);
                g
            });
    }
    let runs = pool.run_ordered(specs.len(), |i| {
        let spec = specs[i];
        let graph = &graphs[&(spec.dataset, spec.divisor)];
        spec.algo
            .run_sharded(
                &spec.config(),
                ShardConfig::new(spec.chips),
                graph,
                PR_ITERS,
            )
            .map_err(|stall| format!("direct run stalled: {stall}"))
    });
    let direct: BTreeMap<String, Result<ShardedSummary, String>> =
        specs.iter().map(|s| s.key()).zip(runs).collect();
    tracer.exit(span);
    tracer.exit(root);

    // Every result of every block against its direct run. The first
    // block's simulated work is the work of every block.
    let mut fixed = SimTotals::default();
    let mut results = 0u64;
    let (mut lookups, mut hits) = (0u64, 0u64);
    let mut queue_wait_ms = Vec::new();
    for (b, block) in blocks.iter().enumerate() {
        for (j, (p, seen)) in plan.iter().zip(&block.seen).enumerate() {
            let id = format!("block {b} j{j}");
            if p.mode == Mode::Cancel {
                checks.op(&id, || {
                    seen.result_op
                        .is_none()
                        .then_some(())
                        .ok_or_else(|| "a cancelled job produced a result".to_string())
                });
                continue;
            }
            if seen.result_op.is_none() {
                checks.op(&id, || Err("no result".to_string()));
                continue;
            }
            let summary = match direct.get(&p.spec.key()) {
                Some(Ok(summary)) => summary,
                Some(Err(e)) => {
                    checks.op(&id, || Err(e.clone()));
                    continue;
                }
                None => {
                    checks.op(&id, || Err("no direct run".to_string()));
                    continue;
                }
            };
            checks.op(&id, || {
                if seen.cycles != summary.metrics.cycles {
                    return Err(format!(
                        "{} cycles, direct run {} ({:?})",
                        seen.cycles, summary.metrics.cycles, p.mode
                    ));
                }
                if seen.memo_hit != p.expect_hit {
                    return Err(format!("memo_hit {} unexpected", seen.memo_hit));
                }
                Ok(())
            });
            if block.traced {
                if let Some(first) = seen.first_step {
                    queue_wait_ms.push(first.saturating_sub(seen.queued_at) as f64 / 1e6);
                }
            }
            if b == 0 {
                results += 1;
                if p.mode == Mode::Plain {
                    lookups += 1;
                    hits += u64::from(seen.memo_hit);
                }
                if !seen.memo_hit {
                    fixed.add(
                        &summary.metrics,
                        summary.chips.iter().map(|c| c.cycles).sum(),
                        summary.cross_chip_packets,
                        &summary.link,
                    );
                }
            }
        }
    }
    fixed.selections = fixed_selections;

    // The rebuilt timeline of each side: the block's host time, and each
    // job's submit-to-result latency (for a parked job, to the result
    // after `resume`).
    let side = |traced: bool| -> (f64, Vec<f64>) {
        let same: Vec<&Block> = blocks
            .iter()
            .filter(|b| b.traced == traced && b.ops == blocks[0].ops)
            .collect();
        let best = best_timeline(&same);
        let block_s = best.iter().sum::<u64>() as f64 / 1e9;
        let latency_ms = blocks[0]
            .seen
            .iter()
            .filter_map(|s| {
                let end = s.result_op?;
                Some(best[s.submit_op..=end].iter().sum::<u64>() as f64 / 1e6)
            })
            .collect();
        (block_s, latency_ms)
    };
    let (block_s, latency_ms) = side(false);
    let untraced_blocks = blocks.iter().filter(|b| !b.traced).count();
    let end_to_end = EndToEnd {
        sim_cycles_per_host_s: ratio(fixed.chip_cycles as f64, block_s),
        edges_per_host_s: ratio(fixed.edges as f64, block_s),
        sim_gteps: fixed.gteps(),
        jobs_per_s: ratio(results as f64, block_s),
        latency_ms: Timing::of(&latency_ms),
        setup_s: median(&setup_s),
    };

    let mut layers = LayerValues::default();
    if args.trace {
        let (traced_block_s, _) = side(true);
        layers.set(
            "graph.build_ms",
            median_ms(&tracer.durations("graph.build")),
        );
        layers.set(
            "serve.submit_us",
            1e3 * median_ms(&tracer.durations("serve.submit")),
        );
        layers.set("serve.queue_wait_ms", median(&queue_wait_ms));
        for kind in [
            "serve.step_ms.miss",
            "serve.step_ms.hit",
            "serve.step_ms.park",
            "serve.step_ms.resume",
        ] {
            layers.set(kind, median_ms(&tracer.durations(kind)));
        }
        layers.set("memo.hit_ratio", ratio(hits as f64, lookups as f64));
        layers.set(
            "memo.evictions",
            blocks.iter().map(|b| b.memo_evictions).sum::<f64>(),
        );
        layers.set("trace.overhead_ratio", ratio(traced_block_s, block_s));
        layers.set("trace.spans", tracer.spans().len() as f64);
        let batch_ns: f64 = tracer
            .durations("serve.batch")
            .iter()
            .map(|&n| n as f64)
            .sum();
        let selfs = tracer.self_ns();
        layers.set(
            "bench.self_share",
            ratio(
                selfs.get("serve.batch").copied().unwrap_or(0) as f64,
                batch_ns,
            ),
        );
        fixed.set_layers(&mut layers);
        let batches = plan.last().map_or(0, |p| p.batch + 1) * blocks.len();
        set_pool_layers(
            &mut layers,
            &pool_delta,
            window_ns,
            batches as u64,
            pool.workers(),
        );
    }

    let count = |pick: fn(&Planned) -> bool| plan.iter().filter(|p| pick(p)).count();
    let notes = vec![
        format!(
            "host time: {} clock; each of {} operations' fastest of {untraced_blocks} untraced blocks",
            clock.label(),
            blocks[0].ops.len()
        ),
        format!(
            "closed loop, 1 client, {BATCH}-job batches, a fresh session per block: {} blocks of \
             {} jobs ({} memo hits, {} parked and resumed, {} cancelled while queued)",
            blocks.len(),
            plan.len(),
            count(|p| p.expect_hit),
            count(|p| matches!(p.mode, Mode::Budget(_))),
            count(|p| p.mode == Mode::Cancel),
        ),
        format!(
            "{} distinct specs re-run directly; per block: {} aggregate cycles, {} chip-cycles, {} edges",
            specs.len(),
            fixed.cycles,
            fixed.chip_cycles,
            fixed.edges
        ),
    ];
    Outcome {
        checks,
        end_to_end,
        layers,
        notes,
    }
}
