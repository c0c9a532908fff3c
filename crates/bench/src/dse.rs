//! `repro dse` — Pareto-front design-space exploration over the cost
//! model (see `docs/dse.md`).
//!
//! The driver searches `higraph-accel`'s [`DesignSpace`] lattice with a
//! successive-halving schedule: a seeded cohort is screened on a small
//! workload, the Pareto-best fraction survives to a mid-size workload,
//! and the finalists are scored on the pinned full-fidelity workload
//! that defines the reported objectives. A short stochastic hill-climb
//! then mutates front members at full fidelity. Every simulated cycle
//! count is combined with the calibrated area/power/frequency models
//! into an [`Objectives`] tuple, and [`ParetoFront`] keeps the
//! non-dominated set.
//!
//! Two properties make the outcome CI-gateable:
//!
//! * **Determinism** — all randomness comes from one seeded [`StdRng`]
//!   drawn sequentially on the driver thread; simulations are
//!   bit-deterministic and the batch runner preserves job order, so the
//!   same [`DseSettings`] always produce the same [`DseOutcome`]
//!   (parallel or serial).
//! * **Budget-independent anchors** — the paper's two Sec. 5.4 synthesis
//!   configurations ([`DesignSpace::anchors`]) are always evaluated on
//!   the final fidelity rung, which does not depend on the search
//!   budget. Their objective values can therefore be pinned in
//!   `bench-baseline.json`, while their distance to the discovered
//!   front ([`AnchorRow::front_excess`]) is gated by the fixed
//!   [`MAX_ANCHOR_FRONT_EXCESS`] threshold.

use higraph::accel::space::{DesignPoint, DesignSpace};
use higraph::model::{Objectives, ParetoFront};
use higraph::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest tolerated [`AnchorRow::front_excess`] for the paper's anchor
/// configurations under `--check`: some front member may beat an anchor
/// by at most this factor on its weakest objective. The search explores
/// designs the paper never synthesized (smaller buffers, narrower
/// staging, multi-chip trades), so the anchors need not be exactly
/// optimal — but if they fall this far behind the front, either the
/// cost model or the simulator has drifted.
pub const MAX_ANCHOR_FRONT_EXCESS: f64 = 2.5;

/// Fewest survivors carried into any halving rung, so tiny budgets keep
/// a meaningful cohort.
const MIN_SURVIVORS: usize = 4;

/// Most front members mutated per refinement round.
const MAX_PROPOSALS_PER_ROUND: usize = 8;

/// One fidelity rung: the workload every candidate in that rung runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fidelity {
    /// Table 2 dataset.
    pub dataset: Dataset,
    /// Power-of-two edge-count divisor applied to the Table 2 size.
    pub divisor: u32,
    /// PageRank power iterations.
    pub pr_iters: u32,
}

impl Fidelity {
    /// Builds the rung's graph.
    pub fn build(&self) -> Csr {
        self.dataset.build_scaled(self.divisor)
    }

    /// The pinned default schedule: screen on a small Vote slice, keep
    /// the Pareto-best through a mid-size Twitter slice, and score the
    /// finalists (plus anchors and refinement mutants) on the largest
    /// rung. The final rung is what defines every reported objective;
    /// it must stay fixed across budgets for the anchor baseline keys
    /// to be comparable.
    pub fn default_rungs() -> Vec<Fidelity> {
        vec![
            Fidelity {
                dataset: Dataset::Vote,
                divisor: 8,
                pr_iters: 2,
            },
            Fidelity {
                dataset: Dataset::Twitter,
                divisor: 32,
                pr_iters: 3,
            },
            Fidelity {
                dataset: Dataset::Twitter,
                divisor: 16,
                pr_iters: 4,
            },
        ]
    }
}

/// Search-schedule knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct DseSettings {
    /// Seed for the candidate sampler and mutation draws.
    pub seed: u64,
    /// Rung-0 cohort size (the `--dse-budget` flag).
    pub budget: usize,
    /// Halving factor: each rung keeps ~`1/eta` of its cohort.
    pub eta: usize,
    /// Hill-climb rounds at full fidelity after the halving schedule.
    pub refine_rounds: usize,
    /// Spread simulations across cores (results are identical either
    /// way; `dse::tests` asserts it).
    pub parallel: bool,
    /// Fidelity schedule, cheapest first; the last rung defines the
    /// reported objectives.
    pub rungs: Vec<Fidelity>,
}

impl DseSettings {
    /// The CI smoke schedule: 48 seeded candidates, halving by 4, two
    /// refinement rounds, the pinned default rungs.
    pub fn smoke() -> Self {
        DseSettings {
            seed: 2022,
            budget: 48,
            eta: 4,
            refine_rounds: 2,
            parallel: true,
            rungs: Fidelity::default_rungs(),
        }
    }

    /// This schedule with a different rung-0 cohort size (clamped to at
    /// least `MIN_SURVIVORS`, which is crate-private).
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget.max(MIN_SURVIVORS);
        self
    }
}

/// One member of the discovered front.
#[derive(Debug, Clone)]
pub struct FrontRow {
    /// The design's name (genome summary, or an anchor label).
    pub name: String,
    /// Full-fidelity objectives.
    pub objectives: Objectives,
}

/// One paper anchor, scored at full fidelity against the front.
#[derive(Debug, Clone)]
pub struct AnchorRow {
    /// `"MDP-160"` or `"FIFO+Crossbar-128"`.
    pub label: String,
    /// Full-fidelity objectives (budget-independent; pinned in the
    /// baseline).
    pub objectives: Objectives,
    /// Distance to the discovered front as a factor ≥ 1
    /// ([`ParetoFront::front_excess`]); `1.0` = on or extending the
    /// front.
    pub front_excess: f64,
}

impl AnchorRow {
    /// Whether the anchor sits on (or extends) the discovered front.
    pub fn on_front(&self) -> bool {
        self.front_excess == 1.0
    }
}

/// Everything `repro dse` reports.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// The non-dominated set, in discovery order (anchors join at the
    /// end when competitive).
    pub front: Vec<FrontRow>,
    /// The paper anchors, scored against the front *before* they join.
    pub anchors: Vec<AnchorRow>,
    /// Candidate evaluations performed across all rungs, refinement and
    /// anchors.
    pub points_evaluated: usize,
    /// Evaluations served from the memo cache (keyed on graph content
    /// hash + canonical config encoding) instead of simulating — valid
    /// because every run is bit-deterministic. Counted inside
    /// `points_evaluated`.
    pub memo_hits: usize,
    /// Memo entries displaced by the LRU bound
    /// ([`crate::memo::LruCache`]); non-zero only when an exploration
    /// touches more distinct designs than the cache capacity.
    pub memo_evictions: u64,
    /// Size of the genome lattice being searched.
    pub space_size: usize,
}

/// Per-scatter-phase cycle budget for one DSE candidate: generous slack
/// over any viable design's cycles-per-edge on PageRank (observed ≲ 2
/// idealized, ≲ 12 with a narrow DRAM), but far below the engine's
/// workload-derived default. A deadlocking design (the naive nW1R FIFO
/// past 32 channels — the paper's Fig. 5 point) then fails its entry in
/// `O(guard)` simulated cycles instead of burning the default guard.
fn stall_guard_for(point: &DesignPoint, graph: &Csr) -> u64 {
    let per_edge = if point.config.memory.is_some() {
        64
    } else {
        16
    };
    10_000 + graph.num_edges() * per_edge * point.chips as u64
}

/// The memo cache shared across one exploration: job identity → cycle
/// count (`None` = the design stalled or failed). Keyed on the graph's
/// content hash plus the *canonical* configuration encoding, so two
/// lattice points that decode to the same hardware — or a later rung
/// re-scoring a survivor on an already-seen workload — simulate once.
/// Sound because runs are bit-deterministic (same key ⇒ same cycles).
/// Bounded LRU ([`crate::memo::LruCache`]) so an exploration's memo
/// footprint stays fixed no matter how large the budget is.
type EvalMemo = crate::memo::LruCache<Option<u64>>;

/// Entry bound of the exploration memo: comfortably above any one
/// cohort (budget × duplicates) so within-rung reuse always hits, while
/// bounding a long exploration's footprint.
const EVAL_MEMO_CAPACITY: usize = 4096;

fn memo_key(point: &DesignPoint, fidelity: &Fidelity, graph_hash: u64) -> String {
    format!(
        "{:016x}|chips={}|pr={}|{}",
        graph_hash,
        point.chips,
        fidelity.pr_iters,
        point.config.canonical_encoding()
    )
}

/// Runs every design in `points` on one rung's workload and pairs the
/// survivors with their objectives. A design that stalls or fails
/// validation loses its slot (`None`) without aborting the cohort.
/// Previously-seen (graph, config) pairs are answered from `memo`;
/// `memo_hits` counts them.
#[allow(clippy::too_many_arguments)]
fn evaluate(
    points: &[DesignPoint],
    fidelity: &Fidelity,
    graph: &Csr,
    graph_hash: u64,
    parallel: bool,
    memo: &mut EvalMemo,
    memo_hits: &mut usize,
) -> Vec<Option<(DesignPoint, Objectives)>> {
    let keys: Vec<String> = points
        .iter()
        .map(|p| memo_key(p, fidelity, graph_hash))
        .collect();
    // Simulate only the first occurrence of each unseen key; batch order
    // (hence determinism) is preserved because results are re-joined by
    // key afterwards.
    let mut fresh: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        if memo.contains(key) {
            *memo_hits += 1;
        } else if fresh.iter().any(|&j| keys[j] == *key) {
            *memo_hits += 1; // duplicate within this cohort
        } else {
            fresh.push(i);
        }
    }
    if !fresh.is_empty() {
        let jobs: Vec<BatchJob<'_, PageRank>> = fresh
            .iter()
            .map(|&i| {
                let p = &points[i];
                let mut job = BatchJob::new(
                    &p.config.name,
                    graph,
                    PageRank::new(fidelity.pr_iters),
                    p.config.clone(),
                )
                .with_stall_guard(stall_guard_for(p, graph));
                if let Some(shard) = p.shard_config() {
                    job = job.sharded(shard);
                }
                job
            })
            .collect();
        let runner = if parallel {
            BatchRunner::parallel()
        } else {
            BatchRunner::serial()
        };
        let (results, _) = runner.run(jobs);
        for (&i, r) in fresh.iter().zip(results) {
            let cycles = r.run.ok().map(|run| run.metrics.cycles);
            memo.insert(keys[i].clone(), cycles);
        }
    }
    points
        .iter()
        .zip(&keys)
        .map(|(p, key)| {
            let cycles = (*memo.get(key).unwrap_or(&None))?;
            let objectives = p.objectives(cycles);
            objectives.is_finite().then(|| (p.clone(), objectives))
        })
        .collect()
}

/// Scalarization used only to order designs *within* one non-dominated
/// rank: the log-volume of the objective box (sum of logs ≡ product).
fn log_volume(o: &Objectives) -> f64 {
    o.as_array()
        .iter()
        .map(|v| v.max(f64::MIN_POSITIVE).ln())
        .sum()
}

/// Non-dominated sorting: indices of `scored` in selection order —
/// rank 0 (the cohort's own Pareto front) first, each rank ordered by
/// ascending [`log_volume`] with the insertion index as the final
/// deterministic tie-break.
fn selection_order(scored: &[(DesignPoint, Objectives)]) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..scored.len()).collect();
    let mut order = Vec::with_capacity(scored.len());
    while !remaining.is_empty() {
        let mut rank: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                !remaining
                    .iter()
                    .any(|&j| j != i && scored[i].1.dominated_by(&scored[j].1))
            })
            .collect();
        rank.sort_by(|&a, &b| {
            log_volume(&scored[a].1)
                .partial_cmp(&log_volume(&scored[b].1))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        remaining.retain(|i| !rank.contains(i));
        order.extend(rank);
    }
    order
}

/// Runs the full exploration. Deterministic for fixed settings.
///
/// # Panics
///
/// Panics if `settings.rungs` is empty, or if an anchor configuration
/// fails to simulate (both would be driver bugs, not data-dependent
/// conditions).
pub fn explore(settings: &DseSettings) -> DseOutcome {
    assert!(
        !settings.rungs.is_empty(),
        "need at least one fidelity rung"
    );
    let graphs: Vec<Csr> = settings.rungs.iter().map(Fidelity::build).collect();
    let graph_hashes: Vec<u64> = graphs.iter().map(Csr::content_hash).collect();
    let mut rng = StdRng::seed_from_u64(settings.seed);
    let mut points_evaluated = 0usize;
    let mut memo: EvalMemo = EvalMemo::new(EVAL_MEMO_CAPACITY);
    let mut memo_hits = 0usize;

    // Seeded rung-0 cohort. Every lattice point builds (space::tests
    // sweeps this), so no draw is wasted.
    let mut cohort: Vec<DesignPoint> = (0..settings.budget.max(MIN_SURVIVORS))
        .map(|_| DesignSpace::sample(&mut rng))
        .map(|g| DesignSpace::build(&g).expect("lattice points build"))
        .collect();

    // Successive halving up the fidelity schedule.
    let mut final_scored: Vec<(DesignPoint, Objectives)> = Vec::new();
    for (i, (fidelity, graph)) in settings.rungs.iter().zip(&graphs).enumerate() {
        let evals = evaluate(
            &cohort,
            fidelity,
            graph,
            graph_hashes[i],
            settings.parallel,
            &mut memo,
            &mut memo_hits,
        );
        points_evaluated += cohort.len();
        let scored: Vec<(DesignPoint, Objectives)> = evals.into_iter().flatten().collect();
        if i + 1 == settings.rungs.len() {
            final_scored = scored;
        } else {
            let order = selection_order(&scored);
            let keep = (settings.budget / settings.eta.max(2).pow(i as u32 + 1))
                .max(MIN_SURVIVORS)
                .min(order.len());
            cohort = order[..keep]
                .iter()
                .map(|&ix| scored[ix].0.clone())
                .collect();
        }
    }

    let mut front: ParetoFront<DesignPoint> = ParetoFront::new();
    for (p, o) in &final_scored {
        front.try_insert(p.clone(), *o);
    }

    // Stochastic hill-climb: mutate front members at full fidelity.
    let (final_fidelity, final_graph) = (
        settings.rungs.last().expect("non-empty rungs"),
        graphs.last().expect("non-empty rungs"),
    );
    let final_hash = *graph_hashes.last().expect("non-empty rungs");
    for _ in 0..settings.refine_rounds {
        let parents: Vec<_> = front
            .points()
            .iter()
            .take(MAX_PROPOSALS_PER_ROUND)
            .map(|(p, _)| p.genome)
            .collect();
        let mutants: Vec<DesignPoint> = parents
            .iter()
            .map(|g| DesignSpace::mutate(g, &mut rng))
            .filter_map(|g| DesignSpace::build(&g).ok())
            .collect();
        if mutants.is_empty() {
            break;
        }
        let evals = evaluate(
            &mutants,
            final_fidelity,
            final_graph,
            final_hash,
            settings.parallel,
            &mut memo,
            &mut memo_hits,
        );
        points_evaluated += mutants.len();
        for (p, o) in evals.into_iter().flatten() {
            front.try_insert(p, o);
        }
    }

    // Paper anchors: score at full fidelity, measure distance to the
    // discovered front, then let them join it if competitive.
    let anchor_points: Vec<(&str, DesignPoint)> = DesignSpace::anchors()
        .iter()
        .map(|(label, genome)| {
            let mut point = DesignSpace::build(genome).expect("anchors build");
            point.config.name = label.to_string();
            (*label, point)
        })
        .collect();
    let designs: Vec<DesignPoint> = anchor_points.iter().map(|(_, p)| p.clone()).collect();
    let evals = evaluate(
        &designs,
        final_fidelity,
        final_graph,
        final_hash,
        settings.parallel,
        &mut memo,
        &mut memo_hits,
    );
    points_evaluated += designs.len();
    let mut anchors = Vec::new();
    for ((label, _), eval) in anchor_points.iter().zip(evals) {
        let (point, objectives) = eval.expect("anchor configurations simulate");
        let front_excess = front.front_excess(&objectives);
        front.try_insert(point, objectives);
        anchors.push(AnchorRow {
            label: label.to_string(),
            objectives,
            front_excess,
        });
    }

    DseOutcome {
        front: front
            .points()
            .iter()
            .map(|(p, o)| FrontRow {
                name: p.config.name.clone(),
                objectives: *o,
            })
            .collect(),
        anchors,
        points_evaluated,
        memo_hits,
        memo_evictions: memo.evictions(),
        space_size: DesignSpace::size(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A schedule small enough for unit tests: one tiny rung twice.
    fn tiny_settings() -> DseSettings {
        let rung = Fidelity {
            dataset: Dataset::Vote,
            divisor: 64,
            pr_iters: 2,
        };
        DseSettings {
            seed: 7,
            budget: 6,
            eta: 2,
            refine_rounds: 1,
            parallel: true,
            rungs: vec![rung, rung],
        }
    }

    fn flatten(outcome: &DseOutcome) -> Vec<(String, [f64; 3])> {
        outcome
            .front
            .iter()
            .map(|r| (r.name.clone(), r.objectives.as_array()))
            .collect()
    }

    #[test]
    fn exploration_yields_a_nonempty_front_with_gated_anchors() {
        let outcome = explore(&tiny_settings());
        assert!(!outcome.front.is_empty());
        assert!(outcome.points_evaluated >= outcome.front.len());
        // tiny_settings runs the same rung twice: the second pass
        // re-scores survivors on an already-seen (graph, config) pair,
        // which must be served from the memo cache
        assert!(outcome.memo_hits > 0);
        assert!(outcome.memo_hits <= outcome.points_evaluated);
        assert!(outcome.space_size > 100_000);
        for a in &outcome.front {
            assert!(a.objectives.is_finite(), "{}", a.name);
            for b in &outcome.front {
                assert!(
                    !a.objectives.dominated_by(&b.objectives),
                    "{} dominated by {}",
                    a.name,
                    b.name
                );
            }
        }
        // the paper anchors are scored against the same front
        assert_eq!(outcome.anchors.len(), 2);
        let labels: Vec<_> = outcome.anchors.iter().map(|a| a.label.as_str()).collect();
        assert_eq!(labels, ["MDP-160", "FIFO+Crossbar-128"]);
        for a in &outcome.anchors {
            assert!(a.objectives.is_finite());
            assert!(a.front_excess >= 1.0);
            assert!(
                a.front_excess <= MAX_ANCHOR_FRONT_EXCESS,
                "{} excess {}",
                a.label,
                a.front_excess
            );
        }
    }

    #[test]
    fn exploration_is_deterministic_and_thread_independent() {
        let settings = tiny_settings();
        let a = explore(&settings);
        let b = explore(&settings);
        assert_eq!(flatten(&a), flatten(&b), "same seed, same front");
        assert_eq!(a.points_evaluated, b.points_evaluated);
        assert_eq!(a.memo_hits, b.memo_hits, "memoization is deterministic");
        let serial = explore(&DseSettings {
            parallel: false,
            ..settings.clone()
        });
        assert_eq!(flatten(&a), flatten(&serial), "parallelism changes nothing");
        let other = explore(&DseSettings {
            seed: 8,
            ..settings
        });
        assert_ne!(
            flatten(&a),
            flatten(&other),
            "a different seed explores differently"
        );
    }

    #[test]
    fn selection_order_puts_the_cohort_front_first() {
        let obj = |t: f64, a: f64, e: f64| Objectives {
            cycles: t as u64,
            time_ns: t,
            area_mm2: a,
            energy_mj: e,
        };
        let [(_, genome), _] = DesignSpace::anchors();
        let p = DesignSpace::build(&genome).unwrap();
        let scored = vec![
            (p.clone(), obj(100.0, 2.0, 10.0)), // rank 1 (dominated by #2)
            (p.clone(), obj(50.0, 1.0, 5.0)),   // rank 0
            (p.clone(), obj(40.0, 3.0, 5.0)),   // rank 0 (trade-off)
            (p, obj(200.0, 4.0, 20.0)),         // rank 1
        ];
        let order = selection_order(&scored);
        assert_eq!(order.len(), 4);
        assert_eq!(&order[..2], &[1, 2], "non-dominated pair first");
        assert_eq!(&order[2..], &[0, 3], "then the dominated rank");
    }
}
