//! The resident job service behind the `higraph-serve` binary.
//!
//! A session speaks newline-delimited flat JSON on stdin/stdout (the
//! [`crate::report`] writer/parser — no serde in this hermetic
//! workspace). Each input line is one operation object; each output line
//! is one event object. See `docs/serve.md` for the protocol grammar and
//! `docs/robustness.md` for the survivability contract.
//!
//! # Operations
//!
//! * `{"op": "submit", "id": …, …}` — queue a simulation job. Fields
//!   beyond `id` are optional with defaults: `dataset` (name or paper
//!   abbreviation, default `vote`), `algo` (default `bfs`), `config`
//!   (preset `higraph` | `higraph-mini` | `graphdyns`), `divisor`
//!   (power-of-two dataset scaling, default 16), `pr_iters` (default 3),
//!   `chips` (default 1), `priority` (higher runs first, default 0),
//!   `cache_kb` (enables the HBM memory model with that cache size),
//!   `budget_cycles` (park into a checkpoint once the run has committed
//!   that many scatter cycles), `budget_ms` (host wall-clock deadline,
//!   enforced by the binary's watchdog; `0` parks deterministically
//!   before the first cycle), and `inject` (`"panic"` makes the job
//!   panic mid-run — the fault-injection hook behind the isolation
//!   tests).
//! * `{"op": "cancel", "id": …}` — remove a queued or parked job, or
//!   cooperatively cancel a running one (via the shared
//!   [`RunControl`] registry; the run discards its state at the next
//!   poll boundary).
//! * `{"op": "run"}` — execute everything queued, highest priority
//!   first (FIFO within a priority level).
//! * `{"op": "resume", "id": …}` — re-queue a parked job from its
//!   checkpoint. An optional `budget_cycles` sets a new parking point;
//!   omitted means run to completion.
//! * `{"op": "stats"}` — emit queue/memo/pool counters.
//! * `{"op": "shutdown"}` — run the remaining queue, say goodbye.
//! * `{"op": "halt"}` — stop immediately *without* draining the queue
//!   (crash simulation: accepted-but-unfinished journal entries survive
//!   for the next session to recover).
//!
//! EOF on stdin behaves like `shutdown`: pending jobs are flushed, the
//! process exits cleanly.
//!
//! # Survivability
//!
//! Every job runs inside `catch_unwind`: a panicking job produces a
//! `{"event": "failed", …}` line and the session keeps serving. A job
//! that exceeds its cycle budget (or whose watchdog requests a park)
//! checkpoints at the committed iteration boundary and moves to the
//! parked set; `resume` continues it bit-identically — the completed
//! result is indistinguishable from an uninterrupted run, so it is
//! memoized under the same key.
//!
//! With a journal ([`ServeSession::with_journal`]) the session appends
//! an `accepted` record (carrying the original submit line) per
//! admitted job, `started` when it begins executing, and `finished`
//! when it reaches a terminal state. Parked checkpoints persist to
//! sidecar files next to the journal. A session restarted on the same
//! journal reports every accepted-but-unfinished job with a
//! `{"event": "recovered", …}` line and re-queues it — from its last
//! checkpoint when one exists, from scratch otherwise.
//!
//! # Memoization and determinism
//!
//! Results are memoized under the key *(graph content hash,
//! [`AcceleratorConfig::canonical_encoding`], chips, pr_iters, algo)*.
//! This is sound **because** every run is bit-deterministic: cycle
//! counts and `Metrics` do not depend on the worker count, steal order,
//! or co-scheduled jobs (`tests/thread_determinism.rs`), so a cached
//! result is indistinguishable from a re-run. Stalled configurations are
//! memoized too — re-submitting a known-bad design point fails instantly
//! instead of burning another stall-guard's worth of host time. The memo
//! is a bounded [`LruCache`]; evictions show up in `stats`.
//!
//! Jobs execute through [`Algo::run_sharded_controlled`], whose chip
//! and link drains poll the per-job [`RunControl`] for cancellation,
//! and which parks at committed iteration boundaries.

use crate::memo::LruCache;
use crate::report::{parse_flat_json_values, write_json_number, write_json_string, JsonValue};
use crate::workload::{Algo, ControlledOutcome};
use higraph::prelude::*;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Upper bound on memoized job outcomes; the least-recently-used entry
/// is evicted beyond this (`stats` reports the eviction count).
const MEMO_CAPACITY: usize = 256;

/// A memoized job outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MemoEntry {
    /// Completed: aggregate cycle count and throughput.
    Ok { cycles: u64, gteps: f64 },
    /// The configuration stalled a chip or link drain.
    Stalled,
}

/// One parsed, validated submission.
#[derive(Debug, Clone)]
struct JobSpec {
    id: String,
    dataset: Dataset,
    algo: Algo,
    config: AcceleratorConfig,
    chips: usize,
    divisor: u32,
    pr_iters: u32,
    /// Park into a checkpoint once this many scatter cycles committed.
    budget_cycles: Option<u64>,
    /// Host wall-clock deadline for the binary's watchdog; `Some(0)`
    /// parks deterministically before the first cycle.
    budget_ms: Option<u64>,
    /// Fault-injection hook: panic mid-run to exercise isolation.
    inject_panic: bool,
}

/// A queued job with its scheduling key and cooperative control.
struct Pending {
    seq: u64,
    priority: i64,
    spec: JobSpec,
    control: Arc<RunControl>,
    /// Serialized checkpoint to resume from (parked or recovered jobs).
    checkpoint: Option<Vec<u8>>,
    /// The original submit line, journaled verbatim for recovery.
    submit_line: String,
}

/// A job parked into a checkpoint, awaiting `resume` (or `cancel`).
struct ParkedJob {
    priority: i64,
    spec: JobSpec,
    control: Arc<RunControl>,
    checkpoint: Vec<u8>,
    submit_line: String,
}

/// The shared cancellation registry: job id → its [`RunControl`].
/// Entries live from acceptance to terminal completion (parked jobs
/// stay registered). The binary's stdin reader thread uses this to
/// cancel a *running* job without waiting for the session thread.
pub type ControlRegistry = Arc<Mutex<BTreeMap<String, Arc<RunControl>>>>;

/// A boxed job-lifecycle callback ([`ServeSession::set_observer`]).
pub type JobObserver = Box<dyn FnMut(JobEvent<'_>) + Send>;

/// Lifecycle notifications for the binary's watchdog thread.
pub enum JobEvent<'a> {
    /// A job is about to execute on the session thread.
    Started {
        /// The job id.
        id: &'a str,
        /// Its wall-clock budget, if any.
        budget_ms: Option<u64>,
        /// The control to park/cancel it through.
        control: &'a Arc<RunControl>,
    },
    /// The job returned (result, parked, failed, or cancelled).
    Finished {
        /// The job id.
        id: &'a str,
    },
}

/// The append-only crash journal: one flat-JSON record per line
/// (`{"j": "accepted"|"started"|"parked"|"finished", "id": …}`), plus
/// checkpoint sidecar files `<journal>.<fnv(id)>.ckpt`. Writes are
/// best-effort: a full disk degrades recovery, never the session.
struct Journal {
    path: PathBuf,
}

impl Journal {
    fn append(&self, record: &str) {
        use std::io::Write as _;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
        {
            let _ = writeln!(f, "{record}");
        }
    }

    fn record_accepted(&self, id: &str, line: &str) {
        let mut s = String::from("{\"j\": \"accepted\", \"id\": ");
        write_json_string(&mut s, id);
        s.push_str(", \"line\": ");
        write_json_string(&mut s, line);
        s.push('}');
        self.append(&s);
    }

    fn record_event(&self, what: &str, id: &str) {
        let mut s = format!("{{\"j\": \"{what}\", \"id\": ");
        write_json_string(&mut s, id);
        s.push('}');
        self.append(&s);
    }

    /// Sidecar path for a job's parked checkpoint. The id is hashed so
    /// arbitrary id strings stay filesystem-safe.
    fn sidecar(&self, id: &str) -> PathBuf {
        let mut name = self.path.as_os_str().to_os_string();
        name.push(format!(
            ".{:016x}.ckpt",
            higraph::sim::content_checksum(id.as_bytes())
        ));
        PathBuf::from(name)
    }

    fn write_checkpoint(&self, id: &str, bytes: &[u8]) {
        let _ = std::fs::write(self.sidecar(id), bytes);
    }

    fn read_checkpoint(&self, id: &str) -> Option<Vec<u8>> {
        std::fs::read(self.sidecar(id)).ok()
    }

    fn remove_checkpoint(&self, id: &str) {
        let _ = std::fs::remove_file(self.sidecar(id));
    }
}

/// A resident job-service session: the state machine the `higraph-serve`
/// binary drives line by line, exposed as a library so tests can
/// interleave operations (e.g. cancel between [`ServeSession::step`]
/// calls) without a subprocess.
pub struct ServeSession {
    /// Built graphs with their content hashes, keyed by (dataset, divisor).
    graphs: BTreeMap<(Dataset, u32), (Csr, u64)>,
    /// Memoized outcomes, keyed by the full job identity, LRU-bounded.
    memo: LruCache<MemoEntry>,
    queue: Vec<Pending>,
    /// Jobs parked into checkpoints, keyed by id.
    parked: BTreeMap<String, ParkedJob>,
    controls: ControlRegistry,
    journal: Option<Journal>,
    observer: Option<JobObserver>,
    seq: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    shutdown: bool,
    halted: bool,
}

impl Default for ServeSession {
    fn default() -> Self {
        ServeSession::new()
    }
}

impl ServeSession {
    /// A fresh session with empty queue and caches.
    pub fn new() -> Self {
        ServeSession {
            graphs: BTreeMap::new(),
            memo: LruCache::new(MEMO_CAPACITY),
            queue: Vec::new(),
            parked: BTreeMap::new(),
            controls: Arc::new(Mutex::new(BTreeMap::new())),
            journal: None,
            observer: None,
            seq: 0,
            completed: 0,
            failed: 0,
            cancelled: 0,
            shutdown: false,
            halted: false,
        }
    }

    /// A session journaling to `path`, recovering any
    /// accepted-but-unfinished jobs a previous session (crashed, halted,
    /// or killed) left behind. Returns the recovery event lines:
    /// one `{"event": "recovered", …}` per lost job followed by its
    /// re-queue events. Recovered jobs resume from their last parked
    /// checkpoint when a sidecar exists, from scratch otherwise.
    pub fn with_journal(path: impl Into<PathBuf>) -> (Self, Vec<String>) {
        let path = path.into();
        let mut session = ServeSession::new();
        let mut events = Vec::new();

        let prior = std::fs::read_to_string(&path).unwrap_or_default();
        // First-acceptance order; a finished id may be legitimately
        // re-accepted later, so balance counts rather than set-test.
        let mut order: Vec<String> = Vec::new();
        let mut last_line: BTreeMap<String, String> = BTreeMap::new();
        let mut accepted: BTreeMap<String, u64> = BTreeMap::new();
        let mut started: BTreeMap<String, u64> = BTreeMap::new();
        let mut finished: BTreeMap<String, u64> = BTreeMap::new();
        for line in prior.lines() {
            let Ok(fields) = parse_flat_json_values(line) else {
                continue;
            };
            let Some(what) = fields.get("j").and_then(JsonValue::as_str) else {
                continue;
            };
            let Some(id) = fields.get("id").and_then(JsonValue::as_str) else {
                continue;
            };
            match what {
                "accepted" => {
                    if let Some(l) = fields.get("line").and_then(JsonValue::as_str) {
                        if !last_line.contains_key(id) {
                            order.push(id.to_string());
                        }
                        last_line.insert(id.to_string(), l.to_string());
                        *accepted.entry(id.to_string()).or_insert(0) += 1;
                    }
                }
                "started" => *started.entry(id.to_string()).or_insert(0) += 1,
                "finished" => *finished.entry(id.to_string()).or_insert(0) += 1,
                _ => {}
            }
        }

        let journal = Journal { path };
        // Truncate: recovered jobs re-journal themselves through the
        // normal submit path below.
        let _ = std::fs::write(&journal.path, "");
        session.journal = Some(journal);

        for id in order {
            let done = finished.get(&id).copied().unwrap_or(0);
            if accepted.get(&id).copied().unwrap_or(0) <= done {
                continue;
            }
            let was_running = started.get(&id).copied().unwrap_or(0) > done;
            let ckpt = session
                .journal
                .as_ref()
                .and_then(|j| j.read_checkpoint(&id));
            let mut ev = String::from("{\"event\": \"recovered\", \"id\": ");
            write_json_string(&mut ev, &id);
            ev.push_str(&format!(
                ", \"was_running\": {}, \"from_checkpoint\": {}}}",
                u8::from(was_running),
                u8::from(ckpt.is_some())
            ));
            events.push(ev);
            let Some(line) = last_line.get(&id) else {
                continue;
            };
            let line = line.clone();
            events.extend(session.handle_line(&line));
            if let Some(bytes) = ckpt {
                if let Some(p) = session.queue.iter_mut().find(|p| p.spec.id == id) {
                    p.checkpoint = Some(bytes);
                    // Recovered jobs run to completion; the budgets that
                    // parked them before the crash are spent.
                    p.spec.budget_cycles = None;
                    p.spec.budget_ms = None;
                }
            }
        }
        (session, events)
    }

    /// The shared id → [`RunControl`] registry (see [`ControlRegistry`]).
    pub fn controls(&self) -> ControlRegistry {
        Arc::clone(&self.controls)
    }

    /// Installs a job-lifecycle observer (the binary's watchdog hook).
    pub fn set_observer(&mut self, observer: JobObserver) {
        self.observer = Some(observer);
    }

    /// True once a `shutdown` operation has been processed; the binary
    /// exits its read loop.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// True once a `halt` operation has been processed; the binary exits
    /// immediately *without* flushing the queue.
    pub fn halt_requested(&self) -> bool {
        self.halted
    }

    /// Jobs still waiting to run.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs parked into checkpoints, awaiting `resume`.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Memo-cache hits so far.
    pub fn memo_hits(&self) -> u64 {
        self.memo.hits()
    }

    /// Processes one input line, returning the event lines it produced.
    pub fn handle_line(&mut self, line: &str) -> Vec<String> {
        let fields = match parse_flat_json_values(line) {
            Ok(f) => f,
            Err(e) => return vec![error_line(None, &format!("bad JSON: {e}"))],
        };
        let op = match fields.get("op").and_then(JsonValue::as_str) {
            Some(op) => op.to_string(),
            None => return vec![error_line(None, "missing string field \"op\"")],
        };
        match op.as_str() {
            "submit" => self.submit(&fields, line),
            "cancel" => self.cancel(&fields),
            "resume" => self.resume(&fields),
            "run" => self.run_queue(),
            "stats" => vec![self.stats_line()],
            "shutdown" => {
                let mut out = self.run_queue();
                out.push(format!(
                    "{{\"event\": \"bye\", \"completed\": {}}}",
                    self.completed
                ));
                self.shutdown = true;
                out
            }
            "halt" => {
                self.halted = true;
                vec![String::from("{\"event\": \"halting\"}")]
            }
            other => vec![error_line(None, &format!("unknown op \"{other}\""))],
        }
    }

    /// Flushes the remaining queue (the EOF path of the binary).
    pub fn flush(&mut self) -> Vec<String> {
        self.run_queue()
    }

    fn submit(&mut self, fields: &BTreeMap<String, JsonValue>, line: &str) -> Vec<String> {
        let id = match fields.get("id").and_then(JsonValue::as_str) {
            Some(id) if !id.is_empty() => id.to_string(),
            _ => {
                return vec![error_line(
                    None,
                    "submit requires a non-empty string \"id\"",
                )]
            }
        };
        if self.queue.iter().any(|p| p.spec.id == id) || self.parked.contains_key(&id) {
            return vec![error_line(
                Some(&id),
                &format!("job \"{id}\" is already queued"),
            )];
        }
        let spec = match parse_spec(id.clone(), fields) {
            Ok(spec) => spec,
            Err(msg) => return vec![error_line(Some(&id), &msg)],
        };
        let priority = match opt_i64(fields, "priority", 0) {
            Ok(p) => p,
            Err(msg) => return vec![error_line(Some(&id), &msg)],
        };
        if let Some(j) = &self.journal {
            j.record_accepted(&id, line);
        }
        let control = Arc::new(RunControl::new());
        lock(&self.controls).insert(id.clone(), Arc::clone(&control));
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Pending {
            seq,
            priority,
            spec,
            control,
            checkpoint: None,
            submit_line: line.to_string(),
        });
        let mut s = String::from("{\"event\": \"queued\", \"id\": ");
        write_json_string(&mut s, &id);
        s.push_str(&format!(", \"priority\": {priority}}}"));
        vec![s]
    }

    fn cancel(&mut self, fields: &BTreeMap<String, JsonValue>) -> Vec<String> {
        let id = match fields.get("id").and_then(JsonValue::as_str) {
            Some(id) => id.to_string(),
            None => return vec![error_line(None, "cancel requires a string \"id\"")],
        };
        let before = self.queue.len();
        self.queue.retain(|p| p.spec.id != id);
        if self.queue.len() < before {
            self.finish_terminal(&id);
            self.cancelled += 1;
            return vec![cancelled_line(&id, "queued")];
        }
        if self.parked.remove(&id).is_some() {
            self.finish_terminal(&id);
            self.cancelled += 1;
            return vec![cancelled_line(&id, "parked")];
        }
        // Running in another thread (binary mode): request a cooperative
        // cancel; the run emits its own cancelled line at the next poll.
        if let Some(control) = lock(&self.controls).get(&id) {
            control.request_cancel();
            let mut s = String::from("{\"event\": \"cancelling\", \"id\": ");
            write_json_string(&mut s, &id);
            s.push('}');
            return vec![s];
        }
        vec![error_line(
            Some(&id),
            &format!("job \"{id}\" is not queued (already run, cancelled, or never seen)"),
        )]
    }

    fn resume(&mut self, fields: &BTreeMap<String, JsonValue>) -> Vec<String> {
        let id = match fields.get("id").and_then(JsonValue::as_str) {
            Some(id) => id.to_string(),
            None => return vec![error_line(None, "resume requires a string \"id\"")],
        };
        let Some(parked) = self.parked.remove(&id) else {
            return vec![error_line(
                Some(&id),
                &format!("job \"{id}\" is not parked"),
            )];
        };
        let budget = match fields.get("budget_cycles") {
            None => None,
            Some(v) => match as_count(v, "budget_cycles") {
                Ok(0) => {
                    self.parked.insert(id.clone(), parked);
                    return vec![error_line(Some(&id), "budget_cycles must be positive")];
                }
                Ok(n) => Some(n),
                Err(msg) => {
                    self.parked.insert(id.clone(), parked);
                    return vec![error_line(Some(&id), &msg)];
                }
            },
        };
        let ParkedJob {
            priority,
            mut spec,
            control,
            checkpoint,
            submit_line,
        } = parked;
        // Resuming grants a fresh lease: the old budgets are spent.
        spec.budget_cycles = budget;
        spec.budget_ms = None;
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Pending {
            seq,
            priority,
            spec,
            control,
            checkpoint: Some(checkpoint),
            submit_line,
        });
        let mut s = String::from("{\"event\": \"resuming\", \"id\": ");
        write_json_string(&mut s, &id);
        s.push('}');
        vec![s]
    }

    /// Executes the single highest-priority queued job (FIFO within a
    /// priority level) and returns its result line; `None` when the
    /// queue is empty. Exposed so callers can interleave cancellation
    /// with execution.
    pub fn step(&mut self) -> Option<String> {
        let best = self
            .queue
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| (p.priority, std::cmp::Reverse(p.seq)))
            .map(|(i, _)| i)?;
        let pending = self.queue.remove(best);
        Some(self.execute(pending))
    }

    fn run_queue(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        while let Some(line) = self.step() {
            out.push(line);
        }
        out
    }

    fn execute(&mut self, pending: Pending) -> String {
        // Decided at dequeue, before `Started` is announced: a cancel
        // that arrived while the job sat queued never starts at all.
        // Anything requested after this point (watchdog, observer, the
        // binary's reader thread) is a *running* cancel, observed by
        // the engine at a drain-step boundary.
        if pending.control.cancelled() {
            let id = pending.spec.id.clone();
            self.finish_terminal(&id);
            self.cancelled += 1;
            return cancelled_line(&id, "queued");
        }
        let id = pending.spec.id.clone();
        if let Some(j) = &self.journal {
            j.record_event("started", &id);
        }
        if let Some(obs) = self.observer.as_mut() {
            obs(JobEvent::Started {
                id: &id,
                budget_ms: pending.spec.budget_ms,
                control: &pending.control,
            });
        }
        let line = self.run_job(pending);
        if let Some(obs) = self.observer.as_mut() {
            obs(JobEvent::Finished { id: &id });
        }
        line
    }

    fn run_job(&mut self, pending: Pending) -> String {
        let Pending {
            priority,
            spec,
            control,
            checkpoint,
            submit_line,
            ..
        } = pending;
        control.set_budget_cycles(spec.budget_cycles);
        if spec.budget_ms == Some(0) {
            // Deterministic deadline path: the budget is already spent,
            // so park before the first cycle.
            control.request_park();
        }

        let hash = {
            let (_, h) = self
                .graphs
                .entry((spec.dataset, spec.divisor))
                .or_insert_with(|| {
                    let g = spec.dataset.build_scaled(spec.divisor);
                    let h = g.content_hash();
                    (g, h)
                });
            *h
        };
        let key = format!(
            "{:016x}|{}|chips={}|pr={}|{}",
            hash,
            spec.algo.label(),
            spec.chips,
            spec.pr_iters,
            spec.config.canonical_encoding()
        );
        // The memo only short-circuits plain completion paths: resumed,
        // budgeted, parked-at-start, and fault-injected runs must
        // actually execute.
        let plain = checkpoint.is_none()
            && !spec.inject_panic
            && spec.budget_cycles.is_none()
            && !control.park_requested();
        if plain {
            if let Some(entry) = self.memo.get(&key) {
                let entry = *entry;
                self.completed += 1;
                self.finish_terminal(&spec.id);
                return result_line(&spec.id, &entry, true);
            }
        }

        let Some((graph, _)) = self.graphs.get(&(spec.dataset, spec.divisor)) else {
            self.failed += 1;
            self.finish_terminal(&spec.id);
            return error_line(Some(&spec.id), "internal: graph cache entry vanished");
        };
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if spec.inject_panic {
                // Deliberate fault-injection hook behind `"inject": "panic"` —
                // exists to prove the catch_unwind isolation below.
                panic!("injected panic (\"inject\": \"panic\")");
            }
            spec.algo.run_sharded_controlled(
                &spec.config,
                ShardConfig::new(spec.chips),
                graph,
                spec.pr_iters,
                &control,
                checkpoint.as_deref(),
            )
        }));
        match ran {
            Err(payload) => {
                self.failed += 1;
                self.finish_terminal(&spec.id);
                // `as_ref`, not `&payload`: a `&Box<dyn Any>` coerces
                // to a trait object *of the box*, whose downcasts all
                // miss — the payload message would silently be lost.
                failed_line(&spec.id, &panic_message(payload.as_ref()))
            }
            Ok(Err(ControlError::Snapshot(e))) => {
                self.failed += 1;
                self.finish_terminal(&spec.id);
                failed_line(&spec.id, &format!("checkpoint rejected: {e}"))
            }
            Ok(Err(ControlError::Stall(_))) => {
                let entry = MemoEntry::Stalled;
                self.memo.insert(key, entry);
                self.completed += 1;
                self.finish_terminal(&spec.id);
                result_line(&spec.id, &entry, false)
            }
            Ok(Ok(ControlledOutcome::Done(summary))) => {
                let entry = MemoEntry::Ok {
                    cycles: summary.metrics.cycles,
                    gteps: summary.metrics.gteps(),
                };
                // A resumed run's result is bit-identical to an
                // uninterrupted one (tests/scheduler_properties.rs), so
                // it memoizes under the same key.
                self.memo.insert(key, entry);
                self.completed += 1;
                self.finish_terminal(&spec.id);
                result_line(&spec.id, &entry, false)
            }
            Ok(Ok(ControlledOutcome::Parked(ck))) => {
                if let Some(j) = &self.journal {
                    j.write_checkpoint(&spec.id, &ck.bytes);
                    j.record_event("parked", &spec.id);
                }
                let id = spec.id.clone();
                let line = format!(
                    "{{\"event\": \"parked\", \"id\": {}, \"cycles\": {}, \"iterations\": {}}}",
                    json_str(&id),
                    ck.cycles,
                    ck.iterations
                );
                self.parked.insert(
                    id,
                    ParkedJob {
                        priority,
                        spec,
                        control,
                        checkpoint: ck.bytes,
                        submit_line,
                    },
                );
                line
            }
            Ok(Ok(ControlledOutcome::Cancelled)) => {
                self.cancelled += 1;
                self.finish_terminal(&spec.id);
                cancelled_line(&spec.id, "running")
            }
        }
    }

    /// Marks a job terminal: journal `finished`, drop its checkpoint
    /// sidecar, deregister its control.
    fn finish_terminal(&mut self, id: &str) {
        if let Some(j) = &self.journal {
            j.record_event("finished", id);
            j.remove_checkpoint(id);
        }
        lock(&self.controls).remove(id);
    }

    fn stats_line(&self) -> String {
        let pool = higraph::pool::CorePool::global();
        let snap = pool.snapshot();
        format!(
            "{{\"event\": \"stats\", \"queued\": {}, \"completed\": {}, \"parked\": {}, \
             \"failed\": {}, \"cancelled\": {}, \"memo_entries\": {}, \"memo_hits\": {}, \
             \"memo_evictions\": {}, \"memo_capacity\": {}, \"pool_workers\": {}, \
             \"pool_tasks_executed\": {}, \"pool_lease_requests\": {}}}",
            self.queue.len(),
            self.completed,
            self.parked.len(),
            self.failed,
            self.cancelled,
            self.memo.len(),
            self.memo.hits(),
            self.memo.evictions(),
            self.memo.capacity(),
            pool.workers(),
            snap.tasks_executed,
            snap.lease_requests,
        )
    }
}

/// Locks the registry, recovering from a poisoned mutex (a panic in a
/// holder leaves the map usable — it holds only `Arc`s).
fn lock(reg: &ControlRegistry) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<RunControl>>> {
    reg.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    write_json_string(&mut out, s);
    out
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("job panicked")
    }
}

/// Fixed-key-order result line: `event`, `id`, `status`, `memo_hit`,
/// then outcome fields — stable for line-oriented consumers (CI greps).
fn result_line(id: &str, entry: &MemoEntry, memo_hit: bool) -> String {
    let mut s = String::from("{\"event\": \"result\", \"id\": ");
    write_json_string(&mut s, id);
    match entry {
        MemoEntry::Ok { cycles, gteps } => {
            s.push_str(&format!(
                ", \"status\": \"ok\", \"memo_hit\": {}, \"cycles\": {cycles}, \"gteps\": ",
                u8::from(memo_hit)
            ));
            write_json_number(&mut s, *gteps);
        }
        MemoEntry::Stalled => {
            s.push_str(&format!(
                ", \"status\": \"stalled\", \"memo_hit\": {}, \"cycles\": 0",
                u8::from(memo_hit)
            ));
        }
    }
    s.push('}');
    s
}

fn cancelled_line(id: &str, stage: &str) -> String {
    let mut s = String::from("{\"event\": \"cancelled\", \"id\": ");
    write_json_string(&mut s, id);
    s.push_str(&format!(", \"stage\": \"{stage}\"}}"));
    s
}

fn failed_line(id: &str, message: &str) -> String {
    let mut s = String::from("{\"event\": \"failed\", \"id\": ");
    write_json_string(&mut s, id);
    s.push_str(", \"message\": ");
    write_json_string(&mut s, message);
    s.push('}');
    s
}

fn error_line(id: Option<&str>, message: &str) -> String {
    let mut s = String::from("{\"event\": \"error\"");
    if let Some(id) = id {
        s.push_str(", \"id\": ");
        write_json_string(&mut s, id);
    }
    s.push_str(", \"message\": ");
    write_json_string(&mut s, message);
    s.push('}');
    s
}

fn parse_spec(id: String, fields: &BTreeMap<String, JsonValue>) -> Result<JobSpec, String> {
    let dataset = parse_dataset(str_field(fields, "dataset", "vote")?)?;
    let algo = parse_algo(str_field(fields, "algo", "bfs")?)?;
    let mut config = parse_config(str_field(fields, "config", "higraph")?)?;
    if let Some(v) = fields.get("cache_kb") {
        let kb = as_count(v, "cache_kb")?;
        if kb == 0 {
            return Err("cache_kb must be positive".to_string());
        }
        config.memory = Some(MemoryConfig::hbm2().with_cache_kb(kb as usize));
    }
    let divisor = as_count_field(fields, "divisor", 16)? as u32;
    if divisor == 0 || !divisor.is_power_of_two() {
        return Err(format!("divisor {divisor} must be a power of two >= 1"));
    }
    let pr_iters = as_count_field(fields, "pr_iters", 3)? as u32;
    let chips = as_count_field(fields, "chips", 1)? as usize;
    let budget_cycles = match fields.get("budget_cycles") {
        None => None,
        Some(v) => match as_count(v, "budget_cycles")? {
            0 => return Err("budget_cycles must be positive".to_string()),
            n => Some(n),
        },
    };
    let budget_ms = match fields.get("budget_ms") {
        None => None,
        Some(v) => Some(as_count(v, "budget_ms")?),
    };
    let inject_panic = match str_field(fields, "inject", "")? {
        "" => false,
        "panic" => true,
        other => return Err(format!("unknown inject \"{other}\" (expected \"panic\")")),
    };
    config
        .validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    ShardConfig::new(chips)
        .validate()
        .map_err(|e| format!("invalid shard configuration: {e}"))?;
    Ok(JobSpec {
        id,
        dataset,
        algo,
        config,
        chips,
        divisor,
        pr_iters,
        budget_cycles,
        budget_ms,
        inject_panic,
    })
}

fn str_field<'a>(
    fields: &'a BTreeMap<String, JsonValue>,
    key: &str,
    default: &'a str,
) -> Result<&'a str, String> {
    match fields.get(key) {
        None => Ok(default),
        Some(JsonValue::Str(s)) => Ok(s),
        Some(JsonValue::Num(_)) => Err(format!("field \"{key}\" must be a string")),
    }
}

fn as_count(value: &JsonValue, key: &str) -> Result<u64, String> {
    match value.as_f64() {
        Some(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => Ok(v as u64),
        _ => Err(format!("field \"{key}\" must be a non-negative integer")),
    }
}

fn as_count_field(
    fields: &BTreeMap<String, JsonValue>,
    key: &str,
    default: u64,
) -> Result<u64, String> {
    match fields.get(key) {
        None => Ok(default),
        Some(v) => as_count(v, key),
    }
}

fn opt_i64(fields: &BTreeMap<String, JsonValue>, key: &str, default: i64) -> Result<i64, String> {
    match fields.get(key) {
        None => Ok(default),
        Some(v) => match v.as_f64() {
            Some(f) if f.fract() == 0.0 && f.abs() <= i64::MAX as f64 => Ok(f as i64),
            _ => Err(format!("field \"{key}\" must be an integer")),
        },
    }
}

fn parse_dataset(s: &str) -> Result<Dataset, String> {
    let lower = s.to_ascii_lowercase();
    for ds in Dataset::ALL {
        if ds.spec().name.to_ascii_lowercase() == lower || ds.abbrev().to_ascii_lowercase() == lower
        {
            return Ok(ds);
        }
    }
    Err(format!(
        "unknown dataset \"{s}\" (expected a Table 2 name or abbreviation)"
    ))
}

fn parse_algo(s: &str) -> Result<Algo, String> {
    let lower = s.to_ascii_lowercase();
    for algo in Algo::ALL {
        if algo.label().to_ascii_lowercase() == lower {
            return Ok(algo);
        }
    }
    Err(format!(
        "unknown algo \"{s}\" (expected one of bfs, sssp, sswp, pr, wcc, msbfs)"
    ))
}

fn parse_config(s: &str) -> Result<AcceleratorConfig, String> {
    match s.to_ascii_lowercase().as_str() {
        "higraph" => Ok(AcceleratorConfig::higraph()),
        "higraph-mini" | "higraph_mini" => Ok(AcceleratorConfig::higraph_mini()),
        "graphdyns" => Ok(AcceleratorConfig::graphdyns()),
        _ => Err(format!(
            "unknown config \"{s}\" (expected higraph, higraph-mini, or graphdyns)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(id: &str, extra: &str) -> String {
        if extra.is_empty() {
            format!("{{\"op\": \"submit\", \"id\": \"{id}\"}}")
        } else {
            format!("{{\"op\": \"submit\", \"id\": \"{id}\", {extra}}}")
        }
    }

    /// A collision-free scratch path under the target dir (no tempfile
    /// crate in this hermetic workspace).
    fn scratch_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "higraph-serve-test-{}-{tag}-{n}.journal",
            std::process::id()
        ))
    }

    fn cleanup(path: &std::path::Path) {
        let dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
        let stem = path.file_name().and_then(|s| s.to_str()).unwrap_or("");
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let name = e.file_name();
                if name.to_str().is_some_and(|n| n.starts_with(stem)) {
                    let _ = std::fs::remove_file(e.path());
                }
            }
        }
    }

    #[test]
    fn submit_run_round_trip() {
        let mut s = ServeSession::new();
        let out = s.handle_line(&submit("a", "\"algo\": \"wcc\", \"divisor\": 16"));
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("\"event\": \"queued\""), "{out:?}");
        let out = s.handle_line("{\"op\": \"run\"}");
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("\"id\": \"a\""), "{out:?}");
        assert!(out[0].contains("\"status\": \"ok\""), "{out:?}");
        assert!(out[0].contains("\"memo_hit\": 0"), "{out:?}");
    }

    #[test]
    fn duplicate_submission_hits_the_memo() {
        let mut s = ServeSession::new();
        s.handle_line(&submit("a", "\"algo\": \"bfs\""));
        s.handle_line(&submit("b", "\"algo\": \"bfs\""));
        let out = s.handle_line("{\"op\": \"run\"}");
        assert_eq!(out.len(), 2);
        assert!(out[0].contains("\"memo_hit\": 0"), "{out:?}");
        assert!(out[1].contains("\"id\": \"b\""), "{out:?}");
        assert!(out[1].contains("\"memo_hit\": 1"), "{out:?}");
        assert_eq!(s.memo_hits(), 1);
        // cached and fresh cycles agree
        let cycles = |line: &str| {
            line.split("\"cycles\": ")
                .nth(1)
                .unwrap()
                .split([',', '}'])
                .next()
                .unwrap()
                .parse::<u64>()
                .unwrap()
        };
        assert_eq!(cycles(&out[0]), cycles(&out[1]));
    }

    #[test]
    fn different_name_same_behaviour_still_hits_memo() {
        // The memo key uses the canonical encoding, not the name label —
        // and distinguishes genuinely different configs.
        let mut s = ServeSession::new();
        s.handle_line(&submit("a", "\"config\": \"higraph\""));
        s.handle_line(&submit("b", "\"config\": \"graphdyns\""));
        s.handle_line(&submit("c", "\"config\": \"higraph\""));
        let out = s.handle_line("{\"op\": \"run\"}");
        assert_eq!(out.len(), 3);
        let hits: Vec<bool> = out.iter().map(|l| l.contains("\"memo_hit\": 1")).collect();
        assert_eq!(hits, [false, false, true], "{out:?}");
    }

    #[test]
    fn priority_orders_execution_fifo_within_level() {
        let mut s = ServeSession::new();
        s.handle_line(&submit("low", "\"priority\": 1, \"algo\": \"bfs\""));
        s.handle_line(&submit("hi1", "\"priority\": 5, \"algo\": \"wcc\""));
        s.handle_line(&submit("hi2", "\"priority\": 5, \"algo\": \"pr\""));
        let out = s.handle_line("{\"op\": \"run\"}");
        let order: Vec<&str> = out
            .iter()
            .map(|l| {
                l.split("\"id\": \"")
                    .nth(1)
                    .unwrap()
                    .split('"')
                    .next()
                    .unwrap()
            })
            .collect();
        assert_eq!(order, ["hi1", "hi2", "low"], "{out:?}");
    }

    #[test]
    fn cancel_removes_queued_jobs_only() {
        let mut s = ServeSession::new();
        s.handle_line(&submit("a", ""));
        s.handle_line(&submit("c", ""));
        let out = s.handle_line("{\"op\": \"cancel\", \"id\": \"c\"}");
        assert!(out[0].contains("\"event\": \"cancelled\""), "{out:?}");
        assert!(out[0].contains("\"id\": \"c\""), "{out:?}");
        assert_eq!(s.queue_len(), 1);
        // cancelling an unknown job is an error, not a crash
        let out = s.handle_line("{\"op\": \"cancel\", \"id\": \"zzz\"}");
        assert!(out[0].contains("\"event\": \"error\""), "{out:?}");
        let out = s.handle_line("{\"op\": \"run\"}");
        assert_eq!(out.len(), 1, "only \"a\" remains: {out:?}");
        assert!(out[0].contains("\"id\": \"a\""));
    }

    #[test]
    fn malformed_input_produces_error_events() {
        let mut s = ServeSession::new();
        for bad in [
            "not json",
            "{\"op\": \"submit\"}",     // missing id
            "{\"op\": \"frobnicate\"}", // unknown op
            "{\"id\": \"a\"}",          // missing op
            "{\"op\": \"submit\", \"id\": \"a\", \"divisor\": 3}", // not a power of two
            "{\"op\": \"submit\", \"id\": \"a\", \"dataset\": \"nope\"}",
            "{\"op\": \"submit\", \"id\": \"a\", \"algo\": \"dijkstra\"}",
            "{\"op\": \"submit\", \"id\": \"a\", \"chips\": 0}",
            "{\"op\": \"submit\", \"id\": \"a\", \"budget_cycles\": 0}",
            "{\"op\": \"submit\", \"id\": \"a\", \"inject\": \"zap\"}",
            "{\"op\": \"resume\", \"id\": \"a\"}", // nothing parked
        ] {
            let out = s.handle_line(bad);
            assert_eq!(out.len(), 1, "{bad}");
            assert!(out[0].contains("\"event\": \"error\""), "{bad} -> {out:?}");
        }
        assert_eq!(s.queue_len(), 0);
    }

    #[test]
    fn shutdown_flushes_and_marks_session_done() {
        let mut s = ServeSession::new();
        s.handle_line(&submit("a", ""));
        let out = s.handle_line("{\"op\": \"shutdown\"}");
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].contains("\"id\": \"a\""));
        assert!(out[1].contains("\"event\": \"bye\""));
        assert!(out[1].contains("\"completed\": 1"));
        assert!(s.shutdown_requested());
    }

    #[test]
    fn stats_reports_counters() {
        let mut s = ServeSession::new();
        s.handle_line(&submit("a", ""));
        let out = s.handle_line("{\"op\": \"stats\"}");
        assert!(out[0].contains("\"queued\": 1"), "{out:?}");
        assert!(out[0].contains("\"memo_hits\": 0"), "{out:?}");
        assert!(out[0].contains("\"memo_evictions\": 0"), "{out:?}");
        assert!(out[0].contains("\"parked\": 0"), "{out:?}");
    }

    #[test]
    fn budget_parks_then_resume_matches_uninterrupted_run() {
        let mut s = ServeSession::new();
        s.handle_line(&submit("a", "\"algo\": \"wcc\", \"budget_cycles\": 1"));
        let out = s.handle_line("{\"op\": \"run\"}");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("\"event\": \"parked\""), "{out:?}");
        assert_eq!(s.parked_len(), 1);
        // Parked ids stay reserved.
        let out = s.handle_line(&submit("a", ""));
        assert!(out[0].contains("\"event\": \"error\""), "{out:?}");
        let out = s.handle_line("{\"op\": \"resume\", \"id\": \"a\"}");
        assert!(out[0].contains("\"event\": \"resuming\""), "{out:?}");
        let out = s.handle_line("{\"op\": \"run\"}");
        assert!(out[0].contains("\"status\": \"ok\""), "{out:?}");
        assert!(out[0].contains("\"memo_hit\": 0"), "{out:?}");
        // The resumed result memoizes under the plain key: an
        // uninterrupted run of the same job is a hit with equal cycles.
        s.handle_line(&submit("b", "\"algo\": \"wcc\""));
        let fresh = s.handle_line("{\"op\": \"run\"}");
        assert!(fresh[0].contains("\"memo_hit\": 1"), "{fresh:?}");
        let cycles = |line: &str| {
            line.split("\"cycles\": ")
                .nth(1)
                .unwrap()
                .split([',', '}'])
                .next()
                .unwrap()
                .parse::<u64>()
                .unwrap()
        };
        assert_eq!(cycles(&out[0]), cycles(&fresh[0]));
    }

    #[test]
    fn zero_wall_clock_budget_parks_before_the_first_cycle() {
        let mut s = ServeSession::new();
        s.handle_line(&submit("slow", "\"budget_ms\": 0"));
        let out = s.handle_line("{\"op\": \"run\"}");
        assert!(out[0].contains("\"event\": \"parked\""), "{out:?}");
        assert!(out[0].contains("\"cycles\": 0"), "{out:?}");
        s.handle_line("{\"op\": \"resume\", \"id\": \"slow\"}");
        let out = s.handle_line("{\"op\": \"run\"}");
        assert!(out[0].contains("\"status\": \"ok\""), "{out:?}");
    }

    #[test]
    fn injected_panic_is_isolated_and_the_session_survives() {
        let mut s = ServeSession::new();
        s.handle_line(&submit("boom", "\"inject\": \"panic\""));
        s.handle_line(&submit("after", "\"algo\": \"bfs\""));
        let out = s.handle_line("{\"op\": \"run\"}");
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].contains("\"event\": \"failed\""), "{out:?}");
        assert!(out[0].contains("\"id\": \"boom\""), "{out:?}");
        // The panic payload's own message must reach the event — not
        // the generic fallback (regression: `&Box<dyn Any>` coercion).
        assert!(out[0].contains("injected panic"), "{out:?}");
        assert!(out[1].contains("\"status\": \"ok\""), "{out:?}");
        let stats = s.handle_line("{\"op\": \"stats\"}");
        assert!(stats[0].contains("\"failed\": 1"), "{stats:?}");
        assert!(stats[0].contains("\"completed\": 1"), "{stats:?}");
    }

    #[test]
    fn registry_cancel_reaches_a_queued_job_cooperatively() {
        // Simulates the binary's reader thread cancelling through the
        // shared registry while the session thread drains the queue.
        let mut s = ServeSession::new();
        s.handle_line(&submit("a", ""));
        let controls = s.controls();
        controls.lock().unwrap()["a"].request_cancel();
        let out = s.handle_line("{\"op\": \"run\"}");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("\"event\": \"cancelled\""), "{out:?}");
        let stats = s.handle_line("{\"op\": \"stats\"}");
        assert!(stats[0].contains("\"cancelled\": 1"), "{stats:?}");
    }

    #[test]
    fn cancel_discards_a_parked_job() {
        let mut s = ServeSession::new();
        s.handle_line(&submit("a", "\"budget_cycles\": 1"));
        s.handle_line("{\"op\": \"run\"}");
        assert_eq!(s.parked_len(), 1);
        let out = s.handle_line("{\"op\": \"cancel\", \"id\": \"a\"}");
        assert!(out[0].contains("\"event\": \"cancelled\""), "{out:?}");
        assert!(out[0].contains("\"stage\": \"parked\""), "{out:?}");
        assert_eq!(s.parked_len(), 0);
        // The id is free again.
        let out = s.handle_line(&submit("a", ""));
        assert!(out[0].contains("\"event\": \"queued\""), "{out:?}");
    }

    #[test]
    fn halt_leaves_the_queue_unflushed() {
        let mut s = ServeSession::new();
        s.handle_line(&submit("a", ""));
        let out = s.handle_line("{\"op\": \"halt\"}");
        assert!(out[0].contains("\"event\": \"halting\""), "{out:?}");
        assert!(s.halt_requested());
        assert_eq!(s.queue_len(), 1, "halt must not run the queue");
    }

    #[test]
    fn journal_recovery_requeues_lost_work() {
        let path = scratch_path("recover");
        {
            let (mut s, events) = ServeSession::with_journal(&path);
            assert!(events.is_empty(), "fresh journal recovers nothing");
            s.handle_line(&submit("done", ""));
            s.handle_line(&submit("lost", "\"algo\": \"wcc\""));
            let out = s.handle_line("{\"op\": \"run\"}");
            assert_eq!(out.len(), 2, "{out:?}");
            // Re-accept one more job, then crash without running it.
            s.handle_line(&submit("late", "\"algo\": \"pr\""));
            s.handle_line("{\"op\": \"halt\"}");
            // Session dropped here without flushing — the crash.
        }
        let (mut s, events) = ServeSession::with_journal(&path);
        let text = events.join("\n");
        assert!(
            text.contains("\"event\": \"recovered\", \"id\": \"late\""),
            "{events:?}"
        );
        assert!(!text.contains("\"id\": \"done\""), "{events:?}");
        assert!(!text.contains("\"id\": \"lost\""), "{events:?}");
        assert_eq!(s.queue_len(), 1);
        let out = s.handle_line("{\"op\": \"run\"}");
        assert!(out[0].contains("\"id\": \"late\""), "{out:?}");
        assert!(out[0].contains("\"status\": \"ok\""), "{out:?}");
        cleanup(&path);
    }

    #[test]
    fn journal_recovery_resumes_from_the_parked_checkpoint() {
        let path = scratch_path("parked");
        let full_cycles;
        {
            // Reference: the same job uninterrupted.
            let mut r = ServeSession::new();
            r.handle_line(&submit("ref", "\"algo\": \"wcc\""));
            let out = r.handle_line("{\"op\": \"run\"}");
            full_cycles = out[0]
                .split("\"cycles\": ")
                .nth(1)
                .unwrap()
                .split([',', '}'])
                .next()
                .unwrap()
                .parse::<u64>()
                .unwrap();
        }
        {
            let (mut s, _) = ServeSession::with_journal(&path);
            s.handle_line(&submit("job", "\"algo\": \"wcc\", \"budget_cycles\": 1"));
            let out = s.handle_line("{\"op\": \"run\"}");
            assert!(out[0].contains("\"event\": \"parked\""), "{out:?}");
            // Crash with the job parked: sidecar + no `finished` record.
        }
        let (mut s, events) = ServeSession::with_journal(&path);
        let text = events.join("\n");
        assert!(text.contains("\"event\": \"recovered\""), "{events:?}");
        assert!(text.contains("\"from_checkpoint\": 1"), "{events:?}");
        let out = s.handle_line("{\"op\": \"run\"}");
        assert!(out[0].contains("\"status\": \"ok\""), "{out:?}");
        // Bit-identical continuation: resumed-from-disk equals the
        // uninterrupted reference run.
        assert!(
            out[0].contains(&format!("\"cycles\": {full_cycles}")),
            "resumed {out:?} vs uninterrupted {full_cycles}"
        );
        cleanup(&path);
    }
}
