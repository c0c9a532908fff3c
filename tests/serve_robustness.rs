//! Robustness properties of the job-service front door and the
//! memoization key (`docs/robustness.md`, ROADMAP item 5 hardening).
//!
//! * **Line-parser fuzz**: arbitrary bytes and adversarial structured
//!   lines fed to [`ServeSession::handle_line`] must yield an `error`
//!   event or a valid parse — never a panic — and every emitted event
//!   must itself be well-formed flat JSON (the service's output is
//!   consumed line-by-line by scripts; one malformed event corrupts the
//!   stream for everything after it).
//! * **Canonical-encoding round-trip**: [`AcceleratorConfig::canonical_encoding`]
//!   is the memo key for serve and the DSE — two configurations collide
//!   if and only if they are behaviourally identical, and the free-form
//!   `name` label never leaks in. There is deliberately no decoder, so
//!   the round-trip property is injectivity: the encoding must uniquely
//!   determine every behavioural field it covers.
//! * **End-to-end survivability**: one session absorbs a panicking job,
//!   a deadline-parked job, and a mid-run cancellation, then keeps
//!   serving (the ISSUE's acceptance scenario, at the library level —
//!   CI drives the same scenario through the `higraph-serve` binary).

use higraph::prelude::*;
use higraph_bench::report::parse_flat_json_values;
use higraph_bench::serve::JobEvent;
use higraph_bench::ServeSession;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Every event the session emits must be parseable flat JSON with an
/// identifying key — consumers dispatch on `"event"` or `"id"`.
fn assert_well_formed(events: &[String]) -> Result<(), TestCaseError> {
    for event in events {
        let fields = match parse_flat_json_values(event) {
            Ok(f) => f,
            Err(e) => {
                return Err(fail(&format!("emitted malformed event {event:?}: {e}")));
            }
        };
        prop_assert!(
            fields.contains_key("event") || fields.contains_key("id"),
            "event {event:?} has neither an \"event\" nor an \"id\" key"
        );
    }
    Ok(())
}

fn fail(msg: &str) -> TestCaseError {
    TestCaseError::Fail(msg.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Raw-bytes fuzz: whatever arrives on stdin, the session answers
    /// with well-formed events and survives. Inputs that are not valid
    /// flat JSON must be answered with an `error` event.
    #[test]
    fn arbitrary_bytes_never_panic_the_line_parser(
        bytes in proptest::collection::vec(0u8..=255, 0..160),
    ) {
        let line = String::from_utf8_lossy(&bytes).into_owned();
        let mut session = ServeSession::new();
        let events = session.handle_line(&line);
        prop_assert!(!events.is_empty(), "input {line:?} was swallowed silently");
        assert_well_formed(&events)?;
        if parse_flat_json_values(&line).is_err() {
            prop_assert!(
                events[0].contains("\"event\": \"error\""),
                "malformed input {line:?} answered with {:?} instead of an error event",
                events[0]
            );
        }
    }

    /// Structured fuzz: syntactically valid operations with adversarial
    /// field values (hostile ids, wrong types, out-of-range counts,
    /// unknown enum strings). Submissions are queued, not executed, so
    /// every spec-level rejection path runs without simulating anything.
    #[test]
    fn adversarial_operations_never_panic_the_session(
        ops in proptest::collection::vec(
            (0usize..6, 0usize..6, 0u64..40, proptest::collection::vec(32u8..127, 0..12)),
            1..12,
        ),
    ) {
        let mut session = ServeSession::new();
        for (op_idx, field_idx, num, id_bytes) in ops {
            let op = ["submit", "cancel", "resume", "stats", "shutdown", "nonsense"][op_idx];
            let id = String::from_utf8_lossy(&id_bytes).into_owned();
            let mut line = String::from("{\"op\": ");
            higraph_bench::report::write_json_string(&mut line, op);
            line.push_str(", \"id\": ");
            higraph_bench::report::write_json_string(&mut line, &id);
            // One adversarial extra field per line: wrong types, zeros
            // where positives are required, unknown enum strings, and a
            // divisor that is usually not a power of two.
            match field_idx {
                0 => line.push_str(&format!(", \"divisor\": {num}")),
                1 => line.push_str(&format!(", \"budget_cycles\": {num}")),
                2 => line.push_str(", \"algo\": \"quantum\""),
                3 => line.push_str(&format!(", \"chips\": {}", num % 3)),
                4 => line.push_str(", \"divisor\": \"sixteen\""),
                _ => line.push_str(&format!(", \"pr_iters\": {}.5", num)),
            }
            line.push('}');
            assert_well_formed(&session.handle_line(&line))?;
        }
    }
}

/// One proptest draw: `(front, staging, buffer, cache_kb)` knobs, a
/// fault-plan on/off flag, and the plan's `(seed, events, dur, horizon)`.
type ConfigDraw = ((usize, usize, usize, usize), bool, (u64, u32, u64, u64));

/// The draw normalized into behavioural identity: the knobs plus the
/// fault plan only when enabled.
type ConfigKey = (usize, usize, usize, usize, Option<(u64, u32, u64, u64)>);

/// The behavioural knobs the encoding property varies. Kept alongside
/// the draw so equality of the draw tuple is equality of behaviour.
fn config_from(
    front: usize,
    staging: usize,
    buffer: usize,
    cache_kb: usize,
    faults: Option<(u64, u32, u64, u64)>,
    name: &str,
) -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::higraph_mini();
    cfg.name = name.to_string();
    cfg.front_channels = front;
    cfg.staging_capacity = staging;
    cfg.dataflow_buffer_per_channel = buffer;
    cfg.memory = (cache_kb > 0).then(|| MemoryConfig::hbm2().with_cache_kb(cache_kb));
    cfg.fault_plan = faults.map(|(seed, events, max_duration, horizon)| FaultPlan {
        seed,
        events,
        max_duration,
        horizon,
    });
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The canonical encoding is a *key*: stable under re-encoding and
    /// renaming, and injective over the behavioural fields — two draws
    /// collide exactly when their parameters are equal. `validate` must
    /// answer every draw (including invalid ones) with `Ok`/`Err`,
    /// never a panic.
    #[test]
    fn canonical_encoding_uniquely_determines_behaviour(
        a in ((1usize..9, 1usize..9, 1usize..4097, 0usize..9),
              proptest::bool::ANY, (0u64..4, 0u32..4, 0u64..4, 0u64..4)),
        b in ((1usize..9, 1usize..9, 1usize..4097, 0usize..9),
              proptest::bool::ANY, (0u64..4, 0u32..4, 0u64..4, 0u64..4)),
    ) {
        let key = |((front, staging, buffer, cache), faulty, plan): ConfigDraw| {
            (front, staging, buffer, cache, faulty.then_some(plan))
        };
        let build = |params: ConfigKey, name: &str| {
            config_from(params.0, params.1, params.2, params.3, params.4, name)
        };
        let (ka, kb) = (key(a), key(b));
        let ca = build(ka, "alpha");
        let cb = build(kb, "omega");

        // Stability: re-encoding and renaming never move the key.
        prop_assert_eq!(ca.canonical_encoding(), ca.canonical_encoding());
        prop_assert_eq!(
            ca.canonical_encoding(),
            build(ka, "renamed before the memo lookup").canonical_encoding()
        );

        // Injectivity: equal keys iff equal behaviour.
        prop_assert_eq!(
            ca.canonical_encoding() == cb.canonical_encoding(),
            ka == kb,
            "configs {:?} vs {:?} — encodings {:?} vs {:?}",
            ka,
            kb,
            ca.canonical_encoding(),
            cb.canonical_encoding()
        );

        // Validation answers, it never panics — invalid draws (e.g. a
        // fault plan with events > 0 but zero duration) yield an Err.
        let _ = ca.validate();
        let _ = cb.validate();
    }
}

/// Submits a job with one oversized field: submit must answer with an
/// `error` event naming the field instead of queueing the job.
fn assert_refused_at_submit(field: &str, value: u64) {
    let line = format!(r#"{{"op": "submit", "id": "big", "algo": "bfs", "{field}": {value}}}"#);
    let events = ServeSession::new().handle_line(&line);
    let fields = parse_flat_json_values(&events[0]).expect("well-formed event");
    let text = |key: &str| fields.get(key).and_then(|v| v.as_str()).unwrap_or("");
    assert!(
        events.len() == 1 && text("event") == "error" && text("message").contains(field),
        "{field} = {value} was not refused by name: {events:?}"
    );
}

/// A cache whose byte count overflows (2^54 KiB) would simulate a
/// one-line cache; one of 2^30 KiB would ask for a 256 GiB tag array.
#[test]
fn oversized_cache_kb_is_refused_at_submit() {
    for kb in [1 << 54, 1 << 30, 65_537] {
        assert_refused_at_submit("cache_kb", kb);
    }
}

/// A run allocates P² staged counts, P pipelines and P graph slices.
#[test]
fn oversized_chip_count_is_refused_at_submit() {
    for chips in [65, 1 << 40] {
        assert_refused_at_submit("chips", chips);
    }
}

/// The acceptance scenario in one session: a panicking job is isolated
/// to a `failed` event, a deadline-exceeding job parks on a checkpoint
/// (and later resumes to completion), a running job is cancelled
/// cooperatively mid-drain, and a healthy job still completes — then
/// `stats` accounts for all four.
#[test]
fn one_session_survives_panic_deadline_and_midrun_cancel() {
    let mut session = ServeSession::new();
    // Cancel "doomed" the moment it *starts* running: the observer sees
    // the Started event on the session thread and trips the cooperative
    // token, which the engine observes at its next drain boundary.
    session.set_observer(Box::new(|event| {
        if let JobEvent::Started {
            id: "doomed",
            control,
            ..
        } = event
        {
            control.request_cancel();
        }
    }));

    for line in [
        r#"{"op": "submit", "id": "boom", "algo": "wcc", "divisor": 64, "inject": "panic"}"#,
        r#"{"op": "submit", "id": "slow", "algo": "wcc", "divisor": 64, "budget_ms": 0}"#,
        r#"{"op": "submit", "id": "doomed", "algo": "pr", "divisor": 64}"#,
        r#"{"op": "submit", "id": "keep", "algo": "bfs", "divisor": 64}"#,
    ] {
        let events = session.handle_line(line);
        assert!(
            events[0].contains("\"event\": \"queued\""),
            "submission rejected: {events:?}"
        );
    }

    let events = session.handle_line(r#"{"op": "run"}"#);
    let find = |needle: &str| {
        events
            .iter()
            .find(|e| e.contains(needle))
            .unwrap_or_else(|| panic!("no event matching {needle:?} in {events:?}"))
    };
    let failed = find("\"event\": \"failed\", \"id\": \"boom\"");
    assert!(
        failed.contains("injected panic"),
        "panic payload missing from {failed:?}"
    );
    find("\"event\": \"parked\", \"id\": \"slow\"");
    let cancelled = find("\"event\": \"cancelled\", \"id\": \"doomed\"");
    assert!(
        cancelled.contains("\"stage\": \"running\""),
        "cancel was not observed mid-run: {cancelled:?}"
    );
    find("\"id\": \"keep\", \"status\": \"ok\"");

    let stats = session.handle_line(r#"{"op": "stats"}"#).remove(0);
    for expect in [
        "\"completed\": 1",
        "\"parked\": 1",
        "\"failed\": 1",
        "\"cancelled\": 1",
    ] {
        assert!(stats.contains(expect), "{expect} missing from {stats}");
    }

    // The parked job is not lost: resuming grants a fresh lease and it
    // runs to completion.
    let events = [
        session.handle_line(r#"{"op": "resume", "id": "slow"}"#),
        session.handle_line(r#"{"op": "run"}"#),
    ]
    .concat();
    assert!(
        events
            .iter()
            .any(|e| e.contains("\"id\": \"slow\", \"status\": \"ok\"")),
        "resumed job did not complete: {events:?}"
    );
}
