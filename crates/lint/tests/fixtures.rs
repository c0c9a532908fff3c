//! Per-rule bad fixtures, pragma round-trips, and binary exit codes.
//!
//! The in-memory cases drive [`higraph_lint::lint_source`] with virtual
//! paths (rule scoping keys on crate name and basename, so a fixture can
//! pose as any file in the tree). The exit-code cases run the built
//! `higraph-lint` binary against the committed fixture trees under
//! `tests/fixtures/{dirty,clean}` — the same contract CI relies on.

use std::path::Path;
use std::process::Command;

use higraph_lint::{lint_source, Report};

/// Lints `src` as if it lived at `path`; returns the finalized report.
fn lint_at(path: &str, src: &str) -> Report {
    let mut report = Report::default();
    lint_source(path, src, &mut report);
    report.finalize();
    report
}

/// The rule ids that fired, in report order.
fn fired(report: &Report) -> Vec<&str> {
    report.violations.iter().map(|v| v.rule.as_str()).collect()
}

#[test]
fn unsafe_audit_requires_adjacent_safety_comment() {
    let bad = "pub fn f(p: *mut u8) { unsafe { *p = 0 } }\n";
    assert_eq!(
        fired(&lint_at("crates/sim/src/x.rs", bad)),
        ["unsafe-audit"]
    );

    let good = "pub fn f(p: *mut u8) {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p = 0 }\n}\n";
    assert!(lint_at("crates/sim/src/x.rs", good).is_clean());
}

#[test]
fn determinism_bans_wall_clocks_and_hash_iteration() {
    for bad in [
        "use std::time::Instant;\n",
        "use std::collections::HashMap;\n",
        "fn f() -> String { std::env::var(\"HOME\").unwrap_or_default() }\n",
    ] {
        let report = lint_at("crates/sim/src/x.rs", bad);
        assert!(
            fired(&report).contains(&"determinism"),
            "expected determinism to fire on {bad:?}: {:?}",
            fired(&report)
        );
    }
    // BTreeMap iterates in key order: deterministic, allowed.
    assert!(lint_at("crates/sim/src/x.rs", "use std::collections::BTreeMap;\n").is_clean());
}

#[test]
fn panic_freedom_scopes_to_core_crate_library_code() {
    let bad = "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
    assert_eq!(
        fired(&lint_at("crates/mdp/src/x.rs", bad)),
        ["panic-freedom"]
    );
    // Same source is fine outside the core crates...
    assert!(lint_at("crates/bench/src/x.rs", bad).is_clean());
    // ...and fine under #[cfg(test)] even in a core crate.
    let in_tests = format!("#[cfg(test)]\nmod tests {{\n    {bad}\n}}\n");
    assert!(lint_at("crates/mdp/src/x.rs", &in_tests).is_clean());
}

#[test]
fn hot_path_alloc_keys_on_hot_path_basenames() {
    let bad = "pub fn tick(&mut self) { self.scratch = Vec::new(); }\n";
    assert_eq!(
        fired(&lint_at("crates/sim/src/dram.rs", bad)),
        ["hot-path-alloc"]
    );
    // Same construct in a non-hot-path file of the same crate is fine.
    assert!(lint_at("crates/sim/src/config.rs", bad).is_clean());
}

#[test]
fn activity_contract_pairs_next_activity_with_skip() {
    let bad = "impl ClockedComponent for C {\n    fn next_activity(&self) -> u64 { 0 }\n}\n";
    assert_eq!(
        fired(&lint_at("crates/sim/src/x.rs", bad)),
        ["activity-contract"]
    );
    let good = "impl ClockedComponent for C {\n    fn next_activity(&self) -> u64 { 0 }\n    fn skip(&mut self, cycles: u64) {}\n}\n";
    assert!(lint_at("crates/sim/src/x.rs", good).is_clean());
}

#[test]
fn snapshot_safety_bans_unsafe_in_the_codec_even_with_safety_comments() {
    // A SAFETY comment satisfies unsafe-audit, but the codec rule still
    // fires: restore consumes untrusted bytes, so no argument holds.
    let bad = "impl<T: SnapValue> Snapshot for Fifo<T> {\n    fn decode(&mut self, r: &mut Reader) {\n        // SAFETY: satisfies unsafe-audit, not this rule\n        unsafe { core::hint::unreachable_unchecked() }\n    }\n}\n";
    assert_eq!(
        fired(&lint_at("crates/sim/src/x.rs", bad)),
        ["snapshot-safety"]
    );
    // Any `snapshot.rs` is covered in full, impl block or not, and the
    // rule also reaches test modules.
    let bad_file = "#[cfg(test)]\nmod tests {\n    fn shortcut(p: *const u8) {\n        // SAFETY: fixture\n        unsafe { let _ = *p; }\n    }\n}\n";
    assert_eq!(
        fired(&lint_at("crates/sim/src/snapshot.rs", bad_file)),
        ["snapshot-safety"]
    );
    // Safe codec impls and unsafe outside a Snapshot impl are untouched.
    let good = "impl<T: SnapValue> Snapshot for Fifo<T> {\n    fn encode(&self, out: &mut Vec<u8>) {}\n}\n";
    assert!(lint_at("crates/sim/src/x.rs", good).is_clean());
}

#[test]
fn allow_pragma_with_reason_suppresses_and_is_recorded() {
    let src = "// lint:allow(panic-freedom): fixture proof that this cannot be None\npub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
    let report = lint_at("crates/sim/src/x.rs", src);
    assert!(report.is_clean(), "{:?}", fired(&report));
    assert_eq!(report.allows.len(), 1);
    assert!(report.allows[0].used);
    assert_eq!(
        report.allows[0].reason,
        "fixture proof that this cannot be None"
    );
}

#[test]
fn allow_pragma_without_reason_is_itself_a_violation() {
    let src = "// lint:allow(panic-freedom)\npub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
    let report = lint_at("crates/sim/src/x.rs", src);
    // The malformed pragma suppresses nothing, so both findings surface.
    let rules = fired(&report);
    assert!(rules.contains(&"bad-pragma"), "{rules:?}");
    assert!(rules.contains(&"panic-freedom"), "{rules:?}");
}

#[test]
fn allow_item_covers_a_whole_constructor() {
    let src = "\
// lint:allow-item(hot-path-alloc): construction-time fixture
pub fn new(n: usize) -> Self {
    Self {
        a: Vec::new(),
        b: (0..n).map(|_| 0u64).collect(),
    }
}
pub fn tick(&mut self) { self.a = Vec::new(); }
";
    let report = lint_at("crates/sim/src/dram.rs", src);
    // The constructor's two sites are covered; tick() is not.
    assert_eq!(fired(&report), ["hot-path-alloc"]);
    assert_eq!(report.violations[0].line, 8);
    assert!(report.allows[0].used);
}

#[test]
fn unused_allow_is_reported_informationally_not_fatally() {
    let src = "// lint:allow(determinism): nothing here actually needs this\npub fn f() {}\n";
    let report = lint_at("crates/sim/src/x.rs", src);
    assert!(report.is_clean());
    assert_eq!(report.allows.len(), 1);
    assert!(!report.allows[0].used);
    assert!(report.render_summary().contains("unused allow"));
}

/// Runs the built binary with `--check` against a fixture tree root.
fn check_tree(tree: &str) -> std::process::Output {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(tree);
    Command::new(env!("CARGO_BIN_EXE_higraph-lint"))
        .args(["--check", "--root"])
        .arg(&root)
        .output()
        .expect("spawn higraph-lint")
}

#[test]
fn binary_check_fails_on_the_dirty_tree_with_every_family() {
    let out = check_tree("dirty");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "unsafe-audit",
        "determinism",
        "panic-freedom",
        "hot-path-alloc",
        "activity-contract",
        "snapshot-safety",
        "bad-pragma",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
}

#[test]
fn binary_check_passes_on_the_clean_tree() {
    let out = check_tree("clean");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}
