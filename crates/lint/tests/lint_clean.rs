//! The self-hosting gate: the workspace's own sources must lint clean.
//!
//! This is the test-suite twin of CI's `higraph-lint --check` leg — it
//! fails `cargo test` locally before a violation ever reaches CI, and it
//! re-checks the audit trail: every allow pragma in the tree carries a
//! non-empty reason (the parser enforces this; the assertion keeps the
//! contract visible).

use std::path::Path;
use std::process::Command;

use higraph_lint::{find_workspace_root, lint_workspace};

#[test]
fn workspace_sources_are_lint_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the workspace");
    let report = lint_workspace(&root).expect("workspace scan");
    assert!(
        report.is_clean(),
        "the workspace must lint clean:\n{}{}",
        report
            .violations
            .iter()
            .map(|v| v.render() + "\n")
            .collect::<String>(),
        report.render_summary()
    );
    assert!(
        report.unmatched_hot_paths.is_empty(),
        "hot-path entries without a file: {:?}",
        report.unmatched_hot_paths
    );
    assert!(
        report.files_scanned > 50,
        "expected the full tree, scanned only {} file(s)",
        report.files_scanned
    );
    for allow in &report.allows {
        assert!(
            !allow.reason.trim().is_empty(),
            "allow without a reason at {}:{}",
            allow.file,
            allow.line
        );
    }
}

#[test]
fn binary_check_exits_zero_on_the_workspace() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the workspace");
    let out = Command::new(env!("CARGO_BIN_EXE_higraph-lint"))
        .args(["--check", "--root"])
        .arg(&root)
        .output()
        .expect("spawn higraph-lint");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
