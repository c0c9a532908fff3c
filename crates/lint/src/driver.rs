//! File discovery and the whole-workspace entry point.
//!
//! The linter scans every `.rs` file under `crates/*/src` — including
//! its own crate (the self-hosting gate: a linter that cannot satisfy
//! its own rules has no business gating anyone else). The `shims/`
//! members are deliberately excluded: they are API stand-ins for
//! third-party crates, modelling interfaces this workspace does not
//! own. `tests/` and `benches/` directories are likewise out of scope —
//! every rule except `unsafe-audit` exempts test code anyway, and test
//! files scanned through an explicit [`lint_paths`] call are masked
//! wholesale.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::report::{AllowRecord, Report};
use crate::rules;
use crate::source::SourceFile;

/// Lints every `crates/*/src/**/*.rs` under `root` (the workspace
/// directory). Deterministic: files are visited in sorted path order.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    members.sort();
    for member in members {
        collect_rs_files(&member.join("src"), &mut files)?;
    }
    files.sort();
    let mut report = lint_files(root, &files)?;
    report.unmatched_hot_paths = unmatched_hot_paths(&files);
    Ok(report)
}

/// The [`rules::HOT_PATH_FILES`] entries that no file in `files` has as
/// its basename. Entries name files by basename, so one whose file was
/// deleted or renamed would otherwise keep passing silently.
fn unmatched_hot_paths(files: &[PathBuf]) -> Vec<String> {
    let basenames: Vec<_> = files.iter().filter_map(|f| f.file_name()).collect();
    rules::HOT_PATH_FILES
        .iter()
        .filter(|&&name| !basenames.iter().any(|&b| b == name))
        .map(|name| name.to_string())
        .collect()
}

/// Lints an explicit file list (paths may be absolute or root-relative).
pub fn lint_paths(root: &Path, paths: &[PathBuf]) -> io::Result<Report> {
    let mut files: Vec<PathBuf> = paths
        .iter()
        .map(|p| {
            if p.is_absolute() {
                p.clone()
            } else {
                root.join(p)
            }
        })
        .collect();
    files.sort();
    lint_files(root, &files)
}

fn lint_files(root: &Path, files: &[PathBuf]) -> io::Result<Report> {
    let mut report = Report::default();
    for path in files {
        let src = fs::read_to_string(path)?;
        let rel = relative_display(root, path);
        lint_source(&rel, &src, &mut report);
    }
    report.finalize();
    Ok(report)
}

/// Lints one in-memory source buffer into `report`. `rel_path` drives
/// rule scoping (crate name, basename), so fixture tests can pose as
/// any file in the tree, e.g. `crates/sim/src/frontend.rs`.
pub fn lint_source(rel_path: &str, src: &str, report: &mut Report) {
    let file = SourceFile::analyze(rel_path, src);
    let used = rules::run_all(&file, &mut report.violations);
    for (pragma, used) in file.pragmas.iter().zip(used) {
        report.allows.push(AllowRecord {
            file: file.path.clone(),
            line: pragma.line,
            rules: pragma.rules.clone(),
            reason: pragma.reason.clone(),
            used,
        });
    }
    report.files_scanned += 1;
}

/// Recursively collects `.rs` files under `dir` (missing dirs are fine:
/// a crate without `src/` simply contributes nothing).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(());
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` rendered relative to `root` with forward slashes, falling
/// back to the full path when it is not under `root`.
fn relative_display(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Walks upward from `start` to the first directory containing both
/// `Cargo.toml` and `crates/` — the workspace root. Lets the binary run
/// from any subdirectory of the repository.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_attributes_by_virtual_path() {
        let mut report = Report::default();
        // same source, two virtual homes: core crate trips panic-freedom,
        // bench does not
        let src = "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
        lint_source("crates/sim/src/x.rs", src, &mut report);
        lint_source("crates/bench/src/x.rs", src, &mut report);
        report.finalize();
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].file, "crates/sim/src/x.rs");
    }

    #[test]
    fn hot_path_entries_without_a_file_are_reported() {
        let all: Vec<PathBuf> = rules::HOT_PATH_FILES
            .iter()
            .map(|name| PathBuf::from("crates/x/src").join(name))
            .collect();
        assert!(unmatched_hot_paths(&all).is_empty());
        let without_dram: Vec<PathBuf> = all
            .iter()
            .filter(|p| !p.ends_with("dram.rs"))
            .cloned()
            .collect();
        assert_eq!(unmatched_hot_paths(&without_dram), ["dram.rs"]);
    }

    #[test]
    fn workspace_root_is_found_from_within() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("inside the workspace");
        assert!(root.join("crates/lint").is_dir());
    }
}
