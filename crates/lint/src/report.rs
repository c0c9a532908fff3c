//! Diagnostics and the machine-readable report.
//!
//! Text diagnostics render as `file:line: rule-id: message (suggestion:
//! …)` — one line per finding, terminal-clickable, stable ordering
//! (path, then line, then rule). The JSON report mirrors the scheme of
//! `bench-report.json`: hand-rolled writer, no serde, schema documented
//! in `docs/static-analysis.md` and versioned via the `schema` key.

use std::fmt::Write as _;

/// One finding: a rule violation (or malformed pragma) at a location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule id, e.g. `panic-freedom`.
    pub rule: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it (or how to allow it with a reason).
    pub suggestion: String,
}

impl Diagnostic {
    /// The one-line terminal rendering.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {} (suggestion: {})",
            self.file, self.line, self.rule, self.message, self.suggestion
        )
    }
}

/// An allow pragma that was honoured (or not needed), for the report's
/// audit trail: every suppressed finding stays visible with its reason.
#[derive(Debug, Clone)]
pub struct AllowRecord {
    /// Workspace-relative path of the pragma.
    pub file: String,
    /// 1-indexed line of the pragma comment.
    pub line: usize,
    /// Rule ids the pragma names.
    pub rules: Vec<String>,
    /// The mandatory reason text.
    pub reason: String,
    /// Whether any finding was actually suppressed by it. Unused allows
    /// are reported informationally — they mark conventions that became
    /// unnecessary and can be deleted.
    pub used: bool,
}

/// Full result of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line, rule).
    pub violations: Vec<Diagnostic>,
    /// Every allow pragma seen, with its usage flag.
    pub allows: Vec<AllowRecord>,
    /// Hot-path basenames no scanned file has (workspace scans only).
    /// Reported informationally, like unused allows: the entry is stale
    /// and can be deleted.
    pub unmatched_hot_paths: Vec<String>,
}

impl Report {
    /// Sorts findings into the stable reporting order.
    pub fn finalize(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.allows
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Per-rule violation counts in [`crate::rules::RULE_IDS`] order
    /// (plus `bad-pragma` last, when present).
    pub fn counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = crate::rules::RULE_IDS
            .iter()
            .map(|&r| (r, self.violations.iter().filter(|v| v.rule == r).count()))
            .collect();
        let bad = self
            .violations
            .iter()
            .filter(|v| v.rule == crate::rules::BAD_PRAGMA)
            .count();
        if bad > 0 {
            counts.push((crate::rules::BAD_PRAGMA, bad));
        }
        counts
    }

    /// The human-readable summary block printed after the findings.
    pub fn render_summary(&self) -> String {
        let mut s = String::new();
        let total = self.violations.len();
        let unused = self.allows.iter().filter(|a| !a.used).count();
        let _ = writeln!(
            s,
            "higraph-lint: {} file(s) scanned, {} violation(s), {} allow(s) ({} unused)",
            self.files_scanned,
            total,
            self.allows.len(),
            unused
        );
        for (rule, n) in self.counts() {
            if n > 0 {
                let _ = writeln!(s, "  {rule}: {n}");
            }
        }
        for a in self.allows.iter().filter(|a| !a.used) {
            let _ = writeln!(
                s,
                "  note: unused allow at {}:{} ({}) — consider deleting it",
                a.file,
                a.line,
                a.rules.join(", ")
            );
        }
        for name in &self.unmatched_hot_paths {
            let _ = writeln!(
                s,
                "  note: hot-path entry {name} matches no file under crates/*/src — \
                 delete it from HOT_PATH_FILES"
            );
        }
        s
    }

    /// The machine-readable report. Schema: see
    /// `docs/static-analysis.md` § "JSON report schema".
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"higraph-lint-report/v1\",");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"clean\": {},", self.is_clean());

        s.push_str("  \"summary\": {");
        let counts = self.counts();
        for (i, (rule, n)) in counts.iter().enumerate() {
            let comma = if i + 1 < counts.len() { ", " } else { "" };
            let _ = write!(s, "\"{rule}\": {n}{comma}");
        }
        s.push_str("},\n");

        s.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            let comma = if i + 1 < self.violations.len() {
                ","
            } else {
                ""
            };
            let _ = write!(
                s,
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"suggestion\": {}}}{}",
                json_str(&v.file),
                v.line,
                json_str(&v.rule),
                json_str(&v.message),
                json_str(&v.suggestion),
                comma
            );
        }
        if !self.violations.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");

        s.push_str("  \"allows\": [");
        for (i, a) in self.allows.iter().enumerate() {
            let comma = if i + 1 < self.allows.len() { "," } else { "" };
            let rules = a
                .rules
                .iter()
                .map(|r| json_str(r))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = write!(
                s,
                "\n    {{\"file\": {}, \"line\": {}, \"rules\": [{}], \"reason\": {}, \"used\": {}}}{}",
                json_str(&a.file),
                a.line,
                rules,
                json_str(&a.reason),
                a.used,
                comma
            );
        }
        if !self.allows.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Escapes a string for JSON output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report {
            files_scanned: 2,
            violations: vec![Diagnostic {
                file: "crates/sim/src/b.rs".into(),
                line: 3,
                rule: "panic-freedom".into(),
                message: "`.unwrap()` can panic \"quoted\"".into(),
                suggestion: "propagate a Result".into(),
            }],
            allows: vec![AllowRecord {
                file: "crates/sim/src/a.rs".into(),
                line: 10,
                rules: vec!["determinism".into()],
                reason: "wall-clock only feeds host reporting".into(),
                used: true,
            }],
            unmatched_hot_paths: vec!["gone.rs".into()],
        };
        r.finalize();
        r
    }

    #[test]
    fn render_is_file_line_rule() {
        let r = sample();
        let line = r.violations[0].render();
        assert!(
            line.starts_with("crates/sim/src/b.rs:3: panic-freedom:"),
            "{line}"
        );
        assert!(line.contains("suggestion:"), "{line}");
    }

    #[test]
    fn json_escapes_and_counts() {
        let r = sample();
        let json = r.to_json();
        assert!(json.contains("\\\"quoted\\\""), "{json}");
        assert!(json.contains("\"panic-freedom\": 1"), "{json}");
        assert!(json.contains("\"clean\": false"), "{json}");
        assert!(json.contains("\"schema\": \"higraph-lint-report/v1\""));
        assert!(r.render_summary().contains("hot-path entry gone.rs"));
    }

    #[test]
    fn clean_report_has_empty_arrays() {
        let mut r = Report::default();
        r.finalize();
        let json = r.to_json();
        assert!(json.contains("\"violations\": []"), "{json}");
        assert!(json.contains("\"clean\": true"), "{json}");
    }
}
