//! The rule catalogue. See `docs/static-analysis.md` for the prose
//! version of each rule, the pragma grammar, and how to add a rule.
//!
//! Every rule is a lexical pass over one [`SourceFile`]. Rules are
//! deliberately narrow: they encode the *workspace's own* conventions
//! (the PR 3 no-panic contract, the PR 5/6 scratch-buffer convention,
//! the PR 5 bit-identical-across-thread-counts guarantee), not general
//! Rust style — clippy handles that, in CI, right after this pass.

use crate::lexer::Tok;
use crate::report::Diagnostic;
use crate::source::SourceFile;

/// Rule: every `unsafe` keyword must be immediately preceded (same line
/// or the contiguous comment block directly above) by a `// SAFETY:`
/// comment stating the invariant.
pub const UNSAFE_AUDIT: &str = "unsafe-audit";
/// Rule: no wall-clock / iteration-order / environment nondeterminism
/// in the simulation crates.
pub const DETERMINISM: &str = "determinism";
/// Rule: no `unwrap`/`expect`/`panic!`/`assert!` in core-crate library
/// code — stalls and config errors are `Result`s (PR 3 contract).
pub const PANIC_FREEDOM: &str = "panic-freedom";
/// Rule: no allocation constructs in the designated hot-path files —
/// buffers are allocated once at construction (PR 5/6 convention).
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// Rule: an `impl ClockedComponent` that overrides `next_activity`
/// must also override `skip` — a fast-forward window hint without the
/// matching bulk-commit drifts metrics silently.
pub const ACTIVITY_CONTRACT: &str = "activity-contract";
/// Rule: the checkpoint codec stays entirely safe Rust — no `unsafe`
/// anywhere in a `snapshot.rs` file or inside an `impl … Snapshot for`
/// block, with or without a `SAFETY:` comment (stricter than
/// `unsafe-audit`: restore feeds untrusted bytes through the decoder).
pub const SNAPSHOT_SAFETY: &str = "snapshot-safety";
/// Pseudo-rule for malformed pragmas. Not allowlistable (an allow that
/// failed to parse cannot vouch for itself).
pub const BAD_PRAGMA: &str = "bad-pragma";

/// Every real rule id, in reporting order. `bad-pragma` is excluded:
/// it cannot be targeted by an allow.
pub const RULE_IDS: &[&str] = &[
    UNSAFE_AUDIT,
    DETERMINISM,
    PANIC_FREEDOM,
    HOT_PATH_ALLOC,
    ACTIVITY_CONTRACT,
    SNAPSHOT_SAFETY,
];

/// Crates whose simulation results must be bit-identical across hosts,
/// thread counts, and runs: the determinism and panic-freedom rules
/// scope to these. `bench` is *also* determinism-scoped (a sweep must
/// produce identical reports), but its wall-clock host-performance
/// measurements carry reasoned allows.
pub const CORE_CRATES: &[&str] = &["sim", "accel", "mdp", "graph", "model", "vcpm"];

/// Crates the determinism rule scans: the core crates plus the layers
/// that assemble and report on them. `pool` is determinism-scoped even
/// though it never touches simulated state: its scheduling decisions
/// (worker count, steal order) must not read clocks or hashed
/// iteration order except through a reasoned allow.
pub const DETERMINISM_CRATES: &[&str] = &[
    "sim", "accel", "mdp", "graph", "model", "vcpm", "pool", "bench", "higraph", "lint",
];

/// Basenames of the designated hot-path files (per-cycle code where the
/// PR 5/6 scratch-buffer convention bans steady-state allocation).
pub const HOT_PATH_FILES: &[&str] = &[
    "frontend.rs",
    "backend.rs",
    "apply.rs",
    "fifo.rs",
    "network.rs",
    "range.rs",
    "naive.rs",
    "dram.rs",
    "crossbar.rs",
    "edge_access.rs",
];

/// Identifiers the determinism rule forbids outright.
const NONDETERMINISTIC_IDENTS: &[(&str, &str)] = &[
    ("Instant", "wall-clock time is host-dependent"),
    ("SystemTime", "wall-clock time is host-dependent"),
    ("HashMap", "RandomState iteration order varies per process"),
    ("HashSet", "RandomState iteration order varies per process"),
    (
        "thread_rng",
        "OS-seeded RNG breaks run-to-run reproducibility",
    ),
];

/// Macro names the panic-freedom rule forbids (each is matched as the
/// identifier followed by `!`; `debug_`-prefixed variants are distinct
/// identifiers and therefore pass).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Runs every rule over one analyzed file, honouring pragmas, and
/// appends to `out`. Returns a `used[i]` flag per `file.pragmas[i]`.
pub fn run_all(file: &SourceFile, out: &mut Vec<Diagnostic>) -> Vec<bool> {
    let mut used = vec![false; file.pragmas.len()];

    for bad in &file.bad_pragmas {
        out.push(Diagnostic {
            file: file.path.clone(),
            line: bad.line,
            rule: BAD_PRAGMA.to_string(),
            message: format!("malformed lint pragma: {}", bad.problem),
            suggestion: "write `// lint:allow(rule-id): reason` — the reason text is mandatory"
                .to_string(),
        });
    }

    let mut raw = Vec::new();
    unsafe_audit(file, &mut raw);
    determinism(file, &mut raw);
    panic_freedom(file, &mut raw);
    hot_path_alloc(file, &mut raw);
    activity_contract(file, &mut raw);
    snapshot_safety(file, &mut raw);

    for d in raw {
        match file.allow_covering(&d.rule, d.line) {
            Some(idx) => used[idx] = true,
            None => out.push(d),
        }
    }
    used
}

fn diag(
    file: &SourceFile,
    line: usize,
    rule: &str,
    message: String,
    suggestion: &str,
) -> Diagnostic {
    Diagnostic {
        file: file.path.clone(),
        line,
        rule: rule.to_string(),
        message,
        suggestion: suggestion.to_string(),
    }
}

/// (1) `unsafe` requires an adjacent `// SAFETY:` comment.
///
/// Accepted placements: a comment on the same line as the `unsafe`
/// keyword, or a contiguous run of comment-only lines directly above it
/// (no blank or code lines in between), any of which contains `SAFETY:`.
fn unsafe_audit(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for t in &file.tokens {
        if t.tok.ident() != Some("unsafe") {
            continue;
        }
        if has_adjacent_safety_comment(file, t.line) {
            continue;
        }
        out.push(diag(
            file,
            t.line,
            UNSAFE_AUDIT,
            "`unsafe` without an adjacent `// SAFETY:` comment".to_string(),
            "state the invariant that makes this sound in a `// SAFETY:` comment \
             directly above the unsafe block/fn/impl",
        ));
    }
}

fn has_adjacent_safety_comment(file: &SourceFile, line: usize) -> bool {
    let mentions_safety = |l: usize| file.comments_on(l).iter().any(|c| c.contains("SAFETY:"));
    if mentions_safety(line) {
        return true;
    }
    // walk up through the contiguous comment-only block
    let mut l = line;
    while l > 1 {
        l -= 1;
        let is_comment_only = !file.comments_on(l).is_empty() && !file.line_has_code(l);
        if !is_comment_only {
            return false;
        }
        if mentions_safety(l) {
            return true;
        }
    }
    false
}

/// (2) No nondeterminism sources in the simulation crates: wall clocks,
/// `RandomState` maps, environment reads, OS-seeded RNG.
fn determinism(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !DETERMINISM_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let code = code_tokens(file);
    for (k, &(i, tok, line)) in code.iter().enumerate() {
        if file.test_mask[i] {
            continue;
        }
        let Some(id) = tok.ident() else { continue };
        if let Some((_, why)) = NONDETERMINISTIC_IDENTS.iter().find(|(n, _)| *n == id) {
            out.push(diag(
                file,
                line,
                DETERMINISM,
                format!("nondeterminism source `{id}`: {why}"),
                "use the simulated cycle clock, a `BTreeMap`/`Vec`, or the seeded \
                 `rand` shim; wall-clock host measurements need a reasoned allow",
            ));
        }
        // `env::var` / `std::env::var(_os)` — matched as the token
        // sequence `env :: var`.
        if id == "env"
            && matches_seq(&code, k + 1, &[":", ":"])
            && matches!(
                code.get(k + 3).and_then(|(_, t, _)| t.ident()),
                Some("var" | "var_os")
            )
        {
            out.push(diag(
                file,
                line,
                DETERMINISM,
                "nondeterminism source `env::var`: behaviour depends on the host \
                 environment"
                    .to_string(),
                "thread configuration through `AcceleratorConfig` / explicit \
                 parameters instead of ambient environment state",
            ));
        }
    }
}

/// (3) The PR 3 no-panic contract: core-crate library code returns
/// `Result` + `StallDiagnostic` / `BatchError::Config`; it does not
/// `unwrap`, `expect`, `panic!`, or hard-`assert!`.
fn panic_freedom(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !CORE_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let code = code_tokens(file);
    for (k, &(i, tok, line)) in code.iter().enumerate() {
        if file.test_mask[i] {
            continue;
        }
        let Some(id) = tok.ident() else { continue };
        let is_method_call = |name| {
            tok.ident() == Some(name)
                && k > 0
                && code[k - 1].1 == &Tok::Punct('.')
                && matches_seq(&code, k + 1, &["("])
        };
        if is_method_call("unwrap") || is_method_call("expect") {
            out.push(diag(
                file,
                line,
                PANIC_FREEDOM,
                format!("`.{id}()` can panic in library code"),
                "propagate a `Result` (`StallDiagnostic` / `BatchError::Config` per \
                 the PR 3 contract); if genuinely infallible, allow with the proof \
                 as the reason",
            ));
        }
        if PANIC_MACROS.contains(&id) && matches_seq(&code, k + 1, &["!"]) {
            out.push(diag(
                file,
                line,
                PANIC_FREEDOM,
                format!("`{id}!` panics in library code"),
                "return an error, or use `debug_assert!` for internal invariants \
                 already guaranteed by validated configuration",
            ));
        }
    }
}

/// (4) The PR 5/6 scratch-buffer convention: no allocation constructs
/// in per-cycle code of the designated hot-path files. Construction-time
/// allocations in those files carry reasoned allows, which keeps every
/// allocation site visible and justified.
fn hot_path_alloc(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !CORE_CRATES.contains(&file.crate_name.as_str())
        || !HOT_PATH_FILES.contains(&file.file_name.as_str())
    {
        return;
    }
    let code = code_tokens(file);
    for (k, &(i, tok, line)) in code.iter().enumerate() {
        if file.test_mask[i] {
            continue;
        }
        let Some(id) = tok.ident() else { continue };
        let found = match id {
            "Vec" if matches_seq(&code, k + 1, &[":", ":", "new"]) => Some("Vec::new"),
            "Box" if matches_seq(&code, k + 1, &[":", ":", "new"]) => Some("Box::new"),
            "vec" if matches_seq(&code, k + 1, &["!"]) => Some("vec!"),
            "collect" | "to_vec"
                if k > 0
                    && code[k - 1].1 == &Tok::Punct('.')
                    && matches_seq(&code, k + 1, &["("]) =>
            {
                Some(id)
            }
            _ => None,
        };
        if let Some(what) = found {
            out.push(diag(
                file,
                line,
                HOT_PATH_ALLOC,
                format!("allocation construct `{what}` in a hot-path file"),
                "allocate once at construction into component-owned scratch \
                 (docs/performance.md); construction-time sites get a reasoned allow",
            ));
        }
    }
}

/// (5) Activity-contract completeness: inside any
/// `impl … ClockedComponent for …` block, an overridden `next_activity`
/// without an overridden `skip` means fast-forward windows are
/// advertised but idle effects are never bulk-committed: the default
/// `skip` ticks through the window and checks nothing against it.
fn activity_contract(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = code_tokens(file);
    let mut k = 0;
    while k < code.len() {
        if code[k].1.ident() != Some("impl") {
            k += 1;
            continue;
        }
        // find the impl body's `{`, tracking whether this is
        // `impl … ClockedComponent for …` (the trait path ends right
        // before `for`, so bound mentions in generics do not count)
        let mut body = None;
        let mut is_clocked_impl = false;
        for j in k + 1..code.len() {
            match code[j].1 {
                Tok::Punct('{') => {
                    body = Some(j);
                    break;
                }
                Tok::Punct(';') => break, // e.g. `impl Trait for X;` — not ours
                Tok::Ident(id) if id == "for" => {
                    is_clocked_impl = code[j - 1].1.ident() == Some("ClockedComponent");
                }
                _ => {}
            }
        }
        let Some(body_start) = body else {
            k += 1;
            continue;
        };
        // matching `}` of the body
        let mut depth = 0usize;
        let mut body_end = code.len() - 1;
        for (j, tok) in code.iter().enumerate().skip(body_start) {
            match tok.1 {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        body_end = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        if is_clocked_impl {
            let mut has_next_activity = false;
            let mut has_skip = false;
            for j in body_start..body_end {
                if code[j].1.ident() == Some("fn") {
                    match code.get(j + 1).and_then(|(_, t, _)| t.ident()) {
                        Some("next_activity") => has_next_activity = true,
                        Some("skip") => has_skip = true,
                        _ => {}
                    }
                }
            }
            if has_next_activity && !has_skip {
                out.push(diag(
                    file,
                    code[k].2,
                    ACTIVITY_CONTRACT,
                    "`impl ClockedComponent` overrides `next_activity` but not `skip`".to_string(),
                    "implement `skip(k)` to bulk-commit the per-cycle effects of the \
                     advertised inert window (docs/simulation.md), or the scheduler's \
                     fast-forward will silently drift metrics",
                ));
            }
        }
        k = body_end + 1;
    }
}

/// (6) Checkpoint-codec hardening (`docs/robustness.md`): `restore`
/// feeds untrusted bytes — truncated files, version skew, bit flips —
/// through the decoder, so the `Snapshot` codec is kept entirely safe
/// Rust, where a length lie is an `Err`, never undefined behaviour.
/// Unlike `unsafe-audit`, a `SAFETY:` comment does not help here: the
/// rule covers any `snapshot.rs` file in full and every
/// `impl … Snapshot for …` block elsewhere, and flags each `unsafe`
/// keyword inside. Test code is not exempt (a codec test is exactly
/// where a transmute shortcut would sneak in).
fn snapshot_safety(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let code = code_tokens(file);
    let flag = |out: &mut Vec<Diagnostic>, line: usize| {
        out.push(diag(
            file,
            line,
            SNAPSHOT_SAFETY,
            "`unsafe` inside the snapshot codec".to_string(),
            "decode with checked, safe Rust only — the restore path consumes \
             untrusted bytes, and a `SAFETY:` argument cannot hold for inputs \
             the program did not produce (docs/robustness.md)",
        ));
    };
    if file.file_name == "snapshot.rs" {
        for &(_, tok, line) in &code {
            if tok.ident() == Some("unsafe") {
                flag(out, line);
            }
        }
        return;
    }
    // Elsewhere: only `impl … Snapshot for …` bodies are covered.
    let mut k = 0;
    while k < code.len() {
        if code[k].1.ident() != Some("impl") {
            k += 1;
            continue;
        }
        let mut body = None;
        let mut is_snapshot_impl = false;
        for j in k + 1..code.len() {
            match code[j].1 {
                Tok::Punct('{') => {
                    body = Some(j);
                    break;
                }
                Tok::Punct(';') => break,
                Tok::Ident(id) if id == "for" => {
                    // The trait path ends right before `for`, so a
                    // `SnapValue` bound in the generics does not count.
                    is_snapshot_impl = code[j - 1].1.ident() == Some("Snapshot");
                }
                _ => {}
            }
        }
        let Some(body_start) = body else {
            k += 1;
            continue;
        };
        let mut depth = 0usize;
        let mut body_end = code.len() - 1;
        for (j, tok) in code.iter().enumerate().skip(body_start) {
            match tok.1 {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        body_end = j;
                        break;
                    }
                }
                _ => {}
            }
        }
        if is_snapshot_impl {
            for &(_, tok, line) in &code[body_start..body_end] {
                if tok.ident() == Some("unsafe") {
                    flag(out, line);
                }
            }
        }
        k = body_end + 1;
    }
}

/// Code tokens only (comments dropped), with original index and line.
fn code_tokens(file: &SourceFile) -> Vec<(usize, &Tok, usize)> {
    file.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.tok.is_code())
        .map(|(i, t)| (i, &t.tok, t.line))
        .collect()
}

/// Whether the code tokens starting at `from` spell out `pattern`,
/// where each pattern element is either a single punctuation character
/// or an identifier.
fn matches_seq(code: &[(usize, &Tok, usize)], from: usize, pattern: &[&str]) -> bool {
    pattern
        .iter()
        .enumerate()
        .all(|(off, want)| match code.get(from + off) {
            Some((_, Tok::Punct(c), _)) => want.len() == 1 && want.starts_with(*c),
            Some((_, Tok::Ident(id), _)) => id == want,
            _ => false,
        })
}
