//! Per-file analysis context shared by every rule pass.
//!
//! [`SourceFile::analyze`] lexes one file and precomputes everything the
//! rules in [`crate::rules`] ask over and over:
//!
//! * which crate the file belongs to and its basename (rule scoping),
//! * which token indices sit inside `#[cfg(test)]` / `#[test]` items
//!   (the panic/determinism/allocation rules exempt test code),
//! * per-line comment text (for `// SAFETY:` audits) and per-line
//!   "contains code" flags (for pragma coverage),
//! * parsed `lint:allow` pragmas, including the malformed ones, which
//!   surface as [`crate::rules::BAD_PRAGMA`] diagnostics.

use crate::lexer::{lex, Tok, Token};

/// Grammar marker for an inline allow. See [`Pragma`].
pub const PRAGMA_LINE: &str = "lint:allow(";
/// Grammar marker for a next-item/statement allow. See [`Pragma`].
pub const PRAGMA_ITEM: &str = "lint:allow-item(";
/// Grammar marker for a whole-file allow. See [`Pragma`].
pub const PRAGMA_FILE: &str = "lint:allow-file(";

/// How far a pragma's allow reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PragmaScope {
    /// `lint:allow` — the pragma's own line and the next code line.
    Line,
    /// `lint:allow-item` — the next item or statement, through the
    /// matching `}` of its first brace or its terminating `;` (one
    /// pragma covers a whole constructor, or a multi-line statement).
    Item,
    /// `lint:allow-file` — the whole file.
    File,
}

/// A parsed `// lint:allow(rule-id[, rule-id]*): reason` pragma (or its
/// `allow-item` / `allow-file` scope variants).
///
/// The reason text is mandatory: an allow that cannot say *why* it is
/// safe is exactly the un-reviewable convention this linter replaces.
/// Doc comments (`///`, `//!`, `/**`, `/*!`) never count as pragmas, so
/// documentation may quote the grammar freely.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Rule ids the pragma allows.
    pub rules: Vec<String>,
    /// Mandatory human-readable justification.
    pub reason: String,
    /// 1-indexed line the pragma comment starts on.
    pub line: usize,
    /// The allow's reach.
    pub scope: PragmaScope,
}

/// A pragma that failed to parse, with what went wrong.
#[derive(Debug, Clone)]
pub struct BadPragma {
    /// 1-indexed line of the malformed pragma.
    pub line: usize,
    /// What is wrong, phrased as an actionable message.
    pub problem: String,
}

/// One analyzed source file plus everything rules need to scan it.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes, e.g.
    /// `crates/sim/src/fifo.rs` (used in diagnostics and scoping).
    pub path: String,
    /// The `<name>` of `crates/<name>/…`, or empty outside `crates/`.
    pub crate_name: String,
    /// File basename, e.g. `fifo.rs` (hot-path rule scoping).
    pub file_name: String,
    /// Full token stream, comments included.
    pub tokens: Vec<Token>,
    /// `test_mask[i]` ⇔ `tokens[i]` is inside a `#[cfg(test)]`/`#[test]`
    /// item (or a `tests/` / `benches/` file, which are wholly test code).
    pub test_mask: Vec<bool>,
    /// `true` for each 1-indexed line containing at least one code token.
    line_has_code: Vec<bool>,
    /// Comment texts per 1-indexed line (a line can hold several).
    comments: Vec<Vec<String>>,
    /// Well-formed allow pragmas.
    pub pragmas: Vec<Pragma>,
    /// Per-pragma covered line range (inclusive), `None` = whole file.
    coverage: Vec<Option<(usize, usize)>>,
    /// Malformed pragmas (missing reason, unknown rule, bad syntax).
    pub bad_pragmas: Vec<BadPragma>,
}

impl SourceFile {
    /// Lexes and indexes one file. `path` should be workspace-relative;
    /// the crate name is read out of a `crates/<name>/` component.
    pub fn analyze(path: &str, src: &str) -> SourceFile {
        let tokens = lex(src);
        let line_count = src.lines().count() + 1;

        let mut line_has_code = vec![false; line_count + 1];
        let mut comments: Vec<Vec<String>> = vec![Vec::new(); line_count + 1];
        for t in &tokens {
            if t.line >= line_has_code.len() {
                // tokens can end past the last newline-terminated line
                line_has_code.resize(t.line + 1, false);
                comments.resize(t.line + 1, Vec::new());
            }
            match &t.tok {
                Tok::LineComment(text) | Tok::BlockComment(text) => {
                    comments[t.line].push(text.clone());
                }
                _ => line_has_code[t.line] = true,
            }
        }

        let path = path.replace('\\', "/");
        let crate_name = path
            .split_once("crates/")
            .and_then(|(_, rest)| rest.split('/').next())
            .unwrap_or("")
            .to_string();
        let file_name = path.rsplit('/').next().unwrap_or(&path).to_string();
        let whole_file_is_test = path.contains("/tests/") || path.contains("/benches/");

        let test_mask = if whole_file_is_test {
            vec![true; tokens.len()]
        } else {
            compute_test_mask(&tokens)
        };

        let (pragmas, bad_pragmas) = parse_pragmas(&tokens);

        let mut file = SourceFile {
            path,
            crate_name,
            file_name,
            tokens,
            test_mask,
            line_has_code,
            comments,
            pragmas,
            coverage: Vec::new(),
            bad_pragmas,
        };
        file.coverage = file.pragmas.iter().map(|p| file.pragma_cover(p)).collect();
        file
    }

    /// The inclusive line range pragma `p` covers, `None` = whole file.
    fn pragma_cover(&self, p: &Pragma) -> Option<(usize, usize)> {
        match p.scope {
            PragmaScope::File => None,
            PragmaScope::Line => {
                let end = self.next_code_line(p.line).unwrap_or(p.line);
                Some((p.line, end))
            }
            PragmaScope::Item => {
                let code: Vec<(usize, &Tok)> = self
                    .tokens
                    .iter()
                    .filter(|t| t.tok.is_code())
                    .map(|t| (t.line, &t.tok))
                    .collect();
                let Some(mut k) = code.iter().position(|&(l, _)| l > p.line) else {
                    return Some((p.line, p.line));
                };
                while k < code.len() && code[k].1 == &Tok::Punct('#') {
                    k = skip_attribute(&code, k);
                }
                let end = item_end(&code, k);
                let end_line = code.get(end).map(|&(l, _)| l).unwrap_or(p.line);
                Some((p.line, end_line.max(p.line)))
            }
        }
    }

    /// Whether 1-indexed `line` contains any code token.
    pub fn line_has_code(&self, line: usize) -> bool {
        self.line_has_code.get(line).copied().unwrap_or(false)
    }

    /// Comment texts on 1-indexed `line` (empty slice if none).
    pub fn comments_on(&self, line: usize) -> &[String] {
        self.comments.get(line).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The first line after `line` that contains code, if any. This is
    /// the line a non-file-scope pragma above a statement covers.
    pub fn next_code_line(&self, line: usize) -> Option<usize> {
        (line + 1..self.line_has_code.len()).find(|&l| self.line_has_code[l])
    }

    /// Whether a violation of `rule` at `line` is covered by a pragma.
    /// Returns the index of the covering pragma so callers can track
    /// which allows were actually used.
    pub fn allow_covering(&self, rule: &str, line: usize) -> Option<usize> {
        self.pragmas.iter().enumerate().position(|(i, p)| {
            p.rules.iter().any(|r| r == rule)
                && match self.coverage[i] {
                    None => true,
                    Some((from, to)) => (from..=to).contains(&line),
                }
        })
    }
}

/// Marks token ranges belonging to `#[cfg(test)]` / `#[test]` items.
///
/// Purely lexical: after such an attribute (any further attributes in
/// between are skipped), the next item extends to its first `;` or to
/// the matching `}` of its first `{` at nesting depth zero. This covers
/// the workspace convention (`#[cfg(test)] mod tests { … }` at the end
/// of each file) and inline `#[test]` functions.
fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let code: Vec<(usize, &Tok)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.tok.is_code())
        .map(|(i, t)| (i, &t.tok))
        .collect();

    let mut i = 0;
    while i < code.len() {
        if is_test_attribute(&code, i) {
            // skip this and any further attributes, then mark the item
            let mut j = i;
            while j < code.len() && code[j].1 == &Tok::Punct('#') {
                j = skip_attribute(&code, j);
            }
            let end = item_end(&code, j);
            let (from, to) = (code[i].0, code[end.min(code.len() - 1)].0);
            for slot in &mut mask[from..=to] {
                *slot = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Whether `code[i]` starts `#[test]`, `#[cfg(test)]` or any attribute
/// whose argument list mentions `test` (covers `cfg(all(test, …))`).
fn is_test_attribute(code: &[(usize, &Tok)], i: usize) -> bool {
    if code[i].1 != &Tok::Punct('#') || code.get(i + 1).map(|t| t.1) != Some(&Tok::Punct('[')) {
        return false;
    }
    let end = skip_attribute(code, i);
    code[i..end].iter().any(|(_, t)| match t {
        Tok::Ident(s) => s == "test",
        _ => false,
    })
}

/// Returns the index just past the `]` closing the attribute at `i`
/// (which must point at `#`).
fn skip_attribute(code: &[(usize, &Tok)], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < code.len() {
        match code[j].1 {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    code.len()
}

/// Returns the index of the last token of the item starting at `j`: the
/// matching `}` of its first top-level `{`, or its first top-level `;`.
fn item_end(code: &[(usize, &Tok)], j: usize) -> usize {
    let mut depth = 0usize;
    let mut k = j;
    while k < code.len() {
        match code[k].1 {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            Tok::Punct(';') if depth == 0 => return k,
            _ => {}
        }
        k += 1;
    }
    code.len().saturating_sub(1)
}

/// Extracts pragmas from the comment tokens. Both well-formed pragmas
/// and malformed attempts are returned; the caller turns the latter
/// into diagnostics (a silent bad pragma would silently *not* allow).
fn parse_pragmas(tokens: &[Token]) -> (Vec<Pragma>, Vec<BadPragma>) {
    let mut good = Vec::new();
    let mut bad = Vec::new();
    for t in tokens {
        let Some(text) = t.tok.comment() else {
            continue;
        };
        if is_doc_comment(text) {
            continue; // docs may quote the grammar without allowing anything
        }
        let Some((scope, after_paren)) = find_pragma(text) else {
            continue;
        };
        match parse_pragma_body(after_paren) {
            Ok((rules, reason)) => good.push(Pragma {
                rules,
                reason,
                line: t.line,
                scope,
            }),
            Err(problem) => bad.push(BadPragma {
                line: t.line,
                problem,
            }),
        }
    }
    (good, bad)
}

/// Whether a comment's text marks it as documentation (`///`, `//!`,
/// `/**`, `/*!`). `//// …` and `/***` are ordinary comments per the
/// reference, but treating them as docs here errs on the quiet side.
fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

/// Locates a pragma marker in a comment, returning its scope and the
/// text after the opening parenthesis. The `-item`/`-file` markers are
/// checked first: `lint:allow(` is not a prefix of either, but a typo
/// like `lint:allow-files(` should fall through to *no* pragma rather
/// than a mis-scoped one — and it does, matching none of the three.
fn find_pragma(text: &str) -> Option<(PragmaScope, &str)> {
    for (marker, scope) in [
        (PRAGMA_FILE, PragmaScope::File),
        (PRAGMA_ITEM, PragmaScope::Item),
        (PRAGMA_LINE, PragmaScope::Line),
    ] {
        if let Some(idx) = text.find(marker) {
            return Some((scope, &text[idx + marker.len()..]));
        }
    }
    None
}

/// Parses `rule-id[, rule-id]*): reason` — the tail of a pragma.
fn parse_pragma_body(body: &str) -> Result<(Vec<String>, String), String> {
    let Some((ids, rest)) = body.split_once(')') else {
        return Err("missing closing `)` after rule id(s)".to_string());
    };
    let rules: Vec<String> = ids
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("no rule id between the parentheses".to_string());
    }
    for r in &rules {
        if !crate::rules::RULE_IDS.contains(&r.as_str()) {
            return Err(format!(
                "unknown rule id `{r}` (known: {})",
                crate::rules::RULE_IDS.join(", ")
            ));
        }
    }
    let Some(reason) = rest.trim_start().strip_prefix(':') else {
        return Err("missing `: reason` after the rule id(s) — \
                    every allow must say why it is sound"
            .to_string());
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Err("empty reason — every allow must say why it is sound".to_string());
    }
    Ok((rules, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_and_file_names_come_from_the_path() {
        let f = SourceFile::analyze("crates/sim/src/fifo.rs", "fn main() {}");
        assert_eq!(f.crate_name, "sim");
        assert_eq!(f.file_name, "fifo.rs");
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let src = "fn lib() { work(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { boom(); }\n}\n";
        let f = SourceFile::analyze("crates/sim/src/x.rs", src);
        for (tok, masked) in f.tokens.iter().zip(&f.test_mask) {
            if let Some(id) = tok.tok.ident() {
                match id {
                    "lib" | "work" => assert!(!masked, "{id} wrongly masked"),
                    "tests" | "t" | "boom" => assert!(masked, "{id} not masked"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn test_attribute_with_more_attributes_between() {
        let src = "#[test]\n#[should_panic(expected = \"x\")]\nfn t() { boom(); }\nfn lib() {}\n";
        let f = SourceFile::analyze("crates/sim/src/x.rs", src);
        for (tok, masked) in f.tokens.iter().zip(&f.test_mask) {
            if let Some(id) = tok.tok.ident() {
                match id {
                    "boom" => assert!(masked),
                    "lib" => assert!(!masked),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn tests_dir_files_are_wholly_masked() {
        let f = SourceFile::analyze("crates/sim/tests/props.rs", "fn t() { boom(); }");
        assert!(f.test_mask.iter().all(|&m| m));
    }

    #[test]
    fn pragma_round_trips() {
        let src = "// lint:allow(panic-freedom): provably in range\nlet x = v[0];\n";
        let f = SourceFile::analyze("crates/sim/src/x.rs", src);
        assert_eq!(f.pragmas.len(), 1);
        assert!(f.bad_pragmas.is_empty());
        let p = &f.pragmas[0];
        assert_eq!(p.rules, vec!["panic-freedom"]);
        assert_eq!(p.reason, "provably in range");
        assert_eq!(p.scope, PragmaScope::Line);
        assert_eq!(f.allow_covering("panic-freedom", 2), Some(0));
        assert_eq!(f.allow_covering("panic-freedom", 3), None);
        assert_eq!(f.allow_covering("unsafe-audit", 2), None);
    }

    #[test]
    fn pragma_without_reason_is_rejected() {
        for bad in [
            "// lint:allow(panic-freedom)",
            "// lint:allow(panic-freedom):",
            "// lint:allow(panic-freedom):   ",
            "// lint:allow(): because",
            "// lint:allow(not-a-rule): because",
            "// lint:allow(panic-freedom because",
        ] {
            let f = SourceFile::analyze("crates/sim/src/x.rs", bad);
            assert!(f.pragmas.is_empty(), "{bad} parsed as good");
            assert_eq!(f.bad_pragmas.len(), 1, "{bad} not reported");
        }
    }

    #[test]
    fn file_scope_pragma_covers_everything() {
        let src = "// lint:allow-file(determinism): generator file, seeded RNG only\n\
                   fn a() {}\nfn b() {}\n";
        let f = SourceFile::analyze("crates/graph/src/x.rs", src);
        assert_eq!(f.pragmas[0].scope, PragmaScope::File);
        assert_eq!(f.allow_covering("determinism", 3), Some(0));
        assert_eq!(f.allow_covering("determinism", 999), Some(0));
    }

    #[test]
    fn item_pragma_covers_the_whole_next_item() {
        let src = "\
// lint:allow-item(hot-path-alloc): construction-time buffers
pub fn try_new(n: usize) -> Self {
    let a = Vec::new();
    let b = vec![0; n];
    Self { a, b }
}
fn after() { let c = Vec::new(); }
";
        let f = SourceFile::analyze("crates/sim/src/dram.rs", src);
        assert_eq!(f.pragmas[0].scope, PragmaScope::Item);
        for line in 2..=6 {
            assert_eq!(
                f.allow_covering("hot-path-alloc", line),
                Some(0),
                "line {line}"
            );
        }
        assert_eq!(
            f.allow_covering("hot-path-alloc", 7),
            None,
            "next item uncovered"
        );
    }

    #[test]
    fn item_pragma_covers_a_multiline_statement() {
        let src = "\
fn ctor() {
    // lint:allow-item(hot-path-alloc): built once at construction
    let buf = (0..n)
        .map(|_| Vec::new())
        .collect();
    let later = Vec::new();
}
";
        let f = SourceFile::analyze("crates/sim/src/dram.rs", src);
        for line in 3..=5 {
            assert_eq!(
                f.allow_covering("hot-path-alloc", line),
                Some(0),
                "line {line}"
            );
        }
        assert_eq!(f.allow_covering("hot-path-alloc", 6), None);
    }

    #[test]
    fn doc_comments_quoting_the_grammar_are_not_pragmas() {
        let src = "//! Write `// lint:allow(rule-id): reason` to allow.\nfn f() {}\n";
        let f = SourceFile::analyze("crates/lint/src/x.rs", src);
        assert!(f.pragmas.is_empty());
        assert!(f.bad_pragmas.is_empty());
    }

    #[test]
    fn trailing_pragma_covers_its_own_line() {
        let src = "let x = v.unwrap(); // lint:allow(panic-freedom): checked above\n";
        let f = SourceFile::analyze("crates/sim/src/x.rs", src);
        assert_eq!(f.allow_covering("panic-freedom", 1), Some(0));
    }
}
