//! Machine-readable benchmark reporting and the CI perf gate.
//!
//! `repro --json` records every figure it runs into a [`Report`] — a flat
//! map of dotted metric keys (`"table1.HiGraph.frequency_ghz"`,
//! `"shard.p4.cross_chip_packets"`, …) to numbers — and writes it to
//! `bench-report.json`. CI uploads that file as an artifact and gates the
//! job by comparing it against the checked-in `bench-baseline.json` with
//! [`check_against_baseline`].
//!
//! The workspace is hermetic (no crates.io, hence no `serde`), so this
//! module carries its own JSON writer and a deliberately minimal parser:
//! baselines are flat `{"key": number, …}` objects, nothing more. The
//! writer emits exactly that shape under the report's `"metrics"` key, so
//! promoting a report to a baseline is a `jq .metrics` away (or just a
//! copy — the checker only reads the keys it is given).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Relative deviation tolerated by the CI gate (10%).
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// A flat collection of named benchmark metrics plus the targets that
/// produced them. `BTreeMap` keeps the serialized output stable across
/// runs, so report diffs are meaningful.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Dotted metric key → value.
    pub metrics: BTreeMap<String, f64>,
    /// Repro targets that contributed to this report, in run order.
    pub targets: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records one metric under a dotted key.
    pub fn record(&mut self, key: impl Into<String>, value: f64) {
        self.metrics.insert(key.into(), value);
    }

    /// Notes that `target` ran (dedup-preserving insertion order).
    pub fn ran(&mut self, target: &str) {
        if !self.targets.iter().any(|t| t == target) {
            self.targets.push(target.to_string());
        }
    }

    /// Serializes the report: schema header, targets, flat metrics map.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 1,\n  \"targets\": [");
        for (i, t) in self.targets.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_json_string(&mut out, t);
        }
        out.push_str("],\n  \"metrics\": {\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            out.push_str("    ");
            write_json_string(&mut out, k);
            out.push_str(": ");
            write_json_number(&mut out, *v);
            if i + 1 < self.metrics.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Appends `s` to `out` as a JSON string literal (quotes and control
/// characters escaped). Shared with the `higraph-serve` binary, which
/// writes event lines in the same flat-JSON dialect.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn write_json_number(out: &mut String, v: f64) {
    if !v.is_finite() {
        // JSON has no Inf/NaN. `null` keeps the report parseable — the
        // parser reads it back as NaN, which the gate flags as a
        // violation rather than silently passing.
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Parses a flat JSON object of string keys to numbers — the baseline
/// format. Nested values, arrays, and booleans are rejected: a baseline
/// is a list of gated numbers, nothing else. `null` parses as NaN (the
/// writer's encoding of a non-finite metric), which the gate then flags.
///
/// # Errors
///
/// Returns a message naming the first offending byte offset, or the key
/// whose value is a string.
pub fn parse_flat_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
    parse_flat_json_values(text)?
        .into_iter()
        .map(|(key, value)| match value {
            JsonValue::Num(v) => Ok((key, v)),
            JsonValue::Str(_) => Err(format!("\"{key}\" is a string, not a number")),
        })
        .collect()
}

/// A scalar value in a flat JSON object. The number-only baseline format
/// uses [`parse_flat_json`]; `higraph-serve` job lines mix strings (ids,
/// dataset and algorithm names) with numbers (priorities, knobs) and go
/// through [`parse_flat_json_values`].
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string.
    Str(String),
    /// A JSON number (`null` reads back as NaN, as in the number parser).
    Num(f64),
}

impl JsonValue {
    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            JsonValue::Num(_) => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Str(_) => None,
            JsonValue::Num(v) => Some(*v),
        }
    }
}

/// Parses a flat JSON object whose values are strings *or* numbers — the
/// `higraph-serve` job-line shape. Nested objects, arrays, and booleans
/// are still rejected: the wire protocol is one flat object per line.
///
/// # Errors
///
/// Returns a message naming the first offending byte offset.
pub fn parse_flat_json_values(text: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let map = p.object_values()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(map)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn object_values(&mut self) -> Result<BTreeMap<String, JsonValue>, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            self.skip_ws();
            let value = if self.bytes.get(self.pos) == Some(&b'"') {
                JsonValue::Str(self.string()?)
            } else {
                JsonValue::Num(self.number()?)
            };
            if map.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key \"{key}\""));
            }
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(map);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    s.push(match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        _ => {
                            return Err(format!(
                                "unsupported escape '\\{}' at byte {}",
                                *esc as char, self.pos
                            ))
                        }
                    });
                    self.pos += 1;
                }
                Some(&b) => {
                    // keys are ASCII-dotted identifiers in practice, but
                    // pass UTF-8 through faithfully regardless
                    let start = self.pos;
                    let ch_len = utf8_len(b);
                    self.pos += ch_len;
                    s.push(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| format!("invalid UTF-8 at byte {start}"))?
                            .chars()
                            .next()
                            .ok_or("empty char".to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        // `null` is how the writer encodes a non-finite metric; read it
        // back as NaN so the gate can flag it instead of choking here.
        if self.bytes[self.pos..].starts_with(b"null") {
            self.pos += 4;
            return Ok(f64::NAN);
        }
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map_err(|_| format!("invalid number \"{text}\" at byte {start}"))
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

/// Restricts a baseline to the metrics of targets that actually ran.
///
/// Metric keys are dotted with the producing target as their first
/// segment (`"shard.p4.cycles"` ← target `shard`). A baseline may carry
/// keys for the whole sweep, while one invocation runs a subset of
/// targets (`repro table1 shard --check …`): keys whose leading segment
/// is a *known* target that did **not** run are dropped from gating, so
/// a partial run is not failed for metrics it never measured. Keys with
/// an unknown leading segment are kept — a stale or misspelled baseline
/// entry should fail the gate loudly, not vanish.
pub fn filter_baseline_to_targets(
    baseline: &BTreeMap<String, f64>,
    ran: &[String],
    known_targets: &[&str],
) -> BTreeMap<String, f64> {
    baseline
        .iter()
        .filter(|(key, _)| {
            let prefix = key.split('.').next().unwrap_or(key);
            !known_targets.contains(&prefix) || ran.iter().any(|t| t == prefix)
        })
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

/// Compares measured metrics against a baseline: every baseline key must
/// be present, finite, and within `tolerance` relative deviation. Returns
/// the list of human-readable violations (empty = gate passes). Metrics
/// absent from the baseline are not gated — the report may always grow.
pub fn check_against_baseline(
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
    tolerance: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (key, &expect) in baseline {
        match current.get(key) {
            None => violations.push(format!("{key}: missing from this run (baseline {expect})")),
            Some(&got) if !got.is_finite() => {
                violations.push(format!("{key}: non-finite value {got} (baseline {expect})"))
            }
            Some(&got) => {
                let denom = expect.abs().max(f64::EPSILON);
                let deviation = (got - expect).abs() / denom;
                // a NaN deviation (corrupt baseline value) must fail the
                // gate, not slip past the comparison
                if deviation.is_nan() || deviation > tolerance {
                    violations.push(format!(
                        "{key}: {got} deviates {:.1}% from baseline {expect} (tolerance {:.0}%)",
                        deviation * 100.0,
                        tolerance * 100.0
                    ));
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_the_parser() {
        let mut r = Report::new();
        r.ran("table1");
        r.ran("shard");
        r.ran("table1"); // dedup
        r.record("table1.HiGraph.frequency_ghz", 1.0);
        r.record("shard.p4.cross_chip_packets", 12345.0);
        r.record("batch.HiGraph.gteps", 14.25);
        let json = r.to_json();
        assert_eq!(r.targets, ["table1", "shard"]);
        // the metrics sub-object is itself flat parseable
        let metrics_obj = json
            .split("\"metrics\": ")
            .nth(1)
            .unwrap()
            .trim_end()
            .trim_end_matches('}')
            .trim_end();
        let parsed = parse_flat_json(metrics_obj).expect("parses");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed["shard.p4.cross_chip_packets"], 12345.0);
        assert_eq!(parsed["batch.HiGraph.gteps"], 14.25);
    }

    #[test]
    fn parser_accepts_baseline_shape() {
        let m = parse_flat_json("{\n  \"a.b\": 1,\n  \"c\": -2.5e3,\n  \"d e\": 0.125\n}\n")
            .expect("valid");
        assert_eq!(m["a.b"], 1.0);
        assert_eq!(m["c"], -2500.0);
        assert_eq!(m["d e"], 0.125);
        assert!(parse_flat_json("{}").expect("empty ok").is_empty());
    }

    #[test]
    fn parser_rejects_non_flat_input() {
        assert!(parse_flat_json("{\"a\": {\"b\": 1}}").is_err());
        assert!(parse_flat_json("{\"a\": [1]}").is_err());
        assert!(parse_flat_json("{\"a\": true}").is_err());
        assert!(parse_flat_json("{\"a\": 1} trailing").is_err());
        assert!(parse_flat_json("{\"a\": 1, \"a\": 2}").is_err());
        assert!(parse_flat_json("").is_err());
    }

    #[test]
    fn value_parser_mixes_strings_and_numbers() {
        let m = parse_flat_json_values(
            "{\"op\": \"submit\", \"id\": \"a\", \"priority\": 5, \"divisor\": 64}",
        )
        .expect("valid job line");
        assert_eq!(m["op"].as_str(), Some("submit"));
        assert_eq!(m["priority"].as_f64(), Some(5.0));
        assert_eq!(m["op"].as_f64(), None);
        assert_eq!(m["priority"].as_str(), None);
        assert!(parse_flat_json_values("{\"a\": [1]}").is_err());
        assert!(parse_flat_json_values("{\"a\": {\"b\": 1}}").is_err());
        assert!(parse_flat_json_values("{\"a\": 1, \"a\": \"x\"}").is_err());
        assert!(parse_flat_json_values("{\"a\": \"x\"} junk").is_err());
    }

    #[test]
    fn gate_flags_deviation_and_missing_keys() {
        let mut base = BTreeMap::new();
        base.insert("x".to_string(), 100.0);
        base.insert("y".to_string(), 1.0);
        let mut cur = BTreeMap::new();
        cur.insert("x".to_string(), 109.0); // 9% — within tolerance
        let v = check_against_baseline(&cur, &base, DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}"); // only y missing
        assert!(v[0].contains("y"));
        cur.insert("x".to_string(), 111.0); // 11% — out
        cur.insert("y".to_string(), 1.0);
        let v = check_against_baseline(&cur, &base, DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("x"));
        // extra current metrics are never gated
        cur.insert("x".to_string(), 100.0);
        cur.insert("z".to_string(), 9.9);
        assert!(check_against_baseline(&cur, &base, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn gate_flags_non_finite_values() {
        let mut base = BTreeMap::new();
        base.insert("x".to_string(), 100.0);
        let mut cur = BTreeMap::new();
        cur.insert("x".to_string(), f64::NAN);
        let v = check_against_baseline(&cur, &base, DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("non-finite"), "{v:?}");
        // a corrupt (NaN) baseline value also fails rather than passing
        base.insert("x".to_string(), f64::NAN);
        cur.insert("x".to_string(), 100.0);
        let v = check_against_baseline(&cur, &base, DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
        // and a null in a parsed report reads back as NaN end-to-end
        let parsed = parse_flat_json("{\"x\": null}").expect("null parses");
        assert!(parsed["x"].is_nan());
        let v = check_against_baseline(&parsed, &base, DEFAULT_TOLERANCE);
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn baseline_filter_scopes_to_ran_targets() {
        let known = ["table1", "shard", "mem"];
        let mut base = BTreeMap::new();
        base.insert("table1.HiGraph.frequency_ghz".to_string(), 1.0);
        base.insert("shard.p4.cycles".to_string(), 100.0);
        base.insert("mem.c16.cache_hit_rate".to_string(), 0.5);
        base.insert("stale.key".to_string(), 9.0);
        let ran = vec!["table1".to_string(), "shard".to_string()];
        let gated = filter_baseline_to_targets(&base, &ran, &known);
        // mem didn't run → its keys are not gated; unknown keys stay
        assert!(gated.contains_key("table1.HiGraph.frequency_ghz"));
        assert!(gated.contains_key("shard.p4.cycles"));
        assert!(!gated.contains_key("mem.c16.cache_hit_rate"));
        assert!(gated.contains_key("stale.key"));
        // with mem run, its keys gate again
        let all = vec!["table1".into(), "shard".into(), "mem".into()];
        assert_eq!(filter_baseline_to_targets(&base, &all, &known).len(), 4);
    }

    #[test]
    fn round_trip_preserves_formerly_nan_metric_after_fix() {
        // Before the finiteness fixes a degenerate run serialized e.g.
        // gteps as null; now the same metric is a finite 0 and survives
        // the writer → parser → gate round trip.
        let mut r = Report::new();
        r.ran("mem");
        r.record("mem.degenerate.gteps", 0.0); // formerly NaN
        r.record("mem.c16.cache_hit_rate", 0.75);
        let json = r.to_json();
        assert!(!json.contains("null"), "fixed metrics serialize as numbers");
        let metrics_obj = json
            .split("\"metrics\": ")
            .nth(1)
            .unwrap()
            .trim_end()
            .trim_end_matches('}')
            .trim_end();
        let parsed = parse_flat_json(metrics_obj).expect("parses");
        assert_eq!(parsed["mem.degenerate.gteps"], 0.0);
        // gating such a report against itself passes
        assert!(check_against_baseline(&parsed, &parsed.clone(), DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn numbers_serialize_compactly() {
        let mut s = String::new();
        write_json_number(&mut s, 3.0);
        assert_eq!(s, "3");
        s.clear();
        write_json_number(&mut s, 0.5);
        assert_eq!(s, "0.5");
        s.clear();
        write_json_number(&mut s, f64::INFINITY);
        assert_eq!(s, "null");
    }
}
