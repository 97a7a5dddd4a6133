//! `sibylfs bench-diff`: compare two bench-result JSON files and gate CI on
//! performance regressions.
//!
//! The input files are what the bench harness emits when run with
//! `SIBYLFS_BENCH_JSON=<path>`: a JSON array of flat records
//! `{"name": …, "ns_per_iter": …, "iters": …, "elems_per_sec": …, "mode": …}`.
//! The workspace carries no JSON dependency, so the exact emission grammar is
//! parsed by hand here — flat objects whose values are strings, numbers,
//! booleans or `null`; nothing nested.
//!
//! Only the **gated** benches fail the diff: the end-to-end checker
//! throughput (`check_throughput/…`), the τ-closure internals
//! (`tau_closure_…`), the reduced contention checks
//! (`check_contention/…/por`), the oracle-server load generator
//! (`serve_loadgen/…`), and the execution pipeline (`exec_pipeline/…`).
//! Everything else is reported but informational, so a noisy micro-bench
//! cannot block an unrelated change.
//!
//! Records whose `mode` is not `"timed"` (smoke runs) carry meaningless
//! timings and are ignored. When a file holds several appended runs of the
//! same bench, the most recent record wins.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One timed measurement from a bench-results file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Fully qualified bench id, e.g. `check_throughput/workers/4`.
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// `"timed"` or `"smoke"`.
    pub mode: String,
}

/// One scalar value inside a bench record object.
enum Scalar {
    Str(String),
    Num(f64),
    Null,
}

struct Cursor<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Cursor<'a> {
        Cursor { s: s.as_bytes(), i: 0 }
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == b => {
                self.i += 1;
                Ok(())
            }
            got => Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.i,
                got.map(|g| g as char)
            )),
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.i).copied() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    // The emitter only escapes quotes and backslashes in
                    // bench names; pass anything else through literally.
                    self.i += 1;
                    if let Some(escaped) = self.s.get(self.i).copied() {
                        out.push(escaped as char);
                        self.i += 1;
                    }
                }
                Some(b) => {
                    out.push(b as char);
                    self.i += 1;
                }
            }
        }
    }

    fn scalar(&mut self) -> Result<Scalar, String> {
        match self.peek() {
            Some(b'"') => Ok(Scalar::Str(self.string()?)),
            Some(b'n') => self.keyword("null", Scalar::Null),
            Some(b't') => self.keyword("true", Scalar::Num(1.0)),
            Some(b'f') => self.keyword("false", Scalar::Num(0.0)),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                text.parse::<f64>().map(Scalar::Num).map_err(|e| format!("bad number {text:?}: {e}"))
            }
            got => Err(format!("unexpected {:?} at byte {}", got.map(|g| g as char), self.i)),
        }
    }

    fn keyword(&mut self, word: &str, value: Scalar) -> Result<Scalar, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected token at byte {}", self.i))
        }
    }
}

/// Parse a bench-results file: a JSON array of flat record objects.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let mut c = Cursor::new(text);
    let mut records = Vec::new();
    c.expect(b'[')?;
    if !c.eat(b']') {
        loop {
            c.expect(b'{')?;
            let mut name = None;
            let mut ns = None;
            let mut mode = None;
            if !c.eat(b'}') {
                loop {
                    let key = c.string()?;
                    c.expect(b':')?;
                    let value = c.scalar()?;
                    match (key.as_str(), value) {
                        ("name", Scalar::Str(s)) => name = Some(s),
                        ("mode", Scalar::Str(s)) => mode = Some(s),
                        ("ns_per_iter", Scalar::Num(n)) => ns = Some(n),
                        // iters / elems_per_sec and any future fields are
                        // irrelevant to the diff.
                        _ => {}
                    }
                    if !c.eat(b',') {
                        break;
                    }
                }
                c.expect(b'}')?;
            }
            match (name, ns) {
                (Some(name), Some(ns_per_iter)) => records.push(BenchRecord {
                    name,
                    ns_per_iter,
                    mode: mode.unwrap_or_else(|| "timed".to_string()),
                }),
                _ => return Err("record missing \"name\" or \"ns_per_iter\"".to_string()),
            }
            if !c.eat(b',') {
                break;
            }
        }
        c.expect(b']')?;
    }
    Ok(records)
}

/// Whether a bench participates in the regression gate. Of the contention
/// checks only the `…/por` rows are gated: a family that stops reducing
/// dispatches as many calls as full expansion and slows down there. Rows
/// with any other suffix (older records also hold unreduced rows) are
/// informational.
pub fn is_gated(name: &str) -> bool {
    name.starts_with("check_throughput")
        || name.starts_with("tau_closure_")
        || (name.starts_with("check_contention/") && name.ends_with("/por"))
        || name.starts_with("serve_loadgen/")
        || name.starts_with("exec_pipeline/")
}

/// One compared bench in a [`DiffReport`].
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Bench id.
    pub name: String,
    /// Nanoseconds per iteration in the old (baseline) file.
    pub old_ns: f64,
    /// Nanoseconds per iteration in the new file.
    pub new_ns: f64,
    /// Relative change in percent; positive = slower.
    pub delta_pct: f64,
    /// Whether this bench participates in the gate.
    pub gated: bool,
}

/// The outcome of comparing two bench-results files.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Benches present (and timed) in both files, sorted by name.
    pub rows: Vec<DiffRow>,
    /// Gated benches that regressed beyond the threshold.
    pub failures: Vec<String>,
    /// Timed benches present only in the baseline.
    pub missing_in_new: Vec<String>,
    /// Timed benches present only in the new file.
    pub only_in_new: Vec<String>,
}

/// Keep the most recent timed record per bench name.
fn latest_timed(records: &[BenchRecord]) -> BTreeMap<&str, f64> {
    let mut out = BTreeMap::new();
    for r in records {
        if r.mode == "timed" {
            out.insert(r.name.as_str(), r.ns_per_iter);
        }
    }
    out
}

/// Compare two runs; gated benches slower by more than `max_regression_pct`
/// percent become failures.
pub fn diff_benches(
    old: &[BenchRecord],
    new: &[BenchRecord],
    max_regression_pct: f64,
) -> DiffReport {
    let old = latest_timed(old);
    let new = latest_timed(new);
    let mut report = DiffReport::default();
    for (name, old_ns) in &old {
        match new.get(name) {
            None => report.missing_in_new.push((*name).to_string()),
            Some(new_ns) => {
                let delta_pct =
                    if *old_ns > 0.0 { (new_ns - old_ns) / old_ns * 100.0 } else { 0.0 };
                let gated = is_gated(name);
                if gated && delta_pct > max_regression_pct {
                    report.failures.push(format!(
                        "{name}: {:.0} ns → {:.0} ns ({delta_pct:+.1}%, limit {max_regression_pct:+.1}%)",
                        old_ns, new_ns
                    ));
                }
                report.rows.push(DiffRow {
                    name: (*name).to_string(),
                    old_ns: *old_ns,
                    new_ns: *new_ns,
                    delta_pct,
                    gated,
                });
            }
        }
    }
    for name in new.keys() {
        if !old.contains_key(name) {
            report.only_in_new.push((*name).to_string());
        }
    }
    report
}

/// Human-readable rendering of a diff (markdown-ish table plus notes).
pub fn render_diff(report: &DiffReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:55} {:>14} {:>14} {:>9}  gate", "bench", "old ns", "new ns", "delta");
    for row in &report.rows {
        let _ = writeln!(
            out,
            "{:55} {:>14.0} {:>14.0} {:>+8.1}%  {}",
            row.name,
            row.old_ns,
            row.new_ns,
            row.delta_pct,
            if row.gated { "yes" } else { "-" }
        );
    }
    for name in &report.missing_in_new {
        let _ = writeln!(out, "note: {name} is in the baseline but not in the new results");
    }
    for name in &report.only_in_new {
        let _ = writeln!(out, "note: {name} is new (no baseline)");
    }
    if report.failures.is_empty() {
        let _ = writeln!(out, "gate: ok ({} benches compared)", report.rows.len());
    } else {
        let _ = writeln!(out, "gate: FAILED");
        for f in &report.failures {
            let _ = writeln!(out, "  regression: {f}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
      {"name": "check_throughput/workers/1", "ns_per_iter": 20000000, "iters": 10, "elems_per_sec": 17296.5, "mode": "timed"},
      {"name": "tau_closure_three_processes", "ns_per_iter": 70510, "iters": 20, "elems_per_sec": null, "mode": "timed"},
      {"name": "resolve_preparsed", "ns_per_iter": 471, "iters": 20, "elems_per_sec": null, "mode": "timed"}
    ]"#;

    #[test]
    fn parses_the_emitted_format() {
        let records = parse_bench_json(SAMPLE).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name, "check_throughput/workers/1");
        assert_eq!(records[0].ns_per_iter, 20_000_000.0);
        assert_eq!(records[1].mode, "timed");
    }

    #[test]
    fn parses_empty_array_and_rejects_garbage() {
        assert_eq!(parse_bench_json("[]").unwrap(), Vec::new());
        assert!(parse_bench_json("").is_err());
        assert!(parse_bench_json("[{\"name\": \"x\"}]").is_err(), "missing ns_per_iter");
        assert!(parse_bench_json("[{]").is_err());
    }

    #[test]
    fn duplicate_names_keep_the_latest_record() {
        let text = r#"[
          {"name": "tau_closure_three_processes", "ns_per_iter": 100, "iters": 20, "elems_per_sec": null, "mode": "timed"},
          {"name": "tau_closure_three_processes", "ns_per_iter": 50, "iters": 20, "elems_per_sec": null, "mode": "timed"}
        ]"#;
        let records = parse_bench_json(text).unwrap();
        let report = diff_benches(&records, &records, 10.0);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].old_ns, 50.0);
    }

    #[test]
    fn smoke_records_are_ignored() {
        let text = r#"[
          {"name": "tau_closure_three_processes", "ns_per_iter": 1, "iters": 1, "elems_per_sec": null, "mode": "smoke"}
        ]"#;
        let records = parse_bench_json(text).unwrap();
        let report = diff_benches(&records, &records, 10.0);
        assert!(report.rows.is_empty());
    }

    #[test]
    fn gated_regression_fails_ungated_does_not() {
        let old = parse_bench_json(SAMPLE).unwrap();
        let new = parse_bench_json(
            r#"[
          {"name": "check_throughput/workers/1", "ns_per_iter": 23000000, "iters": 10, "elems_per_sec": 15000.0, "mode": "timed"},
          {"name": "tau_closure_three_processes", "ns_per_iter": 70000, "iters": 20, "elems_per_sec": null, "mode": "timed"},
          {"name": "resolve_preparsed", "ns_per_iter": 4710, "iters": 20, "elems_per_sec": null, "mode": "timed"}
        ]"#,
        )
        .unwrap();
        let report = diff_benches(&old, &new, 10.0);
        // check_throughput regressed 15% (gated, fails); resolve_preparsed
        // regressed 10x (ungated, informational only).
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("check_throughput/workers/1"));
        let rendered = render_diff(&report);
        assert!(rendered.contains("gate: FAILED"));
        assert!(rendered.contains("resolve_preparsed"));
    }

    #[test]
    fn reduced_contention_rows_are_gated_unreduced_are_not() {
        assert!(is_gated("check_contention/rename_storm_p6/por"));
        assert!(is_gated("check_contention/drbh_p4/por"));
        assert!(!is_gated("check_contention/drbh_p4/unreduced"));
    }

    #[test]
    fn improvement_and_small_regression_pass() {
        let old = parse_bench_json(SAMPLE).unwrap();
        let new = parse_bench_json(
            r#"[
          {"name": "check_throughput/workers/1", "ns_per_iter": 21000000, "iters": 10, "elems_per_sec": 16000.0, "mode": "timed"},
          {"name": "tau_closure_three_processes", "ns_per_iter": 25000, "iters": 20, "elems_per_sec": null, "mode": "timed"}
        ]"#,
        )
        .unwrap();
        let report = diff_benches(&old, &new, 10.0);
        assert!(report.failures.is_empty());
        assert_eq!(report.missing_in_new, vec!["resolve_preparsed".to_string()]);
        assert!(render_diff(&report).contains("gate: ok"));
    }
}
