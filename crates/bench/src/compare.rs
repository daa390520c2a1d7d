//! Baseline comparison for the CI perf-regression gate.
//!
//! The perf-snapshot CI job writes one `BENCH_*.json` report per harness
//! mode (see [`crate::JsonReport`]); committed baselines live in
//! `bench/baselines/`.  The `table_harness compare` subcommand parses both
//! documents with the wire protocol's JSON codec ([`Json`]), matches rows
//! positionally (reports are deterministic), and flags:
//!
//! * any **integer** field that changed at all — launch, rendezvous, job and
//!   monomial counts are deterministic, so any drift is a structural change
//!   that needs a baseline update;
//! * any **timing** field (`*_ms`) that regressed beyond the tolerance —
//!   timings are machine-dependent, so the gate only fails when the current
//!   value exceeds `baseline * (1 + tolerance_pct / 100)` by more than an
//!   absolute 5 ms floor (sub-millisecond rows are below the timing
//!   resolution of a shared CI runner).
//!
//! Timing improvements and in-tolerance noise pass; a failing gate is
//! overridden by regenerating the baseline or by the documented CI label.

use psmd_serve::json::Json;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One detected regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Row index and identity (the row's string fields).
    pub row: String,
    /// The offending field.
    pub field: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Human-readable reason.
    pub reason: String,
}

/// The outcome of comparing a current report against a baseline.
#[derive(Debug, Clone, Default)]
pub struct CompareSummary {
    /// Fields checked in total.
    pub checked: usize,
    /// Timing fields within tolerance (including improvements).
    pub passed: usize,
    /// Detected regressions, in row order.
    pub regressions: Vec<Regression>,
}

impl CompareSummary {
    /// True when no regression was found.
    pub fn is_pass(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Renders the summary as a report block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "checked {} fields: {} ok, {} regressed",
            self.checked,
            self.passed,
            self.regressions.len()
        );
        for r in &self.regressions {
            let _ = writeln!(
                out,
                "  REGRESSION {} / {}: baseline {} -> current {} ({})",
                r.row, r.field, r.baseline, r.current, r.reason
            );
        }
        out
    }
}

/// True for fields whose values are machine-dependent timings — higher is
/// worse, compared with tolerance.  Everything else numeric is treated as a
/// deterministic count and compared exactly, except [`is_ignored_field`].
fn is_timing_field(name: &str) -> bool {
    name.ends_with("_ms")
}

/// Derived ratio fields (higher is *better*, and machine-dependent): not
/// gated at all — the underlying `*_ms` fields carry the signal, and an
/// exact or higher-is-worse comparison would both misfire on them.
fn is_ignored_field(name: &str) -> bool {
    name == "speedup" || name.ends_with("_speedup")
}

/// Identity of a row: its string-valued fields plus the standard integer
/// identity fields, for readable diagnostics.
fn row_identity(row: &Json, index: usize) -> String {
    let mut parts = vec![format!("row {index}")];
    if let Json::Obj(fields) = row {
        for (k, v) in fields {
            match v {
                Json::Str(s) => parts.push(format!("{k}={s}")),
                Json::Num(x) if matches!(k.as_str(), "degree" | "batch" | "equations") => {
                    parts.push(format!("{k}={x}"))
                }
                _ => {}
            }
        }
    }
    parts.join(" ")
}

/// Compares a current [`crate::JsonReport`] document against a baseline.
///
/// Rows are matched positionally (the harness emits them deterministically);
/// a row-count or command mismatch is reported as a regression of its own
/// (the baseline must be regenerated when the report schema changes).
/// `tolerance_pct` applies to `*_ms` timing fields; deterministic integer
/// fields must match exactly.  Timing fields missing from either side are
/// ignored; count fields present in the baseline must exist in the current
/// report.
pub fn compare_reports(
    baseline: &str,
    current: &str,
    tolerance_pct: f64,
) -> Result<CompareSummary, String> {
    let base = Json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur = Json::parse(current).map_err(|e| format!("current: {e}"))?;
    let mut summary = CompareSummary::default();
    let base_cmd = base.get("command").and_then(Json::as_str).unwrap_or("");
    let cur_cmd = cur.get("command").and_then(Json::as_str).unwrap_or("");
    if base_cmd != cur_cmd {
        return Err(format!(
            "command mismatch: baseline '{base_cmd}' vs current '{cur_cmd}'"
        ));
    }
    let base_rows = base
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("baseline has no rows array")?;
    let cur_rows = cur
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("current has no rows array")?;
    if base_rows.len() != cur_rows.len() {
        return Err(format!(
            "row count mismatch: baseline {} vs current {} (regenerate the baseline)",
            base_rows.len(),
            cur_rows.len()
        ));
    }
    for (i, (b_row, c_row)) in base_rows.iter().zip(cur_rows.iter()).enumerate() {
        let identity = row_identity(b_row, i);
        let Json::Obj(b_fields) = b_row else {
            return Err(format!("baseline row {i} is not an object"));
        };
        let keys: BTreeSet<&String> = b_fields.iter().map(|(k, _)| k).collect();
        for key in keys {
            if is_ignored_field(key) {
                continue;
            }
            let Some(b_val) = b_row.get(key).and_then(Json::as_f64) else {
                continue; // identity / text field
            };
            let c_val = c_row.get(key).and_then(Json::as_f64);
            summary.checked += 1;
            if is_timing_field(key) {
                let Some(c_val) = c_val else {
                    summary.passed += 1; // timing dropped from the report
                    continue;
                };
                // Percentage tolerance plus an absolute 5 ms floor:
                // sub-millisecond rows are below the timing resolution of a
                // shared CI runner and must not flap the gate.
                let limit = (b_val * (1.0 + tolerance_pct / 100.0)).max(b_val + 5.0);
                if c_val > limit {
                    summary.regressions.push(Regression {
                        row: identity.clone(),
                        field: key.clone(),
                        baseline: b_val,
                        current: c_val,
                        reason: format!(
                            "exceeds baseline by more than {tolerance_pct}% (limit {limit:.3})"
                        ),
                    });
                } else {
                    summary.passed += 1;
                }
            } else {
                // Deterministic count: exact match required.
                match c_val {
                    Some(c_val) if c_val == b_val => summary.passed += 1,
                    Some(c_val) => summary.regressions.push(Regression {
                        row: identity.clone(),
                        field: key.clone(),
                        baseline: b_val,
                        current: c_val,
                        reason: "deterministic count changed (regenerate the baseline if \
                                 intentional)"
                            .to_string(),
                    }),
                    None => summary.regressions.push(Regression {
                        row: identity.clone(),
                        field: key.clone(),
                        baseline: b_val,
                        current: f64::NAN,
                        reason: "field missing from the current report".to_string(),
                    }),
                }
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{"command": "engine", "rows": [
        {"poly": "p1", "degree": 8, "compile_ms": 10.0, "mean_eval_ms": 5.0, "rendezvous_per_eval": 1},
        {"poly": "p2", "degree": 8, "compile_ms": 20.0, "mean_eval_ms": 9.0, "rendezvous_per_eval": 1}]}"#;

    #[test]
    fn parser_round_trips_a_report() {
        let mut report = crate::JsonReport::new("engine");
        report.add_row(vec![
            ("poly", Json::Str("p1".to_string())),
            ("degree", Json::Num(8.0)),
            ("mean_eval_ms", Json::Num(5.0)),
        ]);
        let doc = Json::parse(&report.render()).unwrap();
        assert_eq!(doc.get("command").and_then(Json::as_str), Some("engine"));
        let rows = doc.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("poly").and_then(Json::as_str), Some("p1"));
        assert_eq!(
            rows[0].get("mean_eval_ms").and_then(Json::as_f64),
            Some(5.0)
        );
        // A rendered report compares clean against the hand-written text of
        // the same values (whitespace does not matter).
        let text =
            r#"{"command": "engine", "rows": [{"poly": "p1", "degree": 8, "mean_eval_ms": 5.0}]}"#;
        assert!(compare_reports(text, &report.render(), 0.0)
            .unwrap()
            .is_pass());
    }

    #[test]
    fn parser_handles_escapes_null_and_nesting() {
        // Text, null and nested fields are identity, not gated values.
        let base =
            r#"{"command": "x", "rows": [{"a": "x\"y\\z\nw", "b": null, "c": [1, true], "n": 3}]}"#;
        let summary = compare_reports(base, base, 10.0).unwrap();
        assert!(summary.is_pass());
        assert_eq!(summary.checked, 1);
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["{", "[1, 2", "{\"a\": 1} trailing", "nope"] {
            assert!(compare_reports(bad, BASE, 10.0).is_err(), "{bad}");
            assert!(compare_reports(BASE, bad, 10.0).is_err(), "{bad}");
        }
    }

    #[test]
    fn identical_reports_pass() {
        let summary = compare_reports(BASE, BASE, 10.0).unwrap();
        assert!(summary.is_pass());
        assert_eq!(summary.checked, summary.passed);
    }

    #[test]
    fn timing_within_tolerance_and_improvements_pass() {
        let current = BASE
            .replace("\"compile_ms\": 10.0", "\"compile_ms\": 10.9")
            .replace("\"mean_eval_ms\": 5.0", "\"mean_eval_ms\": 1.0");
        let summary = compare_reports(BASE, &current, 10.0).unwrap();
        assert!(summary.is_pass(), "{}", summary.render());
    }

    #[test]
    fn timing_regression_beyond_tolerance_fails() {
        let current = BASE.replace("\"mean_eval_ms\": 5.0", "\"mean_eval_ms\": 50.0");
        let summary = compare_reports(BASE, &current, 25.0).unwrap();
        assert!(!summary.is_pass());
        assert_eq!(summary.regressions.len(), 1);
        assert_eq!(summary.regressions[0].field, "mean_eval_ms");
        assert!(summary.regressions[0].row.contains("p1"));
    }

    #[test]
    fn deterministic_count_drift_fails_regardless_of_tolerance() {
        let current = BASE.replace(
            "\"rendezvous_per_eval\": 1}]",
            "\"rendezvous_per_eval\": 3}]",
        );
        let summary = compare_reports(BASE, &current, 1000.0).unwrap();
        assert!(!summary.is_pass());
        assert_eq!(summary.regressions[0].field, "rendezvous_per_eval");
    }

    #[test]
    fn speedup_ratio_fields_are_not_gated_in_either_direction() {
        // Higher-is-better ratios carry no independent signal (the *_ms
        // fields are gated); neither an improvement nor a drop may trip the
        // gate, and exact matching must not apply to them either.
        let base = r#"{"command": "engine", "rows": [{"poly": "p1", "compile_ms": 10.0, "speedup": 1.4}]}"#;
        let better = base.replace("1.4", "7.0");
        let worse = base.replace("1.4", "0.1");
        assert!(compare_reports(base, &better, 10.0).unwrap().is_pass());
        assert!(compare_reports(base, &worse, 10.0).unwrap().is_pass());
    }

    #[test]
    fn row_count_and_command_mismatches_are_errors() {
        let fewer = r#"{"command": "engine", "rows": [{"poly": "p1"}]}"#;
        assert!(compare_reports(BASE, fewer, 10.0).is_err());
        let other = BASE.replace("\"command\": \"engine\"", "\"command\": \"batch\"");
        assert!(compare_reports(BASE, &other, 10.0).is_err());
    }

    #[test]
    fn missing_count_field_fails() {
        let current = BASE.replace(", \"rendezvous_per_eval\": 1}]", "}]");
        let summary = compare_reports(BASE, &current, 10.0).unwrap();
        assert!(!summary.is_pass());
        assert!(summary.regressions[0].reason.contains("missing"));
    }
}
