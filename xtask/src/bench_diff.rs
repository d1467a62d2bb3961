//! `cargo xtask bench-diff <baseline> <candidate>` — the bench-history
//! regression gate.
//!
//! Compares two schema-versioned `BENCH_<name>.json` reports (or two
//! directories of them) metric by metric against a fixed gate table and
//! exits nonzero when the candidate regresses past a per-metric tolerance.
//! Committed baselines under `bench_baselines/` plus this command give CI a
//! cheap, deterministic perf trajectory check: the simulator is seeded, so
//! an honest candidate reproduces the baseline byte-for-byte and any drift
//! is a real modeling change, not noise.
//!
//! Verdict rules:
//!
//! * `schema` and `ranks` must match exactly — a report from a different
//!   schema generation or topology is not comparable, and silently
//!   comparing it would launder a regression.
//! * `converged` may not go `true` → `false`.
//! * Scalar gates flag a regression iff the candidate is worse than
//!   `baseline · (1 ± tol) ∓ 1e-12` in the metric's bad direction (the
//!   epsilon absorbs float formatting round-trips at zero).
//! * `extras` and candidate-only reports are informational — printed,
//!   never gating, so new telemetry can land before its baseline does —
//!   **except** the recovery-cost split (`recovery_waste`,
//!   `recovery_backoff`), which gates at +15% when both sides carry it.
//! * A baseline report with no candidate counterpart **fails** — losing a
//!   benchmark silently is itself a regression.

use std::fmt;
use std::fs;
use std::path::Path;

use shrinksvm_obs::json::{parse, Value};

/// Absolute slack added on top of the relative tolerance so metrics that
/// are exactly zero in both reports never trip the gate on formatting.
const ABS_EPS: f64 = 1e-12;

/// One gated scalar metric.
struct Gate {
    key: &'static str,
    /// Allowed relative drift in the bad direction.
    tol_frac: f64,
    /// `true`: larger is a regression (times, iterations).
    /// `false`: smaller is a regression (speedups).
    higher_is_worse: bool,
}

/// The gate table. Tolerances are deliberately loose for the noisy
/// decomposition metrics (idle redistributes between ranks when the
/// schedule shifts) and tight for the headline makespan.
const GATES: &[Gate] = &[
    Gate {
        key: "modeled_time",
        tol_frac: 0.10,
        higher_is_worse: true,
    },
    Gate {
        key: "compute_time",
        tol_frac: 0.15,
        higher_is_worse: true,
    },
    Gate {
        key: "transfer_time",
        tol_frac: 0.15,
        higher_is_worse: true,
    },
    Gate {
        key: "idle_time",
        tol_frac: 0.25,
        higher_is_worse: true,
    },
    Gate {
        key: "iterations",
        tol_frac: 0.10,
        higher_is_worse: true,
    },
    Gate {
        key: "speedup_vs_original",
        tol_frac: 0.10,
        higher_is_worse: false,
    },
];

/// Gated `extras` keys. Most extras are informational so new telemetry
/// can land before its baseline does, but the recovery-cost split is a
/// correctness-adjacent budget: silently growing re-executed work or
/// ladder backoff is exactly the drift the chaos benches exist to catch.
const GATED_EXTRAS: &[Gate] = &[
    Gate {
        key: "recovery_waste",
        tol_frac: 0.15,
        higher_is_worse: true,
    },
    Gate {
        key: "recovery_backoff",
        tol_frac: 0.15,
        higher_is_worse: true,
    },
    // The communication-wall budget: the collective rounds each iteration
    // pays. Growing it past 10% silently undoes the message fusion.
    Gate {
        key: "collective_rounds_per_iter",
        tol_frac: 0.10,
        higher_is_worse: true,
    },
];

/// Severity of one comparison line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (includes improvements).
    Ok,
    /// Not gated — extras, new reports, missing optional metrics.
    Info,
    /// Past tolerance in the bad direction, or a hard-rule violation.
    Regression,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Ok => write!(f, "ok"),
            Verdict::Info => write!(f, "info"),
            Verdict::Regression => write!(f, "REGRESSION"),
        }
    }
}

/// One metric comparison.
#[derive(Debug)]
pub struct DiffLine {
    /// `<report>/<metric>` label.
    pub metric: String,
    pub verdict: Verdict,
    /// Human-readable `base -> cand (delta)` text.
    pub detail: String,
}

impl fmt::Display for DiffLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<46} {:<10} {}",
            self.metric, self.verdict, self.detail
        )
    }
}

/// Full outcome of one bench-diff invocation.
#[derive(Debug, Default)]
pub struct DiffReport {
    pub lines: Vec<DiffLine>,
}

impl DiffReport {
    /// All lines that gate the exit code.
    pub fn regressions(&self) -> Vec<&DiffLine> {
        self.lines
            .iter()
            .filter(|l| l.verdict == Verdict::Regression)
            .collect()
    }

    /// The gate table as deterministic JSON (schema
    /// `shrinksvm-benchdiff/v1`), so CI can annotate job summaries
    /// without scraping the text output.
    pub fn to_json(&self) -> String {
        use shrinksvm_obs::json::escape_into;
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\":\"shrinksvm-benchdiff/v1\",\"regressions\":");
        out.push_str(&self.regressions().len().to_string());
        out.push_str(",\"checked\":");
        out.push_str(&self.lines.len().to_string());
        out.push_str(",\"lines\":[");
        for (i, l) in self.lines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"metric\":");
            escape_into(&mut out, &l.metric);
            out.push_str(",\"verdict\":");
            escape_into(
                &mut out,
                match l.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Info => "info",
                    Verdict::Regression => "regression",
                },
            );
            out.push_str(",\"detail\":");
            escape_into(&mut out, &l.detail);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    fn push(&mut self, metric: String, verdict: Verdict, detail: String) {
        self.lines.push(DiffLine {
            metric,
            verdict,
            detail,
        });
    }
}

fn pct(base: f64, cand: f64) -> String {
    if base == 0.0 {
        if cand == 0.0 {
            "±0.0%".to_string()
        } else {
            "n/a".to_string()
        }
    } else {
        format!("{:+.1}%", (cand - base) / base * 100.0)
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

/// Compare two parsed reports named `name`, appending lines to `out`.
fn diff_values(name: &str, base: &Value, cand: &Value, out: &mut DiffReport) {
    let label = |metric: &str| format!("{name}/{metric}");

    // Hard rules first: schema, ranks, converged.
    for key in ["schema", "ranks"] {
        match (num(base, key), num(cand, key)) {
            (Some(b), Some(c)) if b == c => {
                out.push(label(key), Verdict::Ok, format!("{b} == {c}"));
            }
            (b, c) => {
                out.push(
                    label(key),
                    Verdict::Regression,
                    format!("must match exactly: baseline {b:?}, candidate {c:?}"),
                );
                // Different schema/topology makes the scalar gates
                // meaningless; stop after reporting the hard failure.
                return;
            }
        }
    }
    match (
        base.get("converged").and_then(Value::as_bool),
        cand.get("converged").and_then(Value::as_bool),
    ) {
        (Some(true), Some(false)) => out.push(
            label("converged"),
            Verdict::Regression,
            "baseline converged, candidate did not".to_string(),
        ),
        (b, c) => out.push(label("converged"), Verdict::Ok, format!("{b:?} -> {c:?}")),
    }

    // Scalar gates.
    for gate in GATES {
        let (b, c) = match (num(base, gate.key), num(cand, gate.key)) {
            (Some(b), Some(c)) => (b, c),
            (b, c) => {
                // `speedup_vs_original` is legitimately null when no
                // baseline run happened; anything else missing is
                // reported but (being absent) cannot be gated sanely.
                out.push(
                    label(gate.key),
                    Verdict::Info,
                    format!("not comparable: baseline {b:?}, candidate {c:?}"),
                );
                continue;
            }
        };
        let (bound, regressed) = if gate.higher_is_worse {
            let bound = b * (1.0 + gate.tol_frac) + ABS_EPS;
            (bound, c > bound)
        } else {
            let bound = b * (1.0 - gate.tol_frac) - ABS_EPS;
            (bound, c < bound)
        };
        let verdict = if regressed {
            Verdict::Regression
        } else {
            Verdict::Ok
        };
        out.push(
            label(gate.key),
            verdict,
            format!(
                "{b:.6} -> {c:.6} ({}, tol {:.0}% {}, bound {bound:.6})",
                pct(b, c),
                gate.tol_frac * 100.0,
                if gate.higher_is_worse { "up" } else { "down" },
            ),
        );
    }

    // Extras: informational union of both key sets.
    let empty = Vec::new();
    let extras = |v: &Value| -> Vec<(String, f64)> {
        match v.get("extras") {
            Some(Value::Object(pairs)) => pairs
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
                .collect(),
            _ => empty.clone(),
        }
    };
    let be = extras(base);
    let ce = extras(cand);
    let mut keys: Vec<&String> = be.iter().chain(&ce).map(|(k, _)| k).collect();
    keys.sort();
    keys.dedup();
    for k in keys {
        let b = be.iter().rev().find(|(bk, _)| bk == k).map(|(_, v)| *v);
        let c = ce.iter().rev().find(|(ck, _)| ck == k).map(|(_, v)| *v);
        let gate = GATED_EXTRAS.iter().find(|g| g.key == k.as_str());
        if let (Some(b), Some(c), Some(gate)) = (b, c, gate) {
            let bound = b * (1.0 + gate.tol_frac) + ABS_EPS;
            let verdict = if c > bound {
                Verdict::Regression
            } else {
                Verdict::Ok
            };
            out.push(
                format!("{name}/extras/{k}"),
                verdict,
                format!(
                    "{b:.6} -> {c:.6} ({}, tol {:.0}% up, bound {bound:.6})",
                    pct(b, c),
                    gate.tol_frac * 100.0,
                ),
            );
            continue;
        }
        let detail = match (b, c) {
            (Some(b), Some(c)) => format!("{b:.6} -> {c:.6} ({})", pct(b, c)),
            (Some(b), None) => format!("{b:.6} -> (gone)"),
            (None, Some(c)) => format!("(new) -> {c:.6}"),
            (None, None) => continue,
        };
        out.push(format!("{name}/extras/{k}"), Verdict::Info, detail);
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse(text.trim_end()).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Report name for a `BENCH_<name>.json` path, falling back to the stem.
fn report_name(path: &Path) -> String {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    stem.strip_prefix("BENCH_").unwrap_or(&stem).to_string()
}

/// `BENCH_*.json` filenames directly under `dir`, sorted.
fn bench_files(dir: &Path) -> Result<Vec<String>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read dir {}: {e}", dir.display()))?;
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| {
            let n = e.file_name().to_string_lossy().into_owned();
            (n.starts_with("BENCH_") && n.ends_with(".json") && e.path().is_file()).then_some(n)
        })
        .collect();
    names.sort();
    Ok(names)
}

/// Diff a baseline against a candidate. Both paths must be files (one
/// report each) or both directories (matched by `BENCH_<name>.json`
/// filename).
///
/// # Errors
///
/// I/O failures, malformed JSON, and mixing a file with a directory are
/// errors (distinct from regressions: the comparison itself never ran).
pub fn run_bench_diff(baseline: &Path, candidate: &Path) -> Result<DiffReport, String> {
    let mut out = DiffReport::default();
    match (baseline.is_dir(), candidate.is_dir()) {
        (false, false) => {
            let b = load(baseline)?;
            let c = load(candidate)?;
            diff_values(&report_name(baseline), &b, &c, &mut out);
        }
        (true, true) => {
            let base_names = bench_files(baseline)?;
            if base_names.is_empty() {
                return Err(format!(
                    "no BENCH_*.json reports under baseline dir {}",
                    baseline.display()
                ));
            }
            for n in &base_names {
                let bp = baseline.join(n);
                let cp = candidate.join(n);
                if !cp.is_file() {
                    out.push(
                        report_name(&bp),
                        Verdict::Regression,
                        format!("baseline report has no candidate counterpart ({n} missing)"),
                    );
                    continue;
                }
                let b = load(&bp)?;
                let c = load(&cp)?;
                diff_values(&report_name(&bp), &b, &c, &mut out);
            }
            for n in bench_files(candidate)? {
                if !base_names.contains(&n) {
                    out.push(
                        report_name(Path::new(&n)),
                        Verdict::Info,
                        format!("new report with no baseline yet ({n})"),
                    );
                }
            }
        }
        (bd, _) => {
            return Err(format!(
                "baseline is a {} but candidate is not: {} vs {}",
                if bd { "directory" } else { "file" },
                baseline.display(),
                candidate.display()
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(modeled: f64, iters: u64, speedup: f64, converged: bool) -> String {
        format!(
            "{{\"schema\":1,\"name\":\"t\",\"modeled_time\":{modeled},\
             \"speedup_vs_original\":{speedup},\"iterations\":{iters},\
             \"converged\":{converged},\"ranks\":4,\"compute_time\":0.5,\
             \"transfer_time\":0.2,\"idle_time\":0.1,\"comm_time\":0.3,\
             \"faults_survived\":0,\"recoveries\":0,\"recovery_cost\":0,\
             \"extras\":{{\"acc\":0.9}}}}"
        )
    }

    fn diff_strs(base: &str, cand: &str) -> DiffReport {
        let mut out = DiffReport::default();
        diff_values(
            "t",
            &parse(base).expect("base"),
            &parse(cand).expect("cand"),
            &mut out,
        );
        out
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(1.0, 100, 3.0, true);
        let d = diff_strs(&r, &r);
        assert!(d.regressions().is_empty(), "{:?}", d.lines);
    }

    #[test]
    fn json_gate_table_is_well_formed_and_counts_regressions() {
        let base = report(1.0, 100, 3.0, true);
        let slow = report(1.2, 100, 3.0, true);
        let d = diff_strs(&base, &slow);
        let json = d.to_json();
        shrinksvm_obs::json::check(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(
            json.contains("\"schema\":\"shrinksvm-benchdiff/v1\""),
            "{json}"
        );
        assert!(
            json.contains(&format!("\"regressions\":{}", d.regressions().len())),
            "{json}"
        );
        assert!(json.contains("\"metric\":\"t/modeled_time\""), "{json}");
        assert!(json.contains("\"verdict\":\"regression\""), "{json}");
        assert_eq!(json, diff_strs(&base, &slow).to_json(), "deterministic");
    }

    #[test]
    fn makespan_blowup_is_flagged_and_small_drift_is_not() {
        let base = report(1.0, 100, 3.0, true);
        let slow = report(1.2, 100, 3.0, true); // +20% > 10% tol
        let d = diff_strs(&base, &slow);
        assert!(d.regressions().iter().any(|l| l.metric == "t/modeled_time"));
        let drift = report(1.05, 100, 3.0, true); // +5% within tol
        assert!(diff_strs(&base, &drift).regressions().is_empty());
    }

    #[test]
    fn improvements_never_gate() {
        let base = report(1.0, 100, 3.0, true);
        let fast = report(0.5, 50, 6.0, true);
        assert!(diff_strs(&base, &fast).regressions().is_empty());
    }

    #[test]
    fn speedup_drop_is_a_regression() {
        let base = report(1.0, 100, 3.0, true);
        let worse = report(1.0, 100, 2.5, true); // -16.7% < -10%
        let d = diff_strs(&base, &worse);
        assert!(d
            .regressions()
            .iter()
            .any(|l| l.metric == "t/speedup_vs_original"));
    }

    #[test]
    fn convergence_loss_is_a_regression() {
        let base = report(1.0, 100, 3.0, true);
        let bad = report(1.0, 100, 3.0, false);
        let d = diff_strs(&base, &bad);
        assert!(d.regressions().iter().any(|l| l.metric == "t/converged"));
        // The reverse direction (false -> true) is fine.
        assert!(diff_strs(&bad, &base)
            .regressions()
            .iter()
            .all(|l| l.metric != "t/converged"));
    }

    #[test]
    fn schema_mismatch_fails_hard() {
        let base = report(1.0, 100, 3.0, true);
        let cand = base.replacen("\"schema\":1", "\"schema\":2", 1);
        let d = diff_strs(&base, &cand);
        assert!(d.regressions().iter().any(|l| l.metric == "t/schema"));
        // Comparison stops after a hard failure: no scalar-gate lines.
        assert!(d.lines.iter().all(|l| l.metric != "t/modeled_time"));
    }

    #[test]
    fn null_speedup_is_informational() {
        let base = report(1.0, 100, 3.0, true);
        let cand = base.replacen(
            "\"speedup_vs_original\":3",
            "\"speedup_vs_original\":null",
            1,
        );
        let d = diff_strs(&base, &cand);
        assert!(d.regressions().is_empty(), "{:?}", d.lines);
        assert!(d
            .lines
            .iter()
            .any(|l| l.metric == "t/speedup_vs_original" && l.verdict == Verdict::Info));
    }

    #[test]
    fn extras_are_informational_even_when_wildly_off() {
        let base = report(1.0, 100, 3.0, true);
        let cand = base.replacen("\"acc\":0.9", "\"acc\":0.1,\"new_metric\":7", 1);
        let d = diff_strs(&base, &cand);
        assert!(d.regressions().is_empty());
        assert!(d.lines.iter().any(|l| l.metric == "t/extras/acc"));
        assert!(d
            .lines
            .iter()
            .any(|l| l.metric == "t/extras/new_metric" && l.detail.contains("new")));
    }

    #[test]
    fn recovery_extras_gate_at_fifteen_percent() {
        let base = report(1.0, 100, 3.0, true).replacen(
            "\"acc\":0.9",
            "\"recovery_waste\":2.0,\"recovery_backoff\":1.0",
            1,
        );
        let worse = report(1.0, 100, 3.0, true).replacen(
            "\"acc\":0.9",
            "\"recovery_waste\":2.4,\"recovery_backoff\":1.0",
            1,
        ); // +20% > 15% tol
        let d = diff_strs(&base, &worse);
        assert!(d
            .regressions()
            .iter()
            .any(|l| l.metric == "t/extras/recovery_waste"));
        let drift = report(1.0, 100, 3.0, true).replacen(
            "\"acc\":0.9",
            "\"recovery_waste\":2.2,\"recovery_backoff\":1.1",
            1,
        ); // +10% within tol, both keys
        assert!(diff_strs(&base, &drift).regressions().is_empty());
        // Improvements never gate; backoff blowup does.
        let backoff = report(1.0, 100, 3.0, true).replacen(
            "\"acc\":0.9",
            "\"recovery_waste\":0.5,\"recovery_backoff\":1.3",
            1,
        );
        let d = diff_strs(&base, &backoff);
        assert!(d
            .regressions()
            .iter()
            .any(|l| l.metric == "t/extras/recovery_backoff"));
        assert!(d
            .regressions()
            .iter()
            .all(|l| l.metric != "t/extras/recovery_waste"));
    }

    #[test]
    fn zero_recovery_baseline_stays_zero_or_gates() {
        let base = report(1.0, 100, 3.0, true).replacen(
            "\"acc\":0.9",
            "\"recovery_waste\":0,\"recovery_backoff\":0",
            1,
        );
        assert!(diff_strs(&base, &base).regressions().is_empty());
        let grown = report(1.0, 100, 3.0, true).replacen(
            "\"acc\":0.9",
            "\"recovery_waste\":0.001,\"recovery_backoff\":0",
            1,
        );
        assert!(!diff_strs(&base, &grown).regressions().is_empty());
        // A candidate that drops the key entirely is informational (new
        // telemetry may land before its baseline; losing it is visible in
        // the printed lines either way).
        let gone = report(1.0, 100, 3.0, true);
        assert!(diff_strs(&base, &gone).regressions().is_empty());
    }

    #[test]
    fn zero_baseline_tolerates_only_epsilon() {
        let base = report(0.0, 0, 1.0, true);
        let same = report(0.0, 0, 1.0, true);
        assert!(diff_strs(&base, &same).regressions().is_empty());
        let grown = report(0.001, 0, 1.0, true);
        assert!(!diff_strs(&base, &grown).regressions().is_empty());
    }

    #[test]
    fn dir_mode_flags_missing_and_reports_new() {
        let root = std::env::temp_dir().join("xtask_bench_diff_dirs");
        let (bd, cd) = (root.join("base"), root.join("cand"));
        fs::create_dir_all(&bd).expect("mk base");
        fs::create_dir_all(&cd).expect("mk cand");
        fs::write(bd.join("BENCH_a.json"), report(1.0, 10, 2.0, true)).expect("w");
        fs::write(bd.join("BENCH_gone.json"), report(1.0, 10, 2.0, true)).expect("w");
        fs::write(cd.join("BENCH_a.json"), report(1.0, 10, 2.0, true)).expect("w");
        fs::write(cd.join("BENCH_new.json"), report(1.0, 10, 2.0, true)).expect("w");
        let d = run_bench_diff(&bd, &cd).expect("diff runs");
        assert!(d
            .regressions()
            .iter()
            .any(|l| l.detail.contains("BENCH_gone.json missing")));
        assert!(d
            .lines
            .iter()
            .any(|l| l.verdict == Verdict::Info && l.detail.contains("BENCH_new.json")));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn file_vs_dir_is_an_error_not_a_regression() {
        let root = std::env::temp_dir().join("xtask_bench_diff_mixed");
        fs::create_dir_all(&root).expect("mk");
        let f = root.join("BENCH_a.json");
        fs::write(&f, report(1.0, 10, 2.0, true)).expect("w");
        assert!(run_bench_diff(&f, &root).is_err());
        fs::remove_dir_all(&root).ok();
    }
}
