//! The result of one run: correctness counts and metric readings, printed
//! for people and as the closing JSON line for tools.

use std::collections::BTreeMap;

use shrinksvm_obs::json::{escape_into, write_f64};

use crate::spec::Metric;
use crate::stats::Summary;

/// One metric reading.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    /// The reported value.
    pub value: f64,
    /// For repeated timings, the sample the value is the median of.
    pub spread: Option<Summary>,
}

/// Correctness counts and readings of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Train and predict calls made.
    pub attempted: u64,
    /// Calls whose output failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    readings: BTreeMap<&'static str, Reading>,
}

impl Outcome {
    /// Count one train or predict call, failed unless `ok`; `what`
    /// describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Record a single-valued metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let old = self.readings.insert(
            name,
            Reading {
                value,
                spread: None,
            },
        );
        assert!(old.is_none(), "metric {name} recorded twice");
    }

    /// Record the median of repeated timings.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let s = Summary::of(samples);
        let old = self.readings.insert(
            name,
            Reading {
                value: s.median,
                spread: Some(s),
            },
        );
        assert!(old.is_none(), "metric {name} recorded twice");
    }

    /// Reading of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Reading> {
        self.readings.get(name)
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Human-readable lines, one per metric of `table`.
    pub fn render_text(&self, table: &[Metric]) -> String {
        let mut out = String::new();
        for m in table {
            let r = self.reading(m);
            out.push_str(&format!("{:<32} {:>16} {}", m.name, fmt(r.value), m.unit));
            if let Some(s) = r.spread {
                out.push_str(&format!(
                    "  (median of n={}, q1 {}, q3 {})",
                    s.n,
                    fmt(s.q1),
                    fmt(s.q3)
                ));
            }
            out.push('\n');
        }
        for f in &self.failures {
            out.push_str(&format!("FAILED: {f}\n"));
        }
        out.push_str(&format!(
            "checks: {} calls attempted, {} failed\n",
            self.attempted, self.failed
        ));
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// `metrics` of `table`, each `{"value", "unit"}`.
    ///
    /// # Panics
    /// When a metric of `table` was not recorded, a metric outside it was,
    /// or a value is not finite — bugs in the run, not in its inputs.
    pub fn to_json_line(&self, table: &[Metric]) -> String {
        let extra: Vec<_> = self
            .readings
            .keys()
            .filter(|k| !table.iter().any(|m| m.name == **k))
            .collect();
        assert!(extra.is_empty(), "metrics outside the table: {extra:?}");
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in table.iter().enumerate() {
            let r = self.reading(m);
            assert!(
                r.value.is_finite(),
                "{} = {} is not finite",
                m.name,
                r.value
            );
            if i > 0 {
                out.push_str(", ");
            }
            escape_into(&mut out, m.name);
            out.push_str(": {\"value\": ");
            write_f64(&mut out, r.value);
            out.push_str(", \"unit\": ");
            escape_into(&mut out, m.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    fn reading(&self, m: &Metric) -> &Reading {
        self.readings
            .get(m.name)
            .unwrap_or_else(|| panic!("metric {} was never recorded", m.name))
    }
}

fn fmt(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}
