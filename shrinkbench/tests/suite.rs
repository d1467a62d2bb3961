//! End-to-end checks of the benchmark itself, on tiny copies of its
//! workloads.

use std::path::PathBuf;

use shrinkbench::outcome::Outcome;
use shrinkbench::run::{self, RunOpts};
use shrinkbench::spans::Spans;
use shrinkbench::spec::{self, Metric, END_TO_END, PER_LAYER};
use shrinkbench::traced;
use shrinkbench::workload::{Inputs, Workload};
use shrinksvm_datagen::PaperDataset;
use shrinksvm_obs::json::{self, Value};

/// `w` shrunk tenfold, so a run takes a fraction of a second.
fn tiny(w: &Workload) -> Workload {
    let pool_scale = w.pool_scale / 10.0;
    let pool = w.preset.generate(pool_scale);
    let train_rows = match pool.test {
        Some(_) => pool.train.len(),
        None => pool.train.len() * 4 / 5,
    };
    Workload {
        pool_scale,
        train_rows,
        ..w.clone()
    }
}

fn opts(seed: u64, name: &str) -> RunOpts {
    RunOpts {
        seed,
        seconds: 0.05,
        out: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name),
    }
}

fn untraced(w: &Workload, seed: u64) -> Outcome {
    run::measure(w, &opts(seed, "untraced"), &mut Spans::default())
}

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `(name, unit)` of every entry of the `key` list of BENCHMARK.json.
fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` of every metric in a run's JSON result line.
fn emitted(line: &str) -> Vec<(String, String)> {
    let doc = json::parse(line).expect("the result line is JSON");
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        panic!("no metrics object in {line}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has no value"
            );
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn default_seed_trains_on_the_paper_presets() {
    // The `PaperDataset::generate` scale whose training split is each
    // workload's training rows.
    let scales = [
        ("url_p1t2", 0.1),
        ("higgs_fig3_p4", 0.15),
        ("higgs_small_p16_10g", 0.1),
        ("a9a_train_predict", 0.3),
    ];
    for (name, scale) in scales {
        let w = Workload::by_name(name).expect("workload exists");
        let inputs = Inputs::build(&w, 0, &mut Spans::default());
        let paper = w.preset.generate(scale).train;
        let ours = &inputs.train[0];
        assert_eq!(ours.len(), paper.len(), "{name}");
        assert_eq!(ours.y, paper.y, "{name}");
        for i in 0..ours.len() {
            let (a, b) = (ours.x.row(i), paper.x.row(i));
            assert!(a.iter().eq(b.iter()), "{name}: row {i} differs");
        }
    }
    let a9a = Inputs::build(
        &Workload::by_name("a9a_train_predict").expect("workload exists"),
        0,
        &mut Spans::default(),
    );
    let paper_test = PaperDataset::Adult9
        .generate(0.3)
        .test
        .expect("a9a ships a test split");
    assert_eq!(a9a.test.y, paper_test.y);
}

#[test]
fn benchmark_json_is_generated_from_the_tables() {
    assert_eq!(
        benchmark_json(),
        spec::benchmark_json(),
        "BENCHMARK.json is stale: regenerate it with `shrinkbench spec`"
    );
    let valid_name = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let valid_unit = |s: &str| {
        s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    for w in Workload::all() {
        assert!(valid_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    let all: Vec<&Metric> = END_TO_END.iter().chain(&PER_LAYER).collect();
    for (i, m) in all.iter().enumerate() {
        assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
        assert!(
            all[..i].iter().all(|o| o.name != m.name),
            "{} listed twice",
            m.name
        );
    }
    for m in &END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    let setup = &END_TO_END[0];
    assert_eq!((setup.name, setup.unit), ("setup_s", "s"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn tiny_runs_emit_every_benchmark_metric_with_its_unit() {
    let doc = json::parse(&benchmark_json()).expect("BENCHMARK.json is JSON");
    let (want_e2e, want_layer) = (listed(&doc, "end_to_end"), listed(&doc, "per_layer"));
    for w in Workload::all() {
        let w = tiny(&w);
        let e2e = untraced(&w, 1);
        assert!(e2e.correct(), "{}: {:?}", w.name, e2e.failures);
        assert_eq!(
            emitted(&e2e.to_json_line(&END_TO_END)),
            want_e2e,
            "{}",
            w.name
        );

        let opts = opts(1, "traced");
        let mut spans = Spans::default();
        let layers = traced::measure(&w, &opts, &mut spans);
        assert!(layers.correct(), "{}: {:?}", w.name, layers.failures);
        assert_eq!(
            emitted(&layers.to_json_line(&PER_LAYER)),
            want_layer,
            "{}",
            w.name
        );
        for file in [
            format!("PERF_{}.json", w.name),
            format!("TRACE_{}.json", w.name),
        ] {
            let text = std::fs::read_to_string(opts.out.join(&file)).expect(&file);
            json::check(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        }
    }
}

#[test]
fn deterministic_metrics_repeat_exactly() {
    let w = tiny(&Workload::by_name("higgs_fig3_p4").expect("workload exists"));
    for seed in [0, 7] {
        let (a, b) = (untraced(&w, seed), untraced(&w, seed));
        for m in END_TO_END.iter().filter(|m| m.deterministic) {
            let value = |o: &Outcome| o.get(m.name).expect(m.name).value.to_bits();
            assert_eq!(value(&a), value(&b), "seed {seed}: {}", m.name);
        }
    }
}

#[test]
fn a_run_that_cannot_converge_counts_failures() {
    let mut w = tiny(&Workload::by_name("a9a_train_predict").expect("workload exists"));
    w.max_iter = 10;
    let out = untraced(&w, 0);
    assert!(!out.correct());
    assert!(out.failed > 0 && out.failed <= out.attempted);
    let line = json::parse(&out.to_json_line(&END_TO_END)).expect("the result line is JSON");
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(false));
}
