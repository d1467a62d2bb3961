//! The untraced run: end-to-end metrics of one workload.
//!
//! A closed loop: one train or predict call at a time. After set-up and
//! one warm-up training, the run trains the inputs of [`Inputs`] round
//! robin — every input at least once, then until the requested seconds
//! are spent — writing and re-reading each model and predicting the
//! held-out rows with the re-read copy. Set-up repeats between the first
//! calls ([`SETUP_REPS`] in all). Wall-time metrics are medians over all
//! repetitions; modeled metrics are medians over the inputs, identical on
//! every run of a seed.
//!
//! On a shared host one core can run far slower than the other for
//! seconds at a time. Hence set-up is sampled across the run rather than
//! back to back, each sample the mean of two builds run at once, one per
//! core; and prediction is a batch over every core, as training is. A
//! single thread stuck on the slow core would set the whole result.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use shrinksvm_core::dist::DistRunResult;
use shrinksvm_core::shrink::ShrinkPolicy;
use shrinksvm_core::SvmModel;
use shrinksvm_sparse::Dataset;
use shrinksvm_threads::schedule::Schedule;
use shrinksvm_threads::ThreadPool;

use crate::host;
use crate::outcome::Outcome;
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workload::{Inputs, Workload, EPSILON, INPUTS_PER_RUN};

/// Set-up repetitions per run; `setup_s` is their median. One runs before
/// the first call and one before each of the next calls, so a run always
/// completes them all.
pub const SETUP_REPS: usize = INPUTS_PER_RUN as usize;

/// Rows whose decision values must be bit-identical between a model and
/// its write→read copy.
const BITWISE_ROWS: usize = 16;

/// Least wall time, in seconds, one prediction call measures.
const PREDICT_MIN_S: f64 = 0.05;

/// How one run is invoked.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Directory for the traced run's `PERF_*`/`TRACE_*` files.
    pub out: PathBuf,
}

/// Measure `w`'s end-to-end metrics.
pub fn measure(w: &Workload, opts: &RunOpts, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let (inputs, same) = set_up(w, opts.seed, spans, &mut setup_s);
    out.check(same, || {
        format!("{}: two set-ups built different inputs", w.name)
    });
    let best = ShrinkPolicy::best();
    let pool =
        ThreadPool::with_available_parallelism().with_schedule(Schedule::Dynamic { chunk: 1 });

    // Warm-up: the first training of a process pays for page faults and
    // allocator growth that later ones do not.
    let warm = spans.scope("warmup", |_| train(w, &inputs, 0));
    let mut reference = vec![None; inputs.train.len()];
    let bytes = model_bytes(&warm.model);
    check_train(&mut out, w, best, &warm, &bytes, &mut reference[0]);

    // Each call trains one input, writes and re-reads its model, and
    // predicts the held-out rows with the re-read copy. Interleaving keeps
    // both timings spread over the whole run, so a few seconds of host
    // contention sway their medians less than they would sway a phase of
    // their own.
    let mut train_s = Vec::new();
    let mut predict_rate = Vec::new();
    // (iterations, makespan, test accuracy) of each input's first training.
    let mut per_input: Vec<(f64, f64, f64)> = Vec::new();
    round_robin(inputs.train.len(), opts.seconds, |k| {
        if setup_s.len() < SETUP_REPS {
            let (again, same) = set_up(w, opts.seed, spans, &mut setup_s);
            out.check(same && again.same_as(&inputs), || {
                format!(
                    "{}: set-up repetition {} built different inputs",
                    w.name,
                    setup_s.len()
                )
            });
        }
        let call = Instant::now();
        let run = spans.scope("train", |_| train(w, &inputs, k));
        train_s.push(call.elapsed().as_secs_f64());
        let (bytes, loaded) = spans.scope("model_io", |_| {
            let bytes = model_bytes(&run.model);
            let loaded = SvmModel::read_from(&bytes[..]).expect("a model we wrote reads back");
            (bytes, loaded)
        });
        check_train(&mut out, w, best, &run, &bytes, &mut reference[k]);
        // Predict the held-out rows as one batch. Small models predict
        // them so fast that one pass would time little but timer noise:
        // repeat whole passes until PREDICT_MIN_S is spent.
        let t = Instant::now();
        let (hits, rows) = spans.scope("predict", |_| {
            let hits = correct_predictions(&pool, &loaded, &inputs.test);
            let mut rows = inputs.test.len();
            while t.elapsed().as_secs_f64() < PREDICT_MIN_S {
                std::hint::black_box(correct_predictions(&pool, &loaded, &inputs.test));
                rows += inputs.test.len();
            }
            (hits, rows)
        });
        predict_rate.push(rows as f64 / t.elapsed().as_secs_f64());
        out.check(same_decisions(&run.model, &loaded, &inputs.test), || {
            format!(
                "{}: input {k}: predictions changed across model write/read",
                w.name
            )
        });
        if per_input.len() == k {
            let accuracy = hits as f64 / inputs.test.len() as f64;
            per_input.push((run.iterations as f64, run.makespan, accuracy));
        }
        call.elapsed().as_secs_f64()
    });

    let median = |f: fn(&(f64, f64, f64)) -> f64| {
        Summary::of(&per_input.iter().map(f).collect::<Vec<_>>()).median
    };
    out.set_median("setup_s", &setup_s);
    out.set_median("train_wall_s", &train_s);
    out.set_median("predict_rows_per_s", &predict_rate);
    out.set("iterations", median(|c| c.0));
    out.set("modeled_makespan_s", median(|c| c.1));
    out.set("test_accuracy", median(|c| c.2));
    out.set(
        "peak_rss_mb",
        host::peak_rss_mib().expect("/proc/self/status reports VmHWM"),
    );
    out
}

/// Build the inputs twice at once, one build per core, and append the
/// mean of the two build times to `times`. Returns one build and whether
/// the other is identical to it.
fn set_up(w: &Workload, seed: u64, spans: &mut Spans, times: &mut Vec<f64>) -> (Inputs, bool) {
    let timed = |spans: &mut Spans| {
        let t = Instant::now();
        let inputs = Inputs::build(w, seed, spans);
        (inputs, t.elapsed().as_secs_f64())
    };
    let ((mine, t0), (other, t1)) = spans.scope("setup", |s| {
        std::thread::scope(|scope| {
            let other = scope.spawn(|| timed(&mut Spans::default()));
            let mine = timed(s);
            (
                mine,
                other.join().expect("the set-up thread does not panic"),
            )
        })
    });
    times.push((t0 + t1) / 2.0);
    let same = mine.same_as(&other);
    (mine, same)
}

/// Call `call(k)` for `k = 0, 1, …, n − 1, 0, 1, …` until every `k` has
/// been called and one more call — assumed as long as the last, whose
/// seconds `call` returns — would overrun `budget` seconds.
fn round_robin(n: usize, budget: f64, mut call: impl FnMut(usize) -> f64) {
    let start = Instant::now();
    for (calls, k) in (0..n).cycle().enumerate() {
        let last = call(k);
        if calls + 1 >= n && start.elapsed().as_secs_f64() + last > budget {
            break;
        }
    }
}

/// Train input `k` with Multi5pc.
fn train(w: &Workload, inputs: &Inputs, k: usize) -> DistRunResult {
    w.train(inputs, &inputs.train[k], ShrinkPolicy::best())
        .unwrap_or_else(|e| panic!("{}: training input {k} failed: {e}", w.name))
}

/// Count one training call: it must converge to a 2ε-optimal solution, and
/// its model, serialized as `bytes`, must match `reference` byte for byte
/// (the first model of the same input, recorded here when `reference` is
/// empty).
pub fn check_train(
    out: &mut Outcome,
    w: &Workload,
    policy: ShrinkPolicy,
    run: &DistRunResult,
    bytes: &[u8],
    reference: &mut Option<Vec<u8>>,
) {
    let same = reference.get_or_insert_with(|| bytes.to_vec()) == bytes;
    let gap = run.trace.final_gap;
    out.check(run.converged && gap <= 2.0 * EPSILON && same, || {
        format!(
            "{} {}: converged={} final gap {gap:e} (limit {:e}), model identical to first={same}",
            w.name,
            policy.name(),
            run.converged,
            2.0 * EPSILON
        )
    });
}

/// The model in the crate's text format.
pub fn model_bytes(model: &SvmModel) -> Vec<u8> {
    let mut bytes = Vec::new();
    model
        .write_to(&mut bytes)
        .expect("writing to memory cannot fail");
    bytes
}

/// Rows of `ds` that `model` labels correctly, predicted on `pool`.
pub fn correct_predictions(pool: &ThreadPool, model: &SvmModel, ds: &Dataset) -> usize {
    let hits = AtomicUsize::new(0);
    pool.parallel_for(0..ds.len(), |i| {
        if model.predict(ds.x.row(i)) == ds.y[i] {
            // Relaxed: a count, read only after the pool has joined.
            hits.fetch_add(1, Ordering::Relaxed);
        }
    });
    hits.into_inner()
}

/// Whether `a` and `b` give bit-identical decision values on the first
/// rows of `ds`.
pub fn same_decisions(a: &SvmModel, b: &SvmModel, ds: &Dataset) -> bool {
    (0..ds.len().min(BITWISE_ROWS)).all(|i| {
        let row = ds.x.row(i);
        a.decision(row).to_bits() == b.decision(row).to_bits()
    })
}
