//! The traced run: per-layer metrics of one workload.
//!
//! On the run's first input it times the micro-probes of [`crate::probes`],
//! then trains Multi5pc untraced and with `DistSolver::with_tracing`,
//! [`TRAIN_REPS`] times each after a warm-up (the ratio of their median
//! wall times is the tracing overhead; the traced run's PerfDoctor report
//! attributes the modeled makespan), the Original
//! algorithm (the Fig-3 baseline), and the sequential SMO solver (the
//! single-threaded baseline of the same problem), then predicts the
//! held-out rows. Writes `PERF_<workload>.{json,txt}` and
//! `TRACE_<workload>.json` to the run's output directory.

use std::time::{Duration, Instant};

use shrinksvm_core::kernel::KernelKind;
use shrinksvm_core::metrics::accuracy;
use shrinksvm_core::shrink::ShrinkPolicy;
use shrinksvm_core::smo::SmoSolver;
use shrinksvm_core::SvmModel;
use shrinksvm_threads::ThreadPool;

use crate::host;
use crate::outcome::Outcome;
use crate::probes::{self, repeat};
use crate::run::{check_train, correct_predictions, model_bytes, same_decisions, RunOpts};
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workload::{Inputs, Workload, EPSILON};

/// Share of the run's seconds the micro-probes spend, split evenly.
const PROBE_SHARE: f64 = 0.4;
/// Number of time-budgeted probes: the nine layer probes, model I/O and
/// one-thread prediction.
const PROBES: u32 = 11;

/// Untraced and traced trainings each, after a warm-up.
const TRAIN_REPS: usize = 3;

/// Largest training-accuracy difference allowed between Multi5pc and
/// Original: shrinking must not change what the model learns.
const ACCURACY_AGREEMENT: f64 = 0.01;

/// Measure `w`'s per-layer metrics.
pub fn measure(w: &Workload, opts: &RunOpts, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let inputs = spans.scope("setup", |s| Inputs::build(w, opts.seed, s));
    let train = &inputs.train[0];
    let x = &train.x;
    let budget = Duration::from_secs_f64(opts.seconds * PROBE_SHARE / f64::from(PROBES));
    let kind = KernelKind::rbf_from_sigma_sq(inputs.sigma_sq);

    spans.scope("probes", |s| {
        let mut probe = |s: &mut Spans, name: &'static str, f: &dyn Fn() -> f64| {
            let v = s.scope(name, |_| f());
            out.set(name, v);
        };
        probe(s, "sparse.dot_merge_ns_per_nnz", &|| {
            probes::dot_merge_ns_per_nnz(x, budget)
        });
        probe(s, "sparse.dot_scatter_ns_per_nnz", &|| {
            probes::dot_scatter_ns_per_nnz(x, budget)
        });
        probe(s, "sparse.io_read_mb_per_s", &|| {
            probes::libsvm_read_mb_per_s(&inputs.train_text, budget)
        });
        probe(s, "kernel.eval_ns", &|| {
            probes::kernel_eval_ns(kind, x, budget)
        });
        probe(s, "mpisim.spawn_ms", &|| probes::spawn_ms(w.p, budget));
        probe(s, "mpisim.allreduce_us", &|| {
            probes::allreduce_us(w.p, budget)
        });
        probe(s, "mpisim.bcast_4k_us", &|| {
            probes::bcast_4k_us(w.p, budget)
        });
        probe(s, "mpisim.ring_shift_4k_us", &|| {
            probes::ring_shift_4k_us(w.p, budget)
        });
        probe(s, "threads.parallel_parts_us", &|| {
            probes::parallel_parts_us(train.len(), budget)
        });
    });

    // A warm-up training first, as in the untraced run; then TRAIN_REPS
    // untraced and TRAIN_REPS traced trainings, compared by their medians.
    let best = ShrinkPolicy::best();
    let mut reference = None;
    let mut fit = |spans: &mut Spans, name: &'static str, traced: bool| {
        let t = Instant::now();
        let run = spans
            .scope(name, |_| {
                let solver = w.solver(train, w.params(&inputs, best));
                if traced {
                    solver.with_tracing()
                } else {
                    solver
                }
                .train()
            })
            .unwrap_or_else(|e| panic!("{}: {name} failed: {e}", w.name));
        let wall = t.elapsed().as_secs_f64();
        check_train(
            &mut out,
            w,
            best,
            &run,
            &model_bytes(&run.model),
            &mut reference,
        );
        (run, wall)
    };
    fit(spans, "warmup", false);
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let cpu0 = host::cpu_seconds().expect("/proc/self/stat is readable");
    let mut run = None;
    for _ in 0..TRAIN_REPS {
        let (r, wall) = fit(spans, "train", false);
        walls.push(wall);
        run = Some(r);
    }
    let cpu = host::cpu_seconds().expect("/proc/self/stat is readable") - cpu0;
    let mut traced = None;
    for _ in 0..TRAIN_REPS {
        let (r, wall) = fit(spans, "train_traced", true);
        traced_walls.push(wall);
        traced = Some(r);
    }
    let (run, traced) = (
        run.expect("TRAIN_REPS > 0"),
        traced.expect("TRAIN_REPS > 0"),
    );
    let wall = Summary::of(&walls).median;
    let doc = traced
        .perf
        .as_ref()
        .expect("a traced run carries its PerfDoctor report");
    spans
        .scope("write_perf", |_| doc.write(&opts.out, w.name))
        .unwrap_or_else(|e| {
            panic!(
                "writing PERF_{}.json to {}: {e}",
                w.name,
                opts.out.display()
            )
        });

    let original = ShrinkPolicy::none();
    let t = Instant::now();
    let default = spans
        .scope("train_original", |_| w.train(&inputs, train, original))
        .unwrap_or_else(|e| panic!("{}: Original training failed: {e}", w.name));
    let default_wall = t.elapsed().as_secs_f64();
    check_train(
        &mut out,
        w,
        original,
        &default,
        &model_bytes(&default.model),
        &mut None,
    );
    let (acc_best, acc_default) = spans.scope("predict_train", |_| {
        (accuracy(&run.model, train), accuracy(&default.model, train))
    });
    out.check((acc_best - acc_default).abs() <= ACCURACY_AGREEMENT, || {
        format!(
            "{}: training accuracy Multi5pc {acc_best} vs Original {acc_default}",
            w.name
        )
    });

    let t = Instant::now();
    let seq = spans
        .scope("train_sequential", |_| {
            SmoSolver::new(train, w.params(&inputs, best)).train()
        })
        .unwrap_or_else(|e| panic!("{}: sequential training failed: {e}", w.name));
    let seq_wall = t.elapsed().as_secs_f64();
    out.check(seq.converged && seq.final_gap <= 2.0 * EPSILON, || {
        format!(
            "{}: sequential SMO converged={} final gap {:e}",
            w.name, seq.converged, seq.final_gap
        )
    });

    let io_ms = spans.scope("model_io", |_| {
        repeat(budget, || {
            let t = Instant::now();
            let loaded = SvmModel::read_from(&model_bytes(&run.model)[..]);
            std::hint::black_box(loaded.expect("a model we wrote reads back"));
            t.elapsed().as_secs_f64() * 1e3
        })
    });
    let loaded =
        SvmModel::read_from(&model_bytes(&run.model)[..]).expect("a model we wrote reads back");
    let one_thread = ThreadPool::new(1);
    let predict_s = spans.scope("predict", |_| {
        repeat(budget, || {
            let t = Instant::now();
            std::hint::black_box(correct_predictions(&one_thread, &loaded, &inputs.test));
            t.elapsed().as_secs_f64()
        })
    });
    out.check(same_decisions(&run.model, &loaded, &inputs.test), || {
        format!("{}: predictions changed across model write/read", w.name)
    });

    let iters = run.iterations as f64;
    let ranks = f64::from(doc.ranks);
    let cache = (
        run.metrics.counter("kernel_cache_hits"),
        run.metrics.counter("kernel_cache_misses"),
    );
    let lookups = cache.0 + cache.1;
    let rank0 = &run.rank_stats[0];
    out.set(
        "cache.hit_rate",
        if lookups == 0 {
            0.0
        } else {
            cache.0 as f64 / lookups as f64
        },
    );
    out.set("shrink.work_frac", 1.0 - run.trace.work_saved());
    out.set("shrink.best_over_default", default.makespan / run.makespan);
    out.set("recon.count", run.trace.recon_events.len() as f64);
    out.set("recon.modeled_frac", run.recon_fraction());
    out.set("dist.wall_per_iter_us", wall * 1e6 / iters);
    out.set("dist.default_wall_s", default_wall);
    out.set("dist.default_makespan_s", default.makespan);
    out.set(
        "dist.modeled_compute_s",
        doc.attribution.totals.compute / ranks,
    );
    out.set("smo.seq_wall_s", seq_wall);
    out.set("mpisim.cpu_per_wall", cpu / walls.iter().sum::<f64>());
    let total = |f: fn(&shrinksvm_mpisim::CommStats) -> u64| {
        run.rank_stats.iter().map(f).sum::<u64>() as f64
    };
    out.set("mpisim.msgs_per_iter", total(|s| s.msgs_sent) / iters);
    out.set("mpisim.bytes_per_iter", total(|s| s.bytes_sent) / iters);
    out.set(
        "mpisim.coll_rounds_per_iter",
        (rank0.allreduces + rank0.bcasts + rank0.barriers) as f64 / iters,
    );
    out.set(
        "mpisim.modeled_transfer_s",
        doc.attribution.totals.transfer / ranks,
    );
    out.set("mpisim.modeled_idle_s", doc.attribution.totals.idle / ranks);
    out.set(
        "model.decision_ns_per_sv",
        predict_s * 1e9 / (inputs.test.len() * run.model.n_sv()) as f64,
    );
    out.set("model.io_roundtrip_ms", io_ms);
    out.set(
        "obs.trace_overhead_x",
        Summary::of(&traced_walls).median / wall,
    );
    out.set("obs.whatif_zero_network_s", doc.projections.zero_network);
    out.set(
        "obs.whatif_infinite_cache_s",
        doc.projections.infinite_cache,
    );

    let trace_path = opts.out.join(format!("TRACE_{}.json", w.name));
    std::fs::write(&trace_path, spans.to_chrome_json())
        .unwrap_or_else(|e| panic!("writing {}: {e}", trace_path.display()));
    out
}
