//! Developer tool: print the optimization/shrinking dynamics of every
//! paper preset at a given scale — iterations, support vectors, work
//! saved by the best/worst heuristics, reconstruction counts. Used to keep
//! the synthetic analogs in the regime where the paper's phenomena appear.
//!
//! ```text
//! probe [scale]
//! ```

use shrinksvm_bench::runner::{capture, run_baseline, write_bench_report, Ctx};
use shrinksvm_core::shrink::ShrinkPolicy;
use shrinksvm_datagen::PaperDataset;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1);
    let ctx = Ctx::new(scale, std::env::temp_dir().join("shrinksvm-probe"));
    println!(
        "{:>14} {:>6} {:>7} {:>5} {:>6} | {:>9} {:>7} {:>6} | {:>9} {:>7} {:>6}",
        "dataset",
        "n",
        "iters",
        "nsv",
        "t_seq",
        "bestSaved",
        "bestRec",
        "bIters",
        "worstSaved",
        "worstRec",
        "wIters"
    );
    for which in PaperDataset::all() {
        let data = which.generate(scale);
        let base = run_baseline(&ctx, &data);
        let best = capture(&ctx, &data, ShrinkPolicy::best(), 1);
        let worst = capture(&ctx, &data, ShrinkPolicy::worst(), 1);
        let original = capture(&ctx, &data, ShrinkPolicy::none(), 1);
        write_bench_report(
            &ctx,
            &format!("probe_{}", data.name),
            &best,
            None,
            Some(original.run.makespan),
        );
        println!(
            "{:>14} {:>6} {:>7} {:>5} {:>5.1}s | {:>8.1}% {:>7} {:>6} | {:>8.1}% {:>7} {:>6}",
            data.name,
            data.train.len(),
            base.iterations,
            best.run.model.n_sv(),
            base.t_seq,
            best.run.trace.work_saved() * 100.0,
            best.run.trace.recon_events.len(),
            best.run.iterations,
            worst.run.trace.work_saved() * 100.0,
            worst.run.trace.recon_events.len(),
            worst.run.iterations,
        );
    }
}
