//! The full Table-II ablation (§V-D2's "lessons learned"): every heuristic
//! on representative datasets, reporting iterations, work saved,
//! reconstruction count and modeled time.

use shrinksvm_core::shrink::ShrinkPolicy;
use shrinksvm_datagen::PaperDataset;

use crate::report::{f, secs, Table};
use crate::runner::{capture, projected_time, write_bench_report, Ctx};

/// Run all 13 configurations on a dataset and emit a comparison table.
pub fn ablation(ctx: &Ctx, which: PaperDataset, stem: &str, p_model: usize) {
    let data = which.generate(ctx.scale);
    ctx.recalibrate(&data);
    println!("[{stem}] dataset: {}", data.train.summary());
    let mut t = Table::new(
        format!(
            "Heuristic ablation — {} (modeled time at {p_model} procs)",
            data.name
        ),
        &[
            "name",
            "class",
            "iters",
            "work saved %",
            "recons",
            "modeled time",
            "vs Original",
        ],
    );
    let mut original_time = None;
    let mut best: Option<(String, f64, crate::runner::Captured)> = None;
    let mut worst: Option<(String, f64)> = None;
    for policy in ShrinkPolicy::table2() {
        let cap = capture(ctx, &data, policy, 2);
        let time = projected_time(ctx, &data, &cap, p_model);
        if policy.is_none() {
            original_time = Some(time);
        }
        let ratio = original_time.map(|o| o / time).unwrap_or(1.0);
        match &mut worst {
            Some((_, wt)) if time <= *wt => {}
            _ => worst = Some((policy.name(), time)),
        }
        t.row(vec![
            policy.name(),
            policy.class().to_string(),
            format!("{}", cap.run.iterations),
            f(cap.run.trace.work_saved() * 100.0),
            format!("{}", cap.run.trace.recon_events.len()),
            secs(time),
            f(ratio),
        ]);
        match &best {
            Some((_, bt, _)) if time >= *bt => {}
            _ => best = Some((policy.name(), time, cap)),
        }
    }
    let (bn, bt, bcap) = best.unwrap();
    let (wn, _) = worst.unwrap();
    t.note(format!(
        "fastest: {bn}; slowest: {wn} (paper §V-D2: Multi5pc best, Single50pc worst)"
    ));
    t.emit(&ctx.out_dir, stem).unwrap();
    // machine-readable run report for the winning policy
    write_bench_report(ctx, stem, &bcap, Some(bt), original_time);
}

/// The §V-D2 ablation on two representative datasets.
pub fn run(ctx: &Ctx) {
    ablation(ctx, PaperDataset::Higgs, "heuristics_higgs", 64);
    ablation(ctx, PaperDataset::Forest, "heuristics_forest", 64);
}
