//! Figures 3–8: the scaling studies and the reconstruction-cost analysis.

use shrinksvm_core::shrink::ShrinkPolicy;
use shrinksvm_datagen::{PaperData, PaperDataset};

use crate::report::{f, secs, Table};
use crate::runner::{
    capture, projected_recon_fraction, projected_time, run_baseline, Captured, Ctx, PAPER_P_GRID,
    VALIDATE_P,
};

/// Ranks used for the real threaded capture run whose trace serves every
/// projected p. That is exact for Original, whose trajectory is
/// bit-identical at any p. A shrinking run's trajectory matches other p
/// only up to its first gradient reconstruction, whose ring order depends
/// on p, so its projected points inherit that drift.
const CAPTURE_P: usize = 4;

/// One scaling figure: modeled speedups of Default / Shrinking(Worst) /
/// Shrinking(Best) over the paper's process grid, plus a real-execution
/// validation block at small p.
pub fn scaling_figure(ctx: &Ctx, which: PaperDataset, stem: &str, title: &str, p_max: usize) {
    let data = which.generate(ctx.scale);
    ctx.recalibrate(&data);
    println!("[{stem}] dataset: {}", data.train.summary());
    let baseline = run_baseline(ctx, &data);
    println!(
        "[{stem}] baseline: libsvm-seq {} ({} iters), libsvm-enhanced-16 modeled {}",
        secs(baseline.t_seq),
        baseline.iterations,
        secs(baseline.t_enhanced16),
    );

    let caps: Vec<Captured> = [
        ShrinkPolicy::none(),
        ShrinkPolicy::worst(),
        ShrinkPolicy::best(),
    ]
    .into_iter()
    .map(|pol| capture(ctx, &data, pol, CAPTURE_P))
    .collect();
    for c in &caps {
        println!(
            "[{stem}] {}: {} iters, work saved {:.1}%, {} recon(s)",
            c.policy.name(),
            c.run.iterations,
            c.run.trace.work_saved() * 100.0,
            c.run.trace.recon_events.len()
        );
    }

    let mut t = Table::new(
        title,
        &[
            "procs",
            "Default (x)",
            "Shrink-Worst (x)",
            "Shrink-Best (x)",
            "Best/Default",
        ],
    );
    for &p in PAPER_P_GRID.iter().filter(|&&p| p <= p_max) {
        let times: Vec<f64> = caps
            .iter()
            .map(|c| projected_time(ctx, &data, c, p))
            .collect();
        t.row(vec![
            format!("{p}"),
            f(baseline.t_enhanced16 / times[0]),
            f(baseline.t_enhanced16 / times[1]),
            f(baseline.t_enhanced16 / times[2]),
            f(times[0] / times[2]),
        ]);
    }
    t.note("bars are speedup over the modeled 16-thread libsvm-enhanced baseline (paper's y-axis)");
    t.note(format!(
        "scaled analog ({} samples vs paper's {}); saturation sets in earlier than the paper's axis",
        data.train.len(),
        data.paper_train_size
    ));
    t.emit(&ctx.out_dir, stem).unwrap();

    validation_block(ctx, &data, stem);
}

/// Real-execution validation: run Default and Best at small thread-rank
/// counts and show simulated makespans plus result equality.
fn validation_block(ctx: &Ctx, data: &PaperData, stem: &str) {
    let mut t = Table::new(
        format!("{stem} — validation (really executed threaded ranks)"),
        &[
            "procs",
            "policy",
            "iters",
            "sim time",
            "bias",
            "Best/Default",
        ],
    );
    let mut reference: Option<(u64, f64)> = None;
    let mut ratios: Vec<f64> = Vec::new();
    for &p in VALIDATE_P {
        let mut default_time = 0.0;
        for policy in [ShrinkPolicy::none(), ShrinkPolicy::best()] {
            let cap = capture(ctx, data, policy, p);
            let ratio_cell = if policy.is_none() {
                default_time = cap.run.makespan;
                match reference {
                    None => reference = Some((cap.run.iterations, cap.run.model.bias())),
                    Some((it, bias)) => {
                        assert_eq!(it, cap.run.iterations, "trajectory must be p-invariant");
                        assert!((bias - cap.run.model.bias()).abs() < 1e-10);
                    }
                }
                String::new()
            } else {
                let r = default_time / cap.run.makespan;
                ratios.push(r);
                f(r)
            };
            t.row(vec![
                format!("{p}"),
                policy.name(),
                format!("{}", cap.run.iterations),
                secs(cap.run.makespan),
                format!("{:+.6}", cap.run.model.bias()),
                ratio_cell,
            ]);
        }
    }
    t.note("identical iteration counts/bias across procs demonstrate exactness of the distributed algorithm");
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    t.note(format!(
        "Best/Default at these per-rank loads (the regime matching the paper's 1024-4096-process runs): mean {:.2}x",
        mean_ratio
    ));
    t.emit(&ctx.out_dir, &format!("{stem}_validation")).unwrap();
}

/// Figure 3: UCI HIGGS scaling.
pub fn fig3(ctx: &Ctx) {
    scaling_figure(
        ctx,
        PaperDataset::Higgs,
        "fig3",
        "Figure 3 — HIGGS dataset performance (speedup vs libsvm-enhanced-16)",
        4096,
    );
}

/// Figure 4: Offending URL scaling.
pub fn fig4(ctx: &Ctx) {
    scaling_figure(
        ctx,
        PaperDataset::Url,
        "fig4",
        "Figure 4 — Offending URL dataset performance",
        4096,
    );
}

/// Figure 5: Forest covtype scaling.
pub fn fig5(ctx: &Ctx) {
    scaling_figure(
        ctx,
        PaperDataset::Forest,
        "fig5",
        "Figure 5 — Forest dataset performance",
        1024,
    );
}

/// Figure 6: MNIST scaling.
pub fn fig6(ctx: &Ctx) {
    scaling_figure(
        ctx,
        PaperDataset::Mnist,
        "fig6",
        "Figure 6 — MNIST dataset performance",
        512,
    );
}

/// Figure 7: real-sim scaling.
pub fn fig7(ctx: &Ctx) {
    scaling_figure(
        ctx,
        PaperDataset::RealSim,
        "fig7",
        "Figure 7 — real-sim dataset performance",
        256,
    );
}

/// Figure 8: fraction of overall time spent in gradient reconstruction
/// with the best heuristic (Multi5pc) on the four large datasets.
pub fn fig8(ctx: &Ctx) {
    let mut t = Table::new(
        "Figure 8 — Fraction of time in gradient reconstruction (Multi5pc)",
        &["procs", "Higgs", "URL", "Forest", "real-sim"],
    );
    let caps: Vec<(PaperData, Captured)> = PaperDataset::large_four()
        .into_iter()
        .map(|d| {
            let data = d.generate(ctx.scale);
            let cap = capture(ctx, &data, ShrinkPolicy::best(), CAPTURE_P);
            (data, cap)
        })
        .collect();
    for &p in &[512usize, 1024, 2048, 4096] {
        let mut row = vec![format!("{p}")];
        for (data, cap) in &caps {
            row.push(f(projected_recon_fraction(ctx, data, cap, p) * 100.0));
        }
        t.row(row);
    }
    t.note("values are % of modeled total time; the paper reports < 10% at 4096 processes and a decreasing trend");
    t.emit(&ctx.out_dir, "fig8").unwrap();
}
