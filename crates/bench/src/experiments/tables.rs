//! Tables II, III, IV and V.

use shrinksvm_core::shrink::ShrinkPolicy;
use shrinksvm_core::ReconPolicy;
use shrinksvm_datagen::PaperDataset;

use crate::report::{f, Table};
use crate::runner::{capture, projected_time, run_baseline, Ctx};

fn recon_name(r: ReconPolicy) -> String {
    match r {
        ReconPolicy::Single => "Single".into(),
        ReconPolicy::Multi => "Multi".into(),
        ReconPolicy::Never => "Never".into(),
    }
}

/// Table II: the heuristic inventory with names and classes.
pub fn table2(ctx: &Ctx) {
    let mut t = Table::new(
        "Table II — Heuristics: description and classification",
        &["#", "Shrinking Type", "Recon.", "Name", "Class"],
    );
    for (i, p) in ShrinkPolicy::table2().iter().enumerate() {
        let (kind, recon) = match p.heuristic {
            shrinksvm_core::Heuristic::None => ("None".to_string(), "N/A".to_string()),
            shrinksvm_core::Heuristic::Random(k) => (format!("random: {k}"), recon_name(p.recon)),
            shrinksvm_core::Heuristic::NumSamples(x) => (
                format!("numsamples: {}%", (x * 100.0).round() as u64),
                recon_name(p.recon),
            ),
        };
        t.row(vec![
            format!("{}", i + 1),
            kind,
            recon,
            p.name(),
            p.class().to_string(),
        ]);
    }
    t.emit(&ctx.out_dir, "table2").unwrap();
}

/// Table III: dataset characteristics and hyper-parameter settings — the
/// paper's originals and our scaled synthetic analogs.
pub fn table3(ctx: &Ctx) {
    let mut t = Table::new(
        "Table III — Dataset characteristics and hyper-parameters (paper → scaled analog)",
        &[
            "Name",
            "Paper train",
            "Ours train",
            "Ours test",
            "dim",
            "density%",
            "C",
            "sigma^2",
        ],
    );
    for d in PaperDataset::all() {
        let data = d.generate(ctx.scale);
        t.row(vec![
            data.name.to_string(),
            format!("{}", data.paper_train_size),
            format!("{}", data.train.len()),
            data.test
                .as_ref()
                .map(|x| x.len().to_string())
                .unwrap_or_else(|| "N/A".into()),
            format!("{}", data.train.x.ncols()),
            f(data.train.x.density() * 100.0),
            f(data.c),
            f(data.sigma_sq),
        ]);
    }
    t.note(
        "analogs are planted-boundary synthetics; see DESIGN.md §4 for the substitution argument",
    );
    t.emit(&ctx.out_dir, "table3").unwrap();
}

/// Table IV: relative speedup to libsvm-sequential on the smaller datasets
/// at the paper's per-dataset process counts.
pub fn table4(ctx: &Ctx) {
    let mut t = Table::new(
        "Table IV — Relative speedup to libsvm-sequential (smaller datasets)",
        &[
            "Name",
            "Default",
            "Shrinking (Worst)",
            "Shrinking (Best)",
            "Proc",
        ],
    );
    // the paper's process counts per dataset
    let rows: &[(PaperDataset, usize)] = &[
        (PaperDataset::Adult9, 16),
        (PaperDataset::Rcv1, 64),
        (PaperDataset::Usps, 4),
        (PaperDataset::Mushrooms, 4),
        (PaperDataset::W7a, 16),
    ];
    for &(which, procs) in rows {
        let data = which.generate(ctx.scale);
        ctx.recalibrate(&data);
        let base = run_baseline(ctx, &data);
        let speed = |policy: ShrinkPolicy| {
            let cap = capture(ctx, &data, policy, 2);
            base.t_seq / projected_time(ctx, &data, &cap, procs)
        };
        t.row(vec![
            data.name.to_string(),
            f(speed(ShrinkPolicy::none())),
            f(speed(ShrinkPolicy::worst())),
            f(speed(ShrinkPolicy::best())),
            format!("{procs}"),
        ]);
    }
    t.note("speedup = measured libsvm-seq analog time / modeled distributed time at Proc ranks");
    t.emit(&ctx.out_dir, "table4").unwrap();
}

/// Table V: testing accuracy, ours (shrinking, distributed) vs the libsvm
/// analog.
pub fn table5(ctx: &Ctx) {
    let mut t = Table::new(
        "Table V — Testing accuracy",
        &["Name", "Test Acc Ours(%)", "Test Acc libsvm(%)"],
    );
    for which in [
        PaperDataset::Adult9,
        PaperDataset::Usps,
        PaperDataset::Mnist,
        PaperDataset::CodRna,
        PaperDataset::W7a,
    ] {
        let data = which.generate(ctx.scale);
        ctx.recalibrate(&data);
        let base = run_baseline(ctx, &data);
        let cap = capture(ctx, &data, ShrinkPolicy::best(), 4);
        t.row(vec![
            data.name.to_string(),
            f(cap.test_accuracy.unwrap_or(f64::NAN) * 100.0),
            f(base.test_accuracy.unwrap_or(f64::NAN) * 100.0),
        ]);
    }
    t.note("ours = Multi5pc shrinking on 4 ranks; libsvm = sequential SMO with full cache");
    t.emit(&ctx.out_dir, "table5").unwrap();
}
