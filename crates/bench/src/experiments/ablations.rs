//! Design-choice ablations beyond the paper's headline tables:
//!
//! * `casvm` — what happens if eliminated samples are never reconstructed
//!   (permanent elimination, the CA-SVM-style design §IV argues against):
//!   accuracy may drift from the exact solver.
//! * `subsequent` — §IV-A2's two options for the *subsequent* shrinking
//!   threshold: active-set size (Algorithm 4's adaptive choice) vs
//!   re-using the initial threshold.
//! * `network` — sensitivity of the projected scaling to the interconnect
//!   (InfiniBand-FDR-like vs 10 GbE-like parameters).

use shrinksvm_core::kernel::KernelKind;
use shrinksvm_core::metrics::accuracy;
use shrinksvm_core::params::SvmParams;
use shrinksvm_core::perfmodel::MachineModel;
use shrinksvm_core::shrink::{Heuristic, ReconPolicy, ShrinkPolicy, SubsequentPolicy};
use shrinksvm_core::smo::SmoSolver;
use shrinksvm_datagen::PaperDataset;
use shrinksvm_mpisim::CostParams;

use crate::report::{f, secs, Table};
use crate::runner::{capture, mean_row_bytes, Ctx};

/// Permanent elimination vs reconstructed shrinking vs exact baseline.
pub fn casvm(ctx: &Ctx) {
    let mut t = Table::new(
        "Ablation — permanent elimination (CA-SVM-style) vs gradient reconstruction",
        &[
            "Name",
            "exact acc%",
            "Multi5pc acc%",
            "Permanent5pc acc%",
            "perm work saved%",
            "perm gap ok",
        ],
    );
    for which in [
        PaperDataset::Adult9,
        PaperDataset::Mnist,
        PaperDataset::CodRna,
        PaperDataset::W7a,
        PaperDataset::Usps,
    ] {
        let data = which.generate(ctx.scale);
        ctx.recalibrate(&data);
        let test = data.test.as_ref().expect("dataset has a test split");
        let params = SvmParams::new(data.c, KernelKind::rbf_from_sigma_sq(data.sigma_sq));
        let exact = SmoSolver::new(&data.train, params)
            .train()
            .expect("exact baseline");
        let multi = capture(ctx, &data, ShrinkPolicy::best(), 2);
        let perm = capture(
            ctx,
            &data,
            ShrinkPolicy::new(Heuristic::NumSamples(0.05), ReconPolicy::Never),
            2,
        );
        // did the permanent run actually satisfy global optimality?
        let gap_ok = perm.run.trace.final_gap <= 2e-3 + 1e-12 && {
            // the reported gap is only over the surviving active set; a
            // fair exactness check compares iteration counts with Multi
            perm.run.iterations == multi.run.iterations
        };
        t.row(vec![
            data.name.to_string(),
            f(accuracy(&exact.model, test) * 100.0),
            f(multi.test_accuracy.unwrap() * 100.0),
            f(perm.test_accuracy.unwrap() * 100.0),
            f(perm.run.trace.work_saved() * 100.0),
            if gap_ok {
                "yes".into()
            } else {
                "NO (inexact)".into()
            },
        ]);
    }
    t.note("Multi5pc always matches the exact accuracy (paper's claim); Permanent may not — and even when accuracy survives, the returned solution skipped the global optimality proof");
    t.emit(&ctx.out_dir, "ablation_casvm").unwrap();
}

/// Subsequent-threshold policy ablation (§IV-A2).
pub fn subsequent(ctx: &Ctx) {
    let mut t = Table::new(
        "Ablation — subsequent shrinking threshold (§IV-A2)",
        &[
            "Name",
            "policy",
            "iters",
            "work saved%",
            "shrink passes",
            "recons",
        ],
    );
    for which in [PaperDataset::Higgs, PaperDataset::Forest] {
        let data = which.generate(ctx.scale);
        ctx.recalibrate(&data);
        for (label, sub) in [
            ("active-set size", SubsequentPolicy::ActiveSetSize),
            ("same as initial", SubsequentPolicy::SameAsInitial),
        ] {
            let mut policy = ShrinkPolicy::best();
            policy.subsequent = sub;
            let cap = capture(ctx, &data, policy, 2);
            t.row(vec![
                data.name.to_string(),
                label.to_string(),
                format!("{}", cap.run.iterations),
                f(cap.run.trace.work_saved() * 100.0),
                format!("{}", cap.run.trace.active_curve.len()),
                format!("{}", cap.run.trace.recon_events.len()),
            ]);
        }
    }
    t.note("the paper's adaptive choice (active-set size) spaces passes so every active sample is revisited between passes");
    t.emit(&ctx.out_dir, "ablation_subsequent").unwrap();
}

/// Interconnect sensitivity of the projected scaling.
pub fn network(ctx: &Ctx) {
    let data = PaperDataset::Higgs.generate(ctx.scale);
    ctx.recalibrate(&data);
    let cap = capture(ctx, &data, ShrinkPolicy::best(), 4);
    let row_bytes = mean_row_bytes(&data);
    let mut t = Table::new(
        "Ablation — interconnect sensitivity (modeled time, Multi5pc on HIGGS analog)",
        &["procs", "FDR-like", "10GbE-like", "slowdown"],
    );
    let fdr = MachineModel {
        net: CostParams::fdr(),
        ..ctx.model()
    };
    let eth = MachineModel {
        net: CostParams::ethernet_10g(),
        ..ctx.model()
    };
    for p in [16usize, 64, 256, 1024, 4096] {
        let a = fdr.project(&cap.run.trace, p, row_bytes).total();
        let b = eth.project(&cap.run.trace, p, row_bytes).total();
        t.row(vec![format!("{p}"), secs(a), secs(b), f(b / a)]);
    }
    t.note("the latency-bound Allreduce per iteration makes slow networks dominate at scale — why the paper dismisses MLlib's TCP/IP transport (§V-A1)");
    t.emit(&ctx.out_dir, "ablation_network").unwrap();
}

/// All ablations.
pub fn run(ctx: &Ctx) {
    casvm(ctx);
    subsequent(ctx);
    network(ctx);
}
