//! The analytic projector against the simulator it stands in for.
//!
//! Each half is pinned where the other is switched off:
//!
//! * With every compute charge at zero, an executed *Original* run's
//!   makespan is almost all per-iteration communication — the fused
//!   candidate round — plus a few collectives at model assembly. So the
//!   projector's `pair_comm`, re-costed from the same run's trace, must
//!   land on the executed makespan.
//! * On a zero-cost network the makespan is all compute, which the
//!   projector prices with the `ComputeCharge` functions the solver
//!   charges. *Original* keeps every rank's active set at `n/p`, the
//!   projector's assumption, so its projected compute must land on the
//!   executed makespan too.

use shrinksvm_core::dist::msg::{ENTRY_BYTES, SAMPLE_HEADER_BYTES};
use shrinksvm_core::dist::DistSolver;
use shrinksvm_core::kernel::KernelKind;
use shrinksvm_core::params::SvmParams;
use shrinksvm_core::perfmodel::{ComputeCharge, MachineModel};
use shrinksvm_core::shrink::ShrinkPolicy;
use shrinksvm_datagen::PaperDataset;
use shrinksvm_mpisim::CostParams;

#[test]
fn pair_comm_matches_the_executed_makespan_without_compute() {
    let zero = ComputeCharge {
        lambda_per_nnz: 0.0,
        kernel_overhead: 0.0,
        cache_lookup: 0.0,
        fma_per_elem: 0.0,
    };
    for dataset in [PaperDataset::Higgs, PaperDataset::Adult9] {
        let data = dataset.generate(0.08);
        let params = SvmParams::new(data.c, KernelKind::rbf_from_sigma_sq(data.sigma_sq))
            .with_epsilon(1e-3)
            .with_shrink(ShrinkPolicy::none());
        let row_bytes =
            SAMPLE_HEADER_BYTES as f64 + ENTRY_BYTES as f64 * data.train.x.mean_row_nnz();
        for (net_name, net) in [
            ("fdr", CostParams::fdr()),
            ("10g", CostParams::ethernet_10g()),
        ] {
            for p in [4, 16] {
                let run = DistSolver::new(&data.train, params.clone())
                    .with_processes(p)
                    .with_cost(net)
                    .with_charge(zero)
                    .train()
                    .expect("training succeeds");
                assert!(run.converged);
                let model = MachineModel { charge: zero, net };
                let projected = model.project(&run.trace, p, row_bytes).pair_comm;
                let ratio = projected / run.makespan;
                eprintln!(
                    "{} p={p} {net_name}: projected/executed {ratio:.4}",
                    data.name
                );
                assert!(
                    (ratio - 1.0).abs() <= 0.02,
                    "{} p={p} {net_name}: projected pair_comm {projected:.6e} s vs executed \
                     makespan {:.6e} s (ratio {ratio:.4})",
                    data.name,
                    run.makespan
                );
            }
        }
    }
}

/// Multi5pc's projected/executed compute band. Shrinking leaves the ranks'
/// active sets unequal, and the makespan follows the largest one, which
/// the projector's `A_t/p` does not see: the ratio runs below 1.
const MULTI_BAND: (f64, f64) = (0.75, 1.05);

#[test]
fn compute_terms_match_the_executed_makespan_without_network() {
    let model = MachineModel {
        charge: ComputeCharge::default(),
        net: CostParams::zero(),
    };
    for dataset in [PaperDataset::Higgs, PaperDataset::Adult9, PaperDataset::Url] {
        let data = dataset.generate(0.08);
        let row_bytes =
            SAMPLE_HEADER_BYTES as f64 + ENTRY_BYTES as f64 * data.train.x.mean_row_nnz();
        for policy in [ShrinkPolicy::none(), ShrinkPolicy::best()] {
            let params = SvmParams::new(data.c, KernelKind::rbf_from_sigma_sq(data.sigma_sq))
                .with_epsilon(1e-3)
                .with_shrink(policy);
            for p in [1, 4, 16] {
                let run = DistSolver::new(&data.train, params.clone())
                    .with_processes(p)
                    .with_cost(CostParams::zero())
                    .with_charge(model.charge)
                    .train()
                    .expect("training succeeds");
                assert!(run.converged);
                let proj = model.project(&run.trace, p, row_bytes);
                let compute = proj.gamma_compute + proj.alpha_compute + proj.recon_compute;
                let ratio = compute / run.makespan;
                let tag = format!("{} {} p={p}", data.name, policy.name());
                eprintln!("{tag}: projected compute/executed {ratio:.4}");
                if policy.is_none() {
                    assert!(
                        (ratio - 1.0).abs() <= 0.05,
                        "{tag}: projected compute {compute:.6e} s vs executed makespan \
                         {:.6e} s (ratio {ratio:.4})",
                        run.makespan
                    );
                } else {
                    assert!(
                        (MULTI_BAND.0..=MULTI_BAND.1).contains(&ratio),
                        "{tag}: ratio {ratio:.4} outside {MULTI_BAND:?}"
                    );
                }
            }
        }
    }
}
