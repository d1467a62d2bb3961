//! The analytic projector against the simulator it stands in for.
//!
//! With every compute charge at zero, an executed *Original* run's
//! makespan is almost all per-iteration communication — the fused
//! candidate round — plus a few collectives at model assembly. So the
//! projector's `pair_comm`, re-costed from the same run's trace, must land
//! on the executed makespan: the communication half of the projector is
//! the same schedule the solver runs.

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
                let model = MachineModel {
                    charge: zero,
                    iter_overhead: 0.0,
                    net,
                };
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
