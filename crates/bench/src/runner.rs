//! Shared experiment machinery: baseline measurement, distributed trace
//! capture, and scaling projection.

use std::cell::Cell;
use std::path::PathBuf;
use std::time::Instant;

use shrinksvm_core::dist::msg::{ENTRY_BYTES, SAMPLE_HEADER_BYTES};
use shrinksvm_core::dist::{DistRunResult, DistSolver};
use shrinksvm_core::kernel::KernelKind;
use shrinksvm_core::metrics::accuracy;
use shrinksvm_core::params::SvmParams;
use shrinksvm_core::perfmodel::MachineModel;
use shrinksvm_core::shrink::ShrinkPolicy;
use shrinksvm_core::smo::SmoSolver;
use shrinksvm_datagen::PaperData;
use shrinksvm_obs::BenchReport;

/// The node size of the paper's testbed (16-core SandyBridge).
pub const BASELINE_THREADS: usize = 16;

/// Process grid used by the scaling figures (the paper's x-axes).
pub const PAPER_P_GRID: &[usize] = &[16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Process counts small enough to *really execute* as threads for
/// validation columns.
pub const VALIDATE_P: &[usize] = &[1, 2, 4, 8];

/// Shared context: output directory, dataset scale, calibrated machine
/// model.
pub struct Ctx {
    /// Dataset scale multiplier (1.0 = harness defaults).
    pub scale: f64,
    /// Where result files go.
    pub out_dir: PathBuf,
    /// Calibrated cost model (λ measured on this host; re-calibrated per
    /// dataset because sparse merge-joins cost several times more per
    /// stored entry than dense ones).
    model: Cell<MachineModel>,
}

impl Ctx {
    /// Build a context, calibrating `λ` on a small synthetic sample.
    pub fn new(scale: f64, out_dir: PathBuf) -> Self {
        let probe = shrinksvm_datagen::gaussian::two_blobs(256, 32, 3.0, 99);
        let model = MachineModel::calibrate(KernelKind::Rbf { gamma: 0.1 }, &probe.x);
        Ctx {
            scale,
            out_dir,
            model: Cell::new(model),
        }
    }

    /// Current machine model.
    pub fn model(&self) -> MachineModel {
        self.model.get()
    }

    /// Re-measure `λ` on this dataset's actual rows (sparse and dense data
    /// have very different per-entry costs). Every experiment driver calls
    /// this once per dataset before measuring or projecting.
    pub fn recalibrate(&self, data: &PaperData) {
        let model =
            MachineModel::calibrate(KernelKind::rbf_from_sigma_sq(data.sigma_sq), &data.train.x);
        self.model.set(model);
    }

    /// Hyper-parameters for a paper dataset (Table III values).
    pub fn params_for(&self, data: &PaperData) -> SvmParams {
        SvmParams::new(data.c, KernelKind::rbf_from_sigma_sq(data.sigma_sq))
            .with_epsilon(1e-3)
            .with_max_iter(3_000_000)
    }
}

/// Measured baseline (the libsvm / libsvm-enhanced analog).
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Measured single-thread wall seconds (libsvm-sequential analog,
    /// whole-memory kernel cache).
    pub t_seq: f64,
    /// Modeled 16-thread wall seconds (libsvm-enhanced analog; Amdahl on
    /// the measured kernel fraction — this host has one core).
    pub t_enhanced16: f64,
    /// Fraction of `t_seq` attributable to kernel evaluations.
    pub kernel_fraction: f64,
    /// Baseline iterations.
    pub iterations: u64,
    /// Training accuracy on the test split, if one exists.
    pub test_accuracy: Option<f64>,
}

/// The paper grants libsvm "a compute node's entire memory as a kernel
/// cache" (§V-A) — on PNNL Cascade, ~64 GB usable. What matters for hit
/// rates is the *fraction of the kernel matrix the cache can hold*:
/// 64 GB covers a 24k-sample matrix completely but only ~0.1% of HIGGS's.
/// A scaled-down analog must preserve that coverage fraction or the
/// baseline becomes unrealistically strong.
pub fn baseline_cache_bytes(paper_n: usize, ours_n: usize) -> usize {
    const NODE_CACHE: f64 = 64e9;
    let paper_matrix = paper_n as f64 * paper_n as f64 * 8.0;
    let coverage = (NODE_CACHE / paper_matrix).min(1.0);
    (coverage * ours_n as f64 * ours_n as f64 * 8.0) as usize
}

/// Train the sequential baseline with the coverage-scaled kernel cache and
/// measure it.
pub fn run_baseline(ctx: &Ctx, data: &PaperData) -> Baseline {
    let cache = baseline_cache_bytes(data.paper_train_size, data.train.len());
    let params = ctx.params_for(data).with_cache_bytes(cache);
    #[allow(clippy::disallowed_methods)]
    // allow-wall-clock: the sequential baseline's host time is the measured T_seq
    let start = Instant::now();
    let out = SmoSolver::new(&data.train, params)
        .train()
        .expect("baseline training failed");
    let t_seq = start.elapsed().as_secs_f64().max(1e-9);
    let kernel_time = out.kernel_evals as f64
        * ctx
            .model()
            .charge
            .eval_cost((2.0 * data.train.x.mean_row_nnz()).ceil() as usize);
    let kernel_fraction = (kernel_time / t_seq).clamp(0.05, 0.98);
    let t_enhanced16 = MachineModel::baseline_threads(t_seq, kernel_fraction, BASELINE_THREADS);
    let test_accuracy = data.test.as_ref().map(|t| accuracy(&out.model, t));
    Baseline {
        t_seq,
        t_enhanced16,
        kernel_fraction,
        iterations: out.iterations,
        test_accuracy,
    }
}

/// A captured distributed run: the real threaded execution (at a small p)
/// whose trace feeds the projections.
pub struct Captured {
    /// Policy that produced it.
    pub policy: ShrinkPolicy,
    /// The run (trace, model, simulated clocks).
    pub run: DistRunResult,
    /// Test accuracy, if a split exists.
    pub test_accuracy: Option<f64>,
}

/// Execute a distributed run at `p` threaded ranks and capture its trace.
pub fn capture(ctx: &Ctx, data: &PaperData, policy: ShrinkPolicy, p: usize) -> Captured {
    let params = ctx.params_for(data).with_shrink(policy);
    let run = DistSolver::new(&data.train, params)
        .with_processes(p)
        .with_charge(ctx.model().charge)
        .train()
        .expect("distributed training failed");
    let test_accuracy = data.test.as_ref().map(|t| accuracy(&run.model, t));
    Captured {
        policy,
        run,
        test_accuracy,
    }
}

/// Build the machine-readable run report for a captured run and write it
/// as `BENCH_<name>.json` under `ctx.out_dir`. `projected` (when given)
/// overrides the modeled time with a scaling projection; `t_original` is
/// the Original-policy time that fills the speedup column.
pub fn write_bench_report(
    ctx: &Ctx,
    name: &str,
    cap: &Captured,
    projected: Option<f64>,
    t_original: Option<f64>,
) -> PathBuf {
    let mut r: BenchReport = cap.run.bench_report(name);
    if let Some(t) = projected {
        r.modeled_time = t;
    }
    if let Some(t0) = t_original {
        if r.modeled_time > 0.0 {
            r.speedup_vs_original = Some(t0 / r.modeled_time);
        }
    }
    if let Some(acc) = cap.test_accuracy {
        r = r.with_extra("test_accuracy", acc);
    }
    r.write(&ctx.out_dir).expect("write bench report")
}

/// Serialized bytes of an average row (for the candidate-round and ring
/// volumes in the projection): [`PairSample::encoded_len_for`] at the mean
/// stored-entry count.
pub fn mean_row_bytes(data: &PaperData) -> f64 {
    SAMPLE_HEADER_BYTES as f64 + ENTRY_BYTES as f64 * data.train.x.mean_row_nnz()
}

/// Modeled total seconds of a captured run at `p` processes.
pub fn projected_time(ctx: &Ctx, data: &PaperData, cap: &Captured, p: usize) -> f64 {
    ctx.model()
        .project(&cap.run.trace, p, mean_row_bytes(data))
        .total()
}

/// Modeled reconstruction fraction at `p` processes.
pub fn projected_recon_fraction(ctx: &Ctx, data: &PaperData, cap: &Captured, p: usize) -> f64 {
    ctx.model()
        .project(&cap.run.trace, p, mean_row_bytes(data))
        .recon_fraction()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shrinksvm_datagen::PaperDataset;

    fn tiny_ctx() -> Ctx {
        Ctx::new(0.05, std::env::temp_dir().join("shrinksvm-runner-test"))
    }

    #[test]
    fn baseline_measures_and_models() {
        let ctx = tiny_ctx();
        let data = PaperDataset::W7a.generate(0.05);
        let b = run_baseline(&ctx, &data);
        assert!(b.t_seq > 0.0);
        assert!(b.t_enhanced16 < b.t_seq, "16 threads must model faster");
        assert!(b.iterations > 0);
        assert!((0.0..=1.0).contains(&b.kernel_fraction));
        let acc = b.test_accuracy.unwrap();
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn capture_and_project_pipeline() {
        // MNIST analog: enough per-sample compute (150 nnz rows) that a
        // few ranks beat one even at tiny scale.
        let ctx = tiny_ctx();
        let data = PaperDataset::Mnist.generate(0.05);
        let cap = capture(&ctx, &data, ShrinkPolicy::best(), 2);
        assert!(cap.run.converged);
        let t1 = projected_time(&ctx, &data, &cap, 1);
        let t4 = projected_time(&ctx, &data, &cap, 4);
        assert!(t1 > 0.0 && t4 > 0.0);
        assert!(t4 < t1, "a few ranks must beat one: t1={t1} t4={t4}");
        let rf = projected_recon_fraction(&ctx, &data, &cap, 64);
        assert!((0.0..1.0).contains(&rf));
    }

    #[test]
    fn cache_coverage_scaling() {
        // w7a (24.7k): 64GB covers the whole matrix -> full cache at our n
        let full = baseline_cache_bytes(24_692, 1000);
        assert_eq!(full, 1000 * 1000 * 8);
        // HIGGS (2.6M): coverage ~0.12% -> tiny cache at our n
        let tiny = baseline_cache_bytes(2_600_000, 3000);
        assert!(tiny < 3000 * 3000 * 8 / 100, "cache {tiny} too generous");
    }

    #[test]
    fn mean_row_bytes_scales_with_nnz() {
        let dense = PaperDataset::Higgs.generate(0.02);
        let sparse = PaperDataset::Url.generate(0.02);
        assert!(mean_row_bytes(&dense) > 44.0);
        // URL rows carry more stored entries than HIGGS? no — HIGGS is
        // dense with 28 features, URL has ~40+teacher entries
        assert!(mean_row_bytes(&sparse) > mean_row_bytes(&dense) * 0.5);
    }
}
