//! The four workloads and the inputs each run builds from its seed.
//!
//! Each workload is one paper dataset analog ([`PaperDataset`]) at a fixed
//! size, trained with the paper's best shrinking heuristic (Multi5pc) on a
//! fixed simulated machine (ranks, intra-rank threads, kernel-cache budget,
//! network). The cost model is pinned here: [`CHARGE`] spells out the
//! compute charges instead of taking `ComputeCharge::default()`, so a
//! recalibration of the default cannot move the modeled metrics unnoticed.
//!
//! The seed permutes the training rows. A permutation changes the block
//! partition across ranks, the index tie-breaks of pivot selection and so
//! the whole shrinking trajectory, while the problem — and therefore what
//! a speed-up means — stays the preset's. Seed 0's first input is the
//! unpermuted preset, byte for byte the rows `PaperDataset::generate`
//! yields.

use shrinksvm_core::dist::{DistRunResult, DistSolver};
use shrinksvm_core::kernel::KernelKind;
use shrinksvm_core::params::SvmParams;
use shrinksvm_core::perfmodel::ComputeCharge;
use shrinksvm_core::shrink::ShrinkPolicy;
use shrinksvm_core::CoreError;
use shrinksvm_datagen::PaperDataset;
use shrinksvm_mpisim::CostParams;
use shrinksvm_sparse::{io, Dataset};

use crate::spans::Spans;

/// Compute charges of the simulated clocks, pinned (today's defaults).
pub const CHARGE: ComputeCharge = ComputeCharge {
    lambda_per_nnz: 2.0e-9,
    kernel_overhead: 25.0e-9,
    cache_lookup: 30.0e-9,
    fma_per_elem: 0.5e-9,
};

/// Convergence tolerance ε of every workload (the paper's default).
pub const EPSILON: f64 = 1e-3;

/// Training inputs per run: permutations `seed·K .. seed·K + K − 1` of the
/// training rows. A run reports the median over its inputs, so one unlucky
/// permutation does not set its result.
pub const INPUTS_PER_RUN: u64 = 9;

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// Dataset analog.
    pub preset: PaperDataset,
    /// `PaperDataset::generate` scale of the row pool.
    pub pool_scale: f64,
    /// Training rows: the head of the pool. The test rows are the preset's
    /// own test split where it has one, else the rest of the pool.
    pub train_rows: usize,
    /// Simulated ranks.
    pub p: usize,
    /// Intra-rank worker threads.
    pub threads: usize,
    /// Per-rank kernel-cache budget in bytes (0: cache-free, the paper's
    /// Algorithm 2).
    pub cache_bytes: usize,
    /// Network cost model.
    pub network: CostParams,
    /// Iteration cap; a run that hits it has failed.
    pub max_iter: u64,
}

impl Workload {
    /// Every workload, in the order the suite runs them.
    pub fn all() -> [Workload; 4] {
        let base = Workload {
            name: "",
            why: "",
            preset: PaperDataset::Higgs,
            pool_scale: 0.0,
            train_rows: 0,
            p: 1,
            threads: 1,
            cache_bytes: 0,
            network: CostParams::fdr(),
            max_iter: 3_000_000,
        };
        [
            Workload {
                name: "url_p1t2",
                why: "URL analog, 1 rank x 2 threads, kernel cache of a quarter of the matrix: wall time is kernel, sparse-dot, cache and thread work; the network does nothing",
                preset: PaperDataset::Url,
                pool_scale: 0.125,
                train_rows: 600,
                threads: 2,
                // A quarter of the 600×600 kernel matrix: the coverage a
                // 4 MiB cache gives 1500 rows. Hit rates follow coverage,
                // not bytes; a 4 MiB cache would hold this whole matrix.
                cache_bytes: 640 << 10,
                ..base.clone()
            },
            Workload {
                name: "higgs_fig3_p4",
                why: "HIGGS analog at p=4, cache-free FDR (the paper's Fig 3 setting): shrinking and reconstruction set the cost",
                preset: PaperDataset::Higgs,
                pool_scale: 0.2,
                train_rows: 900,
                p: 4,
                ..base.clone()
            },
            Workload {
                name: "higgs_small_p16_10g",
                why: "HIGGS analog, under 40 rows per rank at p=16 on 10G Ethernet: modeled time is communication, wall time is rank-thread handoffs",
                preset: PaperDataset::Higgs,
                pool_scale: 0.125,
                train_rows: 600,
                p: 16,
                network: CostParams::ethernet_10g(),
                ..base.clone()
            },
            Workload {
                name: "a9a_train_predict",
                why: "Adult-9 analog at p=2 with its own test split: prediction merge-joins every row against every support vector, unlike training",
                preset: PaperDataset::Adult9,
                pool_scale: 0.3,
                train_rows: 750,
                p: 2,
                ..base
            },
        ]
    }

    /// The workload named `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// Solver parameters for `policy` (the preset's `C` and `σ²`).
    pub fn params(&self, inputs: &Inputs, policy: ShrinkPolicy) -> SvmParams {
        SvmParams::new(inputs.c, KernelKind::rbf_from_sigma_sq(inputs.sigma_sq))
            .with_epsilon(EPSILON)
            .with_max_iter(self.max_iter)
            .with_shrink(policy)
            .with_cache_bytes(self.cache_bytes)
    }

    /// The distributed solver on `train`, configured as this workload.
    pub fn solver<'a>(&self, train: &'a Dataset, params: SvmParams) -> DistSolver<'a> {
        DistSolver::new(train, params)
            .with_processes(self.p)
            .with_threads(self.threads)
            .with_cost(self.network)
            .with_charge(CHARGE)
    }

    /// Train `train` under `policy`, untraced.
    pub fn train(
        &self,
        inputs: &Inputs,
        train: &Dataset,
        policy: ShrinkPolicy,
    ) -> Result<DistRunResult, CoreError> {
        self.solver(train, self.params(inputs, policy)).train()
    }
}

/// What a run trains and predicts, built from the seed.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// [`INPUTS_PER_RUN`] permutations of the training rows.
    pub train: Vec<Dataset>,
    /// Held-out rows.
    pub test: Dataset,
    /// The training rows in libsvm text, as parsed.
    pub train_text: Vec<u8>,
    /// Box constraint `C` of the preset.
    pub c: f64,
    /// Gaussian width `σ²` of the preset.
    pub sigma_sq: f64,
}

impl Inputs {
    /// Generate the workload's rows, round-trip them through libsvm text
    /// (the solver sees what a data file would give it) and permute the
    /// training rows by `seed`: input `k` is permutation `seed·K + k`,
    /// where key 0 is the identity.
    pub fn build(w: &Workload, seed: u64, spans: &mut Spans) -> Inputs {
        let rows = spans.scope("generate", |_| w.preset.generate(w.pool_scale));
        let (train, test) = match rows.test {
            Some(test) => (rows.train, test),
            None => rows.train.split_at(w.train_rows),
        };
        assert_eq!(train.len(), w.train_rows, "{}: pool too small", w.name);
        let (train, test, train_text) = spans.scope("libsvm_roundtrip", |_| {
            let parse =
                |text: &[u8]| io::read_libsvm_from(text).expect("libsvm text we wrote parses");
            let train_text = libsvm_text(&train);
            (parse(&train_text), parse(&libsvm_text(&test)), train_text)
        });
        let train = spans.scope("permute", |_| {
            (0..INPUTS_PER_RUN)
                .map(
                    |k| match seed.wrapping_mul(INPUTS_PER_RUN).wrapping_add(k) {
                        0 => train.clone(),
                        key => train.shuffled(key),
                    },
                )
                .collect()
        });
        Inputs {
            train,
            test,
            train_text,
            c: rows.c,
            sigma_sq: rows.sigma_sq,
        }
    }

    /// Whether `other` holds the same rows, labels and hyper-parameters.
    pub fn same_as(&self, other: &Inputs) -> bool {
        let same = |a: &Dataset, b: &Dataset| a.x == b.x && a.y == b.y;
        self.train.len() == other.train.len()
            && self.train.iter().zip(&other.train).all(|(a, b)| same(a, b))
            && same(&self.test, &other.test)
            && (self.c, self.sigma_sq) == (other.c, other.sigma_sq)
    }
}

fn libsvm_text(ds: &Dataset) -> Vec<u8> {
    let mut text = Vec::new();
    io::write_libsvm_to(ds, &mut text).expect("writing to memory cannot fail");
    text
}
