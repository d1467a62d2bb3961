//! Micro-probes: host timings of single public layer calls, on the
//! workload's own rows and at its own rank count. Each probe repeats a
//! fixed batch of calls for its time budget and reports the median batch.

use std::hint::black_box;
use std::time::{Duration, Instant};

use shrinksvm_core::kernel::{KernelEval, KernelKind};
use shrinksvm_mpisim::Universe;
use shrinksvm_sparse::{io, ops, CsrMatrix, ScratchPad};
use shrinksvm_threads::ThreadPool;

use crate::stats::Summary;

/// Fewest batches a probe times, however long a batch takes.
const MIN_BATCHES: usize = 3;

/// Repeat `batch` for about `budget` (at least [`MIN_BATCHES`] times) and
/// return the median of the per-batch results it reports.
pub fn repeat(budget: Duration, mut batch: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut results = Vec::new();
    while results.len() < MIN_BATCHES || start.elapsed() < budget {
        results.push(batch());
    }
    Summary::of(&results).median
}

/// Seconds `f` takes.
fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Deterministic row pairs spread over `n` rows.
fn pairs(n: usize) -> Vec<(usize, usize)> {
    (0..4096usize)
        .map(|k| (k.wrapping_mul(2_654_435_761) % n, (k * 40_503 + 7) % n))
        .collect()
}

/// `ops::dot` (two-pointer merge join), ns per stored entry walked.
pub fn dot_merge_ns_per_nnz(x: &CsrMatrix, budget: Duration) -> f64 {
    let pairs = pairs(x.nrows());
    let nnz: usize = pairs
        .iter()
        .map(|&(i, j)| x.row_nnz(i) + x.row_nnz(j))
        .sum();
    repeat(budget, || {
        let secs = timed(|| {
            let mut acc = 0.0;
            for &(i, j) in &pairs {
                acc += ops::dot(x.row(i), x.row(j));
            }
            black_box(acc);
        });
        secs * 1e9 / nnz as f64
    })
}

/// `ScratchPad::load` of a pivot row, then `ScratchPad::dot` of every row
/// against it: ns per stored entry touched (scatter plus gathers).
pub fn dot_scatter_ns_per_nnz(x: &CsrMatrix, budget: Duration) -> f64 {
    let pivots: Vec<usize> = pairs(x.nrows()).iter().take(8).map(|p| p.0).collect();
    let nnz: usize = pivots.iter().map(|&j| x.row_nnz(j) + x.nnz()).sum();
    let mut pad = ScratchPad::new(x.ncols());
    repeat(budget, || {
        let secs = timed(|| {
            let mut acc = 0.0;
            for &j in &pivots {
                pad.load(x.row(j));
                for i in 0..x.nrows() {
                    acc += pad.dot(x.row(i));
                }
                pad.clear();
            }
            black_box(acc);
        });
        secs * 1e9 / nnz as f64
    })
}

/// `KernelEval::k` on row pairs, ns per evaluation.
pub fn kernel_eval_ns(kind: KernelKind, x: &CsrMatrix, budget: Duration) -> f64 {
    let ke = KernelEval::new(kind, x);
    let pairs = pairs(x.nrows());
    repeat(budget, || {
        let secs = timed(|| {
            let mut acc = 0.0;
            for &(i, j) in &pairs {
                acc += ke.k(i, j);
            }
            black_box(acc);
        });
        secs * 1e9 / pairs.len() as f64
    })
}

/// `io::read_libsvm_from` throughput on `text`, MB/s.
pub fn libsvm_read_mb_per_s(text: &[u8], budget: Duration) -> f64 {
    repeat(budget, || {
        let secs = timed(|| {
            black_box(io::read_libsvm_from(text).expect("benchmark text parses"));
        });
        text.len() as f64 / 1e6 / secs
    })
}

/// `Universe::new(p).run` of an empty program: ms to spawn and join the
/// rank threads.
pub fn spawn_ms(p: usize, budget: Duration) -> f64 {
    repeat(budget, || {
        timed(|| {
            black_box(Universe::new(p).run(|comm| comm.rank()));
        }) * 1e3
    })
}

/// Mean µs per call of `op`, run `calls` times on every rank after a
/// barrier, as rank 0's clock sees it.
fn collective_us<F>(p: usize, calls: usize, budget: Duration, op: F) -> f64
where
    F: Fn(&mut shrinksvm_mpisim::Comm) + Send + Sync,
{
    repeat(budget, || {
        let outcomes = Universe::new(p).run(|comm| {
            comm.barrier();
            let t = Instant::now();
            for _ in 0..calls {
                op(comm);
            }
            t.elapsed().as_secs_f64()
        });
        outcomes[0].value * 1e6 / calls as f64
    })
}

/// `Comm::allreduce_f64_sum`, µs per call.
pub fn allreduce_us(p: usize, budget: Duration) -> f64 {
    collective_us(p, 100, budget, |comm| {
        black_box(comm.allreduce_f64_sum(comm.rank() as f64));
    })
}

/// `Comm::bcast` of 4 KiB from rank 0, µs per call.
pub fn bcast_4k_us(p: usize, budget: Duration) -> f64 {
    let payload = vec![7u8; 4096];
    collective_us(p, 20, budget, |comm| {
        let data = if comm.rank() == 0 {
            payload.clone()
        } else {
            Vec::new()
        };
        black_box(comm.bcast(0, &data));
    })
}

/// `Comm::ring_shift` of 4 KiB, µs per call.
pub fn ring_shift_4k_us(p: usize, budget: Duration) -> f64 {
    collective_us(p, 8, budget, |comm| {
        black_box(comm.ring_shift(&[comm.rank() as u8; 4096]));
    })
}

/// `ThreadPool::new(2).parallel_parts` over two halves of `n` values (it
/// spawns its workers per call), µs per call.
pub fn parallel_parts_us(n: usize, budget: Duration) -> f64 {
    const CALLS: usize = 50;
    let pool = ThreadPool::new(2);
    let mut data = vec![1.0f64; n.max(2)];
    let bounds = [0, data.len() / 2, data.len()];
    repeat(budget, || {
        timed(|| {
            for _ in 0..CALLS {
                black_box(
                    pool.parallel_parts(&mut data, &bounds, |_, _, part| part.iter().sum::<f64>()),
                );
            }
        }) * 1e6
            / CALLS as f64
    })
}
