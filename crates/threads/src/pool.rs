//! The fork-join pool.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::schedule::{static_block, Schedule};
use crate::stats::PoolStats;

/// A fork-join thread pool with OpenMP-like semantics.
///
/// Each parallel region spawns (scoped) workers, so closures may borrow from
/// the caller's stack freely — the same capture model as an OpenMP
/// `parallel for`. With one worker every region runs inline, which keeps
/// single-threaded runs deterministic and overhead-free.
#[derive(Debug)]
pub struct ThreadPool {
    nthreads: usize,
    schedule: Schedule,
    stats: PoolStats,
}

impl ThreadPool {
    /// A pool with `nthreads` workers (clamped to ≥ 1) and static scheduling.
    pub fn new(nthreads: usize) -> Self {
        let nthreads = nthreads.max(1);
        ThreadPool {
            nthreads,
            schedule: Schedule::Static,
            stats: PoolStats::new(nthreads),
        }
    }

    /// A pool sized to the machine (`available_parallelism`).
    pub fn with_available_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ThreadPool::new(n)
    }

    /// Override the scheduling policy.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        if let Schedule::Dynamic { chunk } = schedule {
            assert!(chunk >= 1, "dynamic chunk must be >= 1");
        }
        self.schedule = schedule;
        self
    }

    /// Worker count.
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Activity counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// `for i in range { f(i) }`, parallelized.
    pub fn parallel_for<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let n = range.end.saturating_sub(range.start);
        let t = self.nthreads.min(n);
        if t <= 1 {
            self.stats.record_region(n, true);
            for i in range {
                f(i);
            }
            return;
        }
        self.stats.record_region(n, false);
        match self.schedule {
            Schedule::Static => std::thread::scope(|s| {
                for w in 0..t {
                    let f = &f;
                    let (lo, hi) = static_block(range.start, n, w, t);
                    self.stats.record_worker(w, hi - lo);
                    s.spawn(move || {
                        for i in lo..hi {
                            f(i);
                        }
                    });
                }
            }),
            Schedule::Dynamic { chunk } => {
                let counter = AtomicUsize::new(range.start);
                let end = range.end;
                std::thread::scope(|s| {
                    for w in 0..t {
                        let f = &f;
                        let counter = &counter;
                        let stats = &self.stats;
                        s.spawn(move || loop {
                            // relaxed: fetch_add is a total-order RMW on this one
                            // counter; the scope join publishes f's effects
                            let lo = counter.fetch_add(chunk, Ordering::Relaxed);
                            if lo >= end {
                                break;
                            }
                            let hi = (lo + chunk).min(end);
                            stats.record_worker(w, hi - lo);
                            for i in lo..hi {
                                f(i);
                            }
                        });
                    }
                });
            }
        }
    }

    /// Partition `data` into one contiguous chunk per worker and run
    /// `f(global_offset, chunk)` on each — the safe way to *mutate* a slice
    /// in parallel (each worker owns its chunk exclusively).
    pub fn parallel_for_slices<T, F>(&self, data: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let n = data.len();
        let t = self.nthreads.min(n);
        if t <= 1 {
            self.stats.record_region(n, true);
            f(0, data);
            return;
        }
        self.stats.record_region(n, false);
        std::thread::scope(|s| {
            let mut rest = data;
            let mut offset = 0usize;
            for w in 0..t {
                let (lo, hi) = static_block(0, n, w, t);
                let (chunk, tail) = rest.split_at_mut(hi - lo);
                rest = tail;
                let f = &f;
                let off = offset;
                offset += chunk.len();
                self.stats.record_worker(w, chunk.len());
                s.spawn(move || f(off, chunk));
            }
        });
    }

    /// Run one closure per caller-defined part of `data`, in parallel, and
    /// return the per-part results **in part order**.
    ///
    /// `bounds` are ascending split positions into `data`: part `w` is
    /// `data[bounds[w]..bounds[w + 1]]`, so `bounds.len() - 1` parts run.
    /// Elements outside `[bounds[0], bounds[last])` are not handed to any
    /// part. The closure receives `(part_index, offset_of_part_in_data,
    /// part)` and its return values are collected into a `Vec` indexed by
    /// part.
    ///
    /// This is the deterministic-merge building block for fused sweeps: the
    /// caller fixes the partition (e.g. equal shares of the *active* rows,
    /// cut back to raw-index space), every part mutates only its own
    /// sub-slice, and the caller folds the returned partials left-to-right.
    /// Because the fold order is the part order — not completion order —
    /// results are independent of thread scheduling; and when the per-part
    /// partials are themselves partition-independent under the caller's
    /// merge (positionwise writes, integer sums, total-order min/max), the
    /// final result is bit-identical at every thread count.
    ///
    /// # Panics
    /// If `bounds` is empty, not ascending, or exceeds `data.len()`.
    pub fn parallel_parts<T, R, F>(&self, data: &mut [T], bounds: &[usize], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, usize, &mut [T]) -> R + Sync,
    {
        assert!(!bounds.is_empty(), "bounds must list at least one position");
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "bounds must be ascending"
        );
        assert!(
            bounds[bounds.len() - 1] <= data.len(),
            "bounds exceed data length"
        );
        let parts = bounds.len() - 1;
        let covered = bounds[parts] - bounds[0];
        if parts == 0 {
            self.stats.record_region(0, true);
            return Vec::new();
        }
        if self.nthreads <= 1 || parts <= 1 {
            self.stats.record_region(covered, true);
            return (0..parts)
                .map(|w| {
                    let (lo, hi) = (bounds[w], bounds[w + 1]);
                    f(w, lo, &mut data[lo..hi])
                })
                .collect();
        }
        self.stats.record_region(covered, false);
        let mut results: Vec<Option<R>> = (0..parts).map(|_| None).collect();
        std::thread::scope(|s| {
            // Walk the slice once, splitting off each part; parts own
            // disjoint sub-slices so they may run (and mutate) concurrently.
            let mut rest = &mut data[bounds[0]..bounds[parts]];
            let mut consumed = bounds[0];
            for (w, slot) in results.iter_mut().enumerate() {
                let len = bounds[w + 1] - bounds[w];
                let (part, tail) = rest.split_at_mut(len);
                rest = tail;
                let off = consumed;
                consumed += len;
                let f = &f;
                self.stats.record_worker(w % self.nthreads, len);
                s.spawn(move || {
                    *slot = Some(f(w, off, part));
                });
            }
        });
        // Every slot is Some: the scope joins all spawned threads before
        // returning, and a part panic propagates out of the scope.
        let collected: Vec<R> = results.into_iter().flatten().collect();
        debug_assert_eq!(collected.len(), parts, "every part completes");
        collected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_visits_every_index_once() {
        for nthreads in [1, 2, 4] {
            for sched in [Schedule::Static, Schedule::Dynamic { chunk: 3 }] {
                let pool = ThreadPool::new(nthreads).with_schedule(sched);
                let n = 101;
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                pool.parallel_for(0..n, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn dynamic_schedule_exactly_once_under_contention() {
        // Hammer the work-stealing counter: far more threads than cores,
        // chunk size 1 (every index is a separate claim), and an offset
        // range. Every index must be visited exactly once — the contended
        // fetch_add must neither skip nor duplicate work.
        let n = 10_000;
        let offset = 1_000;
        for chunk in [1, 2, 7] {
            let pool = ThreadPool::new(32).with_schedule(Schedule::Dynamic { chunk });
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            pool.parallel_for(offset..offset + n, |i| {
                hits[i - offset].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                let c = h.load(Ordering::Relaxed);
                assert_eq!(
                    c,
                    1,
                    "chunk={chunk}: index {} visited {c} times",
                    i + offset
                );
            }
        }
    }

    #[test]
    fn parallel_for_empty_range_is_noop() {
        let pool = ThreadPool::new(4);
        pool.parallel_for(5..5, |_| panic!("must not run"));
    }

    #[test]
    fn parallel_for_offset_range() {
        let pool = ThreadPool::new(3);
        let sum = AtomicU64::new(0);
        pool.parallel_for(10..20, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (10..20u64).sum());
    }

    #[test]
    fn slices_partition_disjointly() {
        for nthreads in [1, 2, 5] {
            let pool = ThreadPool::new(nthreads);
            let mut data = vec![0u64; 97];
            pool.parallel_for_slices(&mut data, |off, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (off + k) as u64;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, i as u64);
            }
        }
    }

    #[test]
    fn parts_respect_bounds_and_order() {
        for nthreads in [1, 2, 4] {
            let pool = ThreadPool::new(nthreads);
            let mut data = vec![0u64; 20];
            // Three uneven parts over [2, 17); ends untouched.
            let bounds = [2usize, 5, 11, 17];
            let sums = pool.parallel_parts(&mut data, &bounds, |w, off, part| {
                for (k, v) in part.iter_mut().enumerate() {
                    *v = (off + k) as u64 * 10 + w as u64;
                }
                part.iter().sum::<u64>()
            });
            assert_eq!(sums.len(), 3);
            // Results arrive in part order regardless of completion order.
            for (w, s) in sums.iter().enumerate() {
                let (lo, hi) = (bounds[w], bounds[w + 1]);
                let expect: u64 = (lo..hi).map(|i| i as u64 * 10 + w as u64).sum();
                assert_eq!(*s, expect, "nthreads={nthreads} part {w}");
            }
            assert_eq!(data[0], 0);
            assert_eq!(data[1], 0);
            assert_eq!(data[17], 0);
            assert_eq!(data[5], 51);
        }
    }

    #[test]
    fn parts_results_identical_across_thread_counts() {
        let run = |nthreads: usize| -> (Vec<u64>, Vec<u64>) {
            let pool = ThreadPool::new(nthreads);
            let mut data: Vec<u64> = (0..50).collect();
            let bounds = [0usize, 13, 26, 39, 50];
            let partials = pool.parallel_parts(&mut data, &bounds, |_, _, part| {
                for v in part.iter_mut() {
                    *v = *v * *v;
                }
                part.iter().sum::<u64>()
            });
            (data, partials)
        };
        let base = run(1);
        assert_eq!(run(2), base);
        assert_eq!(run(8), base);
    }

    #[test]
    fn parts_empty_part_allowed() {
        let pool = ThreadPool::new(4);
        let mut data = vec![1u64; 6];
        let lens = pool.parallel_parts(&mut data, &[0, 3, 3, 6], |_, _, p| p.len());
        assert_eq!(lens, vec![3, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn parts_reject_descending_bounds() {
        let pool = ThreadPool::new(2);
        let mut data = vec![0u64; 4];
        pool.parallel_parts(&mut data, &[3, 1], |_, _, _| ());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.nthreads(), 1);
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for(0..4, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn stats_track_regions() {
        let pool = ThreadPool::new(2);
        pool.parallel_for(0..10, |_| {});
        pool.parallel_for(0..0, |_| {});
        assert_eq!(pool.stats().regions(), 2);
        assert_eq!(pool.stats().items(), 10);
        assert_eq!(pool.stats().sequential_fallbacks(), 1);
    }

    #[test]
    fn single_item_runs_inline() {
        let pool = ThreadPool::new(8);
        let tid = std::thread::current().id();
        pool.parallel_for(0..1, |_| {
            assert_eq!(std::thread::current().id(), tid);
        });
    }
}
