//! Lightweight counters for pool activity.

use std::sync::atomic::{AtomicU64, Ordering};

use shrinksvm_obs::MetricsRegistry;

/// Counters accumulated across every parallel region run by one pool.
/// All methods are thread-safe; reads are `Relaxed` snapshots.
#[derive(Debug, Default)]
pub struct PoolStats {
    regions: AtomicU64,
    items: AtomicU64,
    sequential_fallbacks: AtomicU64,
    /// Items dispatched to each worker slot (slot 0 also absorbs
    /// sequential fallbacks). Length = pool width.
    worker_items: Vec<AtomicU64>,
}

impl PoolStats {
    pub(crate) fn new(nthreads: usize) -> Self {
        PoolStats {
            regions: AtomicU64::new(0),
            items: AtomicU64::new(0),
            sequential_fallbacks: AtomicU64::new(0),
            worker_items: (0..nthreads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn record_region(&self, items: usize, sequential: bool) {
        // relaxed: independent event counters; nothing orders against them
        self.regions.fetch_add(1, Ordering::Relaxed);
        // relaxed: see above
        self.items.fetch_add(items as u64, Ordering::Relaxed);
        if sequential {
            // relaxed: see above
            self.sequential_fallbacks.fetch_add(1, Ordering::Relaxed);
            self.record_worker(0, items);
        }
    }

    pub(crate) fn record_worker(&self, w: usize, items: usize) {
        if let Some(slot) = self.worker_items.get(w) {
            // relaxed: independent event counter; nothing orders against it
            slot.fetch_add(items as u64, Ordering::Relaxed);
        }
    }

    /// Parallel regions entered (`parallel_for` / `parallel_for_slices` /
    /// `parallel_parts` calls).
    pub fn regions(&self) -> u64 {
        // relaxed: monotonic counter probe; approximate reads are fine
        self.regions.load(Ordering::Relaxed)
    }

    /// Total loop iterations dispatched.
    pub fn items(&self) -> u64 {
        // relaxed: monotonic counter probe; approximate reads are fine
        self.items.load(Ordering::Relaxed)
    }

    /// Regions executed inline because there was ≤ 1 worker or ≤ 1 item.
    pub fn sequential_fallbacks(&self) -> u64 {
        // relaxed: monotonic counter probe; approximate reads are fine
        self.sequential_fallbacks.load(Ordering::Relaxed)
    }

    /// Items dispatched per worker slot (slot 0 includes sequential
    /// fallbacks). Static schedules balance these; dynamic schedules show
    /// the actual claim distribution.
    pub fn worker_items(&self) -> Vec<u64> {
        self.worker_items
            .iter()
            // relaxed: monotonic counter probe; approximate reads are fine
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Snapshot the counters into a metrics registry: totals as counters,
    /// per-worker dispatch shares as `worker<w>.items` /
    /// `worker<w>.busy_share` gauges (share of all dispatched items, so a
    /// perfectly balanced pool of `t` workers reads `1/t` everywhere and
    /// idle workers read `0`).
    pub fn to_metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.inc("regions", self.regions());
        m.inc("items", self.items());
        m.inc("sequential_fallbacks", self.sequential_fallbacks());
        let per = self.worker_items();
        let total: u64 = per.iter().sum();
        for (w, &items) in per.iter().enumerate() {
            m.set_gauge(&format!("worker{w}.items"), items as f64);
            if total > 0 {
                m.set_gauge(
                    &format!("worker{w}.busy_share"),
                    items as f64 / total as f64,
                );
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = PoolStats::new(2);
        s.record_region(10, false);
        s.record_region(5, true);
        assert_eq!(s.regions(), 2);
        assert_eq!(s.items(), 15);
        assert_eq!(s.sequential_fallbacks(), 1);
        // the sequential fallback was absorbed by worker slot 0
        assert_eq!(s.worker_items(), vec![5, 0]);
    }

    #[test]
    fn metrics_export_reports_busy_shares() {
        let s = PoolStats::new(2);
        s.record_region(12, false);
        s.record_worker(0, 9);
        s.record_worker(1, 3);
        let m = s.to_metrics();
        assert_eq!(m.counter("regions"), 1);
        assert_eq!(m.counter("items"), 12);
        assert_eq!(m.gauge("worker0.items"), Some(9.0));
        assert_eq!(m.gauge("worker0.busy_share"), Some(0.75));
        assert_eq!(m.gauge("worker1.busy_share"), Some(0.25));
    }
}
