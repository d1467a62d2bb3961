//! LRU kernel-row cache.
//!
//! The paper grants the libsvm baseline "a compute node's entire memory as
//! a kernel cache" (§V-A); our distributed solver additionally reuses the
//! same structure per rank for the pivot rows of consecutive iterations
//! (the worst-violator pair is frequently reselected, exactly the locality
//! libsvm's cache exploits). This module is that cache: full kernel rows
//! keyed by sample index, evicted least-recently-used, with
//! hit/miss/insertion/eviction accounting so benchmarks can report cache
//! behavior, plus [`KernelCache::resize_rows`] so the distributed solver
//! can compact cached rows when a shrink pass contracts the active set.
//!
//! Rows are stored behind `Arc` so a caller can hold the two rows of the
//! current working pair while later fetches evict freely underneath.

// lint: ordered — the only iteration over this map (resize_rows) sorts
// the collected indices; lookups are order-blind O(1) on the hot path.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;
use std::sync::Arc;

/// Intrusive doubly-linked-list node over a slab, giving O(1) LRU updates.
/// `data` is `None` between a missed lookup and its fill.
#[derive(Debug)]
struct Node {
    key: usize,
    prev: usize,
    next: usize,
    data: Option<Arc<Vec<f64>>>,
}

const NIL: usize = usize::MAX;

/// What [`KernelCache::lookup`] found.
#[derive(Debug)]
pub enum Lookup {
    /// The row was cached.
    Hit(Arc<Vec<f64>>),
    /// The row must be computed and handed to [`KernelCache::fill`].
    Miss(Ticket),
}

/// A missed row's place in the cache, redeemed by [`KernelCache::fill`].
#[derive(Debug)]
#[must_use = "a missed row is stored only when it is filled"]
pub struct Ticket {
    key: usize,
    /// Slab slot reserved for the row; `NIL` when the cache stores nothing.
    node: usize,
}

/// Hit/miss/insertion/eviction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Rows served from cache.
    pub hits: u64,
    /// Rows that had to be computed.
    pub misses: u64,
    /// Rows stored after a miss (misses with nonzero capacity).
    pub insertions: u64,
    /// Rows evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (zero when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU cache of full kernel rows.
///
/// Fetch a row with [`lookup`](Self::lookup), and on a miss hand the
/// computed row to [`fill`](Self::fill). The distributed sweep looks up its
/// up and low pivots, in that order, before it fills either, so the
/// counters and the LRU order stay those of two fetches in a row.
#[derive(Debug)]
#[allow(clippy::disallowed_types)]
pub struct KernelCache {
    map: HashMap<usize, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity_rows: usize,
    stats: CacheStats,
}

impl KernelCache {
    /// A cache holding at most `capacity_rows` rows.
    #[allow(clippy::disallowed_types)]
    fn with_capacity_rows(capacity_rows: usize) -> Self {
        KernelCache {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity_rows,
            stats: CacheStats::default(),
        }
    }

    /// A cache sized from a byte budget for rows of `row_len` `f64`s.
    ///
    /// A zero budget disables caching entirely (capacity 0). Any nonzero
    /// budget is granted **at least 2 rows**, even if it nominally pays for
    /// fewer: the solvers always work on a pivot *pair*, and a 1-row cache
    /// would evict one pivot to admit the other every single iteration —
    /// pure thrash that is strictly worse than the 2-row floor.
    pub fn with_byte_budget(bytes: usize, row_len: usize) -> Self {
        if bytes == 0 {
            return KernelCache::with_capacity_rows(0);
        }
        let row_bytes = row_len.max(1) * std::mem::size_of::<f64>();
        KernelCache::with_capacity_rows((bytes / row_bytes).max(2))
    }

    /// Maximum rows held.
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }

    /// Rows currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no rows are held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look row `key` up. A hit counts and moves the row to the front. A
    /// miss counts and, unless the capacity is zero, evicts the LRU row
    /// when full and inserts `key` at the front at once; the values follow
    /// in [`fill`](Self::fill). A key looked up again while it still waits
    /// for its fill moves to the front and misses again, for the same slot.
    pub fn lookup(&mut self, key: usize) -> Lookup {
        if let Some(&idx) = self.map.get(&key) {
            self.touch(idx);
            return match &self.nodes[idx].data {
                Some(row) => {
                    self.stats.hits += 1;
                    Lookup::Hit(Arc::clone(row))
                }
                None => {
                    self.stats.misses += 1;
                    Lookup::Miss(Ticket { key, node: idx })
                }
            };
        }
        self.stats.misses += 1;
        if self.capacity_rows == 0 {
            return Lookup::Miss(Ticket { key, node: NIL });
        }
        if self.map.len() >= self.capacity_rows {
            self.evict_lru();
        }
        let idx = self.alloc_node(key, None);
        self.push_front(idx);
        self.map.insert(key, idx);
        self.stats.insertions += 1;
        Lookup::Miss(Ticket { key, node: idx })
    }

    /// Store the computed row of a missed lookup and return it. A row whose
    /// slot was evicted (or cleared) since its lookup is returned without
    /// being stored, as a compute-then-insert would have been evicted.
    pub fn fill(&mut self, ticket: Ticket, row: Vec<f64>) -> Arc<Vec<f64>> {
        let data = Arc::new(row);
        if self.map.get(&ticket.key) == Some(&ticket.node) {
            self.nodes[ticket.node].data = Some(Arc::clone(&data));
        }
        data
    }

    /// Compact every cached row in place: new row `j` is old row `keep[j]`.
    ///
    /// The distributed solver's cached rows span the rank's *active* local
    /// samples in local order; when a shrink pass removes samples, `keep`
    /// lists the old positions that survive (strictly ascending), and this
    /// gathers each cached row down to exactly the new active span. Rows are
    /// rebuilt behind fresh `Arc`s, so outstanding clones of the old,
    /// longer rows stay valid.
    ///
    /// # Panics
    /// Debug builds panic if `keep` is not strictly ascending or indexes
    /// past the end of a cached row.
    pub fn resize_rows(&mut self, keep: &[usize]) {
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]));
        let mut idxs: Vec<usize> = self.map.values().copied().collect();
        idxs.sort_unstable();
        for idx in idxs {
            // a row still waiting for its fill arrives at the new length
            let node = &mut self.nodes[idx];
            if let Some(old) = &node.data {
                let new: Vec<f64> = keep.iter().map(|&p| old[p]).collect();
                node.data = Some(Arc::new(new));
            }
        }
    }

    /// Drop every cached row. Rows do not depend on α, but the distributed
    /// solver's rows are positional over its active list, so it clears the
    /// cache on every gradient reconstruction and checkpoint restore, where
    /// that list is rebuilt wholesale.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn alloc_node(&mut self, key: usize, data: Option<Arc<Vec<f64>>>) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Node {
                key,
                prev: NIL,
                next: NIL,
                data,
            };
            idx
        } else {
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
                data,
            });
            self.nodes.len() - 1
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    fn evict_lru(&mut self) {
        let victim = self.tail;
        debug_assert!(victim != NIL, "evict called on empty cache");
        self.unlink(victim);
        let key = self.nodes[victim].key;
        self.map.remove(&key);
        self.nodes[victim].data = None;
        self.free.push(victim);
        self.stats.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: f64) -> Vec<f64> {
        vec![v; 4]
    }

    /// Fetch one row: a lookup, then a fill when it missed.
    fn fetch(c: &mut KernelCache, key: usize, compute: impl FnOnce() -> Vec<f64>) -> Arc<Vec<f64>> {
        match c.lookup(key) {
            Lookup::Hit(row) => row,
            Lookup::Miss(ticket) => c.fill(ticket, compute()),
        }
    }

    #[test]
    fn hit_after_miss() {
        let mut c = KernelCache::with_capacity_rows(2);
        let a = fetch(&mut c, 7, || row(7.0));
        assert_eq!(a[0], 7.0);
        let b = fetch(&mut c, 7, || panic!("must not recompute"));
        assert_eq!(b[0], 7.0);
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                insertions: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = KernelCache::with_capacity_rows(2);
        fetch(&mut c, 1, || row(1.0));
        fetch(&mut c, 2, || row(2.0));
        fetch(&mut c, 1, || unreachable!()); // touch 1: now 2 is LRU
        fetch(&mut c, 3, || row(3.0)); // evicts 2
        assert_eq!(c.len(), 2);
        fetch(&mut c, 1, || panic!("1 must still be cached"));
        fetch(&mut c, 3, || panic!("3 must still be cached"));
        let mut recomputed = false;
        fetch(&mut c, 2, || {
            recomputed = true;
            row(2.0)
        });
        assert!(recomputed, "2 was evicted and must recompute");
        assert_eq!(c.stats().evictions, 2); // 2 evicted, then (1 or 3)
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = KernelCache::with_capacity_rows(3);
        for k in 0..50 {
            fetch(&mut c, k, || row(k as f64));
            assert!(c.len() <= 3);
        }
        assert_eq!(c.stats().misses, 50);
        assert_eq!(c.stats().evictions, 47);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = KernelCache::with_capacity_rows(0);
        let mut computes = 0;
        for _ in 0..3 {
            fetch(&mut c, 1, || {
                computes += 1;
                row(1.0)
            });
        }
        assert_eq!(computes, 3);
        assert!(c.is_empty());
    }

    #[test]
    fn byte_budget_sizing() {
        // 4 f64s per row = 32 bytes; 100 bytes → 3 rows
        let c = KernelCache::with_byte_budget(100, 4);
        assert_eq!(c.capacity_rows(), 3);
        // A nonzero budget always fits the working pair: floor of 2 rows.
        let c = KernelCache::with_byte_budget(10, 4);
        assert_eq!(c.capacity_rows(), 2);
        let c = KernelCache::with_byte_budget(33, 4);
        assert_eq!(c.capacity_rows(), 2);
        // Zero budget means "no cache", not "tiny cache".
        let c = KernelCache::with_byte_budget(0, 4);
        assert_eq!(c.capacity_rows(), 0);
    }

    #[test]
    fn outstanding_arcs_survive_eviction() {
        let mut c = KernelCache::with_capacity_rows(1);
        let held = fetch(&mut c, 1, || row(1.0));
        fetch(&mut c, 2, || row(2.0)); // evicts 1
        assert_eq!(held[0], 1.0); // still alive through our Arc
    }

    #[test]
    fn clear_empties() {
        let mut c = KernelCache::with_capacity_rows(4);
        fetch(&mut c, 1, || row(1.0));
        fetch(&mut c, 2, || row(2.0));
        c.clear();
        assert!(c.is_empty());
        let mut recomputed = false;
        fetch(&mut c, 1, || {
            recomputed = true;
            row(1.0)
        });
        assert!(recomputed);
    }

    #[test]
    fn hit_rate_math() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            insertions: 1,
            evictions: 0,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-15);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn insertions_counted_only_when_stored() {
        let mut c = KernelCache::with_capacity_rows(0);
        fetch(&mut c, 1, || row(1.0));
        assert_eq!(c.stats().insertions, 0, "capacity 0 never stores");
        let mut c = KernelCache::with_capacity_rows(1);
        fetch(&mut c, 1, || row(1.0));
        fetch(&mut c, 2, || row(2.0)); // evicts 1, inserts 2
        fetch(&mut c, 2, || unreachable!()); // hit: no insert
        assert_eq!(c.stats().insertions, 2);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn resize_rows_compacts_every_cached_row() {
        let mut c = KernelCache::with_capacity_rows(4);
        fetch(&mut c, 10, || vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        fetch(&mut c, 20, || vec![5.0, 6.0, 7.0, 8.0, 9.0]);
        let held = fetch(&mut c, 10, || unreachable!());
        // Positions 0, 2, 4 survive the shrink pass.
        c.resize_rows(&[0, 2, 4]);
        let r10 = fetch(&mut c, 10, || panic!("10 must still be cached"));
        let r20 = fetch(&mut c, 20, || panic!("20 must still be cached"));
        assert_eq!(*r10, vec![0.0, 2.0, 4.0]);
        assert_eq!(*r20, vec![5.0, 7.0, 9.0]);
        // Clones taken before compaction keep the old span.
        assert_eq!(held.len(), 5);
    }

    #[test]
    fn resize_rows_on_empty_cache_is_noop() {
        let mut c = KernelCache::with_capacity_rows(2);
        c.resize_rows(&[0, 1]);
        assert!(c.is_empty());
    }

    /// The one-call fetch as it stood before the lookup/fill split:
    /// compute, then evict and insert. The reference the split must
    /// reproduce.
    fn reference_get_or_compute(
        c: &mut KernelCache,
        key: usize,
        compute: impl FnOnce() -> Vec<f64>,
    ) -> Arc<Vec<f64>> {
        if let Some(&idx) = c.map.get(&key) {
            c.stats.hits += 1;
            c.touch(idx);
            return Arc::clone(c.nodes[idx].data.as_ref().unwrap());
        }
        c.stats.misses += 1;
        let data = Arc::new(compute());
        if c.capacity_rows == 0 {
            return data;
        }
        if c.map.len() >= c.capacity_rows {
            c.evict_lru();
        }
        let idx = c.alloc_node(key, Some(Arc::clone(&data)));
        c.push_front(idx);
        c.map.insert(key, idx);
        c.stats.insertions += 1;
        data
    }

    /// The sweep's order: look every wanted key up, then fill the misses.
    fn lookup_then_fill(
        c: &mut KernelCache,
        keys: &[usize],
        compute: impl Fn(usize) -> Vec<f64>,
    ) -> Vec<Arc<Vec<f64>>> {
        let found: Vec<(usize, Lookup)> = keys.iter().map(|&k| (k, c.lookup(k))).collect();
        found
            .into_iter()
            .map(|(k, l)| match l {
                Lookup::Hit(row) => row,
                Lookup::Miss(ticket) => c.fill(ticket, compute(k)),
            })
            .collect()
    }

    #[test]
    fn lookup_then_fill_matches_get_or_compute() {
        for cap in [0usize, 1, 2, 7] {
            for seed in 1..=4u64 {
                let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut next = move |n: u64| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state % n
                };
                let (mut split, mut reference) = (
                    KernelCache::with_capacity_rows(cap),
                    KernelCache::with_capacity_rows(cap),
                );
                // original positions of the current span; a row's values
                // are a function of its key and these, so a compacted row
                // equals a freshly computed one
                let mut span: Vec<usize> = (0..6).collect();
                for step in 0..400 {
                    let compute = |k: usize| -> Vec<f64> {
                        span.iter().map(|&p| (k * 1000 + p) as f64).collect()
                    };
                    let up = next(10) as usize;
                    let low = (up + 1 + next(9) as usize) % 10;
                    // either side may be skipped, as a zero coefficient does
                    let keys: Vec<usize> = [(up, next(5) != 0), (low, next(5) != 0)]
                        .into_iter()
                        .filter_map(|(k, wanted)| wanted.then_some(k))
                        .collect();
                    let got = lookup_then_fill(&mut split, &keys, compute);
                    let want: Vec<Arc<Vec<f64>>> = keys
                        .iter()
                        .map(|&k| reference_get_or_compute(&mut reference, k, || compute(k)))
                        .collect();
                    let ctx = format!("cap {cap} seed {seed} step {step} keys {keys:?}");
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(split.stats(), reference.stats(), "{ctx}");
                    assert_eq!(split.len(), reference.len(), "{ctx}");
                    match next(40) {
                        0 if span.len() > 1 => {
                            // a shrink pass drops one position
                            let drop = next(span.len() as u64) as usize;
                            let keep: Vec<usize> = (0..span.len()).filter(|&p| p != drop).collect();
                            split.resize_rows(&keep);
                            reference.resize_rows(&keep);
                            span.remove(drop);
                        }
                        1 => {
                            // a reconstruction clears and restores the span
                            split.clear();
                            reference.clear();
                            span = (0..6).collect();
                        }
                        _ => {}
                    }
                }
                let s = split.stats();
                if cap > 0 {
                    assert!(
                        s.hits > 0 && s.evictions > 0,
                        "cap {cap} seed {seed}: {s:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn up_miss_evicts_the_row_low_then_misses() {
        let row = |k: usize| vec![k as f64; 3];
        // full at capacity 2, with 1 least recently used
        let mut c = KernelCache::with_capacity_rows(2);
        fetch(&mut c, 1, || row(1));
        fetch(&mut c, 2, || row(2));
        let Lookup::Miss(up) = c.lookup(3) else {
            panic!("3 was never cached")
        };
        assert_eq!(c.stats().evictions, 1, "the up miss evicts 1 at once");
        let Lookup::Miss(low) = c.lookup(1) else {
            panic!("1 was evicted by the up lookup")
        };
        assert_eq!(*c.fill(up, row(3)), row(3));
        assert_eq!(*c.fill(low, row(1)), row(1));
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 0,
                misses: 4,
                insertions: 4,
                evictions: 2
            }
        );
        // 2 was least recently used when low missed, so it went; 3 and 1 stay
        assert!(matches!(c.lookup(3), Lookup::Hit(r) if *r == row(3)));
        assert!(matches!(c.lookup(1), Lookup::Hit(r) if *r == row(1)));
        // at capacity 1 the low lookup evicts up before up is filled: up's
        // row is returned but not stored, as compute-then-insert would
        // have had it evicted by low's insert
        let mut c = KernelCache::with_capacity_rows(1);
        fetch(&mut c, 9, || row(9));
        let (Lookup::Miss(up), Lookup::Miss(low)) = (c.lookup(3), c.lookup(1)) else {
            panic!("both miss")
        };
        assert_eq!(*c.fill(up, row(3)), row(3));
        assert_eq!(*c.fill(low, row(1)), row(1));
        assert_eq!(c.len(), 1);
        assert!(matches!(c.lookup(1), Lookup::Hit(_)));
        assert!(matches!(c.lookup(3), Lookup::Miss(_)));
    }

    #[test]
    fn slab_reuse_is_consistent() {
        // hammer a small cache with a cyclic pattern; internal slab/free-list
        // must stay consistent
        let mut c = KernelCache::with_capacity_rows(2);
        for round in 0..10 {
            for k in 0..4 {
                let v = fetch(&mut c, k, || row(k as f64));
                assert_eq!(v[0], k as f64, "round {round}");
            }
        }
    }
}
