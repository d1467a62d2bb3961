//! Vector clocks for happens-before validation.
//!
//! Each rank carries one logical clock component per rank. A send
//! increments the sender's own component and ships a snapshot with the
//! message; a receive merges the snapshot in. Because the fabric's
//! links are FIFO per (src, dst) pair, consecutive messages received
//! from the same source must carry strictly increasing source components —
//! any regression means the substrate reordered or duplicated a message.

/// A per-rank vector of logical event counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VectorClock {
    c: Vec<u64>,
}

impl VectorClock {
    /// The zero clock for a universe of `p` ranks.
    pub fn new(p: usize) -> Self {
        VectorClock { c: vec![0; p] }
    }

    /// Number of ranks this clock covers.
    pub fn len(&self) -> usize {
        self.c.len()
    }

    /// True when the clock covers zero ranks (never the case in a universe).
    pub fn is_empty(&self) -> bool {
        self.c.is_empty()
    }

    /// Component for `rank`.
    pub fn get(&self, rank: usize) -> u64 {
        self.c[rank]
    }

    /// Record a local event on `rank`: bump its own component.
    pub fn tick(&mut self, rank: usize) {
        self.c[rank] += 1;
    }

    /// Merge a received snapshot: componentwise maximum.
    pub fn merge(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.c.len(), other.c.len(), "clock width mismatch");
        for (mine, theirs) in self.c.iter_mut().zip(&other.c) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// True when every component of `self` is ≤ the matching component of
    /// `other` and at least one is strictly smaller (strict happens-before).
    pub fn happened_before(&self, other: &VectorClock) -> bool {
        debug_assert_eq!(self.c.len(), other.c.len(), "clock width mismatch");
        let mut strictly = false;
        for (a, b) in self.c.iter().zip(&other.c) {
            if a > b {
                return false;
            }
            if a < b {
                strictly = true;
            }
        }
        strictly
    }

    /// Raw components (for reports).
    pub fn components(&self) -> &[u64] {
        &self.c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_and_get() {
        let mut v = VectorClock::new(3);
        v.tick(1);
        v.tick(1);
        v.tick(2);
        assert_eq!(v.components(), &[0, 2, 1]);
        assert_eq!(v.get(1), 2);
    }

    #[test]
    fn merge_takes_componentwise_max() {
        let mut a = VectorClock::new(3);
        a.tick(0);
        a.tick(0);
        let mut b = VectorClock::new(3);
        b.tick(1);
        b.tick(2);
        b.tick(2);
        a.merge(&b);
        assert_eq!(a.components(), &[2, 1, 2]);
    }

    #[test]
    fn happens_before_is_strict_partial_order() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        assert!(!a.happened_before(&b), "equal clocks are not ordered");
        b.tick(0);
        assert!(a.happened_before(&b));
        assert!(!b.happened_before(&a));
        a.tick(1); // now concurrent
        assert!(!a.happened_before(&b));
        assert!(!b.happened_before(&a));
    }

    #[test]
    fn send_receive_chain_orders_events() {
        // rank 0 ticks and "sends" its clock; rank 1 merges then ticks.
        let mut sender = VectorClock::new(2);
        sender.tick(0);
        let snapshot = sender.clone();
        let mut receiver = VectorClock::new(2);
        receiver.merge(&snapshot);
        receiver.tick(1);
        assert!(snapshot.happened_before(&receiver));
    }
}
