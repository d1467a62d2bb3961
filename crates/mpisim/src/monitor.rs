//! The per-universe run monitor: shared state behind the deadlock
//! detector, the collective lockstep checker and the validation report.
//!
//! One `RunMonitor` is created per [`crate::Universe::run`] call and shared
//! (via `Arc`) by every rank. The wait-for graph is always maintained — it
//! replaces the old 300-second timeout as the deadlock oracle — while the
//! happens-before/ledger machinery only engages when the universe was built
//! with [`crate::Universe::validated`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use shrinksvm_analyze::{
    CollectiveLedger, FaultEvent, Fingerprint, RankState, ValidationReport, Violation, WaitEdge,
    WaitForGraph,
};

/// Lock a mutex, surviving poisoning (a diagnosing rank panics on purpose;
/// that must not cascade into opaque `PoisonError` panics on its peers).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Snapshot a rank uses to decide whether the universe has stopped moving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StallSnapshot {
    graph_version: u64,
    progress: u64,
}

/// Shared monitor state for one universe run.
pub(crate) struct RunMonitor {
    /// Whether full validation (vector clocks, ledger, conservation) is on.
    pub validate: bool,
    /// Number of ranks.
    p: usize,
    graph: Mutex<WaitForGraph>,
    /// Total messages dequeued from any channel; part of the stall check.
    progress: AtomicU64,
    /// Messages sent but not yet dequeued, per directed link
    /// `src · p + dst`. A blocked rank whose awaited link is non-empty
    /// will make progress once its thread runs, however long the host
    /// keeps it descheduled.
    in_flight: Vec<AtomicU64>,
    /// The deadlock diagnosis, rendered once by whichever rank confirms it.
    diagnosed: Mutex<Option<String>>,
    /// Ranks that unwound with a panic (distinguished from clean finishes
    /// in the deadlock report so the root cause is not masked).
    panicked: Mutex<Vec<usize>>,
    ledger: Mutex<CollectiveLedger>,
    violations: Mutex<Vec<Violation>>,
    /// Fault-injection ledger: every injected fault and transport recovery
    /// action, when a fault plan is installed.
    faults: Mutex<Vec<FaultEvent>>,
}

impl RunMonitor {
    pub(crate) fn new(p: usize, validate: bool) -> Self {
        RunMonitor {
            validate,
            p,
            graph: Mutex::new(WaitForGraph::new(p)),
            progress: AtomicU64::new(0),
            in_flight: (0..p * p).map(|_| AtomicU64::new(0)).collect(),
            diagnosed: Mutex::new(None),
            panicked: Mutex::new(Vec::new()),
            ledger: Mutex::new(CollectiveLedger::new(p)),
            violations: Mutex::new(Vec::new()),
            faults: Mutex::new(Vec::new()),
        }
    }

    /// A message entered the `src → dst` link. Called before the message
    /// is handed to the channel, so the count never lags the channel.
    pub(crate) fn note_sent(&self, src: usize, dst: usize) {
        self.in_flight[self.link(src, dst)].fetch_add(1, Ordering::SeqCst);
    }

    /// A message left the `src → dst` link (matched or buffered).
    pub(crate) fn note_dequeued(&self, src: usize, dst: usize) {
        self.progress.fetch_add(1, Ordering::SeqCst);
        self.in_flight[self.link(src, dst)].fetch_sub(1, Ordering::SeqCst);
    }

    fn link(&self, src: usize, dst: usize) -> usize {
        src * self.p + dst
    }

    /// Rank `rank` is blocked in a receive.
    pub(crate) fn publish_blocked(&self, edge: WaitEdge) {
        lock(&self.graph).set(edge.waiter, RankState::Blocked(edge));
    }

    /// Rank `rank` matched its receive and is running again.
    pub(crate) fn publish_running(&self, rank: usize) {
        lock(&self.graph).set(rank, RankState::Running);
    }

    /// Rank `rank` returned from its closure (or unwound with a panic —
    /// either way, no further message from it can ever arrive).
    pub(crate) fn publish_finished(&self, rank: usize, by_panic: bool) {
        if by_panic {
            lock(&self.panicked).push(rank);
        }
        lock(&self.graph).set(rank, RankState::Finished);
    }

    /// Called by a blocked rank after each poll timeout. Returns the
    /// rendered deadlock report once the universe is provably stuck.
    ///
    /// A state counts as stuck when every unfinished rank is blocked and
    /// every blocked rank's awaited link is empty: a message still in
    /// flight to a blocked receiver will be dequeued whenever that
    /// receiver's thread next runs, which on a loaded host can be many
    /// poll intervals away. The link counts are read under the graph
    /// lock, and a receiver publishes itself running before it decrements
    /// the link it matched on, so the graph and the counts agree.
    ///
    /// `last` is the caller's previous snapshot. Diagnosis additionally
    /// requires two consecutive observations, one poll interval apart, of
    /// the *same* stuck state with no message dequeued in between.
    pub(crate) fn check_stalled(
        &self,
        last: Option<StallSnapshot>,
    ) -> Result<Option<StallSnapshot>, String> {
        if let Some(report) = lock(&self.diagnosed).as_ref() {
            return Err(report.clone());
        }
        let (stuck, graph_version) = {
            let g = lock(&self.graph);
            (g.all_blocked() && self.awaited_links_empty(&g), g.version())
        };
        if !stuck {
            return Ok(None);
        }
        let snap = StallSnapshot {
            graph_version,
            progress: self.progress.load(Ordering::SeqCst),
        };
        if last != Some(snap) {
            return Ok(Some(snap));
        }
        // Confirmed: render the diagnosis exactly once.
        let mut diagnosed = lock(&self.diagnosed);
        if let Some(report) = diagnosed.as_ref() {
            return Err(report.clone());
        }
        let mut report = lock(&self.graph).deadlock_report().to_string();
        let panicked = lock(&self.panicked);
        for rank in panicked.iter() {
            report.push_str(&format!(
                "note: rank {rank} exited by panic before the deadlock; \
                 its panic is the likely root cause\n"
            ));
        }
        *diagnosed = Some(report.clone());
        Err(report)
    }

    /// Whether no message is in flight on any blocked rank's awaited link.
    fn awaited_links_empty(&self, g: &WaitForGraph) -> bool {
        (0..self.p).all(|rank| match g.state(rank) {
            RankState::Blocked(edge) => {
                self.in_flight[self.link(edge.src, edge.waiter)].load(Ordering::SeqCst) == 0
            }
            _ => true,
        })
    }

    /// The first rank that unwound with a panic, if any did.
    pub(crate) fn first_panicked(&self) -> Option<usize> {
        lock(&self.panicked).first().copied()
    }

    /// Post a collective fingerprint; panics with the divergence diagnosis
    /// if this rank's collective sequence has diverged from the fleet's.
    pub(crate) fn post_collective(&self, rank: usize, seq: u64, fp: Fingerprint) {
        let result = lock(&self.ledger).post(rank, seq, fp);
        if let Err(divergence) = result {
            panic!("{divergence}");
        }
    }

    /// Record a validation violation.
    pub(crate) fn record(&self, v: Violation) {
        lock(&self.violations).push(v);
    }

    /// Record a fault-injection ledger entry.
    pub(crate) fn record_fault(&self, e: FaultEvent) {
        lock(&self.faults).push(e);
    }

    /// Drain everything recorded so far into a report (post-join). The
    /// report is normalized so identical fault seeds render byte-identical
    /// text regardless of thread scheduling.
    pub(crate) fn take_report(&self) -> ValidationReport {
        let mut report = ValidationReport::default();
        report.extend(std::mem::take(&mut *lock(&self.violations)));
        report.extend_faults(std::mem::take(&mut *lock(&self.faults)));
        report.normalize();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rank `waiter` blocks on a user-tag receive from `src`.
    fn block(m: &RunMonitor, waiter: usize, src: usize) {
        m.publish_blocked(WaitEdge {
            waiter,
            src,
            tag: 7,
            collective: false,
        });
    }

    #[test]
    fn a_message_in_flight_on_an_awaited_link_is_not_a_deadlock() {
        // A three-rank wait cycle 0 ← 1 ← 2 ← 0 in which rank 1 already sent
        // rank 0 its message, but rank 0's thread has not run to dequeue
        // it — the host descheduled it. Any number of checks, however far
        // apart, must wait for it.
        let m = RunMonitor::new(3, false);
        block(&m, 0, 1);
        block(&m, 1, 2);
        block(&m, 2, 0);
        m.note_sent(1, 0);
        let mut snap = None;
        for _ in 0..100 {
            snap = m
                .check_stalled(snap)
                .expect("a message is on its way to a blocked receiver");
        }
        // Traffic on a link nobody awaits cannot unblock anyone.
        m.note_sent(0, 1);
        // Once rank 0 dequeues (and buffers) the message and stays blocked,
        // the cycle is a deadlock, confirmed on the second observation.
        m.note_dequeued(1, 0);
        let snap = m.check_stalled(snap).expect("first stuck observation");
        assert!(snap.is_some());
        let report = m.check_stalled(snap).expect_err("confirmed deadlock");
        assert!(report.contains("rank 0"), "{report}");
    }
}
