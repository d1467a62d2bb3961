//! The per-universe fabric: message delivery, blocking receives and the
//! deadlock verdict, plus the run's validation and fault ledgers.
//!
//! One [`Fabric`] is created per [`crate::Universe::run`] call and shared
//! (via `Arc`) by every rank. Each rank owns an inbox of `(src, message)`
//! pairs in arrival order; a receive takes the oldest message from its
//! awaited source, so every directed link is FIFO. Each receiver checks
//! that order: the messages it takes off a link must carry `link_seq` 0,
//! 1, 2, … (see `Comm`).
//!
//! The inboxes, every rank's [`WaitForGraph`] state, the panicked list and
//! the diagnosis sit under one lock. A receive that finds its link empty
//! first yields its core up to [`YIELD_BUDGET`] times, re-checking the link
//! and its source under the lock after each yield; it stays `Running`
//! meanwhile, so a post that lands then needs no wake-up. Only then does it
//! park: a rank is marked `Blocked` only while its awaited link is empty and
//! its source unfinished, and the post or the finish that lets it proceed
//! marks it `Running` before waking it. "Every unfinished rank is blocked"
//! therefore means exactly a deadlock, and the rank whose park or finish
//! brings that state about renders the diagnosis at once. The collective
//! ledger and the conservation audit only engage when the universe was
//! built with [`crate::Universe::validated`].

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use shrinksvm_analyze::{
    CollectiveLedger, FaultEvent, Fingerprint, RankState, ValidationReport, Violation, WaitEdge,
    WaitForGraph,
};

/// How many times a receive that finds its link empty yields its core
/// before it parks. With more ranks than cores the sender is usually
/// runnable and microseconds away, while a park costs a futex wait, a
/// futex wake and a cross-core reschedule, 2–7 µs per message on a
/// 2-vCPU host. There, shrinkbench's median `train_wall_s` on
/// `higgs_small_p16_10g` read 0.74 s without yielding and 0.50 s at
/// budgets 16, 64 and 256 alike (`higgs_fig3_p4`: 0.38 → 0.29–0.32 s);
/// 64 sits inside that plateau.
const YIELD_BUDGET: u32 = 64;

/// One in-flight message.
#[derive(Debug)]
pub(crate) struct Message {
    /// Matching tag (point-to-point namespace or collective namespace).
    pub tag: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Sender's simulated clock at departure (after send overhead).
    pub depart: f64,
    /// [`crate::fault::checksum`] of the payload, stamped at send time and verified
    /// at receive time: injected corruption is detected, not silent.
    pub checksum: u64,
    /// Sender's per-destination sequence number: 0, 1, 2, … on each link.
    /// The receiver checks it on every message it takes off the link, and
    /// fault rules are coined on it.
    pub link_seq: u64,
    /// Extra in-flight simulated seconds accumulated by injected delays
    /// and retransmission backoff; written by the receiving transport when
    /// the message is taken, folded into the arrival clock when it is
    /// matched.
    pub penalty: f64,
}

/// Why a blocking [`Fabric::take`] returned without a message.
#[derive(Debug)]
pub(crate) enum Stuck {
    /// Every unfinished rank is blocked; the rendered diagnosis.
    Deadlock(String),
    /// The awaited source finished and left nothing on the link.
    SourceFinished,
    /// The liveness watchdog expired with the rank still blocked.
    TimedOut,
}

/// Lock a mutex, surviving poisoning (a diagnosed rank panics on purpose;
/// that must not cascade into opaque `PoisonError` panics on its peers).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything the deadlock verdict reads, under one lock.
struct State {
    /// Per-destination `(src, message)` queue in arrival order.
    inbox: Vec<VecDeque<(usize, Message)>>,
    graph: WaitForGraph,
    /// Ranks that unwound with a panic, in finishing order (named in the
    /// deadlock report so the root cause is not masked).
    panicked: Vec<usize>,
    /// The deadlock diagnosis, rendered once.
    diagnosed: Option<String>,
}

impl State {
    /// Remove the oldest message on the `src → rank` link.
    fn pop(&mut self, rank: usize, src: usize) -> Option<Message> {
        let inbox = &mut self.inbox[rank];
        let pos = inbox.iter().position(|(from, _)| *from == src)?;
        inbox.remove(pos).map(|(_, msg)| msg)
    }

    /// What a receive on the `src → rank` link returns without waiting:
    /// the link's oldest message, or the failure of a finished source.
    fn ready(&mut self, rank: usize, src: usize) -> Option<Result<Message, Stuck>> {
        if let Some(msg) = self.pop(rank, src) {
            return Some(Ok(msg));
        }
        (self.graph.state(src) == RankState::Finished).then_some(Err(Stuck::SourceFinished))
    }

    /// The deadlock diagnosis, rendered the first time every unfinished
    /// rank is blocked.
    fn verdict(&mut self) -> Option<String> {
        if self.diagnosed.is_none() && self.graph.all_blocked() {
            let mut report = self.graph.deadlock_report().to_string();
            for rank in &self.panicked {
                report.push_str(&format!(
                    "note: rank {rank} exited by panic before the deadlock; \
                     its panic is the likely root cause\n"
                ));
            }
            self.diagnosed = Some(report);
        }
        self.diagnosed.clone()
    }
}

/// Shared delivery, blocking and validation state for one universe run.
pub(crate) struct Fabric {
    /// Whether full validation (collective ledger, tag discipline,
    /// conservation) is on.
    pub validate: bool,
    state: Mutex<State>,
    /// Rank `r` sleeps on `wake[r]` while blocked.
    wake: Vec<Condvar>,
    ledger: Mutex<CollectiveLedger>,
    violations: Mutex<Vec<Violation>>,
    /// Fault-injection ledger: every injected fault and transport recovery
    /// action, when a fault plan is installed.
    faults: Mutex<Vec<FaultEvent>>,
}

impl Fabric {
    pub(crate) fn new(p: usize, validate: bool) -> Self {
        assert!(p >= 1, "need at least one rank");
        Fabric {
            validate,
            state: Mutex::new(State {
                inbox: (0..p).map(|_| VecDeque::new()).collect(),
                graph: WaitForGraph::new(p),
                panicked: Vec::new(),
                diagnosed: None,
            }),
            wake: (0..p).map(|_| Condvar::new()).collect(),
            ledger: Mutex::new(CollectiveLedger::new(p)),
            violations: Mutex::new(Vec::new()),
            faults: Mutex::new(Vec::new()),
        }
    }

    /// Deliver `msg` on the `src → dst` link. A receiver blocked on this
    /// link is marked running under the lock and woken after it.
    pub(crate) fn post(&self, src: usize, dst: usize, msg: Message) {
        let awaited = {
            let mut st = lock(&self.state);
            st.inbox[dst].push_back((src, msg));
            let awaited = matches!(st.graph.state(dst), RankState::Blocked(e) if e.src == src);
            if awaited {
                st.graph.set(dst, RankState::Running);
            }
            awaited
        };
        if awaited {
            self.wake[dst].notify_one();
        }
    }

    /// Take the next message on the `edge.src → edge.waiter` link,
    /// waiting while the link is empty: first by yielding the core up to
    /// [`YIELD_BUDGET`] times (the rank stays running, and the link and the
    /// source are re-checked under the lock after each yield), then parked
    /// on the rank's condvar. Fails at once when the source has finished
    /// or the park completes a deadlock, and after `liveness` of parked
    /// host time without either.
    pub(crate) fn take(&self, edge: WaitEdge, liveness: Duration) -> Result<Message, Stuck> {
        let (rank, src) = (edge.waiter, edge.src);
        let mut st = lock(&self.state);
        for _ in 0..YIELD_BUDGET {
            if let Some(done) = st.ready(rank, src) {
                return done;
            }
            drop(st);
            std::thread::yield_now();
            st = lock(&self.state);
        }
        if let Some(done) = st.ready(rank, src) {
            return done;
        }
        st.graph.set(rank, RankState::Blocked(edge));
        if let Some(report) = st.verdict() {
            drop(st);
            self.wake_all();
            return Err(Stuck::Deadlock(report));
        }
        let (mut st, _) = self.wake[rank]
            .wait_timeout_while(st, liveness, |st| {
                st.diagnosed.is_none() && matches!(st.graph.state(rank), RankState::Blocked(_))
            })
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(msg) = st.pop(rank, src) {
            return Ok(msg);
        }
        if let Some(report) = &st.diagnosed {
            return Err(Stuck::Deadlock(report.clone()));
        }
        if st.graph.state(src) == RankState::Finished {
            return Err(Stuck::SourceFinished);
        }
        st.graph.set(rank, RankState::Running);
        Err(Stuck::TimedOut)
    }

    /// Rank `rank` returned from its closure (or unwound with a panic —
    /// either way, no further message from it can ever arrive). Its
    /// awaiters are woken to fail, and if no rank is left running the
    /// diagnosis is rendered and every blocked rank woken to report it.
    pub(crate) fn finish(&self, rank: usize, by_panic: bool) {
        let woken: Vec<usize> = {
            let mut st = lock(&self.state);
            if by_panic {
                st.panicked.push(rank);
            }
            st.graph.set(rank, RankState::Finished);
            let awaiters: Vec<usize> = (0..self.wake.len())
                .filter(|&r| matches!(st.graph.state(r), RankState::Blocked(e) if e.src == rank))
                .collect();
            for &r in &awaiters {
                st.graph.set(r, RankState::Running);
            }
            if st.verdict().is_some() {
                (0..self.wake.len()).collect()
            } else {
                awaiters
            }
        };
        for r in woken {
            self.wake[r].notify_one();
        }
    }

    fn wake_all(&self) {
        for cv in &self.wake {
            cv.notify_one();
        }
    }

    /// The first rank that unwound with a panic, if any did.
    pub(crate) fn first_panicked(&self) -> Option<usize> {
        lock(&self.state).panicked.first().copied()
    }

    /// Messages still queued for `rank`, as `(src, message)` in arrival
    /// order (post-join conservation audit).
    pub(crate) fn unreceived(&self, rank: usize) -> Vec<(usize, Message)> {
        lock(&self.state).inbox[rank].drain(..).collect()
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
    use std::sync::Arc;

    const PATIENCE: Duration = Duration::from_secs(60);

    fn msg(tag: u64) -> Message {
        Message {
            tag,
            payload: vec![tag as u8],
            depart: 0.0,
            checksum: 0,
            link_seq: 0,
            penalty: 0.0,
        }
    }

    fn edge(waiter: usize, src: usize) -> WaitEdge {
        WaitEdge {
            waiter,
            src,
            tag: 7,
            collective: false,
        }
    }

    fn state(f: &Fabric, rank: usize) -> RankState {
        lock(&f.state).graph.state(rank)
    }

    /// Spin until `rank` is blocked on `src` (its thread reached the wait).
    fn await_blocked(f: &Fabric, rank: usize, src: usize) {
        while state(f, rank) != RankState::Blocked(edge(rank, src)) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_post_on_the_awaited_link_wakes_the_receiver_without_a_verdict() {
        // Rank 1 posts to a blocked rank 0 and blocks itself at once: had
        // rank 0 stayed marked blocked until its thread ran, this would
        // read as a head-on deadlock.
        let f = Arc::new(Fabric::new(2, false));
        let rank0 = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                let got = f.take(edge(0, 1), PATIENCE).expect("rank 1 posts");
                f.post(0, 1, msg(got.tag + 1));
                got.tag
            })
        };
        await_blocked(&f, 0, 1);
        f.post(1, 0, msg(3));
        let back = f.take(edge(1, 0), PATIENCE).expect("rank 0 answers");
        assert_eq!(rank0.join().expect("rank 0 thread"), 3);
        assert_eq!(back.tag, 4);
        assert!(lock(&f.state).diagnosed.is_none());
    }

    #[test]
    fn a_post_on_another_link_leaves_the_receiver_blocked() {
        let f = Arc::new(Fabric::new(3, false));
        let rank0 = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.take(edge(0, 1), PATIENCE).map(|m| m.tag))
        };
        await_blocked(&f, 0, 1);
        f.post(2, 0, msg(5));
        f.post(0, 0, msg(6));
        assert_eq!(state(&f, 0), RankState::Blocked(edge(0, 1)));
        assert!(!rank0.is_finished());
        f.post(1, 0, msg(9));
        assert_eq!(rank0.join().expect("rank 0 thread").expect("posted"), 9);
        // The other links' messages are still queued, untouched.
        let left: Vec<(usize, u64)> = f
            .unreceived(0)
            .into_iter()
            .map(|(src, m)| (src, m.tag))
            .collect();
        assert_eq!(left, vec![(2, 5), (0, 6)]);
    }

    #[test]
    fn links_are_fifo_under_interleaved_sources_and_self_sends() {
        let f = Fabric::new(3, false);
        for (src, tag) in [
            (1, 10),
            (0, 20),
            (2, 30),
            (1, 11),
            (0, 21),
            (1, 12),
            (2, 31),
        ] {
            f.post(src, 0, msg(tag));
        }
        let take = |src| f.take(edge(0, src), PATIENCE).expect("queued").tag;
        assert_eq!([take(2), take(1), take(0)], [30, 10, 20]);
        assert_eq!([take(1), take(1), take(0), take(2)], [11, 12, 21, 31]);
        assert!(f.unreceived(0).is_empty());
    }

    /// A liveness no take below comes near: a wake-up that is never
    /// delivered shows as a `TimedOut` in seconds rather than a hang.
    const SHORT_LIVENESS: Duration = Duration::from_secs(5);

    /// The test thread's lead, in yields of its own, over the receiver
    /// entering its take: 0 to twice the budget, so a post or a finish
    /// lands before, in and after the yield phase; swept three times to
    /// cover scheduling jitter.
    fn leads() -> impl Iterator<Item = u32> {
        (0..3).flat_map(|_| 0..=2 * YIELD_BUDGET)
    }

    /// Rank 0 posts a ready message to rank 1 and then takes from rank 1
    /// (running `then` on what it got) in a thread of its own. Returns
    /// once rank 1 has the ready message: rank 0 is then entering its
    /// take, so the caller's next `lead` yields land in its yield phase.
    fn rank0_takes_after_ready(
        f: &Arc<Fabric>,
        then: fn(&Fabric, &Message),
    ) -> std::thread::JoinHandle<Result<u64, Stuck>> {
        let rank0 = {
            let f = Arc::clone(f);
            std::thread::spawn(move || {
                f.post(0, 1, msg(0));
                let got = f.take(edge(0, 1), SHORT_LIVENESS);
                if let Ok(m) = &got {
                    then(&f, m);
                }
                got.map(|m| m.tag)
            })
        };
        let ready = f.take(edge(1, 0), SHORT_LIVENESS).expect("rank 0 is ready");
        assert_eq!(ready.tag, 0);
        rank0
    }

    #[test]
    fn a_post_during_the_yield_phase_is_returned_by_that_take() {
        for lead in leads() {
            let f = Arc::new(Fabric::new(2, false));
            let rank0 = rank0_takes_after_ready(&f, |f, m| f.post(0, 1, msg(m.tag + 1)));
            for _ in 0..lead {
                std::thread::yield_now();
            }
            f.post(1, 0, msg(10));
            // A post rank 0 missed would leave both ranks parked: a
            // deadlock verdict here, or a timeout on rank 0.
            let echo = f.take(edge(1, 0), SHORT_LIVENESS).map(|m| m.tag);
            let got = rank0.join().expect("rank 0 thread");
            assert!(
                matches!((&got, &echo), (Ok(10), Ok(11))),
                "lead {lead}: rank 0 got {got:?}, rank 1 got {echo:?}"
            );
            assert!(lock(&f.state).diagnosed.is_none(), "lead {lead}");
        }
    }

    #[test]
    fn a_finish_during_the_yield_phase_fails_that_take() {
        for lead in leads() {
            let f = Arc::new(Fabric::new(2, false));
            let rank0 = rank0_takes_after_ready(&f, |_, m| panic!("rank 1 posted {}", m.tag));
            for _ in 0..lead {
                std::thread::yield_now();
            }
            f.finish(1, false);
            // A finish rank 0 missed would park it behind a finished
            // source: a deadlock verdict, not `SourceFinished`.
            let got = rank0.join().expect("rank 0 thread");
            assert!(
                matches!(got, Err(Stuck::SourceFinished)),
                "lead {lead}: rank 0 got {got:?}"
            );
            assert!(lock(&f.state).diagnosed.is_none(), "lead {lead}");
        }
    }

    #[test]
    #[should_panic(expected = "need at least one rank")]
    fn zero_ranks_rejected() {
        Fabric::new(0, false);
    }

    #[test]
    fn a_receive_from_a_finished_source_fails_at_once() {
        let f = Arc::new(Fabric::new(2, false));
        f.post(1, 0, msg(1));
        f.finish(1, false);
        // The message sent before finishing is still delivered.
        assert_eq!(f.take(edge(0, 1), PATIENCE).expect("queued").tag, 1);
        assert!(matches!(
            f.take(edge(0, 1), PATIENCE),
            Err(Stuck::SourceFinished)
        ));
        // A rank already blocked when its source finishes is woken to fail.
        let f = Arc::new(Fabric::new(2, false));
        let rank0 = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.take(edge(0, 1), PATIENCE).map(|m| m.tag))
        };
        await_blocked(&f, 0, 1);
        f.finish(1, false);
        assert!(matches!(
            rank0.join().expect("rank 0 thread"),
            Err(Stuck::SourceFinished)
        ));
        assert!(lock(&f.state).diagnosed.is_none());
    }

    #[test]
    fn the_last_rank_to_block_renders_the_report() {
        // Rank 2 dies by panic; ranks 0 and 1 then wait on each other.
        let f = Arc::new(Fabric::new(3, false));
        f.finish(2, true);
        let rank0 = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.take(edge(0, 1), PATIENCE).map(|m| m.tag))
        };
        await_blocked(&f, 0, 1);
        let Err(Stuck::Deadlock(report)) = f.take(edge(1, 0), PATIENCE) else {
            panic!("rank 1's block leaves no rank running");
        };
        assert!(
            report.contains("communication deadlock diagnosed"),
            "{report}"
        );
        assert!(report.contains("wait-for cycle"), "{report}");
        assert!(
            report.contains("rank 0 blocked in recv(src=1, tag=7)"),
            "{report}"
        );
        assert!(
            report.contains("rank 1 blocked in recv(src=0, tag=7)"),
            "{report}"
        );
        assert!(report.contains("rank 2: finished"), "{report}");
        assert!(
            report.contains("note: rank 2 exited by panic before the deadlock"),
            "{report}"
        );
        // The rank that blocked first is woken with the same diagnosis.
        match rank0.join().expect("rank 0 thread") {
            Err(Stuck::Deadlock(first)) => assert_eq!(first, report),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_finish_that_leaves_only_blocked_ranks_renders_the_report() {
        let f = Arc::new(Fabric::new(3, false));
        let spawn_take = |waiter, src| {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.take(edge(waiter, src), PATIENCE).map(|m| m.tag))
        };
        let rank0 = spawn_take(0, 1);
        await_blocked(&f, 0, 1);
        let rank1 = spawn_take(1, 0);
        await_blocked(&f, 1, 0);
        assert!(lock(&f.state).diagnosed.is_none(), "rank 2 still runs");
        f.finish(2, false);
        for rank in [rank0, rank1] {
            match rank.join().expect("rank thread") {
                Err(Stuck::Deadlock(report)) => {
                    assert!(report.contains("wait-for cycle"), "{report}");
                    assert!(!report.contains("exited by panic"), "{report}");
                }
                other => panic!("{other:?}"),
            }
        }
    }
}
