//! Per-rank communicator: point-to-point layer, nonblocking requests, and
//! the simulated clock.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use shrinksvm_analyze::{FaultEvent, Violation, WaitEdge};
use shrinksvm_obs::critpath::{DepEvent, DepRecorder};
use shrinksvm_obs::flight::FlightRecorder;
use shrinksvm_obs::timeline::{Event, TrackRecorder};

use crate::cost::CostParams;
use crate::fabric::{Fabric, Message, Stuck};
use crate::fault::{checksum, corrupt_copy, CrashNotice, Fate, FaultPlan};
use crate::stats::CommStats;
use crate::MAX_USER_TAG;

/// A nonblocking-operation handle (`MPI_Request` analog).
///
/// Created by [`Comm::isend`] / [`Comm::irecv`], completed by
/// [`Comm::waitall`].
#[derive(Debug)]
pub enum Request {
    /// A send; complete at creation (the fabric buffers eagerly, like an MPI
    /// eager-protocol send of a small/medium message).
    Send,
    /// A posted receive, matched at wait time.
    Recv {
        /// Source rank.
        src: usize,
        /// Matching tag.
        tag: u64,
    },
}

/// The per-rank handle to the simulated machine: identity, point-to-point
/// operations, collectives (in [`crate::collectives`]), the simulated clock
/// and activity counters.
pub struct Comm {
    rank: usize,
    size: usize,
    /// Messages taken off a link but not yet matched by tag, per source
    /// rank.
    pending: Vec<VecDeque<Message>>,
    clock: f64,
    cost: CostParams,
    stats: CommStats,
    pub(crate) coll_seq: u64,
    fabric: Arc<Fabric>,
    /// Per-source `link_seq` the next message taken off that link must
    /// carry (see [`Comm::on_dequeue`]).
    recv_seq: Vec<u64>,
    /// Absolute fallback bound on a single blocked wait, for pathologies
    /// the wait-for graph cannot see (e.g. a peer spinning forever in
    /// compute). Configurable via
    /// [`crate::Universe::with_liveness_timeout`] / the
    /// `SHRINKSVM_LIVENESS_TIMEOUT_SECS` environment variable.
    liveness: Duration,
    /// The installed fault plan, if any.
    faults: Option<Arc<FaultPlan>>,
    /// Per-`(link rule, source)` injection counters backing each rule's
    /// per-link `count` budget (deterministic: this receiver consumes each
    /// link's traffic in FIFO order).
    fault_hits: Vec<u64>,
    /// Per-destination send sequence numbers — the deterministic key that
    /// fault rules are coined on.
    send_seq: Vec<u64>,
    /// Which slowdown rules were already recorded in the fault ledger.
    slow_recorded: Vec<bool>,
    /// Simulated-time event recorder for this rank's timeline track
    /// (present only under [`crate::Universe::with_tracing`]).
    tracer: Option<TrackRecorder>,
    /// Cross-rank dependency recorder — every clock mutation with the
    /// exact charge values, so the event DAG can be replayed bit-for-bit
    /// (present only under [`crate::Universe::with_tracing`]).
    dep: Option<DepRecorder>,
    /// Shared crash flight recorder: a bounded per-rank ring every trace
    /// event is mirrored into *at record time*, so the last moments of
    /// this rank survive a panic that would destroy the tracer's buffer
    /// (present only under [`crate::Universe::with_flight`]). Mirrors
    /// even without tracing — the black box must work on untraced runs.
    flight: Option<Arc<FlightRecorder>>,
}

/// What a rank hands back to the universe after its closure returns, so
/// finalize-time conservation checks can run once every rank is done.
pub(crate) struct RankFinal {
    pub rank: usize,
    pub pending: Vec<VecDeque<Message>>,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        cost: CostParams,
        fabric: Arc<Fabric>,
        liveness: Duration,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        let pending = (0..size).map(|_| VecDeque::new()).collect();
        let fault_hits = faults.as_ref().map_or(0, |plan| plan.n_link_rules() * size);
        let slow_recorded = faults.as_ref().map_or(0, |plan| plan.n_rank_rules());
        Comm {
            rank,
            size,
            pending,
            clock: 0.0,
            cost,
            stats: CommStats::default(),
            coll_seq: 0,
            fabric,
            recv_seq: vec![0; size],
            liveness,
            faults,
            fault_hits: vec![0; fault_hits],
            send_seq: vec![0; size],
            slow_recorded: vec![false; slow_recorded],
            tracer: None,
            dep: None,
            flight: None,
        }
    }

    /// Start recording this rank's timeline track and dependency log
    /// (universe-internal; ranks are constructed untraced and switched on
    /// before the closure runs).
    pub(crate) fn enable_tracing(&mut self) {
        self.tracer = Some(TrackRecorder::new(self.rank as u32));
        self.dep = Some(DepRecorder::new());
    }

    /// Attach the shared crash flight recorder (universe-internal).
    pub(crate) fn enable_flight(&mut self, flight: Arc<FlightRecorder>) {
        self.flight = Some(flight);
    }

    /// Mirror a span into the flight ring (no-op without a recorder).
    fn flight_span(&self, name: &str, cat: &str, t0: f64, t1: f64) {
        if let Some(fr) = &self.flight {
            fr.record(Event::Span {
                track: self.rank as u32,
                name: name.to_string(),
                cat: cat.to_string(),
                t0,
                t1: t1.max(t0),
            });
        }
    }

    /// Mirror an instant into the flight ring (no-op without a recorder).
    fn flight_instant(&self, name: &str, cat: &str, t: f64) {
        if let Some(fr) = &self.flight {
            fr.record(Event::Instant {
                track: self.rank as u32,
                name: name.to_string(),
                cat: cat.to_string(),
                t,
            });
        }
    }

    /// Mirror a counter sample into the flight ring (no-op without a
    /// recorder).
    fn flight_counter(&self, name: &str, t: f64, value: f64) {
        if let Some(fr) = &self.flight {
            fr.record(Event::Counter {
                track: self.rank as u32,
                name: name.to_string(),
                t,
                value,
            });
        }
    }

    /// Hand over the recorded timeline events (empty without tracing).
    pub(crate) fn take_trace_events(&mut self) -> Vec<Event> {
        self.tracer
            .take()
            .map(TrackRecorder::finish)
            .unwrap_or_default()
    }

    /// Hand over the recorded dependency events (empty without tracing).
    pub(crate) fn take_dep_events(&mut self) -> Vec<DepEvent> {
        self.dep.take().map(DepRecorder::finish).unwrap_or_default()
    }

    /// Record a finished collective's interval in the dependency log so
    /// critical-path hops inside `[t0, t1]` are labeled with `name`
    /// (no-op without tracing).
    pub(crate) fn dep_coll(&mut self, name: &'static str, t0: f64, t1: f64) {
        if let Some(dep) = &mut self.dep {
            dep.coll(name, t0, t1);
        }
    }

    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The simulated clock, in seconds.
    #[inline]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// The cost model in force.
    pub fn cost(&self) -> CostParams {
        self.cost
    }

    /// Activity counters so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Charge `secs` of computation to this rank's simulated clock. Under
    /// an installed fault plan, active slowdown rules inflate the charge
    /// and due crash rules kill the rank.
    #[inline]
    pub fn advance_compute(&mut self, secs: f64) {
        self.advance_compute_classed(secs, "compute", None);
    }

    /// [`Comm::advance_compute`] with dependency-log annotations: `class`
    /// names the charge in critical-path reports, and `alt_secs` is what
    /// the same work would have cost under an infinitely large kernel
    /// cache (for the what-if projection; `None` means the cache could
    /// not have helped). Exactly one clock addition happens either way,
    /// so charging through this method is bit-identical to
    /// [`Comm::advance_compute`].
    pub fn advance_compute_classed(
        &mut self,
        secs: f64,
        class: &'static str,
        alt_secs: Option<f64>,
    ) {
        debug_assert!(secs >= 0.0, "compute time cannot be negative");
        let mut secs = secs;
        let mut alt = alt_secs.unwrap_or(secs);
        if let Some(plan) = &self.faults {
            if let Some((idx, factor)) = plan.slow_factor(self.rank, self.clock) {
                if !self.slow_recorded[idx] {
                    self.slow_recorded[idx] = true;
                    self.fabric.record_fault(FaultEvent::RankSlowed {
                        rank: self.rank,
                        factor,
                        sim_time: self.clock,
                    });
                }
                let extra = secs * (factor - 1.0);
                self.stats.slowdown_time += extra;
                secs += extra;
                // The all-hit alternative would be slowed identically.
                alt += alt * (factor - 1.0);
            }
        }
        let before = self.clock;
        self.clock += secs;
        self.stats.compute_time += secs;
        if secs > 0.0 {
            if let Some(tr) = &mut self.tracer {
                tr.span("compute", "compute", before, before + secs);
            }
            self.flight_span("compute", "compute", before, before + secs);
            if let Some(dep) = &mut self.dep {
                dep.compute(before, secs, alt, class);
            }
        }
        self.maybe_crash();
    }

    /// Kill this rank if an armed crash rule is due at its current
    /// simulated clock. The panic payload is a [`CrashNotice`], which the
    /// universe recognizes and surfaces as a recoverable error through
    /// [`crate::Universe::run_try`].
    fn maybe_crash(&mut self) {
        let Some(plan) = &self.faults else {
            return;
        };
        if let Some((rule, _)) = plan.crash_due(self.rank, self.clock) {
            self.fabric.record_fault(FaultEvent::RankCrashed {
                rank: self.rank,
                sim_time: self.clock,
            });
            // Last words into the black box: the tracer's buffer dies with
            // this unwind, the flight ring does not.
            self.flight_instant("crash", "fault", self.clock);
            std::panic::panic_any(CrashNotice {
                rank: self.rank,
                sim_time: self.clock,
                rule,
            });
        }
    }

    // ---------------------------------------------------------------- p2p

    /// Blocking-semantics send (buffered, so it never actually blocks —
    /// MPI's eager protocol).
    pub fn send(&mut self, dst: usize, tag: u64, payload: &[u8]) {
        self.check_user_tag(tag, "send");
        self.send_internal(dst, tag, payload);
    }

    pub(crate) fn send_internal(&mut self, dst: usize, tag: u64, payload: &[u8]) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        let before = self.clock;
        self.clock += self.cost.send_overhead;
        // Sender CPU overhead is transfer, as in the PerfDoctor attribution.
        self.stats.transfer_time += self.cost.send_overhead;
        self.maybe_crash();
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        let link_seq = self.send_seq[dst];
        self.send_seq[dst] += 1;
        if let Some(dep) = &mut self.dep {
            dep.send(before, self.cost.send_overhead, dst as u32, tag, link_seq);
        }
        self.fabric.post(
            self.rank,
            dst,
            Message {
                tag,
                payload: payload.to_vec(),
                depart: self.clock,
                checksum: checksum(payload),
                link_seq,
                penalty: 0.0,
            },
        );
    }

    /// Blocking receive of a message with `tag` from `src`.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<u8> {
        self.check_user_tag(tag, "recv");
        self.recv_internal(src, tag)
    }

    pub(crate) fn recv_internal(&mut self, src: usize, tag: u64) -> Vec<u8> {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        // Check messages already taken off the link.
        if let Some(pos) = self.pending[src].iter().position(|m| m.tag == tag) {
            let msg = self.pending[src].remove(pos).expect("position is in range");
            return self.accept(src, msg);
        }
        let edge = WaitEdge {
            waiter: self.rank,
            src,
            tag,
            collective: tag >= MAX_USER_TAG,
        };
        loop {
            let msg = match self.fabric.take(edge, self.liveness) {
                Ok(msg) => msg,
                Err(stuck) => self.fail_recv(src, tag, stuck),
            };
            self.on_dequeue(src, &msg);
            let msg = self.resolve_transport(src, msg);
            if msg.tag == tag {
                return self.accept(src, msg);
            }
            self.pending[src].push_back(msg);
        }
    }

    /// End a receive that can never complete: mark it on the flight ring
    /// and panic with the diagnosis.
    fn fail_recv(&self, src: usize, tag: u64, stuck: Stuck) -> ! {
        match stuck {
            Stuck::Deadlock(report) => {
                self.flight_instant(
                    &format!("deadlock(src={src},tag={tag:#x})"),
                    "fault",
                    self.clock,
                );
                panic!("{report}");
            }
            Stuck::SourceFinished => {
                self.flight_instant(
                    &format!("peer_vanished(src={src},tag={tag:#x})"),
                    "fault",
                    self.clock,
                );
                panic!(
                    "rank {}: receive of tag {tag:#x} from rank {src} can never complete: \
                     rank {src} already finished and left no matching message",
                    self.rank
                );
            }
            Stuck::TimedOut => {
                self.flight_instant(
                    &format!("liveness_timeout(src={src},tag={tag:#x})"),
                    "fault",
                    self.clock,
                );
                panic!(
                    "rank {}: liveness timeout after {:?} waiting for tag {tag:#x} from \
                     rank {src} (no global deadlock detected — a peer may be stuck in \
                     compute)",
                    self.rank, self.liveness
                );
            }
        }
    }

    /// Check every message taken off a link, matched or buffered, on every
    /// run: the sender numbers its messages to this rank 0, 1, 2, …
    /// (`link_seq`), and a FIFO link hands them over in that order, none
    /// twice and none skipped. A reordered, duplicated or lost message is a
    /// transport bug.
    fn on_dequeue(&mut self, src: usize, msg: &Message) {
        let due = self.recv_seq[src];
        assert_eq!(
            msg.link_seq, due,
            "rank {}: transport bug — tag {:#x} from rank {src} carries link sequence {} \
             where {due} was due",
            self.rank, msg.tag, msg.link_seq
        );
        self.recv_seq[src] = due + 1;
    }

    /// Run one dequeued message through the fault plan's link rules,
    /// emulating an ARQ transport: a dropped or corrupted copy is
    /// "retransmitted" by charging exponential backoff into the message's
    /// in-flight penalty and re-coining its fate for the next attempt, up
    /// to the plan's retry budget. Deterministic because each link's
    /// traffic is consumed in FIFO order by exactly one receiver, and each
    /// attempt's fate is a pure function of
    /// `(seed, rule, src, dst, link_seq, attempt)`.
    ///
    /// Envelope integrity is always verified, fault plan or not: a
    /// checksum mismatch on a delivered copy is a transport bug.
    fn resolve_transport(&mut self, src: usize, mut msg: Message) -> Message {
        let Some(plan) = self.faults.clone() else {
            assert_eq!(
                checksum(&msg.payload),
                msg.checksum,
                "rank {}: transport bug — checksum mismatch on tag {:#x} from rank {src} \
                 without fault injection",
                self.rank,
                msg.tag
            );
            return msg;
        };
        let budget = 1 + plan.max_retries();
        let backoff_base = plan.retry_backoff();
        let mut attempt: u32 = 0;
        loop {
            let fate = plan.fate(
                src,
                self.rank,
                msg.depart,
                msg.link_seq,
                attempt,
                &mut self.fault_hits,
                self.size,
            );
            match fate {
                Fate::Deliver => {
                    assert_eq!(
                        checksum(&msg.payload),
                        msg.checksum,
                        "rank {}: transport bug — checksum mismatch on delivered copy of \
                         tag {:#x} from rank {src}",
                        self.rank,
                        msg.tag
                    );
                    return msg;
                }
                Fate::Delayed(secs) => {
                    msg.penalty += secs;
                    self.stats.delays_seen += 1;
                    self.fabric.record_fault(FaultEvent::MessageDelayed {
                        rank: self.rank,
                        src,
                        tag: msg.tag,
                        secs,
                        sim_time: msg.depart,
                    });
                    // A held copy still arrives intact; keep coining the
                    // remaining rules on the next attempt number so a delay
                    // does not shadow a later drop of the same copy.
                }
                Fate::Lost => {
                    self.stats.drops_seen += 1;
                    self.fabric.record_fault(FaultEvent::MessageDropped {
                        rank: self.rank,
                        src,
                        tag: msg.tag,
                        attempt,
                        sim_time: msg.depart,
                    });
                    self.retransmit_or_die(&mut msg, src, attempt, budget, backoff_base);
                }
                Fate::Corrupted => {
                    // Corrupt an actual copy and prove the checksum catches
                    // it — the detection path is exercised, not assumed.
                    let bad = corrupt_copy(&msg.payload, msg.link_seq.wrapping_add(attempt.into()));
                    assert_ne!(
                        checksum(&bad),
                        msg.checksum,
                        "rank {}: injected corruption on tag {:#x} from rank {src} was not \
                         detectable by the envelope checksum",
                        self.rank,
                        msg.tag
                    );
                    self.stats.corruptions_seen += 1;
                    self.fabric.record_fault(FaultEvent::MessageCorrupted {
                        rank: self.rank,
                        src,
                        tag: msg.tag,
                        attempt,
                        sim_time: msg.depart,
                    });
                    self.retransmit_or_die(&mut msg, src, attempt, budget, backoff_base);
                }
            }
            attempt += 1;
        }
    }

    /// Charge the backoff for retransmitting after attempt `attempt`
    /// failed, or fail fast with a named diagnosis once the retry budget
    /// is exhausted.
    fn retransmit_or_die(
        &mut self,
        msg: &mut Message,
        src: usize,
        attempt: u32,
        budget: u32,
        backoff_base: f64,
    ) {
        let attempts = attempt + 1;
        if attempts >= budget {
            self.fabric.record_fault(FaultEvent::MessageLost {
                rank: self.rank,
                src,
                tag: msg.tag,
                attempts,
                sim_time: msg.depart,
            });
            self.flight_instant(
                &format!("lost(src={src},attempts={attempts})"),
                "fault",
                msg.depart,
            );
            panic!(
                "rank {}: message with tag {:#x} from rank {src} permanently lost after \
                 {attempts} transmission attempt(s) — retry budget exhausted",
                self.rank, msg.tag
            );
        }
        let backoff = backoff_base * f64::powi(2.0, attempt as i32);
        msg.penalty += backoff;
        self.stats.retries += 1;
        self.stats.retry_time += backoff;
        if let Some(tr) = &mut self.tracer {
            // cat "fault" routes the instant to the dedicated fault track
            // in the Chrome export, next to the fault-ledger projections.
            tr.instant("retransmit", "fault", msg.depart);
        }
        self.flight_instant("retransmit", "fault", msg.depart);
    }

    // ------------------------------------------------------------- tracing

    /// Whether this communicator is recording a timeline.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Record a `[t0, t1]` span on this rank's timeline track (no-op
    /// without tracing). Times are simulated seconds, typically captured
    /// from [`Comm::clock`] around the spanned work.
    pub fn trace_span(&mut self, name: &str, cat: &str, t0: f64, t1: f64) {
        if let Some(tr) = &mut self.tracer {
            tr.span(name, cat, t0, t1);
        }
        self.flight_span(name, cat, t0, t1);
    }

    /// Record an instant event at the current simulated clock (no-op
    /// without tracing).
    pub fn trace_mark(&mut self, name: &str, cat: &str) {
        let t = self.clock;
        if let Some(tr) = &mut self.tracer {
            tr.instant(name, cat, t);
        }
        self.flight_instant(name, cat, t);
    }

    /// Record a counter sample at the current simulated clock (no-op
    /// without tracing).
    pub fn trace_counter(&mut self, name: &str, value: f64) {
        let t = self.clock;
        if let Some(tr) = &mut self.tracer {
            tr.counter(name, t, value);
        }
        self.flight_counter(name, t, value);
    }

    /// Book a matched message: advance the clock per the cost model (plus
    /// any injected in-flight penalty) and return its payload.
    fn accept(&mut self, src: usize, msg: Message) -> Vec<u8> {
        let wire = self.cost.wire_time(msg.payload.len());
        let arrive = msg.depart + wire + msg.penalty;
        if let Some(dep) = &mut self.dep {
            dep.recv(
                self.clock,
                src as u32,
                msg.tag,
                msg.link_seq,
                msg.depart,
                wire,
                msg.penalty,
            );
        }
        if arrive > self.clock {
            let wait = arrive - self.clock;
            // The stretch before the sender even departed is imbalance
            // (idle); the rest is wire latency + bytes·G + any injected
            // in-flight penalty (transfer).
            let idle = (msg.depart - self.clock).clamp(0.0, wait);
            self.stats.idle_time += idle;
            self.stats.transfer_time += wait - idle;
            if let Some(tr) = &mut self.tracer {
                tr.span("recv_wait", "p2p", self.clock, arrive);
            }
            self.flight_span("recv_wait", "p2p", self.clock, arrive);
            self.clock = arrive;
        }
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += msg.payload.len() as u64;
        let payload = msg.payload;
        self.maybe_crash();
        payload
    }

    /// Nonblocking send (`MPI_Isend`).
    pub fn isend(&mut self, dst: usize, tag: u64, payload: &[u8]) -> Request {
        self.send(dst, tag, payload);
        Request::Send
    }

    /// Post a nonblocking receive (`MPI_Irecv`).
    pub fn irecv(&mut self, src: usize, tag: u64) -> Request {
        self.check_user_tag(tag, "irecv");
        Request::Recv { src, tag }
    }

    /// Complete a batch of requests (`MPI_Waitall`). The returned vector is
    /// parallel to `reqs`: `Some(payload)` for receives, `None` for sends.
    pub fn waitall(&mut self, reqs: Vec<Request>) -> Vec<Option<Vec<u8>>> {
        reqs.into_iter()
            .map(|r| match r {
                Request::Send => None,
                Request::Recv { src, tag } => Some(self.recv_internal(src, tag)),
            })
            .collect()
    }

    /// Simultaneous send+receive with the same partner (`MPI_Sendrecv`);
    /// safe against head-on exchanges because sends are buffered.
    pub fn sendrecv(&mut self, partner: usize, tag: u64, payload: &[u8]) -> Vec<u8> {
        self.send(partner, tag, payload);
        self.recv(partner, tag)
    }

    /// User tags must stay below [`MAX_USER_TAG`]. Under validation the
    /// breach is recorded for the finalize report (so the diagnosis names
    /// rank, op and tag); otherwise it is a debug assertion as before.
    fn check_user_tag(&self, tag: u64, op: &'static str) {
        if tag < MAX_USER_TAG {
            return;
        }
        if self.fabric.validate {
            self.fabric.record(Violation::TagOutOfRange {
                rank: self.rank,
                tag,
                op,
            });
        } else {
            debug_assert!(false, "tag {tag:#x} is in the collective namespace ({op})");
        }
    }

    // --------------------------------------------------------- typed sugar

    /// Send a slice of `f64`s.
    pub fn send_f64s(&mut self, dst: usize, tag: u64, data: &[f64]) {
        self.send(dst, tag, &encode_f64s(data));
    }

    /// Receive a slice of `f64`s.
    pub fn recv_f64s(&mut self, src: usize, tag: u64) -> Vec<f64> {
        let bytes = self.recv(src, tag);
        decode_f64s(&bytes)
    }

    pub(crate) fn bump_coll_seq(&mut self) -> u64 {
        let s = self.coll_seq;
        self.coll_seq += 1;
        s
    }

    pub(crate) fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    pub(crate) fn note_allreduce(&mut self) {
        self.stats.allreduces += 1;
    }
    pub(crate) fn note_bcast(&mut self) {
        self.stats.bcasts += 1;
    }
    pub(crate) fn note_barrier(&mut self) {
        self.stats.barriers += 1;
    }

    /// Tear the communicator apart for finalize-time conservation checks:
    /// unmatched buffered messages are examined by the universe, next to
    /// the rank's still-queued inbox, after every rank has joined.
    pub(crate) fn finalize(self) -> RankFinal {
        RankFinal {
            rank: self.rank,
            pending: self.pending,
        }
    }

    /// Force the simulated clock forward (used by tests; not part of the
    /// MPI-like surface).
    #[doc(hidden)]
    pub fn set_clock_for_test(&mut self, clock: f64) {
        self.clock = clock;
    }
}

/// Decode a little-endian f64 byte stream.
pub fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    assert!(
        bytes.len().is_multiple_of(8),
        "payload is not a whole number of f64s"
    );
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect()
}

/// Encode a little-endian f64 byte stream.
pub fn encode_f64s(data: &[f64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(data.len() * 8);
    for v in data {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use super::Comm;
    use crate::fabric::{Fabric, Message};
    use crate::fault::checksum;
    use crate::universe::Universe;
    use crate::CostParams;

    #[test]
    fn ping_pong_delivers_payloads() {
        let out = Universe::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 5, &[1, 2, 3]);
                c.recv(1, 6)
            } else {
                let got = c.recv(0, 5);
                c.send(0, 6, &[9]);
                got
            }
        });
        assert_eq!(out[0].value, vec![9]);
        assert_eq!(out[1].value, vec![1, 2, 3]);
    }

    #[test]
    fn tag_matching_reorders() {
        // rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first.
        let out = Universe::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 2, &[2]);
                c.send(1, 1, &[1]);
                vec![]
            } else {
                let first = c.recv(0, 1);
                let second = c.recv(0, 2);
                vec![first[0], second[0]]
            }
        });
        assert_eq!(out[1].value, vec![1, 2]);
    }

    #[test]
    fn clock_advances_by_wire_time() {
        let cost = CostParams {
            latency: 1.0,
            gap_per_byte: 0.5,
            send_overhead: 0.0,
        };
        let out = Universe::new(2).with_cost(cost).run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, &[0u8; 4]);
            } else {
                c.recv(0, 1);
            }
            c.clock()
        });
        assert_eq!(out[0].value, 0.0);
        // arrive = 0 + 1.0 + 4*0.5 = 3.0
        assert!((out[1].value - 3.0).abs() < 1e-12);
    }

    #[test]
    fn clock_takes_max_of_local_and_arrival() {
        let cost = CostParams {
            latency: 1.0,
            gap_per_byte: 0.0,
            send_overhead: 0.0,
        };
        let out = Universe::new(2).with_cost(cost).run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, &[]);
            } else {
                c.advance_compute(10.0);
                c.recv(0, 1); // arrival (1.0) is in the past
            }
            c.clock()
        });
        assert!((out[1].value - 10.0).abs() < 1e-12);
        assert_eq!(out[1].stats.comm_time(), 0.0);
    }

    #[test]
    fn compute_is_charged() {
        let out = Universe::new(1).run(|c| {
            c.advance_compute(2.5);
            (c.clock(), c.stats().compute_time)
        });
        assert_eq!(out[0].value, (2.5, 2.5));
    }

    #[test]
    fn isend_irecv_waitall_roundtrip() {
        let out = Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            let r1 = c.irecv(peer, 3);
            let r2 = c.isend(peer, 3, &[c.rank() as u8]);
            let reqs = vec![r1, r2];
            let done = c.waitall(reqs);
            done[0].as_ref().expect("recv slot has a payload")[0]
        });
        assert_eq!(out[0].value, 1);
        assert_eq!(out[1].value, 0);
    }

    #[test]
    fn sendrecv_exchanges_head_on() {
        let out = Universe::new(2).run(|c| {
            let peer = 1 - c.rank();
            let got = c.sendrecv(peer, 9, &[c.rank() as u8 + 10]);
            got[0]
        });
        assert_eq!(out[0].value, 11);
        assert_eq!(out[1].value, 10);
    }

    #[test]
    fn f64_helpers_roundtrip() {
        let out = Universe::new(2).run(|c| {
            if c.rank() == 0 {
                c.send_f64s(1, 4, &[1.5, -2.25, f64::MIN_POSITIVE]);
                vec![]
            } else {
                c.recv_f64s(0, 4)
            }
        });
        assert_eq!(out[1].value, vec![1.5, -2.25, f64::MIN_POSITIVE]);
    }

    #[test]
    fn stats_count_traffic() {
        let out = Universe::new(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, &[0; 100]);
                c.send(1, 2, &[0; 50]);
            } else {
                c.recv(0, 1);
                c.recv(0, 2);
            }
            c.stats()
        });
        assert_eq!(out[0].stats.msgs_sent, 2);
        assert_eq!(out[0].stats.bytes_sent, 150);
        assert_eq!(out[1].value.msgs_recv, 2);
        assert_eq!(out[1].value.bytes_recv, 150);
    }

    #[test]
    fn stats_buckets_sum_to_the_clock() {
        // Every clock advance lands in exactly one bucket: compute charges
        // in compute, send overheads and wire time in transfer, waits on a
        // peer that had not departed yet in idle.
        let out = Universe::new(4).with_cost(CostParams::fdr()).run(|c| {
            let peer = c.rank() ^ 1;
            c.advance_compute(1e-4 * (1.0 + c.rank() as f64));
            c.send(peer, 1, &[0; 256]);
            c.recv(peer, 1);
            c.allreduce_f64_sum(c.rank() as f64);
            c.advance_compute(3e-5);
            c.bcast(2, &[7; 4096]);
            c.ring_shift(&[c.rank() as u8; 64]);
            c.barrier();
        });
        for o in &out {
            let s = o.stats;
            let booked = s.compute_time + s.transfer_time + s.idle_time;
            assert!(
                (booked - o.clock).abs() <= 1e-9 * o.clock,
                "rank clock {} vs booked {booked} ({s:?})",
                o.clock
            );
            assert!(s.transfer_time > 0.0 && s.idle_time > 0.0, "{s:?}");
        }
    }

    const PATIENCE: Duration = Duration::from_secs(60);

    /// Rank 1 of two, over a fabric whose link from rank 0 holds one
    /// message per `(tag, link_seq)` of `link`, in that order.
    fn receiver_over(link: &[(u64, u64)]) -> Comm {
        let fabric = Arc::new(Fabric::new(2, false));
        for &(tag, link_seq) in link {
            let payload = vec![tag as u8];
            let msg = Message {
                tag,
                checksum: checksum(&payload),
                payload,
                depart: 0.0,
                link_seq,
                penalty: 0.0,
            };
            fabric.post(0, 1, msg);
        }
        Comm::new(1, 2, CostParams::default(), fabric, PATIENCE, None)
    }

    #[test]
    fn an_in_sequence_link_delivers_every_payload_in_any_tag_order() {
        let mut c = receiver_over(&[(1, 0), (2, 1), (3, 2), (4, 3)]);
        // tag 3 buffers tags 1 and 2; they then match from the buffer
        let got: Vec<Vec<u8>> = [3, 1, 4, 2].map(|tag| c.recv(0, tag)).into();
        assert_eq!(got, vec![vec![3], vec![1], vec![4], vec![2]]);
        assert_eq!(c.recv_seq, vec![4, 0]);
    }

    #[test]
    #[should_panic(
        expected = "transport bug — tag 0x1 from rank 0 carries link sequence 1 where 0 was due"
    )]
    fn a_reordered_link_is_a_transport_bug() {
        let mut c = receiver_over(&[(1, 1), (2, 0)]);
        c.recv(0, 1);
    }

    #[test]
    #[should_panic(
        expected = "transport bug — tag 0x2 from rank 0 carries link sequence 0 where 1 was due"
    )]
    fn a_duplicated_message_is_a_transport_bug() {
        let mut c = receiver_over(&[(1, 0), (2, 0)]);
        c.recv(0, 1);
        c.recv(0, 2);
    }

    #[test]
    #[should_panic(
        expected = "transport bug — tag 0x2 from rank 0 carries link sequence 2 where 1 was due"
    )]
    fn a_lost_message_is_a_transport_bug() {
        let mut c = receiver_over(&[(1, 0), (2, 2)]);
        c.recv(0, 1);
        c.recv(0, 2);
    }
}
