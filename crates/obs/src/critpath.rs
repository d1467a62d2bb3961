//! Cross-rank dependency log and exact critical-path analysis.
//!
//! The [`Timeline`](crate::timeline::Timeline) answers *what happened
//! when*; this module answers *why the makespan is what it is*. Each rank
//! records a [`DepEvent`] for every simulated-clock mutation — compute
//! charges, send overheads, matched receives (with the exact LogGP charge
//! components the simulator used) — plus collective entry/exit intervals
//! for labeling. The merged [`DepLog`] is a complete, replayable event DAG:
//!
//! * an **identity replay** re-executes the simulator's f64 arithmetic in
//!   the original per-rank operation order and cross-checks every recorded
//!   clock bit-for-bit, proving the log is a faithful transcript;
//! * a **backward walk** from the makespan extracts the exact critical
//!   path — the chain of `rank/op/tag` hops whose endpoints are bitwise
//!   contiguous and telescope from 0 to the makespan;
//! * **what-if replays** re-walk the DAG with edge weights zeroed
//!   (zero-latency network, infinite kernel cache, perfect load balance)
//!   to project where the makespan would go.
//!
//! Everything is pure f64 arithmetic over recorded values, so same-seed
//! runs produce byte-identical analyses.

use std::collections::BTreeMap;

/// One simulated-clock mutation (or collective interval) on one rank.
///
/// The variants record the exact *charge values* the simulator applied,
/// not just interval endpoints, so a replay can reproduce every clock's
/// f64 arithmetic in the original operation order:
///
/// * `Compute` — `clock += secs` (after any fault-plan slowdown
///   inflation; `secs` is the inflated value actually charged).
/// * `Send` — `clock += overhead`; the message departs at the new clock.
/// * `Recv` — `arrive = (depart + wire) + penalty;
///   clock = max(clock, arrive)`, the association order the simulator
///   uses.
/// * `Coll` — a `[t0, t1]` collective interval, recorded at exit purely
///   for labeling (no clock effect).
#[derive(Clone, Debug, PartialEq)]
pub enum DepEvent {
    /// A compute charge: `clock += secs`.
    Compute {
        /// Clock before the charge.
        t0: f64,
        /// Charged seconds (inflated by any active slowdown rule).
        secs: f64,
        /// The charge under an infinitely large kernel cache (every
        /// lookup a hit). Equals `secs` when the cache cannot help.
        alt_secs: f64,
        /// Charge class (`"compute"`, `"fused_sweep"`, `"recon"`, ...).
        class: &'static str,
    },
    /// A send: `clock += overhead`, then the message departs.
    Send {
        /// Clock before the overhead charge.
        t0: f64,
        /// Sender CPU overhead charged.
        overhead: f64,
        /// Destination rank.
        dst: u32,
        /// Message tag.
        tag: u64,
        /// Per-`(src, dst)` link sequence number — the match key.
        link_seq: u64,
    },
    /// A matched receive: `clock = max(clock, (depart + wire) + penalty)`.
    Recv {
        /// Clock at match time (before any jump).
        t0: f64,
        /// Source rank.
        src: u32,
        /// Message tag.
        tag: u64,
        /// The sender's link sequence number — the match key.
        link_seq: u64,
        /// Sender's clock at departure (after its send overhead).
        depart: f64,
        /// Wire charge: `latency + bytes·gap_per_byte`.
        wire: f64,
        /// In-flight penalty (injected delays + retransmission backoff).
        penalty: f64,
    },
    /// A collective's `[t0, t1]` interval, for hop labeling only.
    Coll {
        /// Collective name (`"allreduce"`, `"bcast"`, ...).
        name: &'static str,
        /// Clock at entry.
        t0: f64,
        /// Clock at exit.
        t1: f64,
    },
}

impl DepEvent {
    /// The event's recorded start clock.
    fn t0(&self) -> f64 {
        match *self {
            DepEvent::Compute { t0, .. }
            | DepEvent::Send { t0, .. }
            | DepEvent::Recv { t0, .. }
            | DepEvent::Coll { t0, .. } => t0,
        }
    }
}

/// One rank's in-flight dependency buffer (mirror of
/// [`TrackRecorder`](crate::timeline::TrackRecorder)).
#[derive(Clone, Debug, Default)]
pub struct DepRecorder {
    events: Vec<DepEvent>,
}

impl DepRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        DepRecorder::default()
    }

    /// Record a compute charge (call with the clock *before* the charge).
    pub fn compute(&mut self, t0: f64, secs: f64, alt_secs: f64, class: &'static str) {
        self.events.push(DepEvent::Compute {
            t0,
            secs,
            alt_secs,
            class,
        });
    }

    /// Record a send (call with the clock *before* the overhead charge).
    pub fn send(&mut self, t0: f64, overhead: f64, dst: u32, tag: u64, link_seq: u64) {
        self.events.push(DepEvent::Send {
            t0,
            overhead,
            dst,
            tag,
            link_seq,
        });
    }

    /// Record a matched receive (call with the clock at match time,
    /// *before* any jump to the arrival clock).
    #[allow(clippy::too_many_arguments)]
    pub fn recv(
        &mut self,
        t0: f64,
        src: u32,
        tag: u64,
        link_seq: u64,
        depart: f64,
        wire: f64,
        penalty: f64,
    ) {
        self.events.push(DepEvent::Recv {
            t0,
            src,
            tag,
            link_seq,
            depart,
            wire,
            penalty,
        });
    }

    /// Record a finished collective's interval.
    pub fn coll(&mut self, name: &'static str, t0: f64, t1: f64) {
        self.events.push(DepEvent::Coll { name, t0, t1 });
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Hand the buffer over for merging.
    pub fn finish(self) -> Vec<DepEvent> {
        self.events
    }
}

/// The merged per-rank dependency log of one run — the event DAG.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DepLog {
    ranks: Vec<Vec<DepEvent>>,
}

impl DepLog {
    /// An empty log (untraced run).
    pub fn new() -> Self {
        DepLog::default()
    }

    /// Merge per-rank buffers, indexed by rank.
    pub fn from_ranks(ranks: Vec<Vec<DepEvent>>) -> Self {
        DepLog { ranks }
    }

    /// Number of ranks.
    pub fn n_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// One rank's events, in that rank's chronological order.
    pub fn rank(&self, r: usize) -> &[DepEvent] {
        &self.ranks[r]
    }

    /// Whether the log holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.ranks.iter().all(Vec::is_empty)
    }

    /// Total event count across ranks.
    pub fn len(&self) -> usize {
        self.ranks.iter().map(Vec::len).sum()
    }
}

/// Result of replaying the DAG: per-event `(start, end)` clocks parallel
/// to each rank's event vec, the per-rank final clocks, and the makespan.
#[derive(Clone, Debug)]
pub struct Replayed {
    /// `(start_clock, end_clock)` per event, parallel to the log.
    pub clocks: Vec<Vec<(f64, f64)>>,
    /// Final clock per rank.
    pub final_clock: Vec<f64>,
    /// Max final clock.
    pub makespan: f64,
    /// First rank whose final clock equals the makespan.
    pub max_rank: usize,
}

/// Which weights a replay applies to the DAG edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WhatIf {
    /// The recorded weights, with a bit-for-bit cross-check of every
    /// recorded clock against the replayed one: the replay *is* the run.
    Identity,
    /// Zero-latency network: wire time, in-flight penalties and send
    /// overheads are all zero; cross-rank dependencies still bind
    /// (a receive cannot complete before its send departs).
    ZeroNetwork,
    /// Infinitely large kernel cache: every compute charge is replaced by
    /// its recorded all-hit alternative (`alt_secs`).
    InfiniteCache,
}

/// Replay the DAG under `mode`, resolving cross-rank dependencies with a
/// worklist (a receive blocks until its matched send has been replayed).
///
/// # Errors
///
/// [`WhatIf::Identity`] errors if any replayed clock differs bitwise from
/// the recorded one, or if a receive has no matching send — either means
/// the log is not a faithful transcript of the run.
pub fn replay(log: &DepLog, mode: WhatIf) -> Result<Replayed, String> {
    let p = log.n_ranks();
    let verify = mode == WhatIf::Identity;
    let mut idx = vec![0usize; p];
    let mut clock = vec![0.0f64; p];
    let mut clocks: Vec<Vec<(f64, f64)>> = (0..p)
        .map(|r| Vec::with_capacity(log.rank(r).len()))
        .collect();
    let mut departs: BTreeMap<(u32, u32, u64), f64> = BTreeMap::new();
    loop {
        let mut progressed = false;
        for r in 0..p {
            while idx[r] < log.rank(r).len() {
                let ev = &log.rank(r)[idx[r]];
                if verify {
                    if let DepEvent::Compute { t0, .. }
                    | DepEvent::Send { t0, .. }
                    | DepEvent::Recv { t0, .. } = ev
                    {
                        if clock[r].to_bits() != t0.to_bits() {
                            return Err(format!(
                                "identity replay diverged on rank {r} event {}: replayed clock \
                                 {} vs recorded {t0} — the dep log is not a faithful transcript",
                                idx[r], clock[r]
                            ));
                        }
                    }
                }
                let start = clock[r];
                match *ev {
                    DepEvent::Coll { .. } => {}
                    DepEvent::Compute { secs, alt_secs, .. } => {
                        let charge = if mode == WhatIf::InfiniteCache {
                            alt_secs
                        } else {
                            secs
                        };
                        clock[r] += charge;
                    }
                    DepEvent::Send {
                        overhead,
                        dst,
                        link_seq,
                        ..
                    } => {
                        if mode != WhatIf::ZeroNetwork {
                            clock[r] += overhead;
                        }
                        departs.insert((r as u32, dst, link_seq), clock[r]);
                    }
                    DepEvent::Recv {
                        src,
                        link_seq,
                        depart,
                        wire,
                        penalty,
                        ..
                    } => {
                        let key = (src, r as u32, link_seq);
                        let Some(&d) = departs.get(&key) else {
                            // Blocked on a sender not replayed yet; move on
                            // to other ranks and come back.
                            break;
                        };
                        if verify && d.to_bits() != depart.to_bits() {
                            return Err(format!(
                                "identity replay diverged on rank {r} event {}: message from \
                                 rank {src} (link_seq {link_seq}) departed at {d} in replay vs \
                                 {depart} recorded",
                                idx[r]
                            ));
                        }
                        // Same association order as the simulator:
                        // (depart + wire) + penalty.
                        let arrive = if mode == WhatIf::ZeroNetwork {
                            d
                        } else {
                            (d + wire) + penalty
                        };
                        if arrive > clock[r] {
                            clock[r] = arrive;
                        }
                    }
                }
                clocks[r].push((start, clock[r]));
                idx[r] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    for r in 0..p {
        if idx[r] < log.rank(r).len() {
            return Err(format!(
                "replay stuck on rank {r} event {}: receive has no matching send in the log",
                idx[r]
            ));
        }
    }
    let mut makespan = 0.0f64;
    let mut max_rank = 0usize;
    for (r, &c) in clock.iter().enumerate() {
        if c > makespan {
            makespan = c;
            max_rank = r;
        }
    }
    Ok(Replayed {
        clocks,
        final_clock: clock,
        makespan,
        max_rank,
    })
}

/// What kind of edge a critical-path hop rides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopKind {
    /// A local compute charge.
    Compute,
    /// The sender-side CPU overhead of a message on the path.
    SendOverhead,
    /// A wire transfer (the binding arrival of a clamped receive); spans
    /// `[depart, arrive]` and jumps from the receiver to the sender.
    Transfer,
}

impl HopKind {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            HopKind::Compute => "compute",
            HopKind::SendOverhead => "send_overhead",
            HopKind::Transfer => "transfer",
        }
    }
}

/// One hop of the critical path: a `[t0, t1]` edge on `rank`.
///
/// Consecutive hops are bitwise contiguous (`hops[k].t1` ==
/// `hops[k+1].t0`, bit-for-bit), the first hop starts at exactly `0.0`
/// and the last ends at exactly the makespan — so the chain telescopes to
/// the makespan with no rounding.
#[derive(Clone, Debug, PartialEq)]
pub struct Hop {
    /// Rank the edge is charged on (for transfers: the receiving rank).
    pub rank: u32,
    /// Edge kind.
    pub kind: HopKind,
    /// Operation label: the compute class, the enclosing collective's
    /// name, or `"p2p"` for user point-to-point traffic.
    pub op: String,
    /// Message tag for transfer hops (`None` for local hops or when
    /// merged hops had differing tags).
    pub tag: Option<u64>,
    /// Edge start, simulated seconds.
    pub t0: f64,
    /// Edge end, simulated seconds.
    pub t1: f64,
    /// How many primitive edges were merged into this hop.
    pub count: u32,
}

/// Per-op aggregate over the critical path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpTotal {
    /// Merged hops with this `(kind, op)` label.
    pub hops: u32,
    /// Primitive edges merged into them.
    pub edges: u32,
    /// Total seconds on the path (summed durations; reporting aid, not
    /// the bit-exact telescoped total).
    pub secs: f64,
}

/// The exact critical path through the event DAG.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPath {
    /// The full compressed chain, in time order.
    pub hops: Vec<Hop>,
    /// Start of the chain (exactly `0.0` on a non-empty log).
    pub start: f64,
    /// End of the chain — bitwise equal to the makespan.
    pub end: f64,
    /// Per-`kind/op` totals over the chain, key `"<kind>/<op>"`.
    pub by_op: BTreeMap<String, OpTotal>,
}

impl CriticalPath {
    /// `end − start`: the interval the chain covers. Because `start` is
    /// exactly `0.0`, this equals the makespan bit-for-bit.
    pub fn total(&self) -> f64 {
        self.end - self.start
    }
}

/// Label every event with its enclosing collective's name, per rank.
///
/// Collectives record their interval at *exit*, after the sends/receives
/// they contain; since collectives do not nest, every earlier event whose
/// start clock is at or after the collective's entry belongs to it.
pub(crate) fn coll_labels(log: &DepLog) -> Vec<Vec<Option<&'static str>>> {
    let mut labels: Vec<Vec<Option<&'static str>>> = (0..log.n_ranks())
        .map(|r| vec![None; log.rank(r).len()])
        .collect();
    for r in 0..log.n_ranks() {
        let events = log.rank(r);
        for j in 0..events.len() {
            if let DepEvent::Coll { name, t0, .. } = events[j] {
                for k in (0..j).rev() {
                    if labels[r][k].is_some() || events[k].t0() < t0 {
                        break;
                    }
                    labels[r][k] = Some(name);
                }
            }
        }
    }
    labels
}

/// Walk the identity-replayed DAG backward from the makespan and extract
/// the exact critical path.
///
/// At every point the binding constraint is unambiguous: a clamped
/// receive's clock came from the message arrival (jump to the sender at
/// departure time; the receiver's wait before the departure is idle and
/// *not* on the path), every other clock movement is local. Events that
/// did not move the clock contribute no hop. Consecutive hops with the
/// same `(rank, kind, op)` are merged.
pub fn critical_path(log: &DepLog, replayed: &Replayed) -> CriticalPath {
    let p = log.n_ranks();
    if p == 0 {
        return CriticalPath {
            start: 0.0,
            end: replayed.makespan,
            ..CriticalPath::default()
        };
    }
    // (src, dst, link_seq) -> sender event index.
    let mut send_index: BTreeMap<(u32, u32, u64), usize> = BTreeMap::new();
    for r in 0..p {
        for (i, ev) in log.rank(r).iter().enumerate() {
            if let DepEvent::Send { dst, link_seq, .. } = *ev {
                send_index.insert((r as u32, dst, link_seq), i);
            }
        }
    }
    let labels = coll_labels(log);

    let mut rev: Vec<Hop> = Vec::new();
    let push = |rev: &mut Vec<Hop>, hop: Hop| {
        // Merging happens on the time-ordered chain; in backward order the
        // previous pushed hop is the *later* one.
        if let Some(prev) = rev.last_mut() {
            if prev.rank == hop.rank && prev.kind == hop.kind && prev.op == hop.op {
                prev.t0 = hop.t0;
                prev.count += hop.count;
                if prev.tag != hop.tag {
                    prev.tag = None;
                }
                return;
            }
        }
        rev.push(hop);
    };

    let mut r = replayed.max_rank;
    let mut i = log.rank(r).len();
    'walk: loop {
        if i == 0 {
            break 'walk;
        }
        i -= 1;
        let ev = &log.rank(r)[i];
        let (s, e) = replayed.clocks[r][i];
        match *ev {
            DepEvent::Coll { .. } => {}
            DepEvent::Compute { class, .. } => {
                if e > s {
                    push(
                        &mut rev,
                        Hop {
                            rank: r as u32,
                            kind: HopKind::Compute,
                            op: class.to_string(),
                            tag: None,
                            t0: s,
                            t1: e,
                            count: 1,
                        },
                    );
                }
            }
            DepEvent::Send { tag, .. } => {
                if e > s {
                    let op = labels[r][i].unwrap_or("p2p").to_string();
                    push(
                        &mut rev,
                        Hop {
                            rank: r as u32,
                            kind: HopKind::SendOverhead,
                            op,
                            tag: Some(tag),
                            t0: s,
                            t1: e,
                            count: 1,
                        },
                    );
                }
            }
            DepEvent::Recv {
                src,
                tag,
                link_seq,
                depart,
                ..
            } => {
                if e > s {
                    // The clamp is the binding constraint: the transfer
                    // edge spans [depart, arrive] and the path continues
                    // on the sender. The receiver-side wait before the
                    // departure is idle, never on the path.
                    let op = labels[r][i].unwrap_or("p2p").to_string();
                    push(
                        &mut rev,
                        Hop {
                            rank: r as u32,
                            kind: HopKind::Transfer,
                            op,
                            tag: Some(tag),
                            t0: depart,
                            t1: e,
                            count: 1,
                        },
                    );
                    let si = send_index[&(src, r as u32, link_seq)];
                    r = src as usize;
                    i = si + 1; // next loop iteration visits the send itself
                    continue 'walk;
                }
            }
        }
    }
    rev.reverse();

    let mut by_op: BTreeMap<String, OpTotal> = BTreeMap::new();
    for h in &rev {
        let entry = by_op
            .entry(format!("{}/{}", h.kind.name(), h.op))
            .or_default();
        entry.hops += 1;
        entry.edges += h.count;
        entry.secs += h.t1 - h.t0;
    }
    let (start, end) = match (rev.first(), rev.last()) {
        (Some(f), Some(l)) => (f.t0, l.t1),
        _ => (0.0, replayed.makespan),
    };
    CriticalPath {
        hops: rev,
        start,
        end,
        by_op,
    }
}

/// What-if projections of the makespan under zeroed edge weights.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Projections {
    /// Makespan with wire time, penalties and send overheads all zero
    /// (dependencies still bind).
    pub zero_network: f64,
    /// Makespan with every receive paying its transfer time but never
    /// idling on a late peer: each rank replayed locally with
    /// `clock += wire + penalty` per receive — the perfect-load-balance
    /// bound.
    pub perfect_balance: f64,
    /// Makespan with every kernel-cache lookup a hit (compute charges
    /// replaced by their recorded all-hit alternatives).
    pub infinite_cache: f64,
}

/// Compute all three projections by re-walking the DAG.
///
/// # Errors
///
/// Propagates replay failures (an unmatched receive in the log).
pub fn project(log: &DepLog) -> Result<Projections, String> {
    let zero_network = replay(log, WhatIf::ZeroNetwork)?.makespan;
    let infinite_cache = replay(log, WhatIf::InfiniteCache)?.makespan;
    // Perfect balance is a per-rank local walk: senders are never late, so
    // no cross-rank resolution is needed.
    let mut perfect_balance = 0.0f64;
    for r in 0..log.n_ranks() {
        let mut clock = 0.0f64;
        for ev in log.rank(r) {
            match *ev {
                DepEvent::Coll { .. } => {}
                DepEvent::Compute { secs, .. } => clock += secs,
                DepEvent::Send { overhead, .. } => clock += overhead,
                DepEvent::Recv { wire, penalty, .. } => clock += wire + penalty,
            }
        }
        perfect_balance = perfect_balance.max(clock);
    }
    Ok(Projections {
        zero_network,
        perfect_balance,
        infinite_cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a tiny 2-rank log by hand, mimicking the simulator's
    /// arithmetic: rank 0 computes 1.0 then sends (overhead 0.25); rank 1
    /// computes 0.5 then receives (wire 0.5, no penalty).
    fn tiny_log() -> DepLog {
        let mut r0 = DepRecorder::new();
        r0.compute(0.0, 1.0, 1.0, "compute");
        r0.send(1.0, 0.25, 1, 7, 0);
        let mut r1 = DepRecorder::new();
        r1.compute(0.0, 0.5, 0.5, "compute");
        r1.recv(0.5, 0, 7, 0, 1.25, 0.5, 0.0);
        DepLog::from_ranks(vec![r0.finish(), r1.finish()])
    }

    #[test]
    fn identity_replay_reproduces_clocks() {
        let log = tiny_log();
        let rep = replay(&log, WhatIf::Identity).unwrap();
        assert_eq!(rep.final_clock, vec![1.25, 1.75]);
        assert_eq!(rep.makespan, 1.75);
        assert_eq!(rep.max_rank, 1);
    }

    #[test]
    fn identity_replay_rejects_tampered_logs() {
        let mut r0 = DepRecorder::new();
        r0.compute(0.5, 1.0, 1.0, "compute"); // wrong t0: clock starts at 0
        let log = DepLog::from_ranks(vec![r0.finish()]);
        let err = replay(&log, WhatIf::Identity).unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }

    #[test]
    fn replay_reports_unmatched_receives() {
        let mut r0 = DepRecorder::new();
        r0.recv(0.0, 1, 7, 0, 1.0, 0.5, 0.0);
        let log = DepLog::from_ranks(vec![r0.finish(), Vec::new()]);
        let err = replay(&log, WhatIf::Identity).unwrap_err();
        assert!(err.contains("no matching send"), "{err}");
    }

    #[test]
    fn critical_path_telescopes_to_the_makespan() {
        let log = tiny_log();
        let rep = replay(&log, WhatIf::Identity).unwrap();
        let cp = critical_path(&log, &rep);
        // chain: rank0 compute [0,1] → send_overhead [1,1.25] →
        // transfer [1.25,1.75] (receiver rank 1)
        assert_eq!(cp.hops.len(), 3);
        assert_eq!(cp.hops[0].kind, HopKind::Compute);
        assert_eq!(cp.hops[0].rank, 0);
        assert_eq!(cp.hops[1].kind, HopKind::SendOverhead);
        assert_eq!(cp.hops[2].kind, HopKind::Transfer);
        assert_eq!(cp.hops[2].rank, 1);
        assert_eq!(cp.hops[2].tag, Some(7));
        for w in cp.hops.windows(2) {
            assert_eq!(w[0].t1.to_bits(), w[1].t0.to_bits(), "contiguous");
        }
        assert_eq!(cp.start.to_bits(), 0.0f64.to_bits());
        assert_eq!(cp.end.to_bits(), rep.makespan.to_bits());
        assert_eq!(cp.total().to_bits(), rep.makespan.to_bits());
    }

    #[test]
    fn idle_is_never_on_the_path() {
        // rank 1 idles 0.75s waiting for rank 0's departure; the path
        // jumps to rank 0 and the idle stretch appears on no hop.
        let log = tiny_log();
        let rep = replay(&log, WhatIf::Identity).unwrap();
        let cp = critical_path(&log, &rep);
        let on_rank1: Vec<_> = cp.hops.iter().filter(|h| h.rank == 1).collect();
        assert_eq!(on_rank1.len(), 1);
        assert_eq!(on_rank1[0].kind, HopKind::Transfer);
        assert_eq!(on_rank1[0].t0, 1.25); // starts at the departure
    }

    #[test]
    fn zero_network_projection_removes_wire_and_overhead() {
        let log = tiny_log();
        let proj = project(&log).unwrap();
        // rank 0: compute 1.0, zero overhead; rank 1: compute 0.5 then
        // recv arriving at rank 0's depart clock (1.0) — already past 0.5,
        // so clamps to 1.0.
        assert_eq!(proj.zero_network, 1.0);
        // perfect balance: rank 1 pays 0.5 compute + 0.5 wire = 1.0;
        // rank 0 pays 1.25.
        assert_eq!(proj.perfect_balance, 1.25);
        assert_eq!(proj.infinite_cache, 1.75); // alt == secs here
    }

    #[test]
    fn infinite_cache_uses_alt_charges() {
        let mut r0 = DepRecorder::new();
        r0.compute(0.0, 4.0, 1.0, "fused_sweep");
        let log = DepLog::from_ranks(vec![r0.finish()]);
        let proj = project(&log).unwrap();
        assert_eq!(proj.infinite_cache, 1.0);
        assert_eq!(proj.zero_network, 4.0);
    }

    #[test]
    fn collective_labels_attach_to_inner_events() {
        let mut r0 = DepRecorder::new();
        r0.compute(0.0, 1.0, 1.0, "compute");
        r0.send(1.0, 0.0, 1, 1 << 63, 0);
        r0.coll("allreduce", 1.0, 1.0);
        let mut r1 = DepRecorder::new();
        r1.recv(0.0, 0, 1 << 63, 0, 1.0, 2.0, 0.0);
        r1.coll("allreduce", 0.0, 3.0);
        let log = DepLog::from_ranks(vec![r0.finish(), r1.finish()]);
        let rep = replay(&log, WhatIf::Identity).unwrap();
        let cp = critical_path(&log, &rep);
        let transfer = cp
            .hops
            .iter()
            .find(|h| h.kind == HopKind::Transfer)
            .expect("transfer hop");
        assert_eq!(transfer.op, "allreduce");
        assert!(
            cp.by_op.contains_key("transfer/allreduce"),
            "{:?}",
            cp.by_op
        );
    }

    #[test]
    fn consecutive_hops_merge() {
        let mut r0 = DepRecorder::new();
        r0.compute(0.0, 1.0, 1.0, "sweep");
        r0.compute(1.0, 1.0, 1.0, "sweep");
        r0.compute(2.0, 1.0, 1.0, "other");
        let log = DepLog::from_ranks(vec![r0.finish()]);
        let rep = replay(&log, WhatIf::Identity).unwrap();
        let cp = critical_path(&log, &rep);
        assert_eq!(cp.hops.len(), 2);
        assert_eq!(cp.hops[0].count, 2);
        assert_eq!((cp.hops[0].t0, cp.hops[0].t1), (0.0, 2.0));
    }

    #[test]
    fn empty_log_yields_empty_path() {
        let log = DepLog::new();
        let rep = replay(&log, WhatIf::Identity).unwrap();
        assert_eq!(rep.makespan, 0.0);
        let cp = critical_path(&log, &rep);
        assert!(cp.hops.is_empty());
        assert_eq!(cp.total(), 0.0);
    }
}
