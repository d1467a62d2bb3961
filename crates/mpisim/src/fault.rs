//! Deterministic fault injection: the [`FaultPlan`].
//!
//! A plan is a seeded, serializable schedule of faults installed on a
//! universe via [`crate::Universe::with_faults`]. Two rule families exist:
//!
//! * **Link rules** perturb messages in flight — drop a copy (the
//!   transport retransmits with exponential backoff), corrupt the payload
//!   (detected by the envelope checksum, then retransmitted), or delay
//!   delivery. Whether a rule fires on a given transmission attempt is a
//!   pure function of `(seed, rule, src, dst, link sequence, attempt)`, so
//!   the injected fault sequence is byte-identical across runs no matter
//!   how the OS schedules the rank threads.
//! * **Rank rules** perturb a rank itself — kill it when its simulated
//!   clock reaches a deadline, or multiply its compute charges inside a
//!   simulated-time window.
//! * **Checkpoint rules** corrupt promoted checkpoint generations by
//!   global promote-sequence window, so a driver's verified-restore
//!   fallback path (skip the corrupt generation, restore an older one)
//!   is exercised deterministically.
//!
//! Faults are keyed on *simulated* LogGP time (message departure clocks,
//! rank clocks), never on wall-clock time: a plan that crashes rank 3 at
//! `t = 0.5 s` does so at the same iteration on every machine.

use std::fmt;

/// How a link rule perturbs a matching message copy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkFault {
    /// The copy is lost in flight; the transport retransmits after a
    /// backoff, up to the plan's retry budget.
    Drop,
    /// The copy arrives with corrupted payload bytes; the envelope
    /// checksum catches it and the transport retransmits.
    Corrupt,
    /// The copy is held in flight for `secs` extra simulated seconds.
    Delay {
        /// Extra in-flight seconds.
        secs: f64,
    },
}

/// A seeded rule perturbing messages on matching links.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkRule {
    /// The perturbation.
    pub fault: LinkFault,
    /// Sending-rank filter (`None` = any source).
    pub src: Option<usize>,
    /// Receiving-rank filter (`None` = any destination).
    pub dst: Option<usize>,
    /// Simulated-time window `[from, until)` tested against the message's
    /// departure clock.
    pub from: f64,
    /// Window end (exclusive); `f64::INFINITY` for open-ended.
    pub until: f64,
    /// Per-attempt firing probability in `[0, 1]`.
    pub probability: f64,
    /// Maximum times this rule fires **per link** (deterministic because
    /// each link's traffic is consumed by exactly one receiver, in FIFO
    /// order). `u64::MAX` for unlimited.
    pub count: u64,
}

/// How a rank rule perturbs a rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RankFault {
    /// Kill the rank when its simulated clock reaches the rule's `from`.
    Crash,
    /// Multiply the rank's compute charges by `factor` while its clock is
    /// inside `[from, until)`.
    Slow {
        /// Compute-time multiplier (`> 1` slows the rank down).
        factor: f64,
    },
}

/// A rule perturbing one rank, keyed on its simulated clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankRule {
    /// The perturbation.
    pub fault: RankFault,
    /// The affected rank.
    pub rank: usize,
    /// Crash deadline, or slowdown window start.
    pub from: f64,
    /// Slowdown window end (exclusive); ignored by crashes.
    pub until: f64,
}

/// A rule corrupting promoted checkpoint generations: every generation
/// whose global promote sequence number falls in `[from, until)` gets one
/// byte of its serialized cut flipped *after* the store computed its
/// checksum, so restore-time verification detects the damage and the
/// recovery ladder must fall back to an older generation (or a cold
/// start). Sequence numbers are deterministic (they count promotions in
/// order), so the injected corruption is byte-identical across runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CkptRule {
    /// First corrupted promote-sequence number.
    pub from: u64,
    /// Window end (exclusive); `u64::MAX` for open-ended.
    pub until: u64,
}

/// Default retry budget: one original transmission plus this many
/// retransmissions before a message is declared permanently lost.
pub const DEFAULT_MAX_RETRIES: u32 = 4;

/// Default first-retransmission backoff in simulated seconds; attempt `k`
/// waits `backoff · 2^(k−1)`.
pub const DEFAULT_RETRY_BACKOFF: f64 = 1e-4;

/// A deterministic, serializable fault schedule.
///
/// ```
/// use shrinksvm_mpisim::{FaultPlan, Universe};
///
/// let plan = FaultPlan::new(7).drop_messages(Some(0), Some(1), 1.0, 0.0, f64::INFINITY, 1);
/// let out = Universe::new(2).with_faults(plan).run(|c| {
///     if c.rank() == 0 {
///         c.send(1, 5, &[1, 2, 3]);
///         vec![]
///     } else {
///         c.recv(0, 5) // first copy is dropped; the retransmission lands
///     }
/// });
/// assert_eq!(out[1].value, vec![1, 2, 3]);
/// assert_eq!(out[1].stats.retries, 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    link_rules: Vec<LinkRule>,
    rank_rules: Vec<RankRule>,
    ckpt_rules: Vec<CkptRule>,
    /// Rank rules already consumed by a recovery (a crashed node does not
    /// crash again after the driver replaces it).
    disarmed: Vec<bool>,
    max_retries: u32,
    retry_backoff: f64,
}

/// What the transport should do with one transmission attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Fate {
    /// Deliver the copy untouched.
    Deliver,
    /// This copy was lost in flight.
    Lost,
    /// This copy arrives with corrupted payload bytes.
    Corrupted,
    /// This copy is held for the given extra simulated seconds.
    Delayed(f64),
}

/// Panic payload of an injected rank crash. The universe recognizes this
/// payload and reports the crash as a value ([`crate::Universe::run_try`])
/// instead of unwinding, so a driver can recover.
#[derive(Clone, Copy, Debug)]
pub struct CrashNotice {
    /// The crashed rank.
    pub rank: usize,
    /// The rank's simulated clock at death.
    pub sim_time: f64,
    /// Index of the [`RankRule`] that fired (for disarming on recovery).
    pub rule: usize,
}

impl fmt::Display for CrashNotice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} killed by injected crash at simulated time {:.6}s (rule {})",
            self.rank, self.sim_time, self.rule
        )
    }
}

/// SplitMix64 finalizer — the same mixer the datagen RNG seeds through.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic coin in `[0, 1)` from a key tuple.
fn coin(seed: u64, rule: u64, src: u64, dst: u64, link_seq: u64, attempt: u64) -> f64 {
    let mut h = mix(seed ^ 0xC5A7_1D4E_9F03_B621);
    for k in [rule, src, dst, link_seq, attempt] {
        h = mix(h ^ k);
    }
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            link_rules: Vec::new(),
            rank_rules: Vec::new(),
            ckpt_rules: Vec::new(),
            disarmed: Vec::new(),
            max_retries: DEFAULT_MAX_RETRIES,
            retry_backoff: DEFAULT_RETRY_BACKOFF,
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Retry budget (retransmissions after the original copy).
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// First-retransmission backoff in simulated seconds.
    pub fn retry_backoff(&self) -> f64 {
        self.retry_backoff
    }

    /// Set the retry budget.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Set the first-retransmission backoff (doubles per further attempt).
    pub fn with_retry_backoff(mut self, secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "backoff must be finite");
        self.retry_backoff = secs;
        self
    }

    fn push_link(mut self, rule: LinkRule) -> Self {
        assert!(
            (0.0..=1.0).contains(&rule.probability),
            "probability out of range"
        );
        assert!(rule.from <= rule.until, "empty fault window");
        self.link_rules.push(rule);
        self
    }

    fn push_rank(mut self, rule: RankRule) -> Self {
        self.rank_rules.push(rule);
        self.disarmed.push(false);
        self
    }

    /// Drop matching message copies with `probability` per attempt, at most
    /// `count` times per link, for departures in `[from, until)`.
    pub fn drop_messages(
        self,
        src: Option<usize>,
        dst: Option<usize>,
        probability: f64,
        from: f64,
        until: f64,
        count: u64,
    ) -> Self {
        self.push_link(LinkRule {
            fault: LinkFault::Drop,
            src,
            dst,
            from,
            until,
            probability,
            count,
        })
    }

    /// Corrupt matching message copies (checksum-detectable) with
    /// `probability` per attempt, at most `count` times per link.
    pub fn corrupt_messages(
        self,
        src: Option<usize>,
        dst: Option<usize>,
        probability: f64,
        from: f64,
        until: f64,
        count: u64,
    ) -> Self {
        self.push_link(LinkRule {
            fault: LinkFault::Corrupt,
            src,
            dst,
            from,
            until,
            probability,
            count,
        })
    }

    /// Delay matching messages by `secs` simulated seconds with
    /// `probability`, at most `count` times per link.
    // mirrors drop_messages/corrupt_messages plus the delay amount
    #[allow(clippy::too_many_arguments)]
    pub fn delay_messages(
        self,
        src: Option<usize>,
        dst: Option<usize>,
        secs: f64,
        probability: f64,
        from: f64,
        until: f64,
        count: u64,
    ) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "delay must be finite");
        self.push_link(LinkRule {
            fault: LinkFault::Delay { secs },
            src,
            dst,
            from,
            until,
            probability,
            count,
        })
    }

    /// Kill `rank` when its simulated clock reaches `at` seconds.
    pub fn crash_rank(self, rank: usize, at: f64) -> Self {
        assert!(at >= 0.0, "crash deadline must be nonnegative");
        self.push_rank(RankRule {
            fault: RankFault::Crash,
            rank,
            from: at,
            until: f64::INFINITY,
        })
    }

    /// Multiply `rank`'s compute charges by `factor` while its clock is in
    /// `[from, until)`.
    pub fn slow_rank(self, rank: usize, factor: f64, from: f64, until: f64) -> Self {
        assert!(factor >= 1.0 && factor.is_finite(), "factor must be >= 1");
        self.push_rank(RankRule {
            fault: RankFault::Slow { factor },
            rank,
            from,
            until,
        })
    }

    /// Corrupt every promoted checkpoint generation whose global promote
    /// sequence number lies in `[from, until)` — one byte of the
    /// serialized cut is flipped after checksumming, so a verifying
    /// restore detects it and falls back.
    pub fn corrupt_checkpoints(mut self, from: u64, until: u64) -> Self {
        assert!(from < until, "empty checkpoint-corruption window");
        self.ckpt_rules.push(CkptRule { from, until });
        self
    }

    /// Number of link rules.
    pub fn n_link_rules(&self) -> usize {
        self.link_rules.len()
    }

    /// Number of rank rules.
    pub fn n_rank_rules(&self) -> usize {
        self.rank_rules.len()
    }

    /// Number of checkpoint-corruption rules.
    pub fn n_ckpt_rules(&self) -> usize {
        self.ckpt_rules.len()
    }

    /// The checkpoint-corruption windows, for a store to plant.
    pub fn checkpoint_corruption_windows(&self) -> Vec<(u64, u64)> {
        self.ckpt_rules.iter().map(|r| (r.from, r.until)).collect()
    }

    /// Total rules across all families, in the unified order link → rank
    /// → checkpoint (the index space [`FaultPlan::without_rule`] uses).
    pub fn rules_len(&self) -> usize {
        self.link_rules.len() + self.rank_rules.len() + self.ckpt_rules.len()
    }

    /// A copy of this plan with the `idx`-th rule (unified order: link
    /// rules, then rank rules, then checkpoint rules) removed — the
    /// primitive a delta-debugging shrinker minimizes over. Removing a
    /// rule shifts later rule indices (and therefore their fate coins),
    /// but every candidate plan is still fully deterministic on its own.
    ///
    /// # Panics
    ///
    /// Panics when `idx >= rules_len()`.
    pub fn without_rule(&self, idx: usize) -> FaultPlan {
        assert!(idx < self.rules_len(), "rule index {idx} out of range");
        let mut plan = self.clone();
        if idx < plan.link_rules.len() {
            plan.link_rules.remove(idx);
            return plan;
        }
        let idx = idx - plan.link_rules.len();
        if idx < plan.rank_rules.len() {
            plan.rank_rules.remove(idx);
            plan.disarmed.remove(idx);
            return plan;
        }
        let idx = idx - plan.rank_rules.len();
        plan.ckpt_rules.remove(idx);
        plan
    }

    /// Disarm a rank rule that already fired (recovery replaced the node):
    /// it will not fire again on subsequent runs of this plan.
    pub fn disarm_rank_rule(&mut self, idx: usize) {
        if let Some(d) = self.disarmed.get_mut(idx) {
            *d = true;
        }
    }

    /// Decide the fate of one transmission attempt. `hits` is the
    /// receiver's per-`(rule, src)` injection counter backing the per-link
    /// `count` budget; the first matching rule that wins its coin fires.
    // the mix key is exactly these coordinates; bundling them would only
    // rename the problem
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fate(
        &self,
        src: usize,
        dst: usize,
        depart: f64,
        link_seq: u64,
        attempt: u32,
        hits: &mut [u64],
        p: usize,
    ) -> Fate {
        for (idx, rule) in self.link_rules.iter().enumerate() {
            if rule.src.is_some_and(|s| s != src) || rule.dst.is_some_and(|d| d != dst) {
                continue;
            }
            if depart < rule.from || depart >= rule.until {
                continue;
            }
            let slot = idx * p + src;
            if hits[slot] >= rule.count {
                continue;
            }
            let c = coin(
                self.seed,
                idx as u64,
                src as u64,
                dst as u64,
                link_seq,
                u64::from(attempt),
            );
            if c >= rule.probability {
                continue;
            }
            hits[slot] += 1;
            return match rule.fault {
                LinkFault::Drop => Fate::Lost,
                LinkFault::Corrupt => Fate::Corrupted,
                LinkFault::Delay { secs } => Fate::Delayed(secs),
            };
        }
        Fate::Deliver
    }

    /// The armed crash rule (if any) due on `rank` at simulated `clock`.
    pub(crate) fn crash_due(&self, rank: usize, clock: f64) -> Option<(usize, f64)> {
        self.rank_rules
            .iter()
            .enumerate()
            .find(|(idx, r)| {
                !self.disarmed[*idx]
                    && r.rank == rank
                    && matches!(r.fault, RankFault::Crash)
                    && clock >= r.from
            })
            .map(|(idx, r)| (idx, r.from))
    }

    /// Product of active slowdown factors for `rank` at `clock`, with the
    /// index of the first matching rule (for one-shot ledger records).
    pub(crate) fn slow_factor(&self, rank: usize, clock: f64) -> Option<(usize, f64)> {
        let mut first = None;
        let mut factor = 1.0;
        for (idx, r) in self.rank_rules.iter().enumerate() {
            if let RankFault::Slow { factor: f } = r.fault {
                if r.rank == rank && clock >= r.from && clock < r.until {
                    factor *= f;
                    first.get_or_insert(idx);
                }
            }
        }
        first.map(|idx| (idx, factor))
    }

    // --------------------------------------------------------- persistence

    /// Serialize to the plan's versioned text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("shrinksvm-faultplan v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!(
            "retry max {} backoff {:e}\n",
            self.max_retries, self.retry_backoff
        ));
        let opt = |r: Option<usize>| r.map_or("*".to_string(), |v| v.to_string());
        for r in &self.link_rules {
            let kind = match r.fault {
                LinkFault::Drop => "drop".to_string(),
                LinkFault::Corrupt => "corrupt".to_string(),
                LinkFault::Delay { secs } => format!("delay {secs:e}"),
            };
            out.push_str(&format!(
                "link {kind} src {} dst {} from {:e} until {:e} p {:e} count {}\n",
                opt(r.src),
                opt(r.dst),
                r.from,
                r.until,
                r.probability,
                r.count
            ));
        }
        for r in &self.ckpt_rules {
            out.push_str(&format!("ckpt corrupt from {} until {}\n", r.from, r.until));
        }
        for (idx, r) in self.rank_rules.iter().enumerate() {
            let armed = if self.disarmed[idx] { " disarmed" } else { "" };
            match r.fault {
                RankFault::Crash => {
                    out.push_str(&format!("rank crash {} at {:e}{armed}\n", r.rank, r.from));
                }
                RankFault::Slow { factor } => out.push_str(&format!(
                    "rank slow {} factor {:e} from {:e} until {:e}{armed}\n",
                    r.rank, factor, r.from, r.until
                )),
            }
        }
        out
    }

    /// Parse the text format produced by [`FaultPlan::to_text`].
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty fault plan")?;
        if header.trim() != "shrinksvm-faultplan v1" {
            return Err(format!("bad fault-plan header '{header}'"));
        }
        let pf = |s: &str| -> Result<f64, String> {
            s.parse::<f64>().map_err(|_| format!("bad float '{s}'"))
        };
        let pu = |s: &str| -> Result<u64, String> {
            s.parse::<u64>().map_err(|_| format!("bad integer '{s}'"))
        };
        let prank = |s: &str| -> Result<Option<usize>, String> {
            if s == "*" {
                Ok(None)
            } else {
                s.parse::<usize>()
                    .map(Some)
                    .map_err(|_| format!("bad rank '{s}'"))
            }
        };
        let mut plan = FaultPlan::new(0);
        for line in lines {
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks.as_slice() {
                [] => {}
                ["seed", s] => plan.seed = pu(s)?,
                ["retry", "max", m, "backoff", b] => {
                    plan.max_retries = m
                        .parse::<u32>()
                        .map_err(|_| format!("bad retry max '{m}' (not a u32)"))?;
                    plan.retry_backoff = pf(b)?;
                }
                ["link", kind @ ("drop" | "corrupt"), "src", s, "dst", d, "from", f, "until", u, "p", p, "count", c] =>
                {
                    plan.link_rules.push(LinkRule {
                        fault: if *kind == "drop" {
                            LinkFault::Drop
                        } else {
                            LinkFault::Corrupt
                        },
                        src: prank(s)?,
                        dst: prank(d)?,
                        from: pf(f)?,
                        until: pf(u)?,
                        probability: pf(p)?,
                        count: pu(c)?,
                    });
                }
                ["link", "delay", secs, "src", s, "dst", d, "from", f, "until", u, "p", p, "count", c] =>
                {
                    plan.link_rules.push(LinkRule {
                        fault: LinkFault::Delay { secs: pf(secs)? },
                        src: prank(s)?,
                        dst: prank(d)?,
                        from: pf(f)?,
                        until: pf(u)?,
                        probability: pf(p)?,
                        count: pu(c)?,
                    });
                }
                ["ckpt", "corrupt", "from", f, "until", u] => {
                    let (from, until) = (pu(f)?, pu(u)?);
                    if from >= until {
                        return Err(format!("empty checkpoint-corruption window '{line}'"));
                    }
                    plan.ckpt_rules.push(CkptRule { from, until });
                }
                // A rank rule ends at its last field or at `disarmed`;
                // any other tail is a bad line, not an armed rule.
                ["rank", "crash", r, "at", at, rest @ ..] if matches!(rest, [] | ["disarmed"]) => {
                    plan.rank_rules.push(RankRule {
                        fault: RankFault::Crash,
                        rank: pu(r)? as usize,
                        from: pf(at)?,
                        until: f64::INFINITY,
                    });
                    plan.disarmed.push(!rest.is_empty());
                }
                ["rank", "slow", r, "factor", fac, "from", f, "until", u, rest @ ..]
                    if matches!(rest, [] | ["disarmed"]) =>
                {
                    plan.rank_rules.push(RankRule {
                        fault: RankFault::Slow { factor: pf(fac)? },
                        rank: pu(r)? as usize,
                        from: pf(f)?,
                        until: pf(u)?,
                    });
                    plan.disarmed.push(!rest.is_empty());
                }
                _ => return Err(format!("bad fault-plan line '{line}'")),
            }
        }
        Ok(plan)
    }
}

/// FNV-1a-style 64-bit checksum over a payload — the envelope integrity
/// check that makes injected corruption *detectable* rather than silent.
/// Public because the checkpoint store verifies its serialized cuts with
/// the same checksum (one integrity primitive across the stack).
///
/// The state is seeded with the payload length, then folds 8-byte
/// little-endian words and finally the tail bytes one at a time, each by
/// XOR then multiplication by the (odd) FNV prime. For a fixed word that
/// step is a bijection of the state, and for a fixed state a bijection of
/// the word, so changing any one word (in particular any one byte) of an
/// equal-length payload always changes the result.
pub fn checksum(payload: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = (0xCBF2_9CE4_8422_2325 ^ payload.len() as u64).wrapping_mul(PRIME);
    let mut words = payload.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        h = h.wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Deterministically corrupt a payload copy (flip one byte picked from the
/// sequence key; an empty payload corrupts by appending a byte, which the
/// length-sensitive checksum still catches). The key is a link sequence
/// for in-flight corruption and a promote sequence for checkpoint
/// corruption — either way the damage is a pure function of its inputs.
pub fn corrupt_copy(payload: &[u8], link_seq: u64) -> Vec<u8> {
    let mut copy = payload.to_vec();
    if copy.is_empty() {
        copy.push(0xA5);
    } else {
        let pos = (mix(link_seq) as usize) % copy.len();
        copy[pos] ^= 0xFF;
    }
    copy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_text_roundtrips() {
        let mut plan = FaultPlan::new(42)
            .with_max_retries(7)
            .with_retry_backoff(2e-3)
            .drop_messages(Some(0), Some(1), 1.0, 0.0, f64::INFINITY, 1)
            .corrupt_messages(None, None, 0.25, 0.5, 2.0, u64::MAX)
            .delay_messages(Some(2), None, 0.125, 0.5, 0.0, 1.0, 3)
            .crash_rank(3, 0.75)
            .slow_rank(1, 4.0, 0.0, 10.0)
            .corrupt_checkpoints(2, u64::MAX);
        plan.disarm_rank_rule(0);
        let text = plan.to_text();
        let back = FaultPlan::from_text(&text).unwrap();
        assert_eq!(back, plan);
        // and the round-tripped plan serializes identically
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(FaultPlan::from_text("").is_err());
        assert!(FaultPlan::from_text("faultplan v0\n").is_err());
        assert!(FaultPlan::from_text("shrinksvm-faultplan v1\nlink warp 1\n").is_err());
        assert!(FaultPlan::from_text("shrinksvm-faultplan v1\nseed banana\n").is_err());
        // a count past its field's width, and a rank-rule tail other than
        // exactly `disarmed`, are named errors — not wrapped, not dropped
        let err = |line: &str| {
            FaultPlan::from_text(&format!("shrinksvm-faultplan v1\n{line}\n")).unwrap_err()
        };
        let max = err("retry max 4294967297 backoff 1e-4");
        assert!(max.contains("bad retry max '4294967297'"), "{max}");
        for line in [
            "rank crash 1 at 5e-1 disarmd",
            "rank crash 1 at 5e-1 disarmed now",
            "rank slow 0 factor 2e0 from 0e0 until 1e0 armed",
        ] {
            let e = err(line);
            assert_eq!(e, format!("bad fault-plan line '{line}'"));
        }
    }

    #[test]
    fn fate_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::new(9).drop_messages(None, None, 0.5, 0.0, f64::INFINITY, u64::MAX);
        let p = 4;
        let run = |plan: &FaultPlan| -> Vec<Fate> {
            let mut hits = vec![0u64; plan.n_link_rules() * p];
            (0..64)
                .map(|seq| plan.fate(0, 1, 0.0, seq, 0, &mut hits, p))
                .collect()
        };
        assert_eq!(run(&plan), run(&plan));
        let other = FaultPlan::new(10).drop_messages(None, None, 0.5, 0.0, f64::INFINITY, u64::MAX);
        assert_ne!(run(&plan), run(&other), "different seeds, different faults");
        let lost = run(&plan).iter().filter(|f| **f == Fate::Lost).count();
        assert!((8..56).contains(&lost), "p=0.5 should drop roughly half");
    }

    #[test]
    fn count_budget_limits_per_link_firings() {
        let plan = FaultPlan::new(1).drop_messages(Some(0), Some(1), 1.0, 0.0, f64::INFINITY, 2);
        let p = 2;
        let mut hits = vec![0u64; p];
        let fates: Vec<Fate> = (0..5)
            .map(|s| plan.fate(0, 1, 0.0, s, 0, &mut hits, p))
            .collect();
        assert_eq!(fates[..2], [Fate::Lost, Fate::Lost]);
        assert!(fates[2..].iter().all(|f| *f == Fate::Deliver));
    }

    #[test]
    fn window_gates_on_depart_time() {
        let plan = FaultPlan::new(1).drop_messages(None, None, 1.0, 1.0, 2.0, u64::MAX);
        let mut hits = vec![0u64; 2];
        assert_eq!(plan.fate(0, 1, 0.5, 0, 0, &mut hits, 2), Fate::Deliver);
        assert_eq!(plan.fate(0, 1, 1.5, 1, 0, &mut hits, 2), Fate::Lost);
        assert_eq!(plan.fate(0, 1, 2.0, 2, 0, &mut hits, 2), Fate::Deliver);
    }

    #[test]
    fn crash_due_honors_deadline_and_disarm() {
        let mut plan = FaultPlan::new(1).crash_rank(2, 1.5);
        assert_eq!(plan.crash_due(2, 1.0), None);
        assert_eq!(plan.crash_due(2, 1.5), Some((0, 1.5)));
        assert_eq!(plan.crash_due(1, 99.0), None);
        plan.disarm_rank_rule(0);
        assert_eq!(plan.crash_due(2, 99.0), None);
    }

    #[test]
    fn slow_factor_multiplies_in_window() {
        let plan = FaultPlan::new(1)
            .slow_rank(0, 2.0, 0.0, 10.0)
            .slow_rank(0, 3.0, 5.0, 10.0);
        assert_eq!(plan.slow_factor(0, 1.0), Some((0, 2.0)));
        assert_eq!(plan.slow_factor(0, 6.0), Some((0, 6.0)));
        assert_eq!(plan.slow_factor(0, 10.0), None);
        assert_eq!(plan.slow_factor(1, 1.0), None);
    }

    #[test]
    fn ckpt_rules_roundtrip_and_report_windows() {
        let plan = FaultPlan::new(3)
            .corrupt_checkpoints(1, 4)
            .corrupt_checkpoints(9, u64::MAX);
        assert_eq!(plan.n_ckpt_rules(), 2);
        assert_eq!(
            plan.checkpoint_corruption_windows(),
            vec![(1, 4), (9, u64::MAX)]
        );
        let back = FaultPlan::from_text(&plan.to_text()).unwrap();
        assert_eq!(back, plan);
        assert!(
            FaultPlan::from_text("shrinksvm-faultplan v1\nckpt corrupt from 4 until 4\n").is_err()
        );
    }

    #[test]
    fn without_rule_spans_the_unified_index_space() {
        let plan = FaultPlan::new(5)
            .drop_messages(Some(0), Some(1), 1.0, 0.0, f64::INFINITY, 1)
            .crash_rank(2, 0.5)
            .crash_rank(1, 0.75)
            .corrupt_checkpoints(2, 6);
        assert_eq!(plan.rules_len(), 4);
        // removing the link rule leaves both crashes and the ckpt rule
        let a = plan.without_rule(0);
        assert_eq!(
            (a.n_link_rules(), a.n_rank_rules(), a.n_ckpt_rules()),
            (0, 2, 1)
        );
        // removing a rank rule keeps the disarm flags aligned
        let mut armed = plan.clone();
        armed.disarm_rank_rule(0);
        let b = armed.without_rule(1);
        assert_eq!(b.n_rank_rules(), 1);
        assert_eq!(b.crash_due(1, 1.0), Some((0, 0.75)));
        assert_eq!(b.crash_due(2, 1.0), None, "the disarmed crash was removed");
        // removing the last index removes the ckpt rule
        let c = plan.without_rule(3);
        assert_eq!(c.n_ckpt_rules(), 0);
    }

    #[test]
    fn checksum_catches_corruption() {
        let payload = vec![1u8, 2, 3, 4];
        let ck = checksum(&payload);
        let bad = corrupt_copy(&payload, 17);
        assert_ne!(checksum(&bad), ck);
        // empty payloads corrupt detectably too
        let ck0 = checksum(&[]);
        assert_ne!(checksum(&corrupt_copy(&[], 0)), ck0);
    }

    #[test]
    fn checksum_sees_every_byte_flip_and_every_length_change() {
        // 1 KiB: 128 whole words, so the word fold carries every byte
        let payload: Vec<u8> = (0..1024u32).map(|i| (i * 31 + 7) as u8).collect();
        let ck = checksum(&payload);
        for pos in 0..payload.len() {
            let mut bad = payload.clone();
            bad[pos] ^= 0xFF;
            assert_ne!(checksum(&bad), ck, "flip at byte {pos} went unseen");
        }
        assert_ne!(checksum(&payload[..payload.len() - 1]), ck, "truncation");
        let mut longer = payload.clone();
        longer.push(0);
        assert_ne!(checksum(&longer), ck, "extension");
        // a tail shorter than one word is folded byte by byte
        let odd = &payload[..1021];
        let ck_odd = checksum(odd);
        for pos in 1016..1021 {
            let mut bad = odd.to_vec();
            bad[pos] ^= 0xFF;
            assert_ne!(
                checksum(&bad),
                ck_odd,
                "tail flip at byte {pos} went unseen"
            );
        }
    }
}
