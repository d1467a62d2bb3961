//! The degradation ladder: escalating crash-recovery policy.
//!
//! A single crash is cheap — restore the newest consistent cut on the
//! same `p` ranks and re-run. But faults cluster: a rank can crash
//! *during* recovery, a checkpoint can be torn, the same deadline can
//! fire attempt after attempt. Retrying the identical configuration
//! forever turns one fault into a livelock. [`RecoveryPolicy`] instead
//! escalates through rungs as consecutive *no-progress* recoveries pile
//! up:
//!
//! 1. restore the newest verified checkpoint on the same `p` ranks;
//! 2. restore progressively *older* generations (a torn or subtly bad
//!    newest cut stops being re-selected);
//! 3. degrade to `p-1`, `p-2`, … ranks — the consistent cut carries
//!    global sample indices, so survivors re-partition the full problem;
//! 4. single-rank fallback at the [`RecoveryPolicy::min_ranks`] floor,
//!    where only deeper generation skips remain;
//! 5. give up with a named error once the retry budget is spent.
//!
//! "Progress" means a new generation promoted since the last restore —
//! any rung that advances the checkpoint frontier resets the streak, so
//! a long run surviving many well-spaced crashes never degrades. Each
//! rung also charges exponentially growing simulated-time backoff, which
//! shows up in the recovery accounting rather than being hidden.
//!
//! [`RecoveryLadder`] is the tiny deterministic state machine the driver
//! steps on every [`CrashNotice`]; it owns no I/O and is exhaustively
//! unit-tested below.
//!
//! [`CrashNotice`]: shrinksvm_mpisim::CrashNotice

/// How the driver escalates across repeated crashes — the one place
/// recovery is configured. Defaults are deliberately patient: three
/// same-`p` rungs before shedding a rank, eight recoveries total,
/// millisecond-scale base backoff. A checkpointing run without an explicit
/// policy climbs this default ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Total recovery attempts before giving up with
    /// [`CoreError::RankLost`](crate::CoreError::RankLost).
    pub max_recoveries: u32,
    /// Consecutive no-progress recoveries tolerated at the current `p`
    /// before degrading to `p-1`. Rung `k` of a streak restores the
    /// `k`-th-newest verified generation, so the same bad cut is never
    /// re-selected twice in a row. `0` sheds a rank on every crash above
    /// the floor.
    pub same_p_rungs: u32,
    /// Simulated seconds charged before the first retry; doubles with
    /// each consecutive no-progress recovery (capped at `2^16·base`).
    pub base_backoff: f64,
    /// Degradation floor: never shed ranks below this. At the floor the
    /// ladder only deepens generation skips; `usize::MAX` (see
    /// [`RecoveryPolicy::without_degradation`]) never sheds at all.
    pub min_ranks: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_recoveries: 8,
            same_p_rungs: 3,
            base_backoff: 1e-3,
            min_ranks: 1,
        }
    }
}

impl RecoveryPolicy {
    /// Patient default ladder (see type docs).
    pub fn new() -> Self {
        Self::default()
    }

    /// No recovery at all: the first crash surfaces as an error.
    pub fn none() -> Self {
        RecoveryPolicy {
            max_recoveries: 0,
            ..Self::default()
        }
    }

    /// Set the total retry budget.
    pub fn with_max_recoveries(mut self, n: u32) -> Self {
        self.max_recoveries = n;
        self
    }

    /// Set how many no-progress recoveries run at the same `p` before
    /// degrading (`0` sheds a rank on every crash above the floor).
    pub fn with_same_p_rungs(mut self, n: u32) -> Self {
        self.same_p_rungs = n;
        self
    }

    /// Set the base simulated-time backoff (seconds).
    pub fn with_base_backoff(mut self, secs: f64) -> Self {
        assert!(secs >= 0.0, "backoff must be non-negative");
        self.base_backoff = secs;
        self
    }

    /// Set the degradation floor (must be ≥ 1).
    pub fn with_min_ranks(mut self, p: usize) -> Self {
        assert!(p >= 1, "min_ranks must be >= 1");
        self.min_ranks = p;
        self
    }

    /// Forbid shedding ranks: the floor becomes `usize::MAX`, so the
    /// ladder stays at the starting `p` and only deepens generation skips.
    pub fn without_degradation(mut self) -> Self {
        self.min_ranks = usize::MAX;
        self
    }
}

/// Aggregated recovery accounting for one driver run: how many rungs
/// were climbed and what they cost in simulated time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoverySummary {
    /// Crash-recovery restarts performed.
    pub recoveries: u32,
    /// Rank count of the final, successful attempt.
    pub final_ranks: usize,
    /// Whether the run shed ranks at any point.
    pub degraded: bool,
    /// Checksum-failed generations detected during restore scans.
    pub corrupt_generations: u64,
    /// Valid generations deliberately passed over by restore-older rungs.
    pub generations_skipped: u64,
    /// Recoveries that found no usable checkpoint and restarted cold.
    pub cold_restarts: u32,
    /// Re-executed simulated seconds: aborted attempts' clocks past the
    /// cut they banked (work captured in a restored checkpoint is not
    /// waste).
    pub waste: f64,
    /// Simulated ladder backoff charged before retries.
    pub backoff: f64,
}

impl RecoverySummary {
    /// Total modeled recovery cost: `waste + backoff`.
    pub fn cost(&self) -> f64 {
        self.waste + self.backoff
    }
}

/// What the ladder tells the driver to do after a crash.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LadderAction {
    /// Restore and retry: on `p` ranks, skipping the newest
    /// `skip_generations` *verified* generations, after charging
    /// `backoff` simulated seconds.
    Restore {
        /// Rank count for the retry.
        p: usize,
        /// How many verified generations to pass over (0 = newest).
        skip_generations: usize,
        /// Simulated seconds charged before the retry starts.
        backoff: f64,
    },
    /// Retry budget exhausted — surface the crash as an error.
    GiveUp,
}

/// Deterministic per-run ladder state: the current rank count and the
/// streak of consecutive no-progress recoveries.
#[derive(Clone, Debug)]
pub struct RecoveryLadder {
    policy: RecoveryPolicy,
    p: usize,
    recoveries: u32,
    streak: u32,
}

impl RecoveryLadder {
    /// A fresh ladder starting at `p` ranks.
    pub fn new(policy: RecoveryPolicy, p: usize) -> Self {
        RecoveryLadder {
            policy,
            p,
            recoveries: 0,
            streak: 0,
        }
    }

    /// Rank count the next attempt will run on.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Recoveries consumed so far.
    pub fn recoveries(&self) -> u32 {
        self.recoveries
    }

    /// Current no-progress streak.
    pub fn streak(&self) -> u32 {
        self.streak
    }

    /// Step the ladder on a crash. `progress` is whether a new
    /// generation promoted since the previous restore (always `true`
    /// for the first crash of a run that has checkpointed at all —
    /// pass whether the verified frontier moved).
    pub fn on_crash(&mut self, progress: bool) -> LadderAction {
        if self.recoveries >= self.policy.max_recoveries {
            return LadderAction::GiveUp;
        }
        self.recoveries += 1;
        if progress {
            self.streak = 0;
        } else {
            self.streak += 1;
        }
        let backoff = self.backoff();
        if self.streak >= self.policy.same_p_rungs && self.p > self.policy.min_ranks {
            // Same-p rungs exhausted: shed a rank and restart the streak
            // (the new configuration deserves its own patience).
            self.p -= 1;
            self.streak = 0;
            return LadderAction::Restore {
                p: self.p,
                skip_generations: 0,
                backoff,
            };
        }
        // Same-p rung `streak`: skip that many newest verified
        // generations so a bad cut is never re-selected twice in a row.
        // At the floor the streak keeps growing, so the skips keep
        // deepening.
        LadderAction::Restore {
            p: self.p,
            skip_generations: self.streak as usize,
            backoff,
        }
    }

    fn backoff(&self) -> f64 {
        if self.policy.base_backoff == 0.0 {
            return 0.0;
        }
        let exp = self.streak.min(16);
        self.policy.base_backoff * f64::from(1u32 << exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn restore(p: usize, skip: usize) -> (usize, usize) {
        (p, skip)
    }

    fn step(l: &mut RecoveryLadder, progress: bool) -> (usize, usize) {
        match l.on_crash(progress) {
            LadderAction::Restore {
                p,
                skip_generations,
                ..
            } => (p, skip_generations),
            LadderAction::GiveUp => panic!("unexpected GiveUp"),
        }
    }

    #[test]
    fn progress_keeps_the_ladder_on_rung_zero() {
        let mut l = RecoveryLadder::new(RecoveryPolicy::default(), 4);
        for _ in 0..5 {
            assert_eq!(step(&mut l, true), restore(4, 0));
        }
        assert_eq!(l.streak(), 0);
    }

    #[test]
    fn no_progress_escalates_skip_then_degrades() {
        let mut l = RecoveryLadder::new(RecoveryPolicy::default().with_max_recoveries(20), 4);
        // first crash after real progress: newest cut, same p
        assert_eq!(step(&mut l, true), restore(4, 0));
        // stuck: deepen the generation skip at the same p
        assert_eq!(step(&mut l, false), restore(4, 1));
        assert_eq!(step(&mut l, false), restore(4, 2));
        // third consecutive no-progress recovery: shed a rank
        assert_eq!(step(&mut l, false), restore(3, 0));
        // progress on the smaller machine resets the streak
        assert_eq!(step(&mut l, true), restore(3, 0));
    }

    #[test]
    fn floor_deepens_skips_instead_of_degrading() {
        let pol = RecoveryPolicy::default()
            .with_min_ranks(2)
            .with_same_p_rungs(1)
            .with_max_recoveries(10);
        let mut l = RecoveryLadder::new(pol, 3);
        assert_eq!(step(&mut l, false), restore(2, 0)); // 3 -> 2
        assert_eq!(step(&mut l, false), restore(2, 1)); // at floor: skip deepens
        assert_eq!(step(&mut l, false), restore(2, 2));
    }

    #[test]
    fn budget_exhaustion_gives_up() {
        let mut l = RecoveryLadder::new(RecoveryPolicy::default().with_max_recoveries(2), 2);
        step(&mut l, true);
        step(&mut l, true);
        assert_eq!(l.on_crash(true), LadderAction::GiveUp);
        assert_eq!(l.recoveries(), 2);
    }

    #[test]
    fn none_gives_up_immediately() {
        let mut l = RecoveryLadder::new(RecoveryPolicy::none(), 4);
        assert_eq!(l.on_crash(true), LadderAction::GiveUp);
    }

    #[test]
    fn zero_same_p_rungs_sheds_on_every_crash_then_deepens_at_the_floor() {
        let pol = RecoveryPolicy::default().with_same_p_rungs(0);
        let mut l = RecoveryLadder::new(pol, 3);
        // a rank goes on every crash above the floor, progress or not
        assert_eq!(step(&mut l, true), restore(2, 0));
        assert_eq!(step(&mut l, false), restore(1, 0));
        // at the floor the no-progress streak deepens the skips
        assert_eq!(step(&mut l, false), restore(1, 1));
        assert_eq!(step(&mut l, false), restore(1, 2));
    }

    #[test]
    fn without_degradation_stays_at_p_up_to_the_budget() {
        let pol = RecoveryPolicy::default().without_degradation();
        let mut l = RecoveryLadder::new(pol, 4);
        assert_eq!(step(&mut l, true), restore(4, 0));
        for streak in 1..pol.max_recoveries as usize {
            assert_eq!(step(&mut l, false), restore(4, streak));
        }
        assert_eq!(l.on_crash(false), LadderAction::GiveUp);
    }

    #[test]
    fn backoff_doubles_with_the_streak_and_caps() {
        let pol = RecoveryPolicy::default()
            .with_base_backoff(0.5)
            .without_degradation()
            .with_max_recoveries(40);
        let mut l = RecoveryLadder::new(pol, 2);
        let b = |l: &mut RecoveryLadder, progress: bool| match l.on_crash(progress) {
            LadderAction::Restore { backoff, .. } => backoff,
            LadderAction::GiveUp => panic!("unexpected GiveUp"),
        };
        assert_eq!(b(&mut l, true), 0.5); // streak 0
        assert_eq!(b(&mut l, false), 1.0); // streak 1
        assert_eq!(b(&mut l, false), 2.0); // streak 2
        for _ in 0..20 {
            let v = b(&mut l, false);
            assert!(v <= 0.5 * 65536.0);
        }
        // progress snaps back to the base charge
        assert_eq!(b(&mut l, true), 0.5);
    }
}
