//! Checkpoint/restart state for the distributed trainer.
//!
//! Every rank periodically snapshots its solver state (multipliers,
//! gradients, active flags, iteration counter) into a shared
//! [`CheckpointStore`]. A generation is **promoted** to "last consistent
//! checkpoint" only once *all* ranks have posted a snapshot for the same
//! `(iteration, stage)` key — the solver is lockstep, so every rank
//! reaches each key at the same point of the trajectory, and a crash
//! mid-generation simply leaves that generation unpromoted. On rank death
//! the driver restarts from a promoted checkpoint (same rank count) or
//! re-partitions the state across the survivors (degraded continuation):
//! snapshots carry *global* sample indices, so restoring under a
//! different partition is a plain overlapping copy.
//!
//! The store keeps a bounded history of promoted **generations**
//! ([`CheckpointPolicy::keep_generations`]), each carrying its serialized
//! cut and a [`checksum`] computed at promotion.
//! [`CheckpointStore::restore_verified`] walks newest → oldest, verifies
//! each generation's bytes against its checksum, and skips damaged ones —
//! so a corrupted checkpoint (injected by a [`FaultPlan`] `ckpt` rule, or
//! real bit rot in a future disk-backed store) degrades recovery by one
//! generation instead of poisoning the trajectory.
//!
//! The store is in-memory; [`CheckpointPolicy::disk_path`] additionally
//! mirrors every promoted generation to a versioned-header text file with
//! a checksum trailer that [`Checkpoint::read_from`] verifies before
//! parsing — truncation and bit flips are named errors, never garbage
//! state.
//!
//! [`FaultPlan`]: shrinksvm_mpisim::FaultPlan
//! [`checksum`]: shrinksvm_mpisim::fault::checksum

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use crate::error::CoreError;

/// When and where the driver snapshots solver state. How it recovers
/// from a crash is configured separately, by
/// [`RecoveryPolicy`](super::recovery::RecoveryPolicy).
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Snapshot every this many SMO iterations (also at iteration 0, so a
    /// recoverable baseline always exists).
    pub every_iters: u64,
    /// Mirror every promoted checkpoint to this file (versioned text
    /// format), best-effort: a write failure is recorded on the store,
    /// not fatal to training.
    pub disk_path: Option<PathBuf>,
    /// How many promoted generations the store retains (newest first).
    /// Older generations are the recovery ladder's fallback when the
    /// newest is corrupt or keeps leading to dead ends.
    pub keep_generations: usize,
}

/// Default bound on retained checkpoint generations.
pub const DEFAULT_KEEP_GENERATIONS: usize = 3;

/// Magic word opening the checkpoint text format's header line.
const MAGIC: &str = "shrinksvm-checkpoint";

/// Format version written after [`MAGIC`]. v2 files carry the
/// word-folding [`shrinksvm_mpisim::fault::checksum`]; v1 files, whose
/// trailer is the older byte-at-a-time hash, are refused by version.
const VERSION: &str = "v2";

/// Accept the current header line; name any other format version as
/// unsupported, and anything else as a bad header.
fn check_header(line: &str) -> Result<(), CoreError> {
    match line.trim().split_once(' ') {
        Some((MAGIC, VERSION)) => Ok(()),
        Some((MAGIC, version)) => Err(CoreError::CheckpointFormat(format!(
            "unsupported checkpoint version '{version}' (this build reads {VERSION})"
        ))),
        _ => Err(CoreError::CheckpointFormat(format!("bad header '{line}'"))),
    }
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_iters: 64,
            disk_path: None,
            keep_generations: DEFAULT_KEEP_GENERATIONS,
        }
    }
}

impl CheckpointPolicy {
    /// A policy snapshotting every `every_iters` iterations.
    pub fn every(every_iters: u64) -> Self {
        assert!(every_iters > 0, "checkpoint cadence must be positive");
        CheckpointPolicy {
            every_iters,
            ..CheckpointPolicy::default()
        }
    }

    /// Mirror promoted checkpoints to a file.
    pub fn with_disk(mut self, path: impl Into<PathBuf>) -> Self {
        self.disk_path = Some(path.into());
        self
    }

    /// Set how many promoted generations the store retains.
    pub fn with_keep_generations(mut self, n: usize) -> Self {
        assert!(n >= 1, "must retain at least one generation");
        self.keep_generations = n;
        self
    }
}

/// The handle each rank carries into training: the shared store plus the
/// snapshot cadence.
#[derive(Clone, Debug)]
pub struct CheckpointCtx {
    /// Shared store all ranks post into.
    pub store: Arc<CheckpointStore>,
    /// Snapshot every this many iterations.
    pub every_iters: u64,
}

/// One rank's solver state at a checkpoint generation, in *global* sample
/// indices (`lo` = first owned sample).
#[derive(Clone, Debug, PartialEq)]
pub struct RankSnapshot {
    /// Posting rank.
    pub rank: usize,
    /// First global sample index owned by the rank.
    pub lo: usize,
    /// `α` for owned samples.
    pub alpha: Vec<f64>,
    /// `γ` for owned samples.
    pub grad: Vec<f64>,
    /// Active flags for owned samples.
    pub active: Vec<bool>,
    /// Iterations until the next shrink pass (globally lockstep).
    pub shrink_countdown: Option<u64>,
}

/// A consistent, promoted checkpoint: every rank's snapshot at one
/// `(iteration, stage)` point of the lockstep trajectory.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// SMO iteration the snapshot was taken at.
    pub iterations: u64,
    /// Phase-machine stage (0 = first optimization phase; 1 = inside the
    /// post-reconstruction phase of Algorithm 4 / the reconstruction loop
    /// of Algorithm 5).
    pub stage: u32,
    /// Last allreduced `(β_up, β_low)`.
    pub last_betas: (f64, f64),
    /// Global sample count (restore sanity check).
    pub n: usize,
    /// Per-rank snapshots, in rank order.
    pub ranks: Vec<RankSnapshot>,
}

impl Checkpoint {
    /// Serialize the body (header through snapshots, no integrity
    /// trailer) — the bytes the store checksums and the disk mirror
    /// writes. Floats use `{:e}`, which round-trips `f64` exactly.
    pub(crate) fn body(&self) -> Result<Vec<u8>, CoreError> {
        let mut buf = Vec::new();
        self.write_body(&mut buf)?;
        Ok(buf)
    }

    /// Serialize to the versioned text format: the body followed by a
    /// `checksum <u64>` trailer line over the body bytes, so a reader
    /// can tell truncation and bit flips from a valid file.
    pub fn write_to<W: Write>(&self, mut writer: W) -> Result<(), CoreError> {
        let body = self.body()?;
        writer.write_all(&body)?;
        writeln!(
            writer,
            "checksum {}",
            shrinksvm_mpisim::fault::checksum(&body)
        )?;
        writer.flush()?;
        Ok(())
    }

    fn write_body<W: Write>(&self, writer: W) -> Result<(), CoreError> {
        let mut w = BufWriter::new(writer);
        writeln!(w, "{MAGIC} {VERSION}")?;
        writeln!(w, "iterations {} stage {}", self.iterations, self.stage)?;
        writeln!(w, "betas {:e} {:e}", self.last_betas.0, self.last_betas.1)?;
        writeln!(w, "n {} ranks {}", self.n, self.ranks.len())?;
        // Checkpoint serialization is a host-side disk mirror; the recovery
        // cost model charges restore, not writes. lint: uncharged
        for s in &self.ranks {
            let cd = s
                .shrink_countdown
                .map_or("none".to_string(), |c| c.to_string());
            writeln!(
                w,
                "rank {} lo {} len {} countdown {cd}",
                s.rank,
                s.lo,
                s.alpha.len()
            )?;
            write!(w, "alpha")?;
            for a in &s.alpha {
                write!(w, " {a:e}")?;
            }
            writeln!(w)?;
            write!(w, "grad")?;
            // lint: uncharged — same host-side serialization as above.
            for g in &s.grad {
                write!(w, " {g:e}")?;
            }
            writeln!(w)?;
            write!(w, "active ")?;
            for &f in &s.active {
                write!(w, "{}", u8::from(f))?;
            }
            writeln!(w)?;
        }
        w.flush()?;
        Ok(())
    }

    /// Parse the text format produced by [`Checkpoint::write_to`]: read
    /// everything, verify the `checksum` trailer over the body bytes,
    /// then parse the body. A truncated or bit-flipped file fails with a
    /// named [`CoreError::CheckpointFormat`] — never a plausible-looking
    /// wrong state.
    pub fn read_from<R: Read>(mut reader: R) -> Result<Self, CoreError> {
        let bad = |m: String| CoreError::CheckpointFormat(m);
        let mut buf = Vec::new();
        reader.read_to_end(&mut buf)?;
        // split off the trailer: the last (possibly newline-terminated)
        // line must be `checksum <u64>`
        let trimmed: &[u8] = if buf.last() == Some(&b'\n') {
            &buf[..buf.len() - 1]
        } else {
            &buf[..]
        };
        let line_start = trimmed
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        let trailer = std::str::from_utf8(&trimmed[line_start..])
            .map_err(|_| bad("checkpoint trailer is not UTF-8".to_string()))?;
        let expect = match trailer.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["checksum", sum] => sum
                .parse::<u64>()
                .map_err(|_| bad(format!("bad checksum value '{sum}' in checkpoint trailer")))?,
            _ => return Err(bad("missing checksum trailer (truncated file?)".to_string())),
        };
        let body = &buf[..line_start];
        // A file from another format version hashes with another checksum;
        // name the version instead of reporting a mismatch.
        let first = body.split(|&b| b == b'\n').next().unwrap_or_default();
        check_header(&String::from_utf8_lossy(first))?;
        let actual = shrinksvm_mpisim::fault::checksum(body);
        if actual != expect {
            return Err(bad(format!(
                "checkpoint checksum mismatch: file says {expect}, body hashes to {actual} \
                 (torn write or bit flip)"
            )));
        }
        Self::parse_body(body)
    }

    /// Parse a verified checkpoint body (everything before the trailer).
    fn parse_body(body: &[u8]) -> Result<Self, CoreError> {
        let bad = |m: String| CoreError::CheckpointFormat(m);
        let mut lines = BufReader::new(body).lines();
        let mut next = |what: &str| -> Result<String, CoreError> {
            lines
                .next()
                .ok_or_else(|| CoreError::CheckpointFormat(format!("missing {what}")))?
                .map_err(CoreError::Io)
        };
        // `read_from` checked the header before verifying the checksum
        next("header")?;
        let pu = |s: &str| -> Result<u64, CoreError> {
            s.parse::<u64>()
                .map_err(|_| CoreError::CheckpointFormat(format!("bad integer '{s}'")))
        };
        let pf = |s: &str| -> Result<f64, CoreError> {
            s.parse::<f64>()
                .map_err(|_| CoreError::CheckpointFormat(format!("bad float '{s}'")))
        };
        let iline = next("iterations line")?;
        let (iterations, stage) = match iline.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["iterations", i, "stage", s] => (
                pu(i)?,
                s.parse::<u32>()
                    .map_err(|_| bad(format!("bad stage '{s}' (not a u32)")))?,
            ),
            _ => return Err(bad(format!("bad iterations line '{iline}'"))),
        };
        let bline = next("betas line")?;
        let last_betas = match bline.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["betas", a, b] => (pf(a)?, pf(b)?),
            _ => return Err(bad(format!("bad betas line '{bline}'"))),
        };
        let nline = next("n line")?;
        let (n, nranks) = match nline.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["n", n, "ranks", r] => (pu(n)? as usize, pu(r)? as usize),
            _ => return Err(bad(format!("bad n line '{nline}'"))),
        };
        // Cap preallocations by what the declared sample count implies —
        // a garbled count cannot force a huge allocation.
        let mut ranks = Vec::with_capacity(nranks.min(n.max(1)));
        // Host-side parse of the on-disk format; the simulated restore
        // path charges its own recovery cost. lint: uncharged
        for _ in 0..nranks {
            let rline = next("rank line")?;
            let (rank, lo, len, cd) = match rline.split_whitespace().collect::<Vec<_>>().as_slice()
            {
                ["rank", r, "lo", lo, "len", len, "countdown", cd] => (
                    pu(r)? as usize,
                    pu(lo)? as usize,
                    pu(len)? as usize,
                    if *cd == "none" { None } else { Some(pu(cd)?) },
                ),
                _ => return Err(bad(format!("bad rank line '{rline}'"))),
            };
            let end = lo.checked_add(len).ok_or_else(|| {
                bad(format!(
                    "rank {rank} claims {len} samples from {lo}, past usize::MAX"
                ))
            })?;
            if end > n {
                return Err(bad(format!(
                    "rank {rank} claims samples {lo}..{end} of {n}"
                )));
            }
            let floats = |line: String, label: &str| -> Result<Vec<f64>, CoreError> {
                let mut toks = line.split_whitespace();
                if toks.next() != Some(label) {
                    return Err(CoreError::CheckpointFormat(format!(
                        "expected '{label}' line, got '{line}'"
                    )));
                }
                let vals = toks.map(pf).collect::<Result<Vec<f64>, _>>()?;
                if vals.len() != len {
                    return Err(CoreError::CheckpointFormat(format!(
                        "{label}: {} values for a {len}-sample rank",
                        vals.len()
                    )));
                }
                Ok(vals)
            };
            let alpha = floats(next("alpha line")?, "alpha")?;
            let grad = floats(next("grad line")?, "grad")?;
            let aline = next("active line")?;
            let flags = aline
                .strip_prefix("active ")
                .ok_or_else(|| bad(format!("bad active line '{aline}'")))?;
            let active = flags
                .trim()
                .chars()
                .map(|c| match c {
                    '0' => Ok(false),
                    '1' => Ok(true),
                    _ => Err(bad(format!("bad active flag '{c}'"))),
                })
                .collect::<Result<Vec<bool>, _>>()?;
            if active.len() != len {
                return Err(bad(format!(
                    "active: {} flags for a {len}-sample rank",
                    active.len()
                )));
            }
            ranks.push(RankSnapshot {
                rank,
                lo,
                alpha,
                grad,
                active,
                shrink_countdown: cd,
            });
        }
        Ok(Checkpoint {
            iterations,
            stage,
            last_betas,
            n,
            ranks,
        })
    }
}

/// Survive a poisoned lock: a crashing rank (an *injected* panic) must not
/// cascade into opaque `PoisonError` panics on the survivors.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Debug)]
struct Pending {
    last_betas: (f64, f64),
    n: usize,
    /// Max simulated clock among the posting ranks — the cut's place on
    /// the attempt's time axis, used by the driver's waste accounting.
    sim_time: f64,
    ranks: Vec<Option<RankSnapshot>>,
}

/// One promoted generation: the parsed cut plus its serialized bytes and
/// the checksum computed over the *pristine* serialization (a planted
/// corruption flips bytes after checksumming, so verification fails the
/// way real bit rot would).
#[derive(Debug)]
struct Gen {
    /// Global promote sequence number (monotone across the store's life,
    /// never reset — so fault plans can target generations by seq).
    seq: u64,
    /// The cut's simulated time within its attempt.
    sim_time: f64,
    /// Serialized cut (possibly corrupted by a planted window).
    bytes: Vec<u8>,
    /// FNV-1a over the pristine serialization.
    sum: u64,
    /// The parsed, pristine cut.
    ck: Arc<Checkpoint>,
}

impl Gen {
    fn valid(&self) -> bool {
        shrinksvm_mpisim::fault::checksum(&self.bytes) == self.sum
    }
}

/// What [`CheckpointStore::restore_verified`] found: the chosen
/// generation (if any), the corrupt generations detected while walking
/// newest → oldest, and how many *valid* generations were deliberately
/// skipped (the ladder's restore-older rung).
#[derive(Clone, Debug, Default)]
pub struct RestoreScan {
    /// The chosen consistent cut, or `None` for a cold restart.
    pub checkpoint: Option<Arc<Checkpoint>>,
    /// Promote sequence number of the chosen generation.
    pub seq: Option<u64>,
    /// The chosen cut's simulated time within its attempt (0 when none).
    pub sim_time: f64,
    /// Sequence numbers that failed checksum verification during the
    /// scan, newest first.
    pub corrupt_seqs: Vec<u64>,
    /// Valid generations deliberately skipped (≤ the requested skip; the
    /// scan clamps to the oldest valid generation rather than falling all
    /// the way to a cold start).
    pub skipped_valid: usize,
}

#[derive(Debug)]
struct StoreInner {
    p: usize,
    staging: BTreeMap<(u64, u32), Pending>,
    /// Promoted generations, oldest → newest, bounded by `keep`.
    history: Vec<Gen>,
    keep: usize,
    next_seq: u64,
    /// Planted corruption windows `[from, until)` over promote seqs.
    corrupt_windows: Vec<(u64, u64)>,
    disk_path: Option<PathBuf>,
    disk_error: Option<String>,
}

/// The shared checkpoint store: ranks post snapshots, the driver reads the
/// last consistent checkpoint back out after a crash.
#[derive(Debug)]
pub struct CheckpointStore {
    inner: Mutex<StoreInner>,
}

impl CheckpointStore {
    /// An empty store expecting snapshots from `p` ranks, retaining up to
    /// `keep_generations` promoted generations.
    pub fn new(p: usize, disk_path: Option<PathBuf>, keep_generations: usize) -> Self {
        CheckpointStore {
            inner: Mutex::new(StoreInner {
                p,
                staging: BTreeMap::new(),
                history: Vec::new(),
                keep: keep_generations.max(1),
                next_seq: 0,
                corrupt_windows: Vec::new(),
                disk_path,
                disk_error: None,
            }),
        }
    }

    /// Plant checkpoint-corruption windows from a fault plan: every
    /// generation whose promote seq falls in a `[from, until)` window has
    /// one byte of its serialized cut flipped *after* checksumming.
    pub fn plant_corruptions(&self, windows: &[(u64, u64)]) {
        lock(&self.inner).corrupt_windows.extend_from_slice(windows);
    }

    /// Post one rank's snapshot for generation `(iterations, stage)` at
    /// the rank's simulated clock `sim_time`. The generation is promoted
    /// once all `p` ranks have posted it. Posts at or below the newest
    /// promoted key are ignored (re-posts from a resumed run).
    pub fn post(
        &self,
        iterations: u64,
        stage: u32,
        last_betas: (f64, f64),
        n: usize,
        sim_time: f64,
        snap: RankSnapshot,
    ) {
        let mut inner = lock(&self.inner);
        let key = (iterations, stage);
        if let Some(last) = inner.history.last() {
            if key <= (last.ck.iterations, last.ck.stage) {
                return;
            }
        }
        let p = inner.p;
        let pending = inner.staging.entry(key).or_insert_with(|| Pending {
            last_betas,
            n,
            sim_time,
            ranks: (0..p).map(|_| None).collect(),
        });
        pending.sim_time = pending.sim_time.max(sim_time);
        let slot = snap.rank;
        if slot < pending.ranks.len() {
            pending.ranks[slot] = Some(snap);
        }
        if !pending.ranks.iter().all(Option::is_some) {
            return;
        }
        if let Some(pending) = inner.staging.remove(&key) {
            let ck = Arc::new(Checkpoint {
                iterations,
                stage,
                last_betas: pending.last_betas,
                n: pending.n,
                ranks: pending.ranks.into_iter().flatten().collect(),
            });
            // Everything staged at or below the promoted key is obsolete.
            inner.staging.retain(|k, _| *k > key);
            inner.promote(ck, pending.sim_time);
        }
    }

    /// The newest promoted checkpoint, if any — *unverified*; recovery
    /// paths should use [`CheckpointStore::restore_verified`].
    pub fn last(&self) -> Option<Arc<Checkpoint>> {
        lock(&self.inner).history.last().map(|g| Arc::clone(&g.ck))
    }

    /// Promoted generations currently retained.
    pub fn generations(&self) -> usize {
        lock(&self.inner).history.len()
    }

    /// The next promote sequence number (equivalently: how many
    /// generations have ever been promoted). The driver samples this at
    /// attempt start to tell whether an aborted attempt banked anything.
    pub fn promote_seq(&self) -> u64 {
        lock(&self.inner).next_seq
    }

    /// Walk the history newest → oldest, verifying each generation's
    /// bytes against its promotion-time checksum. Corrupt generations are
    /// recorded and passed over; of the valid ones, up to `skip_valid`
    /// are deliberately skipped (the ladder's restore-older rung) —
    /// clamped so the scan settles on the *oldest* valid generation
    /// rather than discarding recoverable state, and returns a cold
    /// restart only when no generation verifies at all.
    pub fn restore_verified(&self, skip_valid: usize) -> RestoreScan {
        let inner = lock(&self.inner);
        let mut scan = RestoreScan::default();
        let mut chosen: Option<&Gen> = None;
        for g in inner.history.iter().rev() {
            if chosen.is_some() && scan.skipped_valid >= skip_valid {
                break;
            }
            if !g.valid() {
                scan.corrupt_seqs.push(g.seq);
                continue;
            }
            if chosen.is_some() {
                // walking past a valid choice onto an older valid one
                scan.skipped_valid += 1;
            }
            chosen = Some(g);
        }
        if let Some(g) = chosen {
            scan.checkpoint = Some(Arc::clone(&g.ck));
            scan.seq = Some(g.seq);
            scan.sim_time = g.sim_time;
        }
        scan
    }

    /// Drop every generation newer than `seq` (all of them when `None`),
    /// plus all staging. The driver calls this after choosing a restore
    /// target: the resumed run will re-post keys the dropped generations
    /// covered, and the stale-post guard compares against the newest
    /// *retained* generation — without the rewind, those legitimate
    /// re-posts would be silently ignored.
    pub fn rewind_to(&self, seq: Option<u64>) {
        let mut inner = lock(&self.inner);
        inner.staging.clear();
        match seq {
            None => inner.history.clear(),
            Some(s) => inner.history.retain(|g| g.seq <= s),
        }
    }

    /// Start a recovery attempt on `p` ranks: drop all partial
    /// generations and retarget the store (promoted generations survive —
    /// their snapshots are in global indices).
    pub fn reset_ranks(&self, p: usize) {
        let mut inner = lock(&self.inner);
        inner.staging.clear();
        inner.p = p;
    }

    /// The first disk-mirroring failure, if any (mirroring is
    /// best-effort).
    pub fn disk_error(&self) -> Option<String> {
        lock(&self.inner).disk_error.clone()
    }
}

impl StoreInner {
    /// Promote a fully-posted cut: serialize, checksum the pristine
    /// bytes, apply any planted corruption window, mirror to disk, and
    /// append to the bounded history.
    fn promote(&mut self, ck: Arc<Checkpoint>, sim_time: f64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut bytes = match ck.body() {
            Ok(b) => b,
            Err(e) => {
                // Serialization to memory cannot realistically fail; if it
                // does, record it like a mirror failure and keep the
                // parsed cut usable (empty bytes hash consistently).
                self.disk_error.get_or_insert(e.to_string());
                Vec::new()
            }
        };
        let sum = shrinksvm_mpisim::fault::checksum(&bytes);
        if self
            .corrupt_windows
            .iter()
            .any(|&(from, until)| seq >= from && seq < until)
        {
            bytes = shrinksvm_mpisim::fault::corrupt_copy(&bytes, seq);
        }
        if let Some(path) = self.disk_path.clone() {
            if let Err(e) = write_checkpoint_file(&path, &bytes, sum) {
                self.disk_error = Some(e.to_string());
            }
        }
        self.history.push(Gen {
            seq,
            sim_time,
            bytes,
            sum,
            ck,
        });
        if self.history.len() > self.keep {
            self.history.remove(0);
        }
    }
}

/// Mirror a generation's (possibly corrupted) bytes with the pristine
/// checksum trailer — so a corrupted in-memory generation yields a disk
/// file [`Checkpoint::read_from`] rejects, exactly like real bit rot.
fn write_checkpoint_file(path: &PathBuf, bytes: &[u8], sum: u64) -> Result<(), CoreError> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(bytes)?;
    writeln!(w, "checksum {sum}")?;
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(rank: usize, lo: usize, vals: &[f64]) -> RankSnapshot {
        RankSnapshot {
            rank,
            lo,
            alpha: vals.to_vec(),
            grad: vals.iter().map(|v| -v).collect(),
            active: vals.iter().map(|v| *v > 0.0).collect(),
            shrink_countdown: Some(3),
        }
    }

    #[test]
    fn promotion_requires_all_ranks() {
        let store = CheckpointStore::new(2, None, 3);
        store.post(4, 0, (0.1, 0.9), 4, 1.0, snap(0, 0, &[1.0, 2.0]));
        assert!(
            store.last().is_none(),
            "half-posted generation must not promote"
        );
        store.post(4, 0, (0.1, 0.9), 4, 1.5, snap(1, 2, &[3.0, 4.0]));
        let ck = store.last().expect("fully-posted generation promotes");
        assert_eq!(ck.iterations, 4);
        assert_eq!(ck.ranks.len(), 2);
        assert_eq!(ck.ranks[1].alpha, vec![3.0, 4.0]);
        // the cut's sim_time is the max posting clock
        let scan = store.restore_verified(0);
        assert_eq!(scan.sim_time, 1.5);
        assert_eq!(scan.seq, Some(0));
    }

    #[test]
    fn stale_reposts_are_ignored_and_generations_advance() {
        let store = CheckpointStore::new(1, None, 3);
        store.post(4, 0, (0.0, 0.0), 2, 0.1, snap(0, 0, &[1.0, 1.0]));
        store.post(4, 0, (9.9, 9.9), 2, 0.1, snap(0, 0, &[9.0, 9.0])); // re-post after resume
        assert_eq!(store.last().expect("promoted").last_betas, (0.0, 0.0));
        store.post(8, 0, (0.5, 0.5), 2, 0.2, snap(0, 0, &[2.0, 2.0]));
        assert_eq!(store.last().expect("promoted").iterations, 8);
        // a later *stage* at the same iteration also advances
        store.post(8, 1, (0.25, 0.25), 2, 0.3, snap(0, 0, &[3.0, 3.0]));
        assert_eq!(store.last().expect("promoted").stage, 1);
    }

    #[test]
    fn reset_ranks_keeps_last_checkpoint() {
        let store = CheckpointStore::new(2, None, 3);
        store.post(0, 0, (0.0, 0.0), 4, 0.0, snap(0, 0, &[1.0, 2.0]));
        store.post(0, 0, (0.0, 0.0), 4, 0.0, snap(1, 2, &[3.0, 4.0]));
        store.post(4, 0, (0.0, 0.0), 4, 0.1, snap(0, 0, &[5.0, 6.0])); // partial
        store.reset_ranks(1);
        let ck = store.last().expect("promoted checkpoint survives reset");
        assert_eq!(ck.iterations, 0);
        // the partial generation is gone: a single post at the new p promotes
        store.post(4, 0, (0.0, 0.0), 4, 0.2, snap(0, 0, &[7.0, 8.0, 9.0, 10.0]));
        assert_eq!(store.last().expect("promoted").iterations, 4);
    }

    #[test]
    fn history_is_bounded_and_seqs_are_global() {
        let store = CheckpointStore::new(1, None, 2);
        for i in 0..4u64 {
            store.post(i * 4, 0, (0.0, 0.0), 2, i as f64, snap(0, 0, &[1.0, 1.0]));
        }
        assert_eq!(store.generations(), 2, "history bounded by keep");
        assert_eq!(store.promote_seq(), 4, "seqs keep counting past eviction");
        let newest = store.restore_verified(0);
        assert_eq!(newest.seq, Some(3));
        // skipping past the end clamps to the oldest retained generation
        let oldest = store.restore_verified(9);
        assert_eq!(oldest.seq, Some(2));
        assert_eq!(oldest.skipped_valid, 1);
    }

    #[test]
    fn restore_verified_skips_corrupt_generations() {
        let store = CheckpointStore::new(1, None, 4);
        store.plant_corruptions(&[(1, 3)]); // seqs 1 and 2 corrupt
        for i in 0..4u64 {
            store.post(i * 8, 0, (0.0, 0.0), 2, i as f64, snap(0, 0, &[1.0, 1.0]));
        }
        // newest (seq 3) is fine
        let scan = store.restore_verified(0);
        assert_eq!(scan.seq, Some(3));
        assert!(scan.corrupt_seqs.is_empty());
        // skipping the newest valid walks over both corrupt generations
        let scan = store.restore_verified(1);
        assert_eq!(scan.seq, Some(0));
        assert_eq!(scan.corrupt_seqs, vec![2, 1]);
        assert_eq!(scan.skipped_valid, 1);
    }

    #[test]
    fn rewind_reopens_the_stale_post_guard() {
        let store = CheckpointStore::new(1, None, 4);
        store.post(0, 0, (0.0, 0.0), 2, 0.0, snap(0, 0, &[1.0, 1.0]));
        store.post(8, 0, (0.0, 0.0), 2, 1.0, snap(0, 0, &[2.0, 2.0]));
        store.post(16, 0, (0.0, 0.0), 2, 2.0, snap(0, 0, &[3.0, 3.0]));
        // restore to seq 0 (iteration 0) and rewind
        store.rewind_to(Some(0));
        assert_eq!(store.generations(), 1);
        // the resumed run re-posts iteration 8 — it must promote again,
        // not be swallowed by the stale-post guard
        store.post(8, 0, (0.5, 0.5), 2, 1.0, snap(0, 0, &[4.0, 4.0]));
        let ck = store.last().expect("re-posted generation promotes");
        assert_eq!(ck.iterations, 8);
        assert_eq!(ck.ranks[0].alpha, vec![4.0, 4.0]);
        store.rewind_to(None);
        assert_eq!(store.generations(), 0);
        assert!(store.restore_verified(0).checkpoint.is_none());
    }

    #[test]
    fn all_corrupt_generations_mean_cold_restart() {
        let store = CheckpointStore::new(1, None, 3);
        store.plant_corruptions(&[(0, u64::MAX)]);
        store.post(0, 0, (0.0, 0.0), 2, 0.0, snap(0, 0, &[1.0, 1.0]));
        store.post(8, 0, (0.0, 0.0), 2, 1.0, snap(0, 0, &[2.0, 2.0]));
        let scan = store.restore_verified(0);
        assert!(scan.checkpoint.is_none());
        assert_eq!(scan.corrupt_seqs, vec![1, 0]);
    }

    #[test]
    fn checkpoint_text_roundtrips_exactly() {
        let ck = Checkpoint {
            iterations: 128,
            stage: 1,
            last_betas: (-0.125, f64::INFINITY),
            n: 5,
            ranks: vec![
                snap(0, 0, &[0.5, 0.0, 1e-17]),
                RankSnapshot {
                    rank: 1,
                    lo: 3,
                    alpha: vec![2.0, 0.0],
                    grad: vec![-1.0, 1.0],
                    active: vec![true, false],
                    shrink_countdown: None,
                },
            ],
        };
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let back = Checkpoint::read_from(&buf[..]).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn read_rejects_truncated_and_garbled_input() {
        assert!(Checkpoint::read_from(&b""[..]).is_err());
        assert!(Checkpoint::read_from(&b"shrinksvm-checkpoint v0\n"[..]).is_err());
        // Older format versions, each with the trailer its writer produced
        // (v1 hashed byte at a time), are refused by version, not by hash.
        let fnv1a_bytewise = |body: &[u8]| {
            body.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        };
        for version in ["v0", "v1"] {
            let body = format!(
                "shrinksvm-checkpoint {version}\niterations 0 stage 0\nbetas 0e0 0e0\nn 0 ranks 0\n"
            );
            let file = format!("{body}checksum {}\n", fnv1a_bytewise(body.as_bytes()));
            let err = Checkpoint::read_from(file.as_bytes())
                .unwrap_err()
                .to_string();
            assert!(
                err.contains(&format!("unsupported checkpoint version '{version}'")),
                "{version}: {err}"
            );
        }
        let ck = Checkpoint {
            iterations: 2,
            stage: 0,
            last_betas: (0.0, 0.0),
            n: 2,
            ranks: vec![snap(0, 0, &[1.0, 2.0])],
        };
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // every content-truncating prefix must fail cleanly (typed error,
        // no panic); dropping only the final newline still parses
        for cut in 0..text.len() - 1 {
            let r = Checkpoint::read_from(&text.as_bytes()[..cut]);
            assert!(
                r.is_err(),
                "prefix of {cut} bytes unexpectedly parsed as a full checkpoint"
            );
        }
        // A well-formed file with a valid checksum can still claim what no
        // checkpoint holds: reseal each edited body so that the parser, not
        // the checksum, has to reject it, and names the field.
        let body = &text[..text.rfind("checksum ").unwrap()];
        for (from, to, named) in [
            ("lo 0 len 2", "lo 7 len 2", "claims samples 7..9 of 2"),
            (
                "lo 0 len 2",
                "lo 18446744073709551615 len 2",
                "claims 2 samples from 18446744073709551615",
            ),
            ("stage 0", "stage 4294967297", "bad stage '4294967297'"),
        ] {
            let edited = body.replace(from, to);
            assert_ne!(edited, body, "edit '{from}' must apply");
            let sum = shrinksvm_mpisim::fault::checksum(edited.as_bytes());
            match Checkpoint::read_from(format!("{edited}checksum {sum}\n").as_bytes()) {
                Err(CoreError::CheckpointFormat(m)) => assert!(m.contains(named), "{to}: {m}"),
                other => panic!("{to}: expected a format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn read_rejects_every_single_bit_flip() {
        let ck = Checkpoint {
            iterations: 6,
            stage: 1,
            last_betas: (0.5, -0.5),
            n: 4,
            ranks: vec![snap(0, 0, &[1.0, 0.0]), snap(1, 2, &[0.25, 2.0])],
        };
        let mut buf = Vec::new();
        ck.write_to(&mut buf).unwrap();
        assert_eq!(Checkpoint::read_from(&buf[..]).unwrap(), ck);
        // flip one bit at a time across the whole file: every mutation
        // must either fail the checksum or (if it hit the trailer) fail
        // trailer parsing — never parse into a *different* checkpoint
        for byte in 0..buf.len() {
            for bit in 0..8u8 {
                let mut evil = buf.clone();
                evil[byte] ^= 1 << bit;
                if let Ok(parsed) = Checkpoint::read_from(&evil[..]) {
                    assert_eq!(
                        parsed, ck,
                        "bit {bit} of byte {byte} flipped into a different checkpoint"
                    );
                }
            }
        }
    }

    #[test]
    fn disk_mirror_writes_promoted_checkpoints() {
        let dir = std::env::temp_dir().join("shrinksvm-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.ckpt");
        let store = CheckpointStore::new(1, Some(path.clone()), 3);
        store.post(16, 0, (0.0, 1.0), 3, 0.5, snap(0, 0, &[1.0, 2.0, 3.0]));
        assert!(store.disk_error().is_none());
        let back = Checkpoint::read_from(std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(back.iterations, 16);
        assert_eq!(back.ranks[0].alpha, vec![1.0, 2.0, 3.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_mirror_save_load_save_is_byte_identical_across_generations() {
        let dir = std::env::temp_dir().join("shrinksvm-ckpt-gen-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gens.ckpt");
        let store = CheckpointStore::new(1, Some(path.clone()), 3);
        for (i, v) in [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]].iter().enumerate() {
            store.post(i as u64 * 8, 0, (0.1, 0.9), 2, i as f64, snap(0, 0, v));
            assert!(store.disk_error().is_none());
            let first = std::fs::read(&path).unwrap();
            // load the mirror, re-serialize, and compare bytes
            let back = Checkpoint::read_from(&first[..]).unwrap();
            let mut second = Vec::new();
            back.write_to(&mut second).unwrap();
            assert_eq!(
                first, second,
                "generation {i}: save -> load -> save drifted"
            );
            assert_eq!(back.ranks[0].alpha, v.to_vec());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_mirror_of_planted_corruption_is_rejected_on_read() {
        let dir = std::env::temp_dir().join("shrinksvm-ckpt-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.ckpt");
        let store = CheckpointStore::new(1, Some(path.clone()), 3);
        store.plant_corruptions(&[(0, u64::MAX)]);
        store.post(8, 0, (0.0, 0.0), 2, 0.0, snap(0, 0, &[1.0, 2.0]));
        // the mirror carries the corrupted bytes with the pristine
        // checksum, exactly like real bit rot — the reader must refuse it
        let err = Checkpoint::read_from(std::fs::File::open(&path).unwrap()).unwrap_err();
        assert!(
            err.to_string().contains("checksum mismatch"),
            "unexpected error: {err}"
        );
        std::fs::remove_file(&path).ok();
    }
}
