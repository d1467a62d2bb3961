//! Makespan attribution and the `PerfDoctor` report.
//!
//! Built on the [`critpath`](crate::critpath) identity replay: every
//! simulated second on every rank is attributed to exactly one of five
//! buckets — **compute**, **transfer**, **idle**, **retransmit**,
//! **recovery** — and the per-rank sums are checked to reconcile with the
//! makespan within a tolerance (`reconcile_error` is reported, not
//! hidden). [`PerfDoctor::analyze`] bundles the attribution with the
//! exact critical path and the what-if projections into one text + JSON
//! report; same-seed runs produce byte-identical JSON.
//!
//! Bucket conventions (documented once, applied everywhere):
//!
//! * a receive that clamps the clock splits its wait into the stretch
//!   before the sender's departure (**idle** — the peer was the holdup)
//!   and the stretch after (**transfer** — the wire was). Of the
//!   post-departure stretch, up to `penalty` seconds are reclassified as
//!   **retransmit** (retransmission backoff plus injected delay
//!   penalties ride the same in-flight penalty channel);
//! * sender-side CPU overhead is **transfer**;
//! * fault-plan slowdown inflation stays inside **compute** (the rank
//!   was computing, just slower);
//! * the gap between a rank's final clock and the makespan is tail
//!   **idle**;
//! * **recovery** is the simulated time lost to crash-aborted attempts,
//!   supplied by the driver — it happened before this (successful)
//!   attempt's clock started, so it extends total rank-time beyond
//!   `ranks × makespan`.

use crate::critpath::{
    critical_path, project, replay, CriticalPath, DepEvent, DepLog, Projections, WhatIf,
};
use crate::json::{escape_into, write_f64};
use std::io;
use std::path::{Path, PathBuf};

/// Schema tag stamped into every PerfDoctor JSON report; `cargo xtask
/// doctor` and `perf-diff` dispatch on it.
pub const PERF_SCHEMA: &str = "shrinksvm-perf/v1";

/// At most this many hops are listed individually in the JSON report;
/// the rest are summarized by `hops_truncated` and the `by_op` totals.
pub const MAX_JSON_HOPS: usize = 64;

/// One rank's time split across the four local buckets (recovery is
/// run-global, not per rank).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RankBuckets {
    /// Compute charges (including slowdown inflation).
    pub compute: f64,
    /// Wire transfers plus send overheads.
    pub transfer: f64,
    /// Waiting on slower peers (pre-departure waits + makespan tail).
    pub idle: f64,
    /// Retransmission backoff and injected in-flight delay penalties.
    pub retransmit: f64,
}

impl RankBuckets {
    /// Sum of the four local buckets — should reconcile to the makespan.
    pub fn total(&self) -> f64 {
        self.compute + self.transfer + self.idle + self.retransmit
    }
}

/// The five-bucket attribution of total rank-time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Attribution {
    /// Per-rank local buckets; each row sums to the makespan (within
    /// `reconcile_error`).
    pub per_rank: Vec<RankBuckets>,
    /// Sums of the per-rank buckets.
    pub totals: RankBuckets,
    /// Simulated time lost to crash-aborted attempts (driver-supplied):
    /// `recovery_waste + recovery_backoff`.
    pub recovery: f64,
    /// Re-executed simulated time: each aborted attempt's clock past the
    /// restored checkpoint's cut (work banked into the cut is *not*
    /// waste — the next attempt skips it).
    pub recovery_waste: f64,
    /// Simulated backoff charged by the recovery ladder before retries.
    pub recovery_backoff: f64,
    /// Largest per-rank deviation of `buckets.total()` from the
    /// makespan, in seconds (f64 summation noise; checked against a
    /// relative tolerance by [`Attribution::from_log`]).
    pub reconcile_error: f64,
}

impl Attribution {
    /// Total rank-time: `ranks × makespan + recovery`, which the five
    /// buckets sum to (within `reconcile_error × ranks`).
    pub fn total_rank_time(&self, makespan: f64) -> f64 {
        self.per_rank.len() as f64 * makespan + self.recovery
    }

    /// Attribute every rank's clock against the identity replay.
    ///
    /// # Errors
    ///
    /// Fails if any rank's buckets do not reconcile with the makespan
    /// within a `1e-9` relative tolerance — that would mean the bucket
    /// rules no longer cover every clock mutation.
    pub fn from_log(
        log: &DepLog,
        clocks: &[Vec<(f64, f64)>],
        final_clock: &[f64],
        makespan: f64,
        recovery_waste: f64,
        recovery_backoff: f64,
    ) -> Result<Attribution, String> {
        let mut per_rank = Vec::with_capacity(log.n_ranks());
        let mut totals = RankBuckets::default();
        let mut reconcile_error = 0.0f64;
        for r in 0..log.n_ranks() {
            let mut b = RankBuckets::default();
            for (ev, &(s, e)) in log.rank(r).iter().zip(&clocks[r]) {
                match *ev {
                    DepEvent::Coll { .. } => {}
                    DepEvent::Compute { .. } => b.compute += e - s,
                    DepEvent::Send { .. } => b.transfer += e - s,
                    DepEvent::Recv {
                        depart, penalty, ..
                    } => {
                        let wait = e - s;
                        if wait > 0.0 {
                            let idle = (depart - s).clamp(0.0, wait);
                            let retr = penalty.min(wait - idle);
                            b.idle += idle;
                            b.retransmit += retr;
                            b.transfer += wait - idle - retr;
                        }
                    }
                }
            }
            b.idle += makespan - final_clock[r];
            let err = (b.total() - makespan).abs();
            let tol = 1e-9 * makespan.max(1e-9);
            if err > tol {
                return Err(format!(
                    "rank {r} buckets sum to {} but the makespan is {makespan} \
                     (error {err:e} > tol {tol:e}) — a clock mutation escaped attribution",
                    b.total()
                ));
            }
            reconcile_error = reconcile_error.max(err);
            totals.compute += b.compute;
            totals.transfer += b.transfer;
            totals.idle += b.idle;
            totals.retransmit += b.retransmit;
            per_rank.push(b);
        }
        Ok(Attribution {
            per_rank,
            totals,
            recovery: recovery_waste + recovery_backoff,
            recovery_waste,
            recovery_backoff,
            reconcile_error,
        })
    }
}

/// The full trace-analysis report for one distributed run.
///
/// Produced by [`PerfDoctor::analyze`] from a [`DepLog`]; rendered as
/// deterministic JSON ([`PerfDoctor::to_json`]) and as a human-readable
/// diagnosis ([`PerfDoctor::render_text`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PerfDoctor {
    /// Simulated makespan, reproduced bit-for-bit by the replay.
    pub makespan: f64,
    /// Ranks in the run.
    pub ranks: u32,
    /// The rank whose clock set the makespan.
    pub makespan_rank: u32,
    /// Five-bucket attribution of total rank-time.
    pub attribution: Attribution,
    /// The exact critical path (telescopes to the makespan).
    pub critical_path: CriticalPath,
    /// What-if makespan projections.
    pub projections: Projections,
}

impl PerfDoctor {
    /// Analyze a run's dependency log.
    ///
    /// Replays the DAG with a bit-for-bit cross-check against the
    /// recorded clocks, walks out the exact critical path, attributes
    /// every rank's time into buckets, and computes what-if projections.
    /// `recovery_cost` is the simulated time lost to crash-aborted
    /// attempts (zero for fault-free runs).
    ///
    /// # Errors
    ///
    /// Any failure means the log is not a faithful transcript (replay
    /// divergence, unmatched receive) or the bucket rules missed a clock
    /// mutation — both are bugs worth loud deaths, not silent numbers.
    pub fn analyze(log: &DepLog, recovery_cost: f64) -> Result<PerfDoctor, String> {
        Self::analyze_split(log, recovery_cost, 0.0)
    }

    /// Like [`PerfDoctor::analyze`], but with the recovery cost split
    /// into re-executed time (`waste`) and ladder backoff charges
    /// (`backoff`) — the recovery bucket reports their sum, the split is
    /// kept in [`Attribution::recovery_waste`] /
    /// [`Attribution::recovery_backoff`].
    ///
    /// # Errors
    ///
    /// Same contract as [`PerfDoctor::analyze`].
    pub fn analyze_split(log: &DepLog, waste: f64, backoff: f64) -> Result<PerfDoctor, String> {
        let rep = replay(log, WhatIf::Identity)?;
        let cp = critical_path(log, &rep);
        if !cp.hops.is_empty() {
            if cp.start.to_bits() != 0.0f64.to_bits() {
                return Err(format!(
                    "critical path starts at {} instead of 0 — a clock moved without an edge",
                    cp.start
                ));
            }
            if cp.end.to_bits() != rep.makespan.to_bits() {
                return Err(format!(
                    "critical path ends at {} but the makespan is {} — the walk lost the \
                     binding chain",
                    cp.end, rep.makespan
                ));
            }
            for (k, w) in cp.hops.windows(2).enumerate() {
                if w[0].t1.to_bits() != w[1].t0.to_bits() {
                    return Err(format!(
                        "critical path breaks between hop {k} (ends {}) and hop {} (starts {})",
                        w[0].t1,
                        k + 1,
                        w[1].t0
                    ));
                }
            }
        }
        let attribution = Attribution::from_log(
            log,
            &rep.clocks,
            &rep.final_clock,
            rep.makespan,
            waste,
            backoff,
        )?;
        let projections = project(log)?;
        Ok(PerfDoctor {
            makespan: rep.makespan,
            ranks: log.n_ranks() as u32,
            makespan_rank: rep.max_rank as u32,
            attribution,
            critical_path: cp,
            projections,
        })
    }

    /// Serialize as deterministic JSON (fixed key order, capped hop
    /// list, `by_op` totals always complete).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":");
        escape_into(&mut out, PERF_SCHEMA);
        out.push_str(",\"makespan\":");
        write_f64(&mut out, self.makespan);
        out.push_str(",\"ranks\":");
        out.push_str(&self.ranks.to_string());
        out.push_str(",\"makespan_rank\":");
        out.push_str(&self.makespan_rank.to_string());

        out.push_str(",\"buckets\":{");
        let t = &self.attribution.totals;
        for (i, (k, v)) in [
            ("compute", t.compute),
            ("transfer", t.transfer),
            ("idle", t.idle),
            ("retransmit", t.retransmit),
            ("recovery", self.attribution.recovery),
            ("recovery_waste", self.attribution.recovery_waste),
            ("recovery_backoff", self.attribution.recovery_backoff),
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, k);
            out.push(':');
            write_f64(&mut out, v);
        }
        out.push_str(",\"total_rank_time\":");
        write_f64(&mut out, self.attribution.total_rank_time(self.makespan));
        out.push_str(",\"reconcile_error\":");
        write_f64(&mut out, self.attribution.reconcile_error);
        out.push('}');

        out.push_str(",\"per_rank\":[");
        for (r, b) in self.attribution.per_rank.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            out.push_str("{\"rank\":");
            out.push_str(&r.to_string());
            out.push_str(",\"compute\":");
            write_f64(&mut out, b.compute);
            out.push_str(",\"transfer\":");
            write_f64(&mut out, b.transfer);
            out.push_str(",\"idle\":");
            write_f64(&mut out, b.idle);
            out.push_str(",\"retransmit\":");
            write_f64(&mut out, b.retransmit);
            out.push('}');
        }
        out.push(']');

        let cp = &self.critical_path;
        out.push_str(",\"critical_path\":{\"start\":");
        write_f64(&mut out, cp.start);
        out.push_str(",\"end\":");
        write_f64(&mut out, cp.end);
        out.push_str(",\"hops_total\":");
        out.push_str(&cp.hops.len().to_string());
        out.push_str(",\"hops_truncated\":");
        out.push_str(&cp.hops.len().saturating_sub(MAX_JSON_HOPS).to_string());
        out.push_str(",\"hops\":[");
        for (i, h) in cp.hops.iter().take(MAX_JSON_HOPS).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"rank\":");
            out.push_str(&h.rank.to_string());
            out.push_str(",\"kind\":");
            escape_into(&mut out, h.kind.name());
            out.push_str(",\"op\":");
            escape_into(&mut out, &h.op);
            out.push_str(",\"tag\":");
            match h.tag {
                Some(tag) => escape_into(&mut out, &format!("{tag:#x}")),
                None => out.push_str("null"),
            }
            out.push_str(",\"t0\":");
            write_f64(&mut out, h.t0);
            out.push_str(",\"t1\":");
            write_f64(&mut out, h.t1);
            out.push_str(",\"count\":");
            out.push_str(&h.count.to_string());
            out.push('}');
        }
        out.push_str("],\"by_op\":{");
        for (i, (k, v)) in cp.by_op.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, k);
            out.push_str(":{\"hops\":");
            out.push_str(&v.hops.to_string());
            out.push_str(",\"edges\":");
            out.push_str(&v.edges.to_string());
            out.push_str(",\"secs\":");
            write_f64(&mut out, v.secs);
            out.push('}');
        }
        out.push_str("}}");

        let p = &self.projections;
        out.push_str(",\"whatif\":{");
        for (i, (k, v)) in [
            ("zero_network", p.zero_network),
            ("perfect_balance", p.perfect_balance),
            ("infinite_cache", p.infinite_cache),
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, k);
            out.push(':');
            write_f64(&mut out, v);
            out.push(',');
            escape_into(&mut out, &format!("speedup_{k}"));
            out.push(':');
            write_f64(&mut out, speedup(self.makespan, v));
        }
        out.push_str("}}");
        out
    }

    /// Render the human-readable doctor report.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("== PerfDoctor ==\n");
        out.push_str(&format!(
            "makespan {:.6}s over {} ranks (set by rank {})\n",
            self.makespan, self.ranks, self.makespan_rank
        ));
        let total = self.attribution.total_rank_time(self.makespan);
        out.push_str(&format!(
            "total rank-time {:.6}s = {} x makespan + {:.6}s recovery\n",
            total, self.ranks, self.attribution.recovery
        ));
        out.push_str("buckets:\n");
        let t = &self.attribution.totals;
        for (k, v) in [
            ("compute", t.compute),
            ("transfer", t.transfer),
            ("idle", t.idle),
            ("retransmit", t.retransmit),
            ("recovery", self.attribution.recovery),
        ] {
            out.push_str(&format!(
                "  {k:<10} {:>10.6}s  {:>5.1}%\n",
                v,
                pct(v, total)
            ));
        }
        out.push_str(&format!(
            "  (recovery = {:.6}s re-executed + {:.6}s ladder backoff)\n",
            self.attribution.recovery_waste, self.attribution.recovery_backoff
        ));
        out.push_str(&format!(
            "  (per-rank reconcile error <= {:.3e}s)\n",
            self.attribution.reconcile_error
        ));

        out.push_str(&format!(
            "critical path: {} hops, 0 -> {:.6}s (telescopes to the makespan bit-for-bit)\n",
            self.critical_path.hops.len(),
            self.critical_path.end
        ));
        out.push_str("  top contributors:\n");
        let mut ops: Vec<_> = self.critical_path.by_op.iter().collect();
        ops.sort_by(|a, b| {
            b.1.secs
                .partial_cmp(&a.1.secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(b.0))
        });
        for (k, v) in ops.iter().take(8) {
            out.push_str(&format!(
                "    {k:<28} {:>10.6}s  {:>5.1}%  ({} hops / {} edges)\n",
                v.secs,
                pct(v.secs, self.makespan),
                v.hops,
                v.edges
            ));
        }

        out.push_str("what-if projections:\n");
        for (k, v) in [
            ("zero-latency network", self.projections.zero_network),
            ("perfect load balance", self.projections.perfect_balance),
            ("infinite kernel cache", self.projections.infinite_cache),
        ] {
            out.push_str(&format!(
                "  {k:<22} {:>10.6}s  ({:.2}x)\n",
                v,
                speedup(self.makespan, v)
            ));
        }
        out
    }

    /// Write `PERF_<name>.json` and `PERF_<name>.txt` under `dir`
    /// (created if missing) and return the paths written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path, name: &str) -> io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("PERF_{name}.json"));
        let txt_path = dir.join(format!("PERF_{name}.txt"));
        let mut doc = self.to_json();
        doc.push('\n');
        std::fs::write(&json_path, doc)?;
        std::fs::write(&txt_path, self.render_text())?;
        Ok((json_path, txt_path))
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

fn speedup(makespan: f64, projected: f64) -> f64 {
    if projected > 0.0 {
        makespan / projected
    } else if makespan > 0.0 {
        f64::INFINITY
    } else {
        1.0
    }
}

/// Extras a bench report can attach from a PerfDoctor analysis, as
/// `(key, value)` pairs.
pub fn bench_extras(doc: &PerfDoctor) -> Vec<(&'static str, f64)> {
    vec![
        ("whatif_zero_network", doc.projections.zero_network),
        ("whatif_perfect_balance", doc.projections.perfect_balance),
        ("whatif_infinite_cache", doc.projections.infinite_cache),
        ("critpath_hops", doc.critical_path.hops.len() as f64),
        ("recovery_waste", doc.attribution.recovery_waste),
        ("recovery_backoff", doc.attribution.recovery_backoff),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::DepRecorder;
    use crate::json::check;

    fn two_rank_log() -> DepLog {
        let mut r0 = DepRecorder::new();
        r0.compute(0.0, 1.0, 0.75, "fused_sweep");
        r0.send(1.0, 0.25, 1, 7, 0);
        let mut r1 = DepRecorder::new();
        r1.compute(0.0, 0.5, 0.5, "fused_sweep");
        r1.recv(0.5, 0, 7, 0, 1.25, 0.5, 0.125);
        DepLog::from_ranks(vec![r0.finish(), r1.finish()])
    }

    #[test]
    fn buckets_reconcile_to_the_makespan() {
        let doc = PerfDoctor::analyze(&two_rank_log(), 0.0).unwrap();
        // makespan = 1.25 + 0.5 + 0.125 = 1.875 (rank 1's arrival)
        assert_eq!(doc.makespan, 1.875);
        assert_eq!(doc.makespan_rank, 1);
        for b in &doc.attribution.per_rank {
            assert!((b.total() - doc.makespan).abs() <= 1e-9 * doc.makespan);
        }
        let t = &doc.attribution.totals;
        let total = t.compute + t.transfer + t.idle + t.retransmit + doc.attribution.recovery;
        let expect = doc.attribution.total_rank_time(doc.makespan);
        assert!(
            (total - expect).abs() <= 1e-9 * expect,
            "{total} vs {expect}"
        );
        // rank 1's receive: wait = 1.375, idle = 0.75 (pre-departure),
        // retransmit = 0.125 (the penalty), transfer = 0.5 (the wire).
        let b1 = &doc.attribution.per_rank[1];
        assert!((b1.idle - 0.75).abs() < 1e-12);
        assert!((b1.retransmit - 0.125).abs() < 1e-12);
        assert!((b1.transfer - 0.5).abs() < 1e-12);
        // rank 0 idles in the tail: makespan - 1.25 = 0.625.
        let b0 = &doc.attribution.per_rank[0];
        assert!((b0.idle - 0.625).abs() < 1e-12);
    }

    #[test]
    fn recovery_extends_total_rank_time() {
        let doc = PerfDoctor::analyze(&two_rank_log(), 0.5).unwrap();
        assert_eq!(doc.attribution.recovery, 0.5);
        assert_eq!(doc.attribution.recovery_waste, 0.5);
        assert_eq!(doc.attribution.recovery_backoff, 0.0);
        let expect = 2.0 * doc.makespan + 0.5;
        assert!((doc.attribution.total_rank_time(doc.makespan) - expect).abs() < 1e-12);
    }

    #[test]
    fn split_recovery_sums_into_the_bucket() {
        let doc = PerfDoctor::analyze_split(&two_rank_log(), 0.375, 0.125).unwrap();
        assert_eq!(doc.attribution.recovery_waste, 0.375);
        assert_eq!(doc.attribution.recovery_backoff, 0.125);
        assert_eq!(doc.attribution.recovery, 0.5);
        let json = doc.to_json();
        check(&json).unwrap();
        assert!(json.contains("\"recovery_waste\":0.375"));
        assert!(json.contains("\"recovery_backoff\":0.125"));
        assert!(doc.render_text().contains("ladder backoff"));
    }

    #[test]
    fn json_is_well_formed_and_deterministic() {
        let doc = PerfDoctor::analyze(&two_rank_log(), 0.0).unwrap();
        let a = doc.to_json();
        check(&a).unwrap_or_else(|e| panic!("{e}\n{a}"));
        let b = PerfDoctor::analyze(&two_rank_log(), 0.0).unwrap().to_json();
        assert_eq!(a, b);
        for key in [
            "\"schema\":\"shrinksvm-perf/v1\"",
            "\"makespan\":1.875",
            "\"buckets\":{",
            "\"reconcile_error\":",
            "\"critical_path\":{",
            "\"hops_truncated\":0",
            "\"whatif\":{",
            "\"tag\":\"0x7\"",
        ] {
            assert!(a.contains(key), "missing {key} in {a}");
        }
    }

    #[test]
    fn text_report_names_the_buckets_and_projections() {
        let doc = PerfDoctor::analyze(&two_rank_log(), 0.0).unwrap();
        let text = doc.render_text();
        for needle in [
            "PerfDoctor",
            "compute",
            "transfer",
            "idle",
            "retransmit",
            "recovery",
            "critical path",
            "zero-latency network",
            "perfect load balance",
            "infinite kernel cache",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn hop_list_is_capped_but_totals_are_not() {
        let mut r0 = DepRecorder::new();
        let mut t = 0.0f64;
        for i in 0..200 {
            // alternate classes so hops cannot merge
            let class = if i % 2 == 0 { "a" } else { "b" };
            r0.compute(t, 1.0, 1.0, class);
            t += 1.0;
        }
        let log = DepLog::from_ranks(vec![r0.finish()]);
        let doc = PerfDoctor::analyze(&log, 0.0).unwrap();
        assert_eq!(doc.critical_path.hops.len(), 200);
        let json = doc.to_json();
        check(&json).expect("well-formed");
        assert!(json.contains("\"hops_total\":200"));
        assert!(json.contains(&format!("\"hops_truncated\":{}", 200 - MAX_JSON_HOPS)));
        let by_a = &doc.critical_path.by_op["compute/a"];
        assert_eq!(by_a.hops, 100);
    }

    #[test]
    fn write_emits_both_artifacts() {
        let dir = std::env::temp_dir().join("shrinksvm_obs_perfdoctor_test");
        let doc = PerfDoctor::analyze(&two_rank_log(), 0.0).unwrap();
        let (j, t) = doc.write(&dir, "unit").expect("write");
        let body = std::fs::read_to_string(&j).expect("read json");
        check(body.trim_end()).expect("well-formed on disk");
        assert!(std::fs::read_to_string(&t)
            .expect("read txt")
            .contains("PerfDoctor"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
