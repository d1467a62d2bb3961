//! Hierarchical self/total-time profiles of one run, built from the span
//! [`Timeline`](crate::timeline::Timeline) and the
//! [`DepLog`](crate::critpath::DepLog) event DAG.
//!
//! Where [`attrib`](crate::attrib) answers *how much* time each bucket
//! got, this module answers *where in the program* it went: every
//! attributed second lands on a `phase → op → charge` stack —
//!
//! * **phase** comes from the timeline's `cat:"solver"` spans
//!   (`fused_sweep`, `sweep_tail`, `reconstruction`, ...); events outside
//!   any solver span fall into `main`, and the gap between a rank's final
//!   clock and the makespan into `tail`;
//! * **op** is the compute charge class, the enclosing collective's name,
//!   or `p2p`;
//! * **charge** separates cache-hit compute from the miss overhead
//!   (`compute` vs `cache_miss_extra`) and splits receives exactly like
//!   the attribution walk (`peer_wait` / `retransmit` / `wire`).
//!
//! The per-rank trees are reconciled bucket-for-bucket against
//! [`Attribution::from_log`](crate::attrib::Attribution::from_log) —
//! construction *fails* if any rank's tree disagrees with the attribution
//! by more than `1e-9 · makespan`, so the two views can never drift
//! apart. Exports: deterministic collapsed-stack text
//! ([`Profile::to_folded`], values in shortest-round-trip f64 so a parsed
//! sum reproduces the in-memory sum exactly), a self-contained static
//! flame-graph SVG ([`Profile::to_svg`], no scripts, no external assets),
//! and JSON under schema [`PROFILE_SCHEMA`]. Same-seed runs emit all
//! three byte-identically.

use crate::attrib::{Attribution, RankBuckets};
use crate::critpath::{coll_labels, replay, DepEvent, DepLog, WhatIf};
use crate::json::{escape_into, write_f64};
use crate::timeline::{Event, Timeline};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Schema tag stamped into every `PROFILE_<name>.json`.
pub const PROFILE_SCHEMA: &str = "shrinksvm-profile/v1";

/// One frame of the profile tree. Children are kept in a `BTreeMap` so
/// every traversal — folded text, SVG, JSON — is deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileNode {
    /// Seconds charged directly to this frame (leaves carry all of it;
    /// interior frames are pure grouping and stay at zero).
    pub self_secs: f64,
    /// Child frames by name.
    pub children: std::collections::BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    /// Inclusive time: own self time plus every descendant's.
    pub fn total(&self) -> f64 {
        let mut t = self.self_secs;
        for c in self.children.values() {
            t += c.total();
        }
        t
    }

    /// Frame levels below and including this one.
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .values()
            .map(ProfileNode::depth)
            .max()
            .unwrap_or(0)
    }

    fn add(&mut self, path: &[&str], secs: f64) {
        match path.split_first() {
            None => self.self_secs += secs,
            Some((head, rest)) => self
                .children
                .entry((*head).to_string())
                .or_default()
                .add(rest, secs),
        }
    }

    fn merge_into(&self, out: &mut ProfileNode) {
        out.self_secs += self.self_secs;
        for (k, c) in &self.children {
            c.merge_into(out.children.entry(k.clone()).or_default());
        }
    }
}

/// Per-rank solver-phase intervals extracted from the timeline, with a
/// running max-end so the containment lookup can stop early.
struct PhaseIndex {
    /// Per rank: `(t0, t1, name)` sorted by start.
    spans: Vec<Vec<(f64, f64, String)>>,
    /// Per rank: running maximum of `t1` over `spans[..=i]`.
    max_end: Vec<Vec<f64>>,
}

impl PhaseIndex {
    fn build(timeline: &Timeline, n_ranks: usize) -> PhaseIndex {
        let mut spans: Vec<Vec<(f64, f64, String)>> = vec![Vec::new(); n_ranks];
        for e in timeline.events() {
            if let Event::Span {
                track,
                name,
                cat,
                t0,
                t1,
            } = e
            {
                if cat == "solver" && (*track as usize) < n_ranks {
                    spans[*track as usize].push((*t0, *t1, name.clone()));
                }
            }
        }
        for s in &mut spans {
            s.sort_by(|a, b| {
                (a.0.to_bits(), a.1.to_bits(), a.2.as_str()).cmp(&(
                    b.0.to_bits(),
                    b.1.to_bits(),
                    b.2.as_str(),
                ))
            });
        }
        let max_end = spans
            .iter()
            .map(|s| {
                let mut run = f64::NEG_INFINITY;
                s.iter()
                    .map(|&(_, t1, _)| {
                        run = run.max(t1);
                        run
                    })
                    .collect()
            })
            .collect();
        PhaseIndex { spans, max_end }
    }

    /// The phase an event starting at `t` on rank `r` belongs to: the
    /// latest-starting solver span containing `t` (nested spans resolve
    /// to the innermost), or `"main"` when none covers it.
    fn of(&self, r: usize, t: f64) -> &str {
        let spans = &self.spans[r];
        // Rightmost span with t0 <= t.
        let mut i = spans.partition_point(|&(t0, _, _)| t0 <= t);
        while i > 0 {
            i -= 1;
            let (_, t1, ref name) = spans[i];
            if t < t1 {
                return name;
            }
            if self.max_end[r][i] <= t {
                break; // no earlier span can reach past t
            }
        }
        "main"
    }
}

/// Charge classes grouped into the attribution buckets — the mapping the
/// reconciliation check enforces.
fn bucket_of(charge: &str) -> &'static str {
    match charge {
        "compute" | "cache_miss_extra" => "compute",
        "send_overhead" | "wire" => "transfer",
        "peer_wait" | "idle" => "idle",
        "retransmit" => "retransmit",
        _ => "compute",
    }
}

/// The hierarchical time profile of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// Simulated makespan, reproduced by the identity replay.
    pub makespan: f64,
    /// Ranks in the run.
    pub ranks: u32,
    /// One `phase → op → charge` tree per rank; each tree's total equals
    /// the makespan within `reconcile_error`.
    pub per_rank: Vec<ProfileNode>,
    /// The rank trees summed frame-by-frame; totals `ranks · makespan`.
    pub merged: ProfileNode,
    /// Largest per-rank deviation of a tree total from the makespan.
    pub reconcile_error: f64,
}

impl Profile {
    /// Profile a dependency log with no timeline: every event lands in
    /// the `main` phase (plus the `tail` idle phase).
    ///
    /// # Errors
    ///
    /// Same contract as [`Profile::from_run`].
    pub fn from_log(log: &DepLog) -> Result<Profile, String> {
        Self::from_run(log, &Timeline::new())
    }

    /// Build the profile from a run's dependency log and span timeline.
    ///
    /// Replays the DAG bit-for-bit, walks every rank's events with the
    /// exact bucket rules of
    /// [`Attribution::from_log`](crate::attrib::Attribution::from_log),
    /// and stacks each charge under its solver phase.
    ///
    /// # Errors
    ///
    /// Fails when the replay rejects the log, or when any rank's tree
    /// disagrees with the attribution buckets (or the makespan) by more
    /// than `1e-9 · makespan` — either would mean the two views of the
    /// same run have drifted apart.
    pub fn from_run(log: &DepLog, timeline: &Timeline) -> Result<Profile, String> {
        let rep = replay(log, WhatIf::Identity)?;
        let attr =
            Attribution::from_log(log, &rep.clocks, &rep.final_clock, rep.makespan, 0.0, 0.0)?;
        let labels = coll_labels(log);
        let phases = PhaseIndex::build(timeline, log.n_ranks());
        let makespan = rep.makespan;
        let tol = 1e-9 * makespan.max(1e-9);

        let mut per_rank = Vec::with_capacity(log.n_ranks());
        let mut reconcile_error = 0.0f64;
        for r in 0..log.n_ranks() {
            let mut root = ProfileNode::default();
            let mut mine = RankBuckets::default();
            // Mirror of the attribution walk.
            for (i, (ev, &(s, e))) in log.rank(r).iter().zip(&rep.clocks[r]).enumerate() {
                match *ev {
                    DepEvent::Coll { .. } => {}
                    DepEvent::Compute {
                        secs,
                        alt_secs,
                        class,
                        ..
                    } => {
                        let d = e - s;
                        let phase = phases.of(r, s);
                        // The all-hit projection bounds the charge from
                        // below; anything above it is miss overhead.
                        let miss = (secs - alt_secs).clamp(0.0, d);
                        if miss > 0.0 {
                            root.add(&[phase, class, "cache_miss_extra"], miss);
                        }
                        if d - miss > 0.0 {
                            root.add(&[phase, class, "compute"], d - miss);
                        }
                        mine.compute += d;
                    }
                    DepEvent::Send { .. } => {
                        let d = e - s;
                        if d > 0.0 {
                            let op = labels[r][i].unwrap_or("p2p");
                            root.add(&[phases.of(r, s), op, "send_overhead"], d);
                        }
                        mine.transfer += d;
                    }
                    DepEvent::Recv {
                        depart, penalty, ..
                    } => {
                        let wait = e - s;
                        if wait > 0.0 {
                            let op = labels[r][i].unwrap_or("p2p");
                            let phase = phases.of(r, s);
                            let idle = (depart - s).clamp(0.0, wait);
                            let retr = penalty.min(wait - idle);
                            let wire = wait - idle - retr;
                            if idle > 0.0 {
                                root.add(&[phase, op, "peer_wait"], idle);
                            }
                            if retr > 0.0 {
                                root.add(&[phase, op, "retransmit"], retr);
                            }
                            if wire > 0.0 {
                                root.add(&[phase, op, "wire"], wire);
                            }
                            mine.idle += idle;
                            mine.retransmit += retr;
                            mine.transfer += wire;
                        }
                    }
                }
            }
            let tail = makespan - rep.final_clock[r];
            if tail > 0.0 {
                root.add(&["tail", "idle_tail", "idle"], tail);
            }
            mine.idle += tail;

            // Reconcile against the attribution walk, bucket by bucket.
            let want = &attr.per_rank[r];
            for (k, got, expect) in [
                ("compute", mine.compute, want.compute),
                ("transfer", mine.transfer, want.transfer),
                ("idle", mine.idle, want.idle),
                ("retransmit", mine.retransmit, want.retransmit),
            ] {
                if (got - expect).abs() > tol {
                    return Err(format!(
                        "rank {r} profile books {got} to {k} but the attribution says {expect} \
                         — the two walks have drifted apart"
                    ));
                }
            }
            let err = (root.total() - makespan).abs();
            if err > tol {
                return Err(format!(
                    "rank {r} profile tree totals {} but the makespan is {makespan} \
                     (error {err:e} > tol {tol:e})",
                    root.total()
                ));
            }
            reconcile_error = reconcile_error.max(err);
            per_rank.push(root);
        }

        let mut merged = ProfileNode::default();
        for root in &per_rank {
            root.merge_into(&mut merged);
        }
        Ok(Profile {
            makespan,
            ranks: log.n_ranks() as u32,
            per_rank,
            merged,
            reconcile_error,
        })
    }

    /// Collapsed-stack text: one `rank<r>;phase;op;charge <secs>` line
    /// per nonzero leaf, ranks in order, frames in `BTreeMap` order.
    /// Values use the shortest-round-trip f64 form, so parsing the lines
    /// back and summing reproduces `ranks · makespan` to the same
    /// tolerance the construction enforced.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (r, root) in self.per_rank.iter().enumerate() {
            fold_into(&mut out, &format!("rank{r}"), root);
        }
        out
    }

    /// Serialize as deterministic JSON under [`PROFILE_SCHEMA`]: run
    /// headline, the merged tree, and the per-rank trees, every node as
    /// `{name, self, total, children}` with children in `BTreeMap`
    /// order.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":");
        escape_into(&mut out, PROFILE_SCHEMA);
        out.push_str(",\"makespan\":");
        write_f64(&mut out, self.makespan);
        out.push_str(",\"ranks\":");
        out.push_str(&self.ranks.to_string());
        out.push_str(",\"total_self\":");
        write_f64(&mut out, self.merged.total());
        out.push_str(",\"reconcile_error\":");
        write_f64(&mut out, self.reconcile_error);
        out.push_str(",\"merged\":");
        node_json(&mut out, "all", &self.merged);
        out.push_str(",\"per_rank\":[");
        for (r, root) in self.per_rank.iter().enumerate() {
            if r > 0 {
                out.push(',');
            }
            node_json(&mut out, &format!("rank{r}"), root);
        }
        out.push_str("]}");
        out
    }

    /// Render the merged tree as a self-contained flame-graph SVG
    /// (icicle layout, root on top): static markup only — no scripts, no
    /// external fonts — with `<title>` hover text carrying each frame's
    /// exact seconds and share. Frame colors are a deterministic hash of
    /// the frame name, so the same op keeps its color across runs and
    /// across profiles.
    pub fn to_svg(&self) -> String {
        const W: f64 = 1200.0;
        const ROW: f64 = 17.0;
        const PAD: f64 = 4.0;
        const HEADER: f64 = 24.0;
        let depth = self.merged.depth();
        let height = HEADER + depth as f64 * ROW + PAD * 2.0;
        let total = self.merged.total();
        let mut out = String::with_capacity(8192);
        let _ = write!(
            out,
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
             <svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{height:.1}\" \
             viewBox=\"0 0 {W} {height:.1}\" font-family=\"monospace\" font-size=\"11\">\n\
             <rect x=\"0\" y=\"0\" width=\"{W}\" height=\"{height:.1}\" fill=\"#f8f8f8\"/>\n"
        );
        let _ = writeln!(
            out,
            "<text x=\"{PAD}\" y=\"16\">profile: {} rank(s), makespan {:.9}s, \
             total rank-time {:.9}s</text>",
            self.ranks, self.makespan, total
        );
        if total > 0.0 {
            svg_frame(&mut out, "all", &self.merged, 0.0, W, 0, HEADER, total);
        }
        out.push_str("</svg>\n");
        out
    }

    /// Write `PROFILE_<name>.{folded,svg,json}` under `dir` (created if
    /// missing) and return the paths written, in that order.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, dir: &Path, name: &str) -> io::Result<(PathBuf, PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let folded = dir.join(format!("PROFILE_{name}.folded"));
        let svg = dir.join(format!("PROFILE_{name}.svg"));
        let json = dir.join(format!("PROFILE_{name}.json"));
        std::fs::write(&folded, self.to_folded())?;
        std::fs::write(&svg, self.to_svg())?;
        let mut doc = self.to_json();
        doc.push('\n');
        std::fs::write(&json, doc)?;
        Ok((folded, svg, json))
    }

    /// Total seconds booked to one attribution bucket across the merged
    /// tree (leaf charges grouped via the same mapping the
    /// reconciliation check uses).
    pub fn bucket_total(&self, bucket: &str) -> f64 {
        fn walk(node: &ProfileNode, depth: usize, bucket: &str, acc: &mut f64) {
            for (name, c) in &node.children {
                if depth == 2 && bucket_of(name) == bucket {
                    *acc += c.total();
                } else {
                    walk(c, depth + 1, bucket, acc);
                }
            }
        }
        let mut acc = 0.0;
        walk(&self.merged, 0, bucket, &mut acc);
        acc
    }
}

fn fold_into(out: &mut String, stack: &str, node: &ProfileNode) {
    if node.self_secs > 0.0 {
        out.push_str(stack);
        out.push(' ');
        write_f64(out, node.self_secs);
        out.push('\n');
    }
    for (name, child) in &node.children {
        fold_into(out, &format!("{stack};{name}"), child);
    }
}

fn node_json(out: &mut String, name: &str, node: &ProfileNode) {
    out.push_str("{\"name\":");
    escape_into(out, name);
    out.push_str(",\"self\":");
    write_f64(out, node.self_secs);
    out.push_str(",\"total\":");
    write_f64(out, node.total());
    out.push_str(",\"children\":[");
    for (i, (k, c)) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        node_json(out, k, c);
    }
    out.push_str("]}");
}

/// Minimal XML text escaping for SVG content and attribute values.
fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Deterministic warm-palette fill from the frame name (FNV-1a).
fn frame_color(name: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let r = 190 + (h % 66);
    let g = 90 + ((h >> 8) % 110);
    let b = 40 + ((h >> 16) % 50);
    format!("rgb({r},{g},{b})")
}

#[allow(clippy::too_many_arguments)]
fn svg_frame(
    out: &mut String,
    name: &str,
    node: &ProfileNode,
    x: f64,
    w: f64,
    depth: usize,
    header: f64,
    total: f64,
) {
    const ROW: f64 = 17.0;
    const MIN_W: f64 = 0.25;
    const TEXT_W: f64 = 42.0;
    if w < MIN_W {
        return;
    }
    let y = header + depth as f64 * ROW;
    let secs = node.total();
    let pct = if total > 0.0 {
        100.0 * secs / total
    } else {
        0.0
    };
    let esc = xml_escape(name);
    let _ = write!(
        out,
        "<g><title>{esc}: {secs:.9}s ({pct:.2}%)</title>\
         <rect x=\"{x:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" height=\"{:.1}\" \
         fill=\"{}\" stroke=\"#f8f8f8\" stroke-width=\"0.5\"/>",
        ROW - 1.0,
        frame_color(name)
    );
    if w >= TEXT_W {
        // Clip the label to what fits; ~6.8px per monospace glyph.
        let fit = ((w - 6.0) / 6.8) as usize;
        let label: String = esc.chars().take(fit.max(1)).collect();
        let _ = write!(
            out,
            "<text x=\"{:.2}\" y=\"{:.1}\" fill=\"#111\">{label}</text>",
            x + 3.0,
            y + 12.0
        );
    }
    out.push_str("</g>\n");
    // Children left-to-right in BTreeMap order; the self-time remainder
    // is the uncovered gap at the right edge.
    let scale = w / secs.max(f64::MIN_POSITIVE);
    let mut cx = x;
    for (k, c) in &node.children {
        let cw = c.total() * scale;
        svg_frame(out, k, c, cx, cw, depth + 1, header, total);
        cx += cw;
    }
}

/// A strict well-formedness check for the emitted SVG (and any other
/// single-document XML): balanced tags, quoted attributes, proper
/// entity references. Used by the acceptance tests and CI; not a general
/// XML parser (no DOCTYPE, no CDATA — the emitter produces neither).
///
/// # Errors
///
/// A message naming the byte offset and the violation.
pub fn xml_check(doc: &str) -> Result<(), String> {
    let bytes = doc.as_bytes();
    let mut i = 0usize;
    let mut stack: Vec<String> = Vec::new();
    let err = |i: usize, msg: &str| Err(format!("xml error at byte {i}: {msg}"));
    while i < bytes.len() {
        match bytes[i] {
            b'<' => {
                if doc[i..].starts_with("<?") {
                    match doc[i..].find("?>") {
                        Some(j) => i += j + 2,
                        None => return err(i, "unterminated processing instruction"),
                    }
                    continue;
                }
                if doc[i..].starts_with("<!--") {
                    match doc[i..].find("-->") {
                        Some(j) => i += j + 3,
                        None => return err(i, "unterminated comment"),
                    }
                    continue;
                }
                let Some(j) = doc[i..].find('>') else {
                    return err(i, "unterminated tag");
                };
                let inner = &doc[i + 1..i + j];
                i += j + 1;
                if let Some(name) = inner.strip_prefix('/') {
                    let name = name.trim();
                    match stack.pop() {
                        Some(open) if open == name => {}
                        Some(open) => {
                            return err(i, &format!("</{name}> closes <{open}>"));
                        }
                        None => return err(i, &format!("</{name}> with nothing open")),
                    }
                    continue;
                }
                let self_closing = inner.ends_with('/');
                let body = inner.strip_suffix('/').unwrap_or(inner);
                let mut parts = body.splitn(2, char::is_whitespace);
                let name = parts.next().unwrap_or("");
                if name.is_empty() {
                    return err(i, "empty tag name");
                }
                if let Some(attrs) = parts.next() {
                    check_attrs(attrs).map_err(|m| format!("xml error at byte {i}: {m}"))?;
                }
                if !self_closing {
                    stack.push(name.to_string());
                }
            }
            b'&' => {
                let rest = &doc[i..];
                let ok = ["&amp;", "&lt;", "&gt;", "&quot;", "&apos;"]
                    .iter()
                    .any(|e| rest.starts_with(e));
                if !ok {
                    return err(i, "bare '&' (use &amp;)");
                }
                i += 1;
            }
            b'>' => return err(i, "bare '>' outside a tag is suspicious here"),
            _ => i += 1,
        }
    }
    if let Some(open) = stack.pop() {
        return Err(format!("xml error: <{open}> never closed"));
    }
    Ok(())
}

/// Attribute syntax inside a start tag: `name="value"` pairs, values
/// quoted, no raw `<` or unescaped quotes inside values.
fn check_attrs(attrs: &str) -> Result<(), String> {
    let mut rest = attrs.trim();
    while !rest.is_empty() {
        let Some(eq) = rest.find('=') else {
            return Err(format!("attribute without value near '{rest}'"));
        };
        let name = rest[..eq].trim();
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err(format!("malformed attribute name near '{rest}'"));
        }
        let after = rest[eq + 1..].trim_start();
        let Some(q) = after.chars().next() else {
            return Err(format!("attribute '{name}' has no value"));
        };
        if q != '"' && q != '\'' {
            return Err(format!("attribute '{name}' value is unquoted"));
        }
        let Some(close) = after[1..].find(q) else {
            return Err(format!("attribute '{name}' value is unterminated"));
        };
        if after[1..1 + close].contains('<') {
            return Err(format!("attribute '{name}' value contains raw '<'"));
        }
        rest = after[close + 2..].trim_start();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::DepRecorder;
    use crate::json::check;
    use crate::timeline::TrackRecorder;

    /// The attrib test log: rank 0 computes 1.0 (all-hit 0.75) then
    /// sends; rank 1 computes 0.5 then receives (idle 0.75, wire 0.5,
    /// penalty 0.125). Makespan 1.875.
    fn two_rank_log() -> DepLog {
        let mut r0 = DepRecorder::new();
        r0.compute(0.0, 1.0, 0.75, "fused_sweep");
        r0.send(1.0, 0.25, 1, 7, 0);
        let mut r1 = DepRecorder::new();
        r1.compute(0.0, 0.5, 0.5, "fused_sweep");
        r1.recv(0.5, 0, 7, 0, 1.25, 0.5, 0.125);
        DepLog::from_ranks(vec![r0.finish(), r1.finish()])
    }

    fn folded_sum(folded: &str) -> f64 {
        folded
            .lines()
            .map(|l| {
                let v = l.rsplit(' ').next().expect("value field");
                v.parse::<f64>().expect("parseable f64")
            })
            .sum()
    }

    #[test]
    fn tree_reconciles_and_splits_cache_misses() {
        let p = Profile::from_log(&two_rank_log()).expect("profile");
        assert_eq!(p.makespan, 1.875);
        assert_eq!(p.ranks, 2);
        for root in &p.per_rank {
            assert!((root.total() - p.makespan).abs() <= 1e-9 * p.makespan);
        }
        let folded = p.to_folded();
        // rank 0: fused_sweep compute splits into 0.75 hit + 0.25 miss.
        assert!(
            folded.contains("rank0;main;fused_sweep;compute 0.75"),
            "{folded}"
        );
        assert!(
            folded.contains("rank0;main;fused_sweep;cache_miss_extra 0.25"),
            "{folded}"
        );
        // rank 1's receive splits exactly like the attribution.
        assert!(folded.contains("rank1;main;p2p;peer_wait 0.75"), "{folded}");
        assert!(
            folded.contains("rank1;main;p2p;retransmit 0.125"),
            "{folded}"
        );
        assert!(folded.contains("rank1;main;p2p;wire 0.5"), "{folded}");
        // rank 0's makespan tail.
        assert!(
            folded.contains("rank0;tail;idle_tail;idle 0.625"),
            "{folded}"
        );
        // Folded self-times sum to ranks * makespan.
        let sum = folded_sum(&folded);
        assert!(
            (sum - 2.0 * p.makespan).abs() <= 1e-9 * p.makespan,
            "{sum} vs {}",
            2.0 * p.makespan
        );
    }

    #[test]
    fn timeline_spans_assign_phases() {
        let log = two_rank_log();
        let mut t0 = TrackRecorder::new(0);
        t0.span("fused_sweep", "solver", 0.0, 1.0);
        let mut t1 = TrackRecorder::new(1);
        t1.span("recv_wait", "p2p", 0.5, 1.875); // wrong cat: ignored
        let tl = Timeline::from_tracks(vec![t0.finish(), t1.finish()]);
        let p = Profile::from_run(&log, &tl).expect("profile");
        let folded = p.to_folded();
        // rank 0's compute starts at 0.0, inside the solver span.
        assert!(
            folded.contains("rank0;fused_sweep;fused_sweep;compute 0.75"),
            "{folded}"
        );
        // rank 0's send at t=1.0 is past the span end: main phase.
        assert!(
            folded.contains("rank0;main;p2p;send_overhead 0.25"),
            "{folded}"
        );
        // rank 1 has no solver span (p2p cat does not count).
        assert!(folded.contains("rank1;main;p2p;wire 0.5"), "{folded}");
    }

    #[test]
    fn artifacts_are_deterministic_and_well_formed() {
        let a = Profile::from_log(&two_rank_log()).expect("a");
        let b = Profile::from_log(&two_rank_log()).expect("b");
        assert_eq!(a.to_folded(), b.to_folded());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_svg(), b.to_svg());
        let json = a.to_json();
        check(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(
            json.contains("\"schema\":\"shrinksvm-profile/v1\""),
            "{json}"
        );
        assert!(json.contains("\"name\":\"all\""), "{json}");
        assert!(json.contains("\"name\":\"rank0\""), "{json}");
        xml_check(&a.to_svg()).unwrap_or_else(|e| panic!("{e}\n{}", a.to_svg()));
    }

    #[test]
    fn empty_log_profiles_to_nothing() {
        let p = Profile::from_log(&DepLog::new()).expect("empty profile");
        assert_eq!(p.makespan, 0.0);
        assert_eq!(p.ranks, 0);
        assert!(p.to_folded().is_empty());
        check(&p.to_json()).expect("json");
        xml_check(&p.to_svg()).expect("svg");
    }

    #[test]
    fn write_emits_all_three_artifacts() {
        let dir = std::env::temp_dir().join("shrinksvm_obs_profile_test");
        let p = Profile::from_log(&two_rank_log()).expect("profile");
        let (folded, svg, json) = p.write(&dir, "unit").expect("write");
        assert!(std::fs::read_to_string(&folded)
            .expect("folded")
            .contains("rank0;"));
        xml_check(&std::fs::read_to_string(&svg).expect("svg")).expect("well-formed svg");
        check(std::fs::read_to_string(&json).expect("json").trim_end()).expect("well-formed json");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn xml_checker_rejects_malformed_documents() {
        xml_check("<a><b/></a>").expect("fine");
        xml_check("<a x=\"1\">t &amp; u</a>").expect("fine");
        assert!(xml_check("<a><b></a>").is_err());
        assert!(xml_check("<a>").is_err());
        assert!(xml_check("</a>").is_err());
        assert!(xml_check("<a>& </a>").is_err());
        assert!(xml_check("<a x=1></a>").is_err());
        assert!(xml_check("<a x=\"1></a>").is_err());
    }

    #[test]
    fn svg_escapes_frame_names() {
        let mut r0 = DepRecorder::new();
        r0.compute(0.0, 1.0, 1.0, "a<b&c");
        let p = Profile::from_log(&DepLog::from_ranks(vec![r0.finish()])).expect("profile");
        let svg = p.to_svg();
        xml_check(&svg).unwrap_or_else(|e| panic!("{e}\n{svg}"));
        assert!(svg.contains("a&lt;b&amp;c"), "{svg}");
    }
}
