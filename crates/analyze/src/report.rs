//! Finalize-time validation findings.

use std::fmt;

use crate::fault::FaultEvent;

/// One communication-correctness violation observed during a run.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// A user-facing point-to-point call used a tag inside the reserved
    /// collective namespace.
    TagOutOfRange {
        /// Rank that issued the call.
        rank: usize,
        /// The offending tag.
        tag: u64,
        /// `"send"`, `"recv"` or `"irecv"`.
        op: &'static str,
    },
    /// A message was sent but never received: it was still sitting in the
    /// destination's inbox when the rank finished.
    UnreceivedMessage {
        /// Sending rank.
        src: usize,
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: u64,
        /// Payload size.
        bytes: usize,
    },
    /// A message was taken off its link (while matching another tag) but
    /// never matched by any receive before the rank finished.
    UnmatchedPending {
        /// Rank holding the orphaned message.
        rank: usize,
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Payload size.
        bytes: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::TagOutOfRange { rank, tag, op } => write!(
                f,
                "tag discipline: rank {rank} called {op} with tag {tag:#x}, \
                 which is inside the reserved collective namespace"
            ),
            Violation::UnreceivedMessage {
                src,
                dst,
                tag,
                bytes,
            } => write!(
                f,
                "message conservation: {bytes}-byte message from rank {src} to rank {dst} \
                 with tag {tag:#x} was sent but never received"
            ),
            Violation::UnmatchedPending {
                rank,
                src,
                tag,
                bytes,
            } => write!(
                f,
                "message conservation: rank {rank} buffered a {bytes}-byte message from rank {src} \
                 with tag {tag:#x} that no receive ever matched"
            ),
        }
    }
}

/// Everything the validator found over one universe run.
#[derive(Clone, Debug, Default)]
pub struct ValidationReport {
    /// All violations, in the order ranks finalized.
    pub violations: Vec<Violation>,
    /// Fault-injection ledger: every injected fault and transport recovery
    /// action, when a fault plan was installed. Not violations — a
    /// survived fault is a chaos run's expected outcome — so they do not
    /// affect [`ValidationReport::is_clean`].
    pub faults: Vec<FaultEvent>,
    /// Flight-recorder snapshot: the last N events per rank, pre-rendered
    /// as text lines, when a flight recorder was attached to the run.
    /// Diagnostic context only — never a violation — so it does not
    /// affect [`ValidationReport::is_clean`]. Lines are already in rank
    /// order and [`ValidationReport::normalize`] leaves them alone (the
    /// within-rank ring order *is* the event order).
    pub flight: Vec<String>,
}

impl ValidationReport {
    /// True when the run was communication-correct. Injected faults the
    /// transport survived do not make a run dirty.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Append another rank's findings.
    pub fn extend(&mut self, more: Vec<Violation>) {
        self.violations.extend(more);
    }

    /// Append fault-ledger entries.
    pub fn extend_faults(&mut self, more: Vec<FaultEvent>) {
        self.faults.extend(more);
    }

    /// Sort findings into a deterministic order, so two runs with the same
    /// seed render byte-identical reports regardless of how the OS
    /// scheduled the rank threads. Violations sort by their rendered text,
    /// fault events by simulated time then rank/src/tag/kind.
    pub fn normalize(&mut self) {
        self.violations.sort_by_key(|v| v.to_string());
        self.faults.sort_by_key(FaultEvent::sort_key);
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            writeln!(f, "communication validation: clean")?;
        } else {
            writeln!(
                f,
                "communication validation failed with {} violation(s):",
                self.violations.len()
            )?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
        }
        if !self.faults.is_empty() {
            writeln!(
                f,
                "fault-injection ledger ({} event(s)):",
                self.faults.len()
            )?;
            for e in &self.faults {
                writeln!(f, "  - {e}")?;
            }
        }
        if !self.flight.is_empty() {
            writeln!(f, "flight recorder ({} line(s)):", self.flight.len())?;
            for l in &self.flight {
                writeln!(f, "  {l}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_prints_clean() {
        let r = ValidationReport::default();
        assert!(r.is_clean());
        assert!(r.to_string().contains("clean"));
    }

    #[test]
    fn violations_render_src_dst_tag() {
        let mut r = ValidationReport::default();
        r.extend(vec![Violation::UnreceivedMessage {
            src: 1,
            dst: 2,
            tag: 0x2a,
            bytes: 16,
        }]);
        let s = r.to_string();
        assert!(!r.is_clean());
        assert!(s.contains("from rank 1 to rank 2"), "{s}");
        assert!(s.contains("tag 0x2a"), "{s}");
        assert!(s.contains("never received"), "{s}");
    }

    #[test]
    fn tag_violation_names_op_and_rank() {
        let v = Violation::TagOutOfRange {
            rank: 3,
            tag: 1 << 63,
            op: "send",
        };
        let s = v.to_string();
        assert!(s.contains("rank 3 called send"), "{s}");
        assert!(s.contains("collective namespace"), "{s}");
    }
}
