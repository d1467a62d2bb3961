//! Wait-for-graph deadlock diagnosis.
//!
//! Every blocking receive publishes a `(waiter → src, tag)` edge. Each rank
//! has at most one outgoing edge (a rank blocks on one receive at a time),
//! so the wait-for graph is a functional graph and cycle detection is a
//! successor walk. A deadlock is diagnosed when every unfinished rank is
//! blocked.

use std::fmt;

/// One blocking-receive dependency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitEdge {
    /// The blocked rank.
    pub waiter: usize,
    /// The rank it expects a message from.
    pub src: usize,
    /// The tag it is matching.
    pub tag: u64,
    /// Whether the tag is in the collective namespace (reports print the
    /// collective name space distinctly from user tags).
    pub collective: bool,
}

impl fmt::Display for WaitEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.collective {
            write!(
                f,
                "rank {} blocked in a collective, awaiting rank {} (internal tag {:#x})",
                self.waiter, self.src, self.tag
            )
        } else {
            write!(
                f,
                "rank {} blocked in recv(src={}, tag={})",
                self.waiter, self.src, self.tag
            )
        }
    }
}

/// What one rank is doing right now, as far as the detector knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RankState {
    /// Executing user code or compute.
    #[default]
    Running,
    /// Blocked in a receive with no matching message available.
    Blocked(WaitEdge),
    /// Returned from its rank closure.
    Finished,
}

/// The diagnosis produced when the whole universe is blocked.
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// The cycle of ranks, if the blocked edges close one (each waits on
    /// the next, last waits on first).
    pub cycle: Vec<usize>,
    /// Every rank's state at diagnosis time, indexed by rank.
    pub states: Vec<RankState>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "communication deadlock diagnosed")?;
        if !self.cycle.is_empty() {
            let ring: Vec<String> = self
                .cycle
                .iter()
                .chain(self.cycle.first())
                .map(|r| format!("rank {r}"))
                .collect();
            writeln!(f, "wait-for cycle: {}", ring.join(" -> "))?;
        }
        writeln!(f, "per-rank states:")?;
        for (rank, st) in self.states.iter().enumerate() {
            match st {
                RankState::Running => writeln!(f, "  rank {rank}: running")?,
                RankState::Finished => writeln!(f, "  rank {rank}: finished")?,
                RankState::Blocked(edge) => writeln!(f, "  {edge}")?,
            }
        }
        Ok(())
    }
}

/// Shared registry of per-rank blocking states.
#[derive(Debug)]
pub struct WaitForGraph {
    states: Vec<RankState>,
}

impl WaitForGraph {
    /// All ranks start running.
    pub fn new(p: usize) -> Self {
        WaitForGraph {
            states: vec![RankState::Running; p],
        }
    }

    /// Update one rank's state.
    pub fn set(&mut self, rank: usize, state: RankState) {
        self.states[rank] = state;
    }

    /// Current state of `rank`.
    pub fn state(&self, rank: usize) -> RankState {
        self.states[rank]
    }

    /// True when no rank is `Running` and at least one is `Blocked` — the
    /// precondition for a deadlock diagnosis.
    pub fn all_blocked(&self) -> bool {
        let mut blocked = 0usize;
        for st in &self.states {
            match st {
                RankState::Running => return false,
                RankState::Blocked(_) => blocked += 1,
                RankState::Finished => {}
            }
        }
        blocked > 0
    }

    /// Walk blocked edges from the lowest blocked rank; return the cycle if
    /// one closes.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        let p = self.states.len();
        for start in 0..p {
            if !matches!(self.states[start], RankState::Blocked(_)) {
                continue;
            }
            let mut path: Vec<usize> = Vec::new();
            let mut on_path = vec![false; p];
            let mut cur = start;
            // walk successors until the chain ends at a running/finished rank
            while let RankState::Blocked(edge) = self.states[cur] {
                if on_path[cur] {
                    // close the cycle at the first repeated rank
                    let pos = path.iter().position(|&r| r == cur).unwrap_or(0);
                    return Some(path[pos..].to_vec());
                }
                on_path[cur] = true;
                path.push(cur);
                cur = edge.src;
            }
        }
        None
    }

    /// Produce the full diagnosis (cycle, if any, plus every rank's state).
    pub fn deadlock_report(&self) -> DeadlockReport {
        DeadlockReport {
            cycle: self.find_cycle().unwrap_or_default(),
            states: self.states.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(waiter: usize, src: usize, tag: u64) -> RankState {
        RankState::Blocked(WaitEdge {
            waiter,
            src,
            tag,
            collective: false,
        })
    }

    #[test]
    fn running_rank_prevents_diagnosis() {
        let mut g = WaitForGraph::new(3);
        g.set(0, edge(0, 1, 7));
        g.set(1, edge(1, 0, 7));
        assert!(!g.all_blocked(), "rank 2 still runs");
        g.set(2, RankState::Finished);
        assert!(g.all_blocked());
    }

    #[test]
    fn two_cycle_is_found() {
        let mut g = WaitForGraph::new(2);
        g.set(0, edge(0, 1, 3));
        g.set(1, edge(1, 0, 4));
        let cycle = g.find_cycle().expect("cycle exists");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&0) && cycle.contains(&1));
    }

    #[test]
    fn three_ring_cycle_is_found_in_order() {
        let mut g = WaitForGraph::new(3);
        g.set(0, edge(0, 2, 1));
        g.set(1, edge(1, 0, 1));
        g.set(2, edge(2, 1, 1));
        let cycle = g.find_cycle().expect("cycle exists");
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn chain_to_finished_rank_has_no_cycle() {
        let mut g = WaitForGraph::new(2);
        g.set(0, RankState::Finished);
        g.set(1, edge(1, 0, 9));
        assert!(g.all_blocked());
        assert!(g.find_cycle().is_none());
        let report = g.deadlock_report().to_string();
        assert!(
            report.contains("rank 1 blocked in recv(src=0, tag=9)"),
            "{report}"
        );
    }

    #[test]
    fn report_names_rank_op_and_tag() {
        let mut g = WaitForGraph::new(2);
        g.set(0, edge(0, 1, 5));
        g.set(1, edge(1, 0, 6));
        let report = g.deadlock_report().to_string();
        assert!(report.contains("wait-for cycle"), "{report}");
        assert!(
            report.contains("rank 0 blocked in recv(src=1, tag=5)"),
            "{report}"
        );
        assert!(
            report.contains("rank 1 blocked in recv(src=0, tag=6)"),
            "{report}"
        );
    }

    #[test]
    fn self_deadlock_is_a_unit_cycle() {
        let mut g = WaitForGraph::new(1);
        g.set(0, edge(0, 0, 2));
        assert_eq!(g.find_cycle(), Some(vec![0]));
    }
}
