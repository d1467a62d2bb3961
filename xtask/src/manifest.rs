//! The lint manifest: the single source of truth for *what counts as
//! what* across every rule — simulated paths, library roots, simulated
//! entry points, and the identifier vocabularies the heuristic rules key
//! on. Rules import these; nothing else in the engine hard-codes a path.

/// Crates whose `src/` trees count as *simulated* code paths: everything
/// in them runs under the LogGP clock, so the wall-clock ban (D1) and the
/// nondeterministic-iteration ban (D2) apply to all non-test code there,
/// reachable or not.
pub const SIMULATED_PATHS: &[&str] = &["crates/mpisim/src", "crates/core/src", "crates/obs/src"];

/// Roots whose `.rs` files are library code: the budgets ratchet (D4),
/// the relaxed-ordering justification rule, scratch hygiene, and the
/// call-graph index all cover exactly these. `xtask` itself and the CLI
/// binaries under `src/bin` are tools, not libraries.
pub const LIBRARY_ROOTS: &[&str] = &[
    "crates/analyze/src",
    "crates/core/src",
    "crates/datagen/src",
    "crates/mpisim/src",
    "crates/obs/src",
    "crates/sparse/src",
    "crates/threads/src",
    "src/lib.rs",
];

/// Directories whose loops the charge-coverage heuristic (D3) inspects:
/// the distributed solver's hot path, where every loop over gradient
/// state must be paid for through `ComputeCharge`.
pub const DIST_PATHS: &[&str] = &["crates/core/src/dist"];

/// The one tree allowed to call the raw gathers (it owns the
/// scratch-buffer hazard via `ScratchPad` and `PairPad`).
pub const SCRATCH_HOME: &str = "crates/sparse/src";

/// Raw gathers over a dense scratch, each with the pad that wraps it.
pub const SCRATCH_GATHERS: &[(&str, &str)] = &[
    ("dot_scatter", "ScratchPad"),
    ("dot_scatter_pair", "PairPad"),
];

/// Where the per-crate ratchet budgets live, relative to the repo root.
pub const BUDGETS_PATH: &str = "xtask/lint_budgets.toml";

/// A simulated entry point: functions matching `qual::prefix*` (or bare
/// `prefix*` when `qual` is `None`) seed the reachability analysis.
#[derive(Clone, Copy, Debug)]
pub struct EntryPoint {
    /// Impl-type qualifier, when the entry is a method.
    pub qual: Option<&'static str>,
    /// Function-name prefix (`run` matches `run`, `run_report`, …).
    pub prefix: &'static str,
}

/// The simulated entry points. Everything transitively callable from
/// these executes under the simulated clock.
pub const ENTRY_POINTS: &[EntryPoint] = &[
    // mpisim: every Universe::run* variant drives rank closures on the
    // simulated fabric.
    EntryPoint {
        qual: Some("Universe"),
        prefix: "run",
    },
    // core: the distributed trainer's driver front door…
    EntryPoint {
        qual: Some("DistSolver"),
        prefix: "train",
    },
    // …its per-rank body…
    EntryPoint {
        qual: None,
        prefix: "train_rank",
    },
    // …and the fused-sweep phase loop, named explicitly so the hot path
    // stays covered even if the call chain above it is refactored.
    EntryPoint {
        qual: Some("RankState"),
        prefix: "run_phase",
    },
];

/// Wall-clock / host-time reads banned in simulated code (D1). Each entry
/// is a `Type::method` pair matched against qualified call tokens.
pub const WALL_CLOCK_CALLS: &[(&str, &str)] = &[
    ("Instant", "now"),
    ("SystemTime", "now"),
    ("thread", "sleep"),
];

/// Standard hash-container types whose iteration order is
/// nondeterministic (D2). `use … as Alias` renames are folded in by the
/// per-file use-resolution pass.
pub const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods that *iterate* a hash container (order-observing). `get`,
/// `insert`, `remove`, `contains_key`, `len` are order-blind and allowed.
pub const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "drain",
];

/// Tokens that mark an iteration as routed through an ordering step: a
/// sort on the collected result, or a BTree re-collection. Seeing one of
/// these in the same statement (or the statement immediately following,
/// covering the `let v: Vec<_> = m.keys().collect(); v.sort();` idiom)
/// discharges a D2 hit.
pub const ORDERING_TOKENS: &[&str] = &[
    "sorted",
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
];

/// Identifiers naming gradient state in the distributed solver; a loop
/// touching one of these must be dominated by a `ComputeCharge` (D3).
pub const GRAD_IDENTS: &[&str] = &["grad", "gpart", "gtmp"];

/// Prefixes of the functions that charge simulated time. A loop is
/// considered *charged* when its enclosing function calls one of these:
/// `advance_compute*` pays for solver compute on the LogGP clock, and
/// `charge_recovery*` books the driver's recovery-ladder accounting
/// (aborted-attempt waste and backoff).
pub const CHARGE_FN_PREFIXES: &[&str] = &["advance_compute", "charge_recovery"];

/// Justification needles, all matched inside comment tokens on the
/// flagged line or the line(s) just above it.
pub mod hatch {
    /// D1: a deliberate host-clock read (host-side metrics, calibration).
    pub const WALL_CLOCK: &str = "allow-wall-clock:";
    /// D2: hash iteration whose order provably does not reach any output.
    pub const ORDERED: &str = "lint: ordered";
    /// D3: a gradient loop deliberately outside the simulated-cost model.
    pub const UNCHARGED: &str = "lint: uncharged";
    /// Relaxed-ordering justification (within two preceding lines).
    pub const RELAXED: &str = "relaxed:";
}

/// True when `rel_path` lies inside a simulated tree.
pub fn is_simulated(rel_path: &str) -> bool {
    SIMULATED_PATHS.iter().any(|p| rel_path.starts_with(p))
}

/// True when `rel_path` is subject to the D3 charge-coverage heuristic.
pub fn is_dist(rel_path: &str) -> bool {
    DIST_PATHS.iter().any(|p| rel_path.starts_with(p))
}

/// True when `rel_path` may call the raw gathers.
pub fn is_scratch_home(rel_path: &str) -> bool {
    rel_path.starts_with(SCRATCH_HOME)
}

/// Budget key for a file: `crates/<name>` for crate trees, `src` for the
/// facade.
pub fn crate_of(rel_path: &str) -> String {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        match rest.split('/').next() {
            Some(name) => format!("crates/{name}"),
            None => "crates".to_string(),
        }
    } else {
        "src".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_paths_are_library_roots() {
        // reachability runs over the library index; a simulated tree
        // outside it would silently escape analysis
        for p in SIMULATED_PATHS {
            assert!(
                LIBRARY_ROOTS.iter().any(|r| r == p),
                "{p} missing from LIBRARY_ROOTS"
            );
        }
    }

    #[test]
    fn crate_keys() {
        assert_eq!(crate_of("crates/core/src/dist/solver.rs"), "crates/core");
        assert_eq!(crate_of("src/lib.rs"), "src");
    }

    #[test]
    fn path_classifiers() {
        assert!(is_simulated("crates/mpisim/src/comm.rs"));
        assert!(!is_simulated("crates/sparse/src/ops.rs"));
        assert!(is_dist("crates/core/src/dist/solver.rs"));
        assert!(!is_dist("crates/core/src/smo/solver.rs"));
        assert!(is_scratch_home("crates/sparse/src/scratch.rs"));
    }
}
