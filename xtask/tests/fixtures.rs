//! The lint fixture suite: known-bad snippets must be flagged at the
//! right rule/file/line, known-good snippets must produce zero findings.
//!
//! Fixtures live in `lint_fixtures/` (a subdirectory, so cargo does not
//! compile them as test targets) and are fed to the engine with fake
//! repo-relative paths chosen per scenario — the path decides which rules
//! look at the file.

use xtask::budgets::BudgetTable;
use xtask::{analyze_files, Finding};

fn run(files: &[(&str, &str)], table: &BudgetTable) -> Vec<Finding> {
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    analyze_files(&files, table, true).findings
}

/// 1-based line of the `nth` (0-based) occurrence of `needle` in `src`.
fn line_of(src: &str, needle: &str, nth: usize) -> usize {
    src.lines()
        .enumerate()
        .filter(|(_, l)| l.contains(needle))
        .nth(nth)
        .map(|(i, _)| i + 1)
        .unwrap_or_else(|| panic!("needle {needle:?} (occurrence {nth}) not in fixture"))
}

#[test]
fn bad_wall_clock_in_simulated_tree() {
    let src = include_str!("lint_fixtures/bad_wall_clock.rs");
    let f = run(
        &[("crates/mpisim/src/fixture.rs", src)],
        &BudgetTable::new(),
    );
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(f.len(), 3, "{f:?}");
    assert!(f.iter().all(|x| x.rule == "wall-clock"));
    assert!(f.iter().all(|x| x.file == "crates/mpisim/src/fixture.rs"));
    assert_eq!(
        lines,
        vec![
            line_of(src, "Instant::now", 0),
            line_of(src, "thread::sleep", 0),
            line_of(src, "SystemTime::now", 0),
        ]
    );
}

#[test]
fn bad_wall_clock_reachable_with_chain_and_orphan_silent() {
    let src = include_str!("lint_fixtures/bad_wall_clock_reachable.rs");
    // crates/threads is NOT a simulated tree: only reachability applies
    let f = run(
        &[("crates/threads/src/fixture.rs", src)],
        &BudgetTable::new(),
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "wall-clock");
    assert_eq!(f[0].line, line_of(src, "Instant::now", 0), "helper's read");
    assert!(
        f[0].message.contains("train_rank -> helper"),
        "witness chain missing: {}",
        f[0].message
    );
}

#[test]
fn bad_nondet_iter_three_shapes() {
    let src = include_str!("lint_fixtures/bad_nondet_iter.rs");
    let f = run(&[("crates/core/src/fixture.rs", src)], &BudgetTable::new());
    assert_eq!(f.len(), 3, "{f:?}");
    assert!(f.iter().all(|x| x.rule == "nondet-iter"));
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(
        lines,
        vec![
            line_of(src, "self.slots.iter()", 0),
            line_of(src, "map.values()", 0),
            line_of(src, "for v in set", 0),
        ]
    );
}

#[test]
fn bad_charge_flags_uncharged_loop_only() {
    let src = include_str!("lint_fixtures/bad_charge.rs");
    let f = run(
        &[("crates/core/src/dist/fixture.rs", src)],
        &BudgetTable::new(),
    );
    // exactly one finding: `norm` is uncharged, while `charged_norm`
    // (advance_compute*) and `recovery_norm` (charge_recovery*) both
    // discharge the rule
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "charge-coverage");
    assert_eq!(f[0].line, line_of(src, "for g in &self.grad", 0));
    assert!(f[0].message.contains("Rank::norm"));
    assert!(f[0].message.contains("charge_recovery"));
}

#[test]
fn bad_relaxed_flags_unjustified_site_and_budget() {
    let src = include_str!("lint_fixtures/bad_relaxed.rs");
    let f = run(
        &[("crates/threads/src/fixture.rs", src)],
        &BudgetTable::new(),
    );
    let relaxed: Vec<&Finding> = f.iter().filter(|x| x.rule == "relaxed-ordering").collect();
    assert_eq!(relaxed.len(), 1, "{f:?}");
    assert_eq!(relaxed[0].line, line_of(src, "Ordering::Relaxed);", 0));
    let budget: Vec<&Finding> = f.iter().filter(|x| x.rule == "budget").collect();
    assert_eq!(budget.len(), 1, "{f:?}");
    assert_eq!(budget[0].file, "crates/threads");
    assert_eq!(budget[0].line, 0);
    assert!(budget[0].message.contains("2 `relaxed`"));
    assert_eq!(f.len(), 2, "{f:?}");
}

#[test]
fn bad_scratch_outside_sparse() {
    let src = include_str!("lint_fixtures/bad_scratch.rs");
    let f = run(&[("crates/core/src/fixture.rs", src)], &BudgetTable::new());
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "scratch-hygiene");
    assert_eq!(f[0].line, line_of(src, "ops::dot_scatter", 0));
    // the same file inside the scratch home is clean
    let g = run(
        &[("crates/sparse/src/fixture.rs", src)],
        &BudgetTable::new(),
    );
    assert!(g.is_empty(), "{g:?}");
}

#[test]
fn bad_scratch_pair_outside_sparse() {
    let src = include_str!("lint_fixtures/bad_scratch_pair.rs");
    let f = run(&[("crates/core/src/fixture.rs", src)], &BudgetTable::new());
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "scratch-hygiene");
    assert_eq!(f[0].line, line_of(src, "ops::dot_scatter_pair", 0));
    assert!(
        f[0].message.contains("`dot_scatter_pair`"),
        "{}",
        f[0].message
    );
    assert!(f[0].message.contains("PairPad"), "{}", f[0].message);
    // the same file inside the scratch home is clean
    let g = run(
        &[("crates/sparse/src/fixture.rs", src)],
        &BudgetTable::new(),
    );
    assert!(g.is_empty(), "{g:?}");
}

#[test]
fn bad_budget_ratchets_against_table() {
    let src = include_str!("lint_fixtures/bad_budget.rs");
    let path = "crates/analyze/src/fixture.rs";
    let f = run(&[(path, src)], &BudgetTable::new());
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "budget");
    assert_eq!(f[0].file, "crates/analyze");
    assert!(f[0].message.contains("1 `unwrap`"));
    // granting the budget clears it
    let table = xtask::budgets::parse("[\"crates/analyze\"]\nunwrap = 1\n");
    assert!(run(&[(path, src)], &table).is_empty());
    // an over-generous budget is reported as burn-down debt
    let loose = xtask::budgets::parse("[\"crates/analyze\"]\nunwrap = 3\n");
    let d = run(&[(path, src)], &loose);
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].message.contains("lock it in"));
}

#[test]
fn good_strings_and_comments_are_silent() {
    let src = include_str!("lint_fixtures/good_strings_comments.rs");
    let f = run(
        &[("crates/mpisim/src/fixture.rs", src)],
        &BudgetTable::new(),
    );
    assert!(f.is_empty(), "false positives: {f:?}");
}

#[test]
fn good_cfg_test_is_exempt_everywhere() {
    let src = include_str!("lint_fixtures/good_cfg_test.rs");
    // dist path: D1, D2, D3 and the ratchets all look here — and must
    // all skip the #[cfg(test)] module
    let f = run(
        &[("crates/core/src/dist/fixture.rs", src)],
        &BudgetTable::new(),
    );
    assert!(f.is_empty(), "false positives: {f:?}");
}

#[test]
fn good_justified_hatches_are_honored() {
    let src = include_str!("lint_fixtures/good_justified.rs");
    let f = run(
        &[("crates/core/src/dist/fixture.rs", src)],
        &BudgetTable::new(),
    );
    assert!(f.is_empty(), "false positives: {f:?}");
}

#[test]
fn engine_reproduces_prior_rule_verdicts_on_fixture_mix() {
    // A cross-file scenario: the entry lives in one file, the sin in
    // another, exercising the same path the real tree takes.
    let entry = "pub fn train_rank() { crate::leaf::work(); }\n";
    let leaf = "pub fn work() { std::thread::sleep(std::time::Duration::from_micros(1)); }\n";
    let f = run(
        &[
            ("crates/threads/src/entry.rs", entry),
            ("crates/threads/src/leaf.rs", leaf),
        ],
        &BudgetTable::new(),
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "wall-clock");
    assert_eq!(f[0].file, "crates/threads/src/leaf.rs");
}
