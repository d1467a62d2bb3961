//! The determinism rule pack, run over the token index + reachability.
//!
//! | id                | what it catches                                           |
//! |-------------------|-----------------------------------------------------------|
//! | `wall-clock`      | D1: host-clock reads (`Instant::now`, `SystemTime::now`,  |
//! |                   | `thread::sleep`) in simulated trees or any function       |
//! |                   | reachable from a simulated entry point                    |
//! | `nondet-iter`     | D2: `HashMap`/`HashSet` iteration in simulated code with  |
//! |                   | no ordering step and no `// lint: ordered` justification  |
//! | `charge-coverage` | D3: loops over gradient state in `crates/core/src/dist`   |
//! |                   | whose function never charges the simulated clock          |
//! | `budget`          | D4: per-crate unwrap/expect/unsafe/Relaxed ratchet        |
//! | `relaxed-ordering`| `Ordering::Relaxed` without a nearby `// relaxed:` reason |
//! | `scratch-hygiene` | raw `dot_scatter`/`dot_scatter_pair` outside              |
//! |                   | `crates/sparse`                                           |
//!
//! Every per-line rule reads *tokens*, so string literals, comments, raw
//! strings and `#[cfg(test)]` items can never false-positive.

use std::collections::BTreeSet;

use crate::budgets::{self, BudgetTable};
use crate::index::FileIndex;
use crate::lexer::TokKind;
use crate::manifest::{self, hatch};
use crate::reach::Reachability;
use crate::Finding;

/// Tokens that open/close a nesting level, for statement-span scans.
fn depth_delta(text: &str) -> i64 {
    match text {
        "{" | "(" | "[" => 1,
        "}" | ")" | "]" => -1,
        _ => 0,
    }
}

/// Run every rule. Returns the findings plus the observed per-crate
/// ratchet counts (for `--update-budgets` and the JSON report).
pub fn check_all(
    files: &[FileIndex],
    reach: &Reachability,
    budget_table: &BudgetTable,
    enforce_budgets: bool,
) -> (Vec<Finding>, BudgetTable) {
    let mut findings = Vec::new();
    let mut actual = BudgetTable::new();

    for (fi, file) in files.iter().enumerate() {
        let simulated = manifest::is_simulated(&file.path);

        // D1 + D2 run over simulated files (all non-test fns) and over
        // reachable fns anywhere else.
        for (ki, f) in file.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let reachable = reach.is_reachable(fi, ki);
            if simulated || reachable {
                let why = if simulated {
                    None
                } else {
                    Some(reach.chain(fi, ki))
                };
                wall_clock(file, f.body, why, &mut findings);
                nondet_iter(file, ki, why, &mut findings);
            }
        }
        if simulated {
            // module-level tokens of simulated files (outside any fn) are
            // covered too — statics, macro arms, const blocks.
            let mut covered = vec![false; file.toks.len()];
            for f in &file.fns {
                for c in &mut covered[f.body.0..f.body.1.min(file.toks.len())] {
                    *c = true;
                }
            }
            wall_clock_module_level(file, &covered, &mut findings);
        }

        // D3 over the distributed solver tree.
        if manifest::is_dist(&file.path) {
            for f in &file.fns {
                if !f.is_test {
                    charge_coverage(file, f, &mut findings);
                }
            }
        }

        // relaxed-ordering + scratch hygiene + D4 counts over everything.
        relaxed_ordering(file, &mut findings);
        if !manifest::is_scratch_home(&file.path) {
            scratch_hygiene(file, &mut findings);
        }
        count_ratchets(file, &mut actual);
    }

    if enforce_budgets {
        budget_findings(&actual, budget_table, &mut findings);
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup();
    (findings, actual)
}

// ------------------------------------------------------------------ D1

fn wall_clock_hit(file: &FileIndex, j: usize) -> Option<usize> {
    let toks = &file.toks;
    let t = &toks[j];
    if t.kind != TokKind::Ident {
        return None;
    }
    let prev = file.prev_code(j)?;
    if !toks[prev].is_punct("::") {
        return None;
    }
    let q = file.prev_code(prev)?;
    if toks[q].kind != TokKind::Ident {
        return None;
    }
    let qual = file
        .uses
        .get(&toks[q].text)
        .map_or(toks[q].text.as_str(), String::as_str);
    manifest::WALL_CLOCK_CALLS
        .iter()
        .any(|&(ty, m)| qual == ty && t.text == m)
        .then_some(t.line)
}

fn push_wall_clock(file: &FileIndex, line: usize, why: Option<&str>, out: &mut Vec<Finding>) {
    if file.justified(line, 1, hatch::WALL_CLOCK) {
        return;
    }
    let via = match why {
        Some(chain) => format!(" (reachable from a simulated entry point: {chain})"),
        None => String::new(),
    };
    out.push(Finding {
        file: file.path.clone(),
        line,
        rule: "wall-clock",
        message: format!(
            "host-clock read in simulated code{via}; use the simulated clock, or \
             justify with a `// {}` comment",
            hatch::WALL_CLOCK
        ),
    });
}

fn wall_clock(file: &FileIndex, body: (usize, usize), why: Option<&str>, out: &mut Vec<Finding>) {
    for j in body.0..body.1.min(file.toks.len()) {
        if let Some(line) = wall_clock_hit(file, j) {
            push_wall_clock(file, line, why, out);
        }
    }
}

fn wall_clock_module_level(file: &FileIndex, covered: &[bool], out: &mut Vec<Finding>) {
    for j in 0..file.toks.len() {
        if covered[j] || file.test_mask[j] {
            continue;
        }
        if let Some(line) = wall_clock_hit(file, j) {
            push_wall_clock(file, line, None, out);
        }
    }
}

// ------------------------------------------------------------------ D2

/// Local bindings (and parameters) of `f` whose type or initializer
/// names a hash container.
fn hash_locals(file: &FileIndex, ki: usize) -> BTreeSet<String> {
    let f = &file.fns[ki];
    let toks = &file.toks;
    let mut out = BTreeSet::new();

    // parameters: `name : …Hash…` up to `,` / `)` in the signature
    let mut j = f.sig.0;
    while j + 1 < f.sig.1 {
        if toks[j].kind == TokKind::Ident && toks[j + 1].is_punct(":") && !toks[j].is_ident("self")
        {
            let name = toks[j].text.clone();
            let mut d = 0i64;
            let mut m = j + 2;
            while m < f.sig.1 {
                let u = &toks[m];
                if u.is_code() {
                    d += depth_delta(&u.text);
                    if d < 0 || (d == 0 && u.is_punct(",")) {
                        break;
                    }
                    if u.kind == TokKind::Ident && file.hash_names.contains(&u.text) {
                        out.insert(name.clone());
                    }
                }
                m += 1;
            }
            j = m;
            continue;
        }
        j += 1;
    }

    // lets: a `let` statement whose tokens (to the `;`) name a hash type
    let mut j = f.body.0;
    while j < f.body.1 {
        if toks[j].is_ident("let") {
            let mut name = None;
            let mut is_hash = false;
            let mut d = 0i64;
            let mut m = j + 1;
            while m < f.body.1 {
                let u = &toks[m];
                if u.is_code() {
                    if name.is_none() && u.kind == TokKind::Ident && !u.is_ident("mut") {
                        name = Some(u.text.clone());
                    }
                    d += depth_delta(&u.text);
                    if d < 0 || (d == 0 && u.is_punct(";")) {
                        break;
                    }
                    if u.kind == TokKind::Ident && file.hash_names.contains(&u.text) {
                        is_hash = true;
                    }
                }
                m += 1;
            }
            if is_hash {
                if let Some(n) = name {
                    out.insert(n);
                }
            }
            j = m;
            continue;
        }
        j += 1;
    }
    out
}

/// The statement around token `j` plus the one after it, as a token
/// range. "Statement" is delimited by `;` / `{` / `}` at the local
/// nesting depth of `j`.
fn statement_window(file: &FileIndex, j: usize, lo: usize, hi: usize) -> (usize, usize) {
    let toks = &file.toks;
    // backwards to the previous `;`/`{`/`}` at depth 0 relative to j
    let mut start = j;
    let mut d = 0i64;
    while start > lo {
        let t = &toks[start - 1];
        if t.is_code() {
            d -= depth_delta(&t.text); // scanning backwards inverts the sign
            if d < 0 {
                break;
            }
            if d == 0 && (t.is_punct(";") || t.is_punct("{") || t.is_punct("}")) {
                break;
            }
        }
        start -= 1;
    }
    // forwards across this statement and the next
    let mut end = j;
    let mut d = 0i64;
    let mut semis = 0;
    while end < hi {
        let t = &toks[end];
        if t.is_code() {
            d += depth_delta(&t.text);
            if d < 0 {
                break;
            }
            if d == 0 && t.is_punct(";") {
                semis += 1;
                if semis == 2 {
                    break;
                }
            }
        }
        end += 1;
    }
    (start, end.min(hi))
}

fn ordered_nearby(file: &FileIndex, j: usize, lo: usize, hi: usize) -> bool {
    let (s, e) = statement_window(file, j, lo, hi);
    file.toks[s..e]
        .iter()
        .any(|t| t.kind == TokKind::Ident && manifest::ORDERING_TOKENS.contains(&t.text.as_str()))
}

fn nondet_iter(file: &FileIndex, ki: usize, why: Option<&str>, out: &mut Vec<Finding>) {
    let f = &file.fns[ki];
    let toks = &file.toks;
    let locals = hash_locals(file, ki);
    let is_hash_name = |name: &str| locals.contains(name) || file.hash_fields.contains(name);
    let mut hit_lines = BTreeSet::new();

    for j in f.body.0..f.body.1.min(toks.len()) {
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        // receiver.iter_method( …
        let is_iter_call = manifest::HASH_ITER_METHODS.contains(&t.text.as_str())
            && toks.get(j + 1).is_some_and(|n| n.is_punct("("))
            && file.prev_code(j).is_some_and(|p| toks[p].is_punct("."))
            && file
                .prev_code(file.prev_code(j).unwrap_or(j))
                .is_some_and(|r| toks[r].kind == TokKind::Ident && is_hash_name(&toks[r].text));
        // for x in &container { … } — container named directly, no method
        let in_for_header = is_hash_name(&t.text) && {
            // walk back to `for` without crossing `{`/`;`
            let mut k = j;
            let mut found = false;
            while let Some(p) = file.prev_code(k) {
                let u = &toks[p];
                if u.is_punct("{") || u.is_punct(";") || u.is_punct("}") {
                    break;
                }
                if u.is_ident("for") {
                    found = true;
                    break;
                }
                if u.is_punct(".") {
                    break; // it's a receiver; the method-call arm decides
                }
                k = p;
            }
            found
        };
        if !(is_iter_call || in_for_header) {
            continue;
        }
        if file.justified(t.line, 1, hatch::ORDERED) || ordered_nearby(file, j, f.body.0, f.body.1)
        {
            continue;
        }
        if hit_lines.insert(t.line) {
            let via = match why {
                Some(chain) => format!(" (reachable from a simulated entry point: {chain})"),
                None => String::new(),
            };
            out.push(Finding {
                file: file.path.clone(),
                line: t.line,
                rule: "nondet-iter",
                message: format!(
                    "hash-container iteration in simulated code{via}: iteration order is \
                     nondeterministic; route through a sort/BTree step, or justify with \
                     `// {}`",
                    hatch::ORDERED
                ),
            });
        }
    }
}

// ------------------------------------------------------------------ D3

fn charge_coverage(file: &FileIndex, f: &crate::index::FnItem, out: &mut Vec<Finding>) {
    let toks = &file.toks;
    let (lo, hi) = f.body;
    let hi = hi.min(toks.len());
    let fn_charges = toks[lo..hi].iter().any(|t| {
        t.kind == TokKind::Ident
            && manifest::CHARGE_FN_PREFIXES
                .iter()
                .any(|p| t.text.starts_with(p))
    });
    if fn_charges {
        return;
    }
    let mut j = lo;
    let mut flagged_lines = BTreeSet::new();
    while j < hi {
        if !toks[j].is_ident("for") || file.next_code(j + 1).is_some_and(|n| toks[n].is_punct("<"))
        {
            j += 1;
            continue;
        }
        // loop extent: first `{` at paren/bracket depth 0, brace-matched
        let mut d = 0i64;
        let mut open = None;
        let mut m = j + 1;
        while m < hi {
            let u = &toks[m];
            if u.is_code() {
                match u.text.as_str() {
                    "(" | "[" => d += 1,
                    ")" | "]" => d -= 1,
                    "{" if d == 0 => {
                        open = Some(m);
                        break;
                    }
                    ";" if d == 0 => break,
                    _ => {}
                }
            }
            m += 1;
        }
        let Some(open) = open else {
            j = m + 1;
            continue;
        };
        let close = {
            let mut depth = 0i64;
            let mut c = open;
            while c < hi {
                if toks[c].is_punct("{") {
                    depth += 1;
                } else if toks[c].is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                c += 1;
            }
            c
        };
        let touches_grad = toks[j..=close.min(hi - 1)]
            .iter()
            .any(|t| t.kind == TokKind::Ident && manifest::GRAD_IDENTS.contains(&t.text.as_str()));
        let line = toks[j].line;
        if touches_grad && !file.justified(line, 1, hatch::UNCHARGED) && flagged_lines.insert(line)
        {
            out.push(Finding {
                file: file.path.clone(),
                line,
                rule: "charge-coverage",
                message: format!(
                    "loop over gradient state in `{}` with no `{}*` charge in the \
                     function: simulated time will under-report this work; charge it, \
                     or justify with `// {}`",
                    f.qualified(),
                    manifest::CHARGE_FN_PREFIXES.join("*`/`"),
                    hatch::UNCHARGED
                ),
            });
        }
        j = open + 1; // descend: nested loops are inspected separately
    }
}

// --------------------------------------------------- relaxed + scratch

/// `Ordering::Relaxed` token position, or `None`.
fn relaxed_hit(file: &FileIndex, j: usize) -> Option<usize> {
    let toks = &file.toks;
    if !toks[j].is_ident("Relaxed") {
        return None;
    }
    let prev = file.prev_code(j)?;
    if !toks[prev].is_punct("::") {
        return None;
    }
    let q = file.prev_code(prev)?;
    toks[q].is_ident("Ordering").then_some(j)
}

fn relaxed_ordering(file: &FileIndex, out: &mut Vec<Finding>) {
    for j in 0..file.toks.len() {
        if file.test_mask[j] || relaxed_hit(file, j).is_none() {
            continue;
        }
        let line = file.toks[j].line;
        if !file.justified(line, 2, hatch::RELAXED) {
            out.push(Finding {
                file: file.path.clone(),
                line,
                rule: "relaxed-ordering",
                message: "Ordering::Relaxed without a `// relaxed:` justification within \
                          the two preceding lines"
                    .to_string(),
            });
        }
    }
}

fn scratch_hygiene(file: &FileIndex, out: &mut Vec<Finding>) {
    let toks = &file.toks;
    for j in 0..toks.len() {
        let Some(&(raw, pad)) = manifest::SCRATCH_GATHERS
            .iter()
            .find(|(raw, _)| toks[j].is_ident(raw))
        else {
            continue;
        };
        if file.test_mask[j] || !toks.get(j + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        out.push(Finding {
            file: file.path.clone(),
            line: toks[j].line,
            rule: "scratch-hygiene",
            message: format!(
                "raw `{raw}` against a hand-managed dense scratch; go through \
                 `shrinksvm_sparse::{pad}` (touched-list clearing + all-zero debug \
                 assertion) instead"
            ),
        });
    }
}

// ------------------------------------------------------------------ D4

fn count_ratchets(file: &FileIndex, actual: &mut BudgetTable) {
    let toks = &file.toks;
    let key = manifest::crate_of(&file.path);
    let mut bump = |counter: &str| {
        *actual
            .entry(key.clone())
            .or_default()
            .entry(counter.to_string())
            .or_insert(0) += 1;
    };
    for j in 0..toks.len() {
        if file.test_mask[j] {
            continue;
        }
        let t = &toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect"
                if toks.get(j + 1).is_some_and(|n| n.is_punct("("))
                    && file.prev_code(j).is_some_and(|p| toks[p].is_punct(".")) =>
            {
                bump(&t.text.clone());
            }
            "unsafe" => bump("unsafe"),
            "Relaxed" if relaxed_hit(file, j).is_some() => bump("relaxed"),
            _ => {}
        }
    }
    // ensure every analyzed crate has an entry so burn-down of a whole
    // crate (budget listed, zero sites left) is still reported
    actual.entry(key).or_default();
}

fn budget_findings(actual: &BudgetTable, table: &BudgetTable, out: &mut Vec<Finding>) {
    let crates: BTreeSet<&String> = actual.keys().chain(table.keys()).collect();
    for crate_key in crates {
        for &counter in budgets::COUNTERS {
            let used = actual
                .get(crate_key.as_str())
                .and_then(|c| c.get(counter))
                .copied()
                .unwrap_or(0);
            let budget = budgets::budget_of(table, crate_key, counter);
            if used > budget {
                out.push(Finding {
                    file: crate_key.clone(),
                    line: 0,
                    rule: "budget",
                    message: format!(
                        "{used} `{counter}` site(s) outside tests, budget permits {budget}; \
                         remove them or justify and re-freeze with \
                         `cargo xtask lint --update-budgets`"
                    ),
                });
            } else if used < budget {
                out.push(Finding {
                    file: crate_key.clone(),
                    line: 0,
                    rule: "budget",
                    message: format!(
                        "`{counter}` debt went down ({budget} -> {used}) — lock it in: \
                         run `cargo xtask lint --update-budgets`"
                    ),
                });
            }
        }
    }
}
