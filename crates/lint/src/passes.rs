//! The lint passes, run over a [`SourceModel`]: `shared-mut` from the
//! clock roots (`clock`/`try_step`), `horizon-purity` from every
//! `work_horizon`, then `unused-allow` over the suppressions no finding
//! consumed.

use std::collections::BTreeSet;

use crate::model::SourceModel;
use crate::{has_token, Finding, ScannedFile, RULES};

/// Crates whose code is clocked per simulated cycle; horizon purity
/// applies here.
const CLOCKED_CRATES: &[&str] = &["core", "mem", "sim"];

/// Crates holding the clocked boxes themselves. `crates/sim/` is absent:
/// it is the transport layer, whose wires are the one sanctioned piece of
/// state two boxes share.
const BOX_CRATES: &[&str] = &["core", "mem"];

/// Method calls that mutate through `&self` (interior mutability,
/// atomics, statistics): forbidden on the horizon path.
const HORIZON_MUT_CALLS: &[&str] = &[
    ".borrow_mut(",
    ".get_mut(",
    ".set(",
    ".put(",
    ".inc(",
    ".store(",
    "fetch_add(",
    "fetch_sub(",
    ".record(",
    ".observe(",
    ".lock(",
];

fn in_crates(path: &str, crates: &[&str]) -> bool {
    // Matched on the path tail so absolute roots work too.
    crates.iter().any(|k| {
        let needle = format!("crates/{k}/");
        path.starts_with(&needle) || path.contains(&format!("/{needle}"))
    })
}

/// Emits findings, consuming suppressions and recording which were used.
struct Emitter<'m> {
    files: &'m [ScannedFile],
    findings: Vec<Finding>,
    /// (file index, 0-based allow line, rule) of every consumed allow.
    used: BTreeSet<(usize, usize, String)>,
}

impl Emitter<'_> {
    fn emit(&mut self, fi: usize, line: usize, rule: &'static str, message: String) {
        let file = &self.files[fi];
        let mut suppressed = false;
        for l in [Some(line), line.checked_sub(1)].into_iter().flatten() {
            if file.allows.get(&l).is_some_and(|set| set.contains(rule)) {
                self.used.insert((fi, l, rule.to_string()));
                suppressed = true;
            }
        }
        if !suppressed {
            self.findings.push(Finding { file: file.path.clone(), line: line + 1, rule, message });
        }
    }
}

/// Runs every pass and returns the findings sorted by (file, line, rule),
/// one per key: a line reached through two functions (one nested in the
/// other) is reported once.
pub fn run(model: &SourceModel<'_>) -> Vec<Finding> {
    let mut em = Emitter { files: model.files, findings: Vec::new(), used: BTreeSet::new() };

    shared_mut_rule(model, &mut em);
    horizon_rule(model, &mut em);
    unused_allow_rule(model, &mut em);

    let mut findings = em.findings;
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup_by(|a, b| (&a.file, a.line, a.rule) == (&b.file, b.line, b.rule));
    findings
}

/// `shared-mut`: the paper's boxes talk only through signals. State a box
/// reaches from `clock()` through an `Rc<RefCell<…>>` or `Cell<…>` may be
/// shared with another box behind the wires — a channel with no latency,
/// no bandwidth and no verification, whose effect depends on the order
/// the boxes are clocked in.
fn shared_mut_rule(model: &SourceModel<'_>, em: &mut Emitter<'_>) {
    let roots = model.fns_named(&["clock", "try_step"]);
    for &idx in &model.reachable(&roots) {
        let info = &model.fns[idx];
        let file = &model.files[info.file];
        if !in_crates(&file.path, BOX_CRATES) {
            continue;
        }
        let f = &info.func;
        for li in f.body_start..=f.body_end.min(file.lines.len().saturating_sub(1)) {
            let line = &file.lines[li];
            if line.contains(".borrow_mut(")
                || line.contains(".borrow(")
                || has_token(line, "RefCell")
                || has_token(line, "Cell")
            {
                em.emit(
                    info.file,
                    li,
                    "shared-mut",
                    format!(
                        "shared interior mutability on the clock path in `{}`: \
                         boxes talk only through signals, and state reached \
                         through `Rc<RefCell<..>>`/`Cell<..>` is a channel \
                         with no latency, bandwidth or verification; use a \
                         registered signal",
                        f.name
                    ),
                );
            }
        }
    }
}

/// `horizon-purity`: `work_horizon()` answers "when could you next have
/// work?" and the idle-skip fast-forward trusts it to be a pure read —
/// any side effect makes skipped and unskipped runs diverge.
fn horizon_rule(model: &SourceModel<'_>, em: &mut Emitter<'_>) {
    let roots = model.fns_named(&["work_horizon"]);
    for &idx in &roots {
        let info = &model.fns[idx];
        if info.func.signature.contains("&mut self") {
            em.emit(
                info.file,
                info.func.start_line,
                "horizon-purity",
                "`work_horizon` must take `&self`: the idle-skip probe may be \
                 called any number of times without changing the machine"
                    .into(),
            );
        }
    }
    for &idx in &model.reachable(&roots) {
        let info = &model.fns[idx];
        let file = &model.files[info.file];
        if !in_crates(&file.path, CLOCKED_CRATES) {
            continue;
        }
        let f = &info.func;
        for li in f.body_start..=f.body_end.min(file.lines.len().saturating_sub(1)) {
            let line = &file.lines[li];
            let trimmed = line.trim_start();
            let self_write = (trimmed.starts_with("self.") || trimmed.starts_with("*self"))
                && has_assignment(trimmed);
            let mut_call = HORIZON_MUT_CALLS.iter().any(|t| line.contains(t));
            if self_write || mut_call {
                em.emit(
                    info.file,
                    li,
                    "horizon-purity",
                    format!(
                        "side effect in `{}`, reachable from `work_horizon()`: \
                         the horizon probe must not mutate fields, interior \
                         mutability, or statistics (idle-skip replays it \
                         freely)",
                        f.name
                    ),
                );
            }
        }
    }
}

/// Whether the line contains a (possibly compound) assignment operator:
/// `=`, `+=`, …, `<<=`, `>>=`. `==`, `!=`, `<=`, `>=` and `=>` are not
/// assignments.
fn has_assignment(line: &str) -> bool {
    let b = line.as_bytes();
    (0..b.len()).any(|i| {
        let before = |k: usize| i.checked_sub(k).map(|j| b[j]);
        let shift = matches!(before(1), Some(b'<' | b'>')) && before(2) == before(1);
        b[i] == b'='
            && !matches!(b.get(i + 1), Some(b'=' | b'>'))
            && (shift || !matches!(before(1), Some(b'=' | b'!' | b'<' | b'>')))
    })
}

/// `unused-allow`: every suppression must still be earning its keep.
fn unused_allow_rule(model: &SourceModel<'_>, em: &mut Emitter<'_>) {
    let mut stale: Vec<(usize, usize, String)> = Vec::new();
    for (fi, file) in model.files.iter().enumerate() {
        for (&line, rules) in &file.allows {
            for rule in rules {
                if !em.used.contains(&(fi, line, rule.clone())) {
                    stale.push((fi, line, rule.clone()));
                }
            }
        }
    }
    for (fi, line, rule) in stale {
        let message = if RULES.contains(&rule.as_str()) {
            format!("the `{rule}` suppression matches no finding; remove it")
        } else {
            format!("suppression names unknown rule `{rule}`")
        };
        em.emit(fi, line, "unused-allow", message);
    }
}

#[cfg(test)]
mod tests {
    use super::has_assignment;

    #[test]
    fn assignments_include_shifts_but_not_comparisons() {
        for line in ["self.a = 1;", "self.n += 1;", "self.mask <<= 1;", "self.mask >>= 2;"] {
            assert!(has_assignment(line), "{line}");
        }
        for line in ["self.a == 1", "self.a != b", "self.a <= b", "self.a >= b", "x => y"] {
            assert!(!has_assignment(line), "{line}");
        }
    }
}
