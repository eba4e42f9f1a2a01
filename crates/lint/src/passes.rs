//! The lint passes, run over a [`SourceModel`].
//!
//! Rules fall into four groups:
//!
//! * whole-file scans (`hash-iter`, `wall-clock`),
//! * clock-reachability rules rooted at `clock`/`try_step`
//!   (`clock-unwrap`, `as-cast`, `hot-alloc`, `shared-mut`),
//! * horizon-reachability rules rooted at `work_horizon`
//!   (`horizon-purity`),
//! * checkpoint coverage over struct fields (`state-coverage`,
//!   `state-pair`, `state-annotation`).
//!
//! Every suppression consumed by a finding is recorded; the final
//! `unused-allow` pass warns about the rest.

use std::collections::BTreeSet;

use crate::model::SourceModel;
use crate::{has_narrowing_cast, has_token, is_ident_char, Finding, ScannedFile, Severity, RULES};

/// Crates whose code is clocked per simulated cycle; the allocation rule
/// applies here.
const CLOCKED_CRATES: &[&str] = &["core", "mem", "sim"];

/// Crates holding the clocked boxes themselves. `crates/sim/` is absent:
/// it is the transport layer, whose wires are the one sanctioned piece of
/// state two boxes share.
const BOX_CRATES: &[&str] = &["core", "mem"];

/// `state:` annotation kinds that exempt a field from checkpoint
/// coverage: `derived` (rebuilt at elaboration or from other state),
/// `transient` (empty/meaningless at the quiescent checkpoint
/// boundary), `external` (serialized by a different component — the
/// annotation should say which).
const EXEMPT_KINDS: &[&str] = &["derived", "transient", "external"];

/// `state:` annotation kinds that end an exempt section and restore the
/// coverage requirement.
const RESET_KINDS: &[&str] = &["saved", "checkpointed"];

/// Field types that are wiring, not architectural state: ports, signal
/// endpoints, statistics and configuration are rebuilt at elaboration
/// and never checkpointed.
const WIRING_TYPES: &[&str] = &[
    "PortSender",
    "PortReceiver",
    "SignalWriter",
    "SignalReader",
    "Counter",
    "RunningCounter",
    "Gauge",
    "StatsRegistry",
    "TraceSink",
    "FaultInjector",
    "SignalName",
];

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

fn in_crate(path: &str, krate: &str) -> bool {
    // Matched on the path tail so absolute roots work too.
    let needle = format!("crates/{krate}/");
    path.starts_with(&needle) || path.contains(&format!("/{needle}"))
}

fn in_crates(path: &str, crates: &[&str]) -> bool {
    crates.iter().any(|k| in_crate(path, k))
}

/// Emits findings, consuming suppressions and recording which were used.
struct Emitter<'m> {
    files: &'m [ScannedFile],
    findings: Vec<Finding>,
    /// (file index, 0-based allow line, rule) of every consumed allow.
    used: BTreeSet<(usize, usize, String)>,
}

impl Emitter<'_> {
    fn emit(
        &mut self,
        fi: usize,
        line: usize,
        rule: &'static str,
        severity: Severity,
        message: String,
    ) {
        let file = &self.files[fi];
        let mut suppressed = false;
        for l in [Some(line), line.checked_sub(1)].into_iter().flatten() {
            if file.allows.get(&l).is_some_and(|set| set.contains(rule)) {
                self.used.insert((fi, l, rule.to_string()));
                suppressed = true;
            }
        }
        if !suppressed {
            self.findings.push(Finding {
                file: file.path.clone(),
                line: line + 1,
                rule,
                severity,
                message,
            });
        }
    }
}

/// Runs every pass and returns the findings sorted by (file, line, rule).
pub fn run(model: &SourceModel<'_>) -> Vec<Finding> {
    let mut em = Emitter { files: model.files, findings: Vec::new(), used: BTreeSet::new() };

    whole_file_rules(model, &mut em);
    clock_rules(model, &mut em);
    horizon_rules(model, &mut em);
    state_rules(model, &mut em);
    unused_allow_rule(model, &mut em);

    let mut findings = em.findings;
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup();
    findings
}

fn whole_file_rules(model: &SourceModel<'_>, em: &mut Emitter<'_>) {
    for (fi, file) in model.files.iter().enumerate() {
        for (li, line) in file.lines.iter().enumerate() {
            if has_token(line, "HashMap") || has_token(line, "HashSet") {
                em.emit(
                    fi,
                    li,
                    "hash-iter",
                    Severity::Deny,
                    "hash containers iterate in nondeterministic order; use \
                     BTreeMap/BTreeSet in simulator code"
                        .into(),
                );
            }
            if line.contains("Instant::now")
                || has_token(line, "SystemTime")
                || line.contains("std::time::")
            {
                em.emit(
                    fi,
                    li,
                    "wall-clock",
                    Severity::Deny,
                    "wall-clock reads make simulated timing depend on host speed".into(),
                );
            }
        }
    }
}

fn clock_rules(model: &SourceModel<'_>, em: &mut Emitter<'_>) {
    let roots = model.fns_named(&["clock", "try_step"]);
    for &idx in &model.reachable(&roots) {
        let info = &model.fns[idx];
        let file = &model.files[info.file];
        let f = &info.func;
        let fallible = f.signature.contains("Result<");
        for li in f.body_start..=f.body_end.min(file.lines.len().saturating_sub(1)) {
            let line = &file.lines[li];
            if fallible
                && (line.contains(".unwrap()")
                    || line.contains(".expect(")
                    || line.contains("panic!")
                    || line.contains("unreachable!"))
            {
                em.emit(
                    info.file,
                    li,
                    "clock-unwrap",
                    Severity::Warn,
                    format!(
                        "`{}` returns Result but this line panics instead of \
                         propagating the error",
                        f.name
                    ),
                );
            }
            if line.contains("addr") && has_narrowing_cast(line) {
                em.emit(
                    info.file,
                    li,
                    "as-cast",
                    Severity::Warn,
                    format!(
                        "narrowing `as` cast in address arithmetic in `{}` can \
                         silently truncate",
                        f.name
                    ),
                );
            }
            // Scoped to the clocked simulator crates: the name-matched
            // call graph over-approximates into trace-compilation code
            // (`attila-gl`, the shader assembler) that shares function
            // names with clock-path helpers but never runs per cycle.
            if in_crates(&file.path, CLOCKED_CRATES)
                && (line.contains("VecDeque::new(")
                    || line.contains("format!(")
                    || line.contains(".to_string()")
                    || line.contains("String::from(")
                    || line.contains(".to_owned()"))
            {
                em.emit(
                    info.file,
                    li,
                    "hot-alloc",
                    Severity::Deny,
                    format!(
                        "allocation on the clock path in `{}`: growable queues \
                         and string building belong at bind time (signal names \
                         are interned; wires preallocate their rings)",
                        f.name
                    ),
                );
            }
            if in_crates(&file.path, BOX_CRATES)
                && (line.contains(".borrow_mut(")
                    || line.contains(".borrow(")
                    || has_token(line, "RefCell")
                    || has_token(line, "Cell"))
            {
                em.emit(
                    info.file,
                    li,
                    "shared-mut",
                    Severity::Deny,
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
fn horizon_rules(model: &SourceModel<'_>, em: &mut Emitter<'_>) {
    let roots = model.fns_named(&["work_horizon"]);
    for &idx in &roots {
        let info = &model.fns[idx];
        if info.func.signature.contains("&mut self") {
            em.emit(
                info.file,
                info.func.start_line,
                "horizon-purity",
                Severity::Deny,
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
                    Severity::Deny,
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

/// Whether the line contains a (possibly compound) assignment operator.
/// `==`, `!=`, `<=`, `>=` and `=>` are not assignments; `<<=`/`>>=` are
/// missed (documented caveat — they read as `<=`/`>=` to this scan).
fn has_assignment(line: &str) -> bool {
    let chars: Vec<char> = line.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '=' {
            continue;
        }
        let prev = if i > 0 { chars[i - 1] } else { ' ' };
        let next = chars.get(i + 1).copied().unwrap_or(' ');
        if next == '=' || next == '>' {
            continue;
        }
        if matches!(prev, '=' | '!' | '<' | '>') {
            continue;
        }
        return true;
    }
    false
}

/// `state-coverage` / `state-pair` / `state-annotation`: every field of
/// a checkpoint participant must be declared persistent or carry a
/// `state:` annotation saying why not. A participant is a type that
/// carries a state declaration: an `impl_json_state!` field list (one
/// token body that is saver *and* loader, so it cannot drift) or a
/// hand-written `save_state`/`load_state` pair on the type itself.
fn state_rules(model: &SourceModel<'_>, em: &mut Emitter<'_>) {
    for s in &model.structs {
        let file = &model.files[s.file];
        if !in_crates(&file.path, BOX_CRATES) {
            continue;
        }
        let own = |name: &'static str| {
            model
                .fns
                .iter()
                .filter(move |f| f.func.name == name && f.owner.as_deref() == Some(&s.name))
                .map(move |f| (format!("{}::{name}", s.name), f.func.body.as_str()))
        };
        let lists = model.state_lists.iter().filter(|(owner, _)| *owner == s.name);
        let mut paths: Vec<(String, &str)> =
            lists.map(|(_, body)| ("its state list".to_string(), body.as_str())).collect();
        if own("save_state").next().is_some() && own("load_state").next().is_some() {
            paths.extend(own("save_state").chain(own("load_state")));
        }
        if paths.is_empty() {
            continue;
        }

        // Validate every `state:` annotation inside the struct span.
        let span_end = s.fields.last().map_or(s.line, |f| f.line);
        for (&nl, kind) in file.state_notes.range(s.line..=span_end) {
            if !EXEMPT_KINDS.contains(&kind.as_str()) && !RESET_KINDS.contains(&kind.as_str()) {
                em.emit(
                    s.file,
                    nl,
                    "state-annotation",
                    Severity::Warn,
                    format!(
                        "unknown state annotation kind `{kind}`; expected one of \
                         derived, transient, external, saved, checkpointed"
                    ),
                );
            }
        }

        for field in &s.fields {
            if is_wiring(&field.ty) {
                continue;
            }
            if let Some(kind) = field_note(file, s.line, field.line) {
                if EXEMPT_KINDS.contains(&kind) {
                    continue;
                }
            }
            let missing: Vec<&str> = paths
                .iter()
                .filter(|(_, body)| !has_token(body, &field.name))
                .map(|(label, _)| label.as_str())
                .collect();
            if missing.is_empty() {
                continue;
            }
            if missing.len() == paths.len() {
                em.emit(
                    s.file,
                    field.line,
                    "state-coverage",
                    Severity::Deny,
                    format!(
                        "field `{}` of `{}` is not checkpointed: add it to the \
                         type's state declaration, or annotate it `// state: \
                         transient` / `// state: derived` with a reason",
                        field.name, s.name
                    ),
                );
            } else {
                em.emit(
                    s.file,
                    field.line,
                    "state-pair",
                    Severity::Deny,
                    format!(
                        "field `{}` of `{}` is missing from {} but present on the \
                         other checkpoint paths — save and restore have drifted",
                        field.name,
                        s.name,
                        missing.join(", ")
                    ),
                );
            }
        }
    }
}

/// Token-splits a type text and reports whether any token is a wiring
/// type (ports, signals, stats, config): elaboration-time plumbing, not
/// architectural state.
fn is_wiring(ty: &str) -> bool {
    let mut rest = ty;
    while !rest.is_empty() {
        let start = rest.find(|c: char| is_ident_char(c));
        let Some(start) = start else { break };
        let end = rest[start..]
            .find(|c: char| !is_ident_char(c))
            .map_or(rest.len(), |e| start + e);
        let tok = &rest[start..end];
        if WIRING_TYPES.contains(&tok) || tok.ends_with("Config") {
            return true;
        }
        rest = &rest[end..];
    }
    false
}

/// Resolves the `state:` annotation governing a field: a trailing
/// annotation on the field's own line wins; otherwise the nearest
/// standalone (comment-only) `state:` line above it inside the struct
/// opens a section that covers every following field until the next
/// `state:` line.
fn field_note(file: &ScannedFile, struct_line: usize, field_line: usize) -> Option<&str> {
    if let Some(kind) = file.state_notes.get(&field_line) {
        return Some(kind);
    }
    let mut section: Option<&str> = None;
    for (&nl, kind) in file.state_notes.range(struct_line..field_line) {
        let standalone = file.lines.get(nl).is_none_or(|l| l.trim().is_empty());
        if standalone {
            section = Some(kind);
        }
    }
    section
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
            format!("suppression `lint:allow({rule})` matches no finding; remove it")
        } else {
            format!("suppression names unknown rule `{rule}`")
        };
        em.emit(fi, line, "unused-allow", Severity::Warn, message);
    }
}
