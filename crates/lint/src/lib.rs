//! Source determinism linter for the ATTILA workspace.
//!
//! The architecture verifier in `attila-sim` checks the *elaborated*
//! design; this crate checks the *source* for the bug classes that have
//! actually bitten the simulator — most famously the PR-2 texture-fill
//! nondeterminism, where iterating a `HashSet` issued memory requests in
//! hash order and made cycle counts vary run to run.
//!
//! It is deliberately not a compiler plugin: a dependency-free line and
//! token scanner that strips comments and strings, skips `#[cfg(test)]`
//! blocks, extracts functions, and walks a name-based call graph rooted
//! at the `clock`/`try_step` methods to decide which code is on the
//! simulated path. That keeps it fast (whole workspace in milliseconds)
//! and buildable with zero external crates, at the cost of being a
//! heuristic: it over-approximates reachability and matches callees by
//! name. False positives are expected and handled by inline
//! suppressions:
//!
//! ```text
//! // lint:allow(clock-unwrap) invariant: slots reserved above
//! mem.submit(req).expect("slots reserved");
//! ```
//!
//! A suppression applies to its own line and the line directly below it.
//! Suppressions are themselves linted: an allow that never matches a
//! finding is reported as `unused-allow` so stale escapes cannot rot.
//!
//! # Rules
//!
//! | rule             | severity | fires on |
//! |------------------|----------|----------|
//! | `hash-iter`      | deny     | `HashMap`/`HashSet` tokens in non-test simulator code |
//! | `wall-clock`     | deny     | `Instant::now` / `SystemTime` / `std::time::` tokens |
//! | `clock-unwrap`   | warn     | `.unwrap()` / `.expect(` / `panic!` in clock-reachable functions that return `Result` |
//! | `as-cast`        | warn     | narrowing `as` casts on lines doing address arithmetic in clock-reachable functions |
//! | `hot-alloc`      | deny     | growable-container construction (`VecDeque::new`) and `String` building (`format!`, `.to_string()`, `String::from`, `.to_owned()`) in clock-reachable functions |
//! | `shared-mut`     | deny     | `RefCell`/`Cell` tokens or `.borrow()`/`.borrow_mut()` calls in clock-reachable functions of the clocked box crates |
//! | `state-coverage` | deny     | a field of a struct with a checkpoint state declaration (an `impl_json_state!` list or a `save_state`/`load_state` pair) that is neither declared nor annotated `// state: derived` / `// state: transient` |
//! | `state-pair`     | deny     | a field in one function of a hand-written `save_state`/`load_state` pair but not the other (checkpoint drift) |
//! | `state-annotation`| warn    | a `// state:` annotation whose kind is not `derived` or `transient` |
//! | `horizon-purity` | deny     | field mutation, interior mutability or statistic writes reachable from any `work_horizon()` |
//! | `unused-allow`   | warn     | a `lint:allow(...)` suppression that no longer matches any finding |
//!
//! The v2 passes (`state-*`, `horizon-purity`) run on a lightweight
//! struct/impl-aware model of the workspace ([`model`]) and are
//! documented in detail in `DESIGN.md` §21. There is no `unsafe` rule:
//! every library crate root carries `#![forbid(unsafe_code)]`, which the
//! compiler checks (and without `unsafe` a `static mut` cannot be used).
//!
//! The `hot-alloc` rule guards the zero-allocation signal transport: the
//! per-cycle path must never build strings (signal names are interned
//! handles) or spin up growable queues (wires preallocate their rings at
//! bind time). Construction-time code (`new`, `with_name`, binders) is
//! not clock-reachable and stays free to allocate.
//!
//! The `shared-mut` rule guards the paper's model — boxes talk only
//! through signals: a box whose `clock()` reaches an `Rc<RefCell<…>>` or
//! `Cell<…>` may share state with another box behind the wires, a channel
//! with no latency, no bandwidth and no verification, whose effect
//! depends on the order the boxes are clocked in. The rule is scoped to
//! `crates/core/` and `crates/mem/` — `crates/sim/` is the transport
//! layer, and its wires are the one sanctioned piece of state two boxes
//! share.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

pub mod model;
pub mod passes;

/// Every rule identifier the linter can emit. `lint:allow(...)` of a
/// name outside this list is reported as an unknown-rule suppression.
pub const RULES: &[&str] = &[
    "hash-iter",
    "wall-clock",
    "clock-unwrap",
    "as-cast",
    "hot-alloc",
    "shared-mut",
    "state-coverage",
    "state-pair",
    "state-annotation",
    "horizon-purity",
    "unused-allow",
];

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Must be fixed (or explicitly suppressed): the linter exits nonzero.
    Deny,
    /// Suspicious; fails the run only under `--deny-warnings`.
    Warn,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Deny => write!(f, "deny"),
            Severity::Warn => write!(f, "warn"),
        }
    }
}

/// One lint finding, pointing at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, usable in `lint:allow(...)`.
    pub rule: &'static str,
    /// Deny or warn.
    pub severity: Severity,
    /// Why the line was flagged.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}:{}: {}",
            self.severity, self.rule, self.file, self.line, self.message
        )
    }
}

/// A source file ready for linting: comments and string contents blanked,
/// test modules removed, suppression annotations collected.
#[derive(Debug)]
pub struct ScannedFile {
    /// Repo-relative path.
    pub path: String,
    /// The stripped source, one entry per physical line.
    pub lines: Vec<String>,
    /// `lint:allow(rule)` annotations by 0-based line number.
    pub allows: BTreeMap<usize, BTreeSet<String>>,
    /// `state: <kind>` field annotations by 0-based line number. The kind
    /// is the first word after the colon (`derived`, `transient`, ...).
    pub state_notes: BTreeMap<usize, String>,
}

impl ScannedFile {
    /// Strips `source` and removes `#[cfg(test)]` items.
    pub fn new(path: &str, source: &str) -> Self {
        let mut s = strip(source);
        blank_test_items(&mut s.lines);
        ScannedFile {
            path: path.to_string(),
            lines: s.lines,
            allows: s.allows,
            state_notes: s.state_notes,
        }
    }

    /// Whether `rule` is suppressed on 0-based line `line` (annotation on
    /// the same line or the one above).
    pub fn allowed(&self, line: usize, rule: &str) -> bool {
        let hit = |l: usize| self.allows.get(&l).is_some_and(|set| set.contains(rule));
        hit(line) || (line > 0 && hit(line - 1))
    }
}

/// Collector for the stripped view of one source file.
struct Stripped {
    lines: Vec<String>,
    allows: BTreeMap<usize, BTreeSet<String>>,
    state_notes: BTreeMap<usize, String>,
}

/// Records every `lint:allow(a, b)` occurrence in a comment's text.
fn record_allows(text: &str, line: usize, allows: &mut BTreeMap<usize, BTreeSet<String>>) {
    let mut rest = text;
    while let Some(pos) = rest.find("lint:allow(") {
        let after = &rest[pos + "lint:allow(".len()..];
        let Some(end) = after.find(')') else { break };
        for rule in after[..end].split(',') {
            allows.entry(line).or_default().insert(rule.trim().to_string());
        }
        rest = &after[end + 1..];
    }
}

/// Processes one comment's text: suppressions and `state:` annotations.
/// Doc comments (`///`, `//!`) are documentation, not
/// annotations — a rendered example like `lint:allow(rule)` in rustdoc
/// must not suppress anything. `state:` must lead the comment (after
/// `/`, `*`, `!` decoration) so prose like "machine state: all of it"
/// is not an annotation; the kind is the first word after the colon.
fn record_comment(text: &str, line: usize, s: &mut Stripped) {
    if text.starts_with("///") || text.starts_with("//!") {
        return;
    }
    record_allows(text, line, &mut s.allows);
    let lead = text.trim_start_matches(['/', '*', '!', ' ', '\t']);
    if let Some(rest) = lead.strip_prefix("state:") {
        let kind: String = rest.trim_start().chars().take_while(|&c| is_ident_char(c)).collect();
        if !kind.is_empty() {
            s.state_notes.insert(line, kind);
        }
    }
}

/// Blanks comments and string/char-literal contents, preserving the line
/// structure, and collects suppression/state annotations from comment
/// text.
fn strip(source: &str) -> Stripped {
    let chars: Vec<char> = source.chars().collect();
    let mut s = Stripped {
        lines: Vec::new(),
        allows: BTreeMap::new(),
        state_notes: BTreeMap::new(),
    };
    let mut cur = String::new();
    let mut line = 0usize;
    let mut i = 0usize;
    let newline = |s: &mut Stripped, cur: &mut String, line: &mut usize| {
        s.lines.push(std::mem::take(cur));
        *line += 1;
    };
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '/' if next == Some('/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                record_comment(&text, line, &mut s);
            }
            '/' if next == Some('*') => {
                let mut depth = 1usize;
                let mut text = String::new();
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else if chars[i] == '\n' {
                        record_comment(&text, line, &mut s);
                        text.clear();
                        newline(&mut s, &mut cur, &mut line);
                        i += 1;
                    } else {
                        text.push(chars[i]);
                        i += 1;
                    }
                }
                record_comment(&text, line, &mut s);
            }
            '"' => {
                // Ordinary string literal: keep the quotes, blank the rest.
                cur.push('"');
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            cur.push('"');
                            i += 1;
                            break;
                        }
                        '\n' => {
                            newline(&mut s, &mut cur, &mut line);
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            'r' if matches!(next, Some('"') | Some('#')) && {
                // Raw string: `r` + zero or more `#` + `"`. Anything else
                // (e.g. the raw identifier `r#fn`) is left alone.
                let mut j = i + 1;
                while chars.get(j) == Some(&'#') {
                    j += 1;
                }
                chars.get(j) == Some(&'"')
            } =>
            {
                let mut hashes = 0usize;
                let mut j = i + 1;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                cur.push('"');
                i = j + 1; // past the opening quote
                'raw: while i < chars.len() {
                    if chars[i] == '"' {
                        let mut k = 0;
                        while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            cur.push('"');
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    if chars[i] == '\n' {
                        newline(&mut s, &mut cur, &mut line);
                    }
                    i += 1;
                }
            }
            '\'' => {
                // Char literal or lifetime. `'\x'`/`'x'` are literals;
                // `'ident` (no closing quote right after) is a lifetime.
                if next == Some('\\') {
                    cur.push('\'');
                    i += 2; // consume the backslash
                    while i < chars.len() && chars[i] != '\'' {
                        i += 1;
                    }
                    cur.push('\'');
                    i += 1;
                } else if chars.get(i + 2) == Some(&'\'') {
                    cur.push_str("''");
                    i += 3;
                } else {
                    cur.push('\'');
                    i += 1;
                }
            }
            '\n' => {
                newline(&mut s, &mut cur, &mut line);
                i += 1;
            }
            _ => {
                cur.push(c);
                i += 1;
            }
        }
    }
    if !cur.is_empty() {
        s.lines.push(cur);
    }
    s
}

/// Blanks every item annotated `#[cfg(test)]` — in practice the test
/// modules at the bottom of each file — so test-only code is exempt from
/// every rule without needing suppressions.
fn blank_test_items(lines: &mut [String]) {
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].trim_start().starts_with("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Blank from the attribute through the end of the item: either
        // the matching close brace of the first block, or a bare `;`
        // (e.g. `#[cfg(test)] use ...;`) before any brace opens.
        let mut depth = 0i64;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            let mut done = false;
            for ch in lines[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth <= 0 {
                            done = true;
                        }
                    }
                    ';' if !opened && depth == 0 => done = true,
                    _ => {}
                }
            }
            lines[j].clear();
            j += 1;
            if done {
                break;
            }
        }
        i = j;
    }
}

/// One extracted function: name, signature text, and 0-based body line
/// range (inclusive).
#[derive(Debug)]
pub struct Function {
    /// The function's bare name (no path, no generics).
    pub name: String,
    /// Everything from the `fn` keyword to the opening brace.
    pub signature: String,
    /// 0-based line of the `fn` keyword.
    pub start_line: usize,
    /// 0-based line of the body's opening brace.
    pub body_start: usize,
    /// 0-based line of the body's closing brace.
    pub body_end: usize,
    /// The stripped body text.
    pub body: String,
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Extracts every function (with a body) from a stripped file.
pub fn extract_functions(lines: &[String]) -> Vec<Function> {
    let text: String = lines.join("\n");
    let chars: Vec<char> = text.chars().collect();
    let mut line_of = Vec::with_capacity(chars.len() + 1);
    let mut ln = 0usize;
    for &c in &chars {
        line_of.push(ln);
        if c == '\n' {
            ln += 1;
        }
    }
    line_of.push(ln);

    let mut fns = Vec::new();
    let mut i = 0usize;
    while i + 1 < chars.len() {
        let boundary_before = i == 0 || !is_ident_char(chars[i - 1]);
        if !(boundary_before
            && chars[i] == 'f'
            && chars[i + 1] == 'n'
            && chars.get(i + 2).is_some_and(|c| c.is_whitespace()))
        {
            i += 1;
            continue;
        }
        let kw = i;
        i += 2;
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < chars.len() && is_ident_char(chars[i]) {
            i += 1;
        }
        if i == name_start {
            continue; // `fn` not followed by a name (e.g. fn-pointer type)
        }
        let name: String = chars[name_start..i].iter().collect();
        // Parameter list: skip to the first `(` and match its parens.
        while i < chars.len() && chars[i] != '(' {
            i += 1;
        }
        let mut paren = 0i64;
        while i < chars.len() {
            match chars[i] {
                '(' => paren += 1,
                ')' => {
                    paren -= 1;
                    if paren == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        // Body or trait-declaration semicolon.
        while i < chars.len() && chars[i] != '{' && chars[i] != ';' {
            i += 1;
        }
        if i >= chars.len() || chars[i] == ';' {
            continue;
        }
        let body_open = i;
        let mut brace = 0i64;
        let mut j = body_open;
        while j < chars.len() {
            match chars[j] {
                '{' => brace += 1,
                '}' => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let body_close = j.min(chars.len() - 1);
        fns.push(Function {
            name,
            signature: chars[kw..body_open].iter().collect(),
            start_line: line_of[kw],
            body_start: line_of[body_open],
            body_end: line_of[body_close],
            body: chars[body_open..=body_close].iter().collect(),
        });
        // Continue inside the body so nested functions are found too.
        i = body_open + 1;
    }
    fns
}

/// Method and function names too ubiquitous to carry call-graph signal:
/// following them would mark the whole workspace clock-reachable.
const CALLEE_STOPLIST: &[&str] = &[
    "new", "default", "len", "is_empty", "clone", "push", "pop", "get", "get_mut", "insert",
    "remove", "contains", "contains_key", "iter", "iter_mut", "into_iter", "next", "collect",
    "map", "filter", "and_then", "or_else", "unwrap", "unwrap_or", "unwrap_or_else",
    "unwrap_or_default", "expect", "ok", "err", "min", "max", "abs", "from", "into", "to_string",
    "format", "write", "writeln", "push_back", "push_front", "pop_front", "pop_back", "front",
    "back", "entry", "or_insert", "or_default", "drain", "extend", "sort", "sort_unstable",
    "sort_by", "sort_by_key", "cmp", "eq", "ne", "value", "inc", "add", "take", "replace",
    "as_ref", "as_mut", "borrow", "borrow_mut", "to_vec", "chars", "split", "trim",
    "starts_with", "ends_with", "enumerate", "zip", "rev", "any", "all", "count", "sum", "fold",
    "last", "first", "saturating_sub", "saturating_add", "wrapping_add", "wrapping_sub",
    "checked_sub", "checked_add", "div_ceil", "clamp", "floor", "ceil", "round", "sqrt", "powi",
    "is_some", "is_none", "as_str", "as_slice", "as_bytes", "parse", "join", "find", "position",
    "retain", "truncate", "resize", "fill", "copy_from_slice", "flat_map", "chunks", "windows",
    "some", "vec", "assert", "assert_eq", "assert_ne", "debug_assert", "matches", "drop", "set",
];

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "move", "unsafe", "let", "in",
    "as", "impl", "where", "pub", "use", "mod", "struct", "enum", "trait", "type", "const",
    "static", "ref", "mut", "break", "continue", "crate", "super", "self", "Self", "dyn",
    "async", "await", "box",
];

/// Names of functions called from `body`: identifiers directly followed
/// by `(`, minus keywords, macros and the stoplist.
pub fn callees(body: &str) -> BTreeSet<String> {
    let chars: Vec<char> = body.chars().collect();
    let mut out = BTreeSet::new();
    let mut i = 0usize;
    while i < chars.len() {
        if !is_ident_char(chars[i]) || chars[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && is_ident_char(chars[i]) {
            i += 1;
        }
        let name: String = chars[start..i].iter().collect();
        let direct_call = chars.get(i) == Some(&'(');
        if direct_call
            && !KEYWORDS.contains(&name.as_str())
            && !CALLEE_STOPLIST.contains(&name.as_str())
        {
            out.insert(name);
        }
    }
    out
}

/// Whether `needle` occurs in `hay` as a whole token (not as a fragment
/// of a longer identifier).
pub fn has_token(hay: &str, needle: &str) -> bool {
    let mut rest = hay;
    let mut offset = 0usize;
    while let Some(pos) = rest.find(needle) {
        let abs = offset + pos;
        let before_ok = abs == 0
            || !hay[..abs].chars().next_back().is_some_and(is_ident_char);
        let after = abs + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..].chars().next().is_some_and(is_ident_char);
        if before_ok && after_ok {
            return true;
        }
        offset = abs + needle.len();
        rest = &hay[offset..];
    }
    false
}

/// Whether the line performs a narrowing integer `as` cast.
pub(crate) fn has_narrowing_cast(line: &str) -> bool {
    ["u8", "u16", "u32", "i8", "i16", "i32"]
        .iter()
        .any(|ty| {
            let pat = format!("as {ty}");
            let mut rest = line;
            let mut offset = 0usize;
            while let Some(pos) = rest.find(&pat) {
                let abs = offset + pos;
                let before_ok = abs == 0
                    || !line[..abs].chars().next_back().is_some_and(is_ident_char);
                let after = abs + pat.len();
                let after_ok = after >= line.len()
                    || !line[after..].chars().next().is_some_and(is_ident_char);
                if before_ok && after_ok {
                    return true;
                }
                offset = abs + pat.len();
                rest = &line[offset..];
            }
            false
        })
}

/// Lints a set of scanned files as one unit (the call graph crosses file
/// and crate boundaries). Findings come back sorted by (file, line).
///
/// This is a facade over [`model::SourceModel::build`] plus
/// [`passes::run`]; callers that want the model itself (e.g. for tests
/// asserting on reachability) can invoke those directly.
pub fn lint(files: &[ScannedFile]) -> Vec<Finding> {
    passes::run(&model::SourceModel::build(files))
}

/// Directories that hold non-simulated code: tests and benches may use
/// hash containers and wall clocks freely, and `crates/bench` *is* the
/// wall-clock harness.
pub const SKIP_DIRS: &[&str] = &["target", ".git", "tests", "benches", "examples", "bench"];

fn collect_files(root: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(root)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            collect_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads and strips every `.rs` file under `root` (skipping
/// [`SKIP_DIRS`]) in sorted, deterministic order. Paths in the returned
/// files are relative to `root`.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<ScannedFile>> {
    let mut paths = Vec::new();
    collect_files(root, &mut paths)?;
    let mut files = Vec::new();
    for path in &paths {
        let source = std::fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path);
        files.push(ScannedFile::new(&rel.display().to_string(), &source));
    }
    Ok(files)
}

/// Renders findings plus a one-line summary, identically on stdout and
/// in `--report` files so CI artifacts match the log. Shared by the
/// `attila-lint` binary and `attila lint --source`.
pub fn render_report(findings: &[Finding], files: usize, deny_warnings: bool) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    let denies = findings.iter().filter(|f| f.severity == Severity::Deny).count();
    let warns = findings.len() - denies;
    out.push_str(&format!(
        "attila-lint: {files} file(s), {denies} deny, {warns} warn{}\n",
        if deny_warnings { " (--deny-warnings)" } else { "" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> ScannedFile {
        ScannedFile::new("test.rs", src)
    }

    fn lint_src(src: &str) -> Vec<Finding> {
        lint(&[scan(src)])
    }

    #[test]
    fn strip_blanks_comments_and_strings() {
        let f = scan("let a = \"HashMap\"; // HashMap here\nlet b = 1;\n");
        assert_eq!(f.lines.len(), 2);
        assert!(!f.lines[0].contains("HashMap"), "{:?}", f.lines[0]);
        assert!(f.lines[0].contains("let a = \"\";"), "{:?}", f.lines[0]);
    }

    #[test]
    fn strip_handles_block_comments_and_raw_strings() {
        let f = scan("/* HashMap\n spans lines */ let x = r#\"HashSet\"#;\n");
        assert!(!f.lines.concat().contains("HashMap"));
        assert!(!f.lines.concat().contains("HashSet"));
        assert_eq!(f.lines.len(), 2);
    }

    #[test]
    fn strip_distinguishes_lifetimes_from_char_literals() {
        let f = scan("fn f<'a>(x: &'a str) -> char { 'x' }\nlet nl = '\\n';\n");
        assert!(f.lines[0].contains("<'a>"), "{:?}", f.lines[0]);
        assert!(!f.lines[0].contains('x') || f.lines[0].contains("x:"), "{:?}", f.lines[0]);
    }

    #[test]
    fn allows_are_recorded_and_apply_to_next_line() {
        let f = scan("// lint:allow(hash-iter, wall-clock)\nlet x = 1;\n");
        assert!(f.allowed(0, "hash-iter"));
        assert!(f.allowed(1, "hash-iter"));
        assert!(f.allowed(1, "wall-clock"));
        assert!(!f.allowed(2, "hash-iter"));
    }

    #[test]
    fn cfg_test_items_are_blanked() {
        let src = "use std::collections::BTreeMap;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashMap;\n\
                       fn helper() { let m: HashMap<u8, u8> = HashMap::new(); }\n\
                   }\n";
        let f = scan(src);
        assert!(!f.lines.concat().contains("HashMap"));
        assert!(f.lines[0].contains("BTreeMap"));
    }

    #[test]
    fn cfg_test_use_line_only_blanks_itself() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let f = scan(src);
        assert!(f.lines[2].contains("live"));
    }

    #[test]
    fn functions_are_extracted_with_bodies() {
        let f = scan("fn alpha(x: u8) -> u8 {\n    beta(x)\n}\nfn beta(x: u8) -> u8 { x }\n");
        let fns = extract_functions(&f.lines);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "alpha");
        assert_eq!(fns[0].body_start, 0);
        assert_eq!(fns[0].body_end, 2);
        assert!(callees(&fns[0].body).contains("beta"));
    }

    #[test]
    fn hash_iter_fires_and_suppression_silences_it() {
        let hits = lint_src("use std::collections::HashMap;\n");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "hash-iter");
        assert_eq!(hits[0].severity, Severity::Deny);
        assert_eq!(hits[0].line, 1);

        let ok = lint_src("// lint:allow(hash-iter)\nuse std::collections::HashMap;\n");
        assert!(ok.is_empty(), "{ok:?}");
        let ok2 = lint_src("use std::collections::HashMap; // lint:allow(hash-iter)\n");
        assert!(ok2.is_empty(), "{ok2:?}");
    }

    #[test]
    fn wall_clock_fires() {
        let hits = lint_src("fn t() { let s = std::time::Instant::now(); }\n");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "wall-clock");
    }

    #[test]
    fn clock_unwrap_fires_only_on_reachable_fallible_fns() {
        // Reachable via clock() and returns Result: flagged.
        let src = "fn clock(&mut self) -> Result<(), E> { helper()?; Ok(()) }\n\
                   fn helper() -> Result<(), E> {\n\
                       let v = risky().unwrap();\n\
                       Ok(())\n\
                   }\n";
        let hits = lint_src(src);
        assert_eq!(hits.iter().filter(|h| h.rule == "clock-unwrap").count(), 1);
        assert_eq!(hits[0].line, 3);

        // Not reachable from clock(): clean.
        let src2 = "fn lonely() -> Result<(), E> { risky().unwrap(); Ok(()) }\n";
        assert!(lint_src(src2).is_empty());

        // Reachable but infallible signature: the panic is the error
        // path, not a swallowed one.
        let src3 = "fn clock(&mut self) { infallible(); }\n\
                    fn infallible() { risky().unwrap(); }\n";
        assert!(lint_src(src3).is_empty());
    }

    #[test]
    fn as_cast_fires_on_address_lines_in_clock_path() {
        let src = "fn clock(&mut self) { let a = tile_addr(1) as u32; }\n\
                   fn tile_addr(x: u64) -> u64 { x }\n";
        let hits = lint_src(src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "as-cast");
        assert_eq!(hits[0].severity, Severity::Warn);

        // Widening casts and non-address lines are fine.
        let src2 = "fn clock(&mut self) {\n\
                        let a = addr as u64;\n\
                        let b = x as u32;\n\
                    }\n";
        assert!(lint_src(src2).is_empty());
    }

    #[test]
    fn hot_alloc_fires_in_clock_path_only() {
        let sim = |src: &str| lint(&[ScannedFile::new("crates/sim/src/signal.rs", src)]);

        // Clock-reachable allocation in simulator code: flagged, deny.
        let src = "fn clock(&mut self) { helper(); }\n\
                   fn helper() {\n\
                       let q: VecDeque<u32> = VecDeque::new();\n\
                       let s = format!(\"{q:?}\");\n\
                   }\n";
        let hits = sim(src);
        let alloc: Vec<_> = hits.iter().filter(|h| h.rule == "hot-alloc").collect();
        assert_eq!(alloc.len(), 2, "{hits:?}");
        assert!(alloc.iter().all(|h| h.severity == Severity::Deny));

        // Same code off the clock path: clean.
        assert!(sim("fn bind() { let q: VecDeque<u32> = VecDeque::new(); }\n")
            .iter()
            .all(|h| h.rule != "hot-alloc"));

        // Outside the simulator crates (trace compilation): clean.
        assert!(lint_src(src).iter().all(|h| h.rule != "hot-alloc"));

        // The escape hatch still works.
        let src3 = "fn clock(&mut self) {\n\
                        // lint:allow(hot-alloc) cold error path\n\
                        let s = name.to_string();\n\
                    }\n";
        assert!(sim(src3).iter().all(|h| h.rule != "hot-alloc"));
    }

    #[test]
    fn shared_mut_fires_in_clocked_box_crates_only() {
        let core = |src: &str| lint(&[ScannedFile::new("crates/core/src/gpu.rs", src)]);

        // Clock-reachable RefCell traffic in a box crate: flagged, deny.
        let src = "fn clock(&mut self) { helper(); }\n\
                   fn helper() {\n\
                       let q = shared.borrow_mut();\n\
                       let c: Cell<u64> = Cell::default();\n\
                   }\n";
        let hits = core(src);
        let shared: Vec<_> = hits.iter().filter(|h| h.rule == "shared-mut").collect();
        assert_eq!(shared.len(), 2, "{hits:?}");
        assert!(shared.iter().all(|h| h.severity == Severity::Deny));

        // Identifier boundaries: `UnsafeCell` is not `Cell`.
        let src2 = "fn clock(&mut self) { let s: &UnsafeCell<u8> = cells; }\n";
        assert!(core(src2).iter().all(|h| h.rule != "shared-mut"));

        // Same code off the clock path (bind time): clean.
        assert!(core("fn bind() { let q = shared.borrow_mut(); }\n")
            .iter()
            .all(|h| h.rule != "shared-mut"));

        // The transport crate owns the wires, the sanctioned shared state.
        let sim = lint(&[ScannedFile::new(
            "crates/sim/src/signal.rs",
            "fn clock(&mut self) { let q = lane.borrow_mut(); }\n",
        )]);
        assert!(sim.iter().all(|h| h.rule != "shared-mut"));

        // The escape hatch still works.
        let src3 = "fn clock(&mut self) {\n\
                        // lint:allow(shared-mut) private to this box\n\
                        let q = lane.borrow_mut();\n\
                    }\n";
        assert!(core(src3).iter().all(|h| h.rule != "shared-mut"));
    }

    #[test]
    fn call_graph_crosses_files() {
        let a = ScannedFile::new(
            "a.rs",
            "fn clock() -> Result<(), E> { remote_helper(); Ok(()) }\n",
        );
        let b = ScannedFile::new(
            "b.rs",
            "fn remote_helper() -> Result<(), E> { x.expect(\"boom\"); Ok(()) }\n",
        );
        let hits = lint(&[a, b]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].file, "b.rs");
        assert_eq!(hits[0].rule, "clock-unwrap");
    }

    #[test]
    fn findings_are_sorted_and_deduped() {
        let src = "use std::collections::{HashMap, HashSet};\n\
                   fn t() { let x = std::time::Instant::now(); }\n";
        let hits = lint_src(src);
        assert_eq!(hits.len(), 2);
        assert!(hits[0].line <= hits[1].line);
    }

    #[test]
    fn display_formats_like_a_compiler() {
        let f = Finding {
            file: "crates/core/src/texunit.rs".into(),
            line: 16,
            rule: "hash-iter",
            severity: Severity::Deny,
            message: "nope".into(),
        };
        assert_eq!(f.to_string(), "deny[hash-iter] crates/core/src/texunit.rs:16: nope");
    }
}
