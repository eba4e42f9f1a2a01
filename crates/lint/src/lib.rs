//! Source linter for the ATTILA workspace: the architecture rules Rust
//! cannot check.
//!
//! The compiler and clippy carry every guarantee they can prove. A
//! checkpoint field list that misses a field is a compile error
//! (`attila_json::impl_json_state!`); hash-ordered containers and
//! wall-clock reads fail `cargo clippy -- -D warnings` through the
//! workspace `clippy.toml`. What is left is the paper's model itself —
//! boxes talk only through signals, and the idle-skip scheduler's horizon
//! probe has no side effects — which no type checker sees, because it is
//! a property of *which code runs per cycle*.
//!
//! The linter is a dependency-free line and token scanner, not a compiler
//! plugin: it strips comments and strings, skips `#[cfg(test)]` items,
//! extracts functions, and walks a name-matched call graph from the
//! `clock`/`try_step` and `work_horizon` methods ([`model`]). Callees are
//! matched by bare name, so reachability over-approximates; a false
//! positive is silenced in place by a comment naming the rule and saying
//! why the code is safe, which applies to its own line and the line below:
//!
//! ```text
//! // lint:allow(shared-mut) the trace sink is a write-only observer, not a channel to another box
//! ```
//!
//! # Rules
//!
//! | rule             | fires on |
//! |------------------|----------|
//! | `shared-mut`     | `RefCell`/`Cell` tokens or `.borrow()`/`.borrow_mut()` calls in clock-reachable functions of the clocked box crates (`crates/core`, `crates/mem`) |
//! | `horizon-purity` | a `work_horizon` taking `&mut self`, or a field write, interior mutability or statistic update reachable from one |
//! | `unused-allow`   | a suppression that matches no finding, or names no rule |
//!
//! Every finding fails the run. `shared-mut` is scoped to the box crates:
//! `crates/sim/` is the transport layer, and its wires are the one
//! sanctioned piece of state two boxes share.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

pub mod model;
pub mod passes;

/// Every rule identifier the linter can emit. A suppression naming
/// anything else is reported as `unused-allow`.
pub const RULES: &[&str] = &["shared-mut", "horizon-purity", "unused-allow"];

/// One lint finding, pointing at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, usable in a suppression.
    pub rule: &'static str,
    /// Why the line was flagged.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error[{}] {}:{}: {}", self.rule, self.file, self.line, self.message)
    }
}

/// A source file ready for linting: comments and string contents blanked,
/// test modules removed, suppressions collected.
#[derive(Debug)]
pub struct ScannedFile {
    /// Repo-relative path.
    pub path: String,
    /// The stripped source, one entry per physical line.
    pub lines: Vec<String>,
    /// Suppressed rules by 0-based line number.
    pub allows: BTreeMap<usize, BTreeSet<String>>,
}

impl ScannedFile {
    /// Strips `source` and removes `#[cfg(test)]` items.
    pub fn new(path: &str, source: &str) -> Self {
        let mut file = strip(source);
        file.path = path.to_string();
        blank_test_items(&mut file.lines);
        file
    }
}

/// Records every `lint:allow(a, b)` in a comment's text. Doc comments
/// (`///`, `//!`) are documentation: a rendered example of a suppression
/// must not suppress anything.
fn record_allows(text: &str, line: usize, allows: &mut BTreeMap<usize, BTreeSet<String>>) {
    if text.starts_with("///") || text.starts_with("//!") {
        return;
    }
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

/// Blanks comments and string/char-literal contents, preserving the line
/// structure, and collects suppressions from comment text.
fn strip(source: &str) -> ScannedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut s = ScannedFile { path: String::new(), lines: Vec::new(), allows: BTreeMap::new() };
    let mut cur = String::new();
    let mut line = 0usize;
    let mut i = 0usize;
    let newline = |s: &mut ScannedFile, cur: &mut String, line: &mut usize| {
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
                record_allows(&text, line, &mut s.allows);
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
                        record_allows(&text, line, &mut s.allows);
                        text.clear();
                        newline(&mut s, &mut cur, &mut line);
                        i += 1;
                    } else {
                        text.push(chars[i]);
                        i += 1;
                    }
                }
                record_allows(&text, line, &mut s.allows);
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

fn is_ident_char(c: char) -> bool {
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

/// Lints a set of scanned files as one unit (the call graph crosses file
/// and crate boundaries). Findings come back sorted by (file, line).
pub fn check(files: &[ScannedFile]) -> Vec<Finding> {
    passes::run(&model::SourceModel::build(files))
}

/// Directories that hold no simulated code: tests, benches, examples and
/// the measurement harnesses of `crates/bench`.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> ScannedFile {
        ScannedFile::new("test.rs", src)
    }

    fn core(src: &str) -> Vec<Finding> {
        check(&[ScannedFile::new("crates/core/src/gpu.rs", src)])
    }

    #[test]
    fn strip_blanks_comments_and_strings() {
        let f = scan("let a = \"RefCell\"; // RefCell here\nlet b = 1;\n");
        assert_eq!(f.lines.len(), 2);
        assert!(!f.lines[0].contains("RefCell"), "{:?}", f.lines[0]);
        assert!(f.lines[0].contains("let a = \"\";"), "{:?}", f.lines[0]);
    }

    #[test]
    fn strip_handles_block_comments_and_raw_strings() {
        let f = scan("/* RefCell\n spans lines */ let x = r#\"Cell\"#;\n");
        assert!(!f.lines.concat().contains("Cell"));
        assert_eq!(f.lines.len(), 2);
    }

    #[test]
    fn strip_distinguishes_lifetimes_from_char_literals() {
        let f = scan("fn f<'a>(x: &'a str) -> char { 'x' }\nlet nl = '\\n';\n");
        assert!(f.lines[0].contains("<'a>"), "{:?}", f.lines[0]);
        assert!(!f.lines[0].contains('x') || f.lines[0].contains("x:"), "{:?}", f.lines[0]);
    }

    #[test]
    fn allows_are_recorded_from_comments_but_not_doc_comments() {
        let f = scan(
            "// lint:allow(shared-mut, horizon-purity)\nlet x = 1;\n/// lint:allow(shared-mut)\n",
        );
        let rules: Vec<&String> = f.allows[&0].iter().collect();
        assert_eq!(rules, ["horizon-purity", "shared-mut"]);
        assert_eq!(f.allows.len(), 1, "{:?}", f.allows);
    }

    #[test]
    fn an_allow_covers_its_own_line_and_the_next_only() {
        // Trailing, on the offending line: silenced, and not stale.
        let same_line = core("fn clock(&mut self) { s.borrow(); } // lint:allow(shared-mut) why\n");
        assert!(same_line.is_empty(), "{same_line:?}");

        // Two lines above: the finding stands and the allow is stale.
        let hits = core("// lint:allow(shared-mut) why\n\nfn clock(&mut self) { s.borrow(); }\n");
        let got: Vec<_> = hits.iter().map(|h| (h.line, h.rule)).collect();
        assert_eq!(got, [(1, "unused-allow"), (3, "shared-mut")]);
    }

    #[test]
    fn findings_are_sorted_and_deduped() {
        // Files given in reverse path order. `step` is nested in `clock`,
        // so its line is reached twice; `peek`'s line breaks two rules.
        let mem = ScannedFile::new(
            "crates/mem/src/b.rs",
            "fn clock() { fn step() { let q = s.borrow(); } step(); }\n",
        );
        let core = ScannedFile::new(
            "crates/core/src/a.rs",
            "fn work_horizon(&self) { self.peek() }\n\
             fn clock() { peek(); }\n\
             fn peek(&self) { self.c.borrow_mut(); }\n",
        );
        let hits = check(&[mem, core]);
        let got: Vec<_> = hits.iter().map(|h| (h.file.as_str(), h.line, h.rule)).collect();
        assert_eq!(
            got,
            [
                ("crates/core/src/a.rs", 3, "horizon-purity"),
                ("crates/core/src/a.rs", 3, "shared-mut"),
                ("crates/mem/src/b.rs", 1, "shared-mut"),
            ]
        );
    }

    #[test]
    fn cfg_test_items_are_blanked() {
        let src = "use std::collections::BTreeMap;\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::cell::RefCell;\n\
                       fn clock() { let m: RefCell<u8> = RefCell::new(0); }\n\
                   }\n";
        let f = scan(src);
        assert!(!f.lines.concat().contains("RefCell"));
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
    fn shared_mut_fires_in_clocked_box_crates_only() {
        // Clock-reachable RefCell traffic in a box crate: flagged.
        let src = "fn clock(&mut self) { helper(); }\n\
                   fn helper() {\n\
                       let q = shared.borrow_mut();\n\
                       let c: Cell<u64> = Cell::default();\n\
                   }\n";
        let hits = core(src);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits.iter().all(|h| h.rule == "shared-mut"));

        // Identifier boundaries: `UnsafeCell` is not `Cell`.
        assert!(core("fn clock(&mut self) { let s: &UnsafeCell<u8> = cells; }\n").is_empty());

        // Same code off the clock path (bind time): clean.
        assert!(core("fn bind() { let q = shared.borrow_mut(); }\n").is_empty());

        // The transport crate owns the wires, the sanctioned shared state.
        let sim = check(&[ScannedFile::new(
            "crates/sim/src/signal.rs",
            "fn clock(&mut self) { let q = lane.borrow_mut(); }\n",
        )]);
        assert!(sim.is_empty(), "{sim:?}");
    }

    #[test]
    fn call_graph_crosses_files() {
        let a = ScannedFile::new("crates/core/src/a.rs", "fn clock() { remote_helper(); }\n");
        let b = ScannedFile::new(
            "crates/mem/src/b.rs",
            "fn remote_helper() { let v = state.borrow(); }\n",
        );
        let hits = check(&[a, b]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].file.as_str(), hits[0].rule), ("crates/mem/src/b.rs", "shared-mut"));
    }

    #[test]
    fn display_formats_like_a_compiler() {
        let f = Finding {
            file: "crates/core/src/texunit.rs".into(),
            line: 16,
            rule: "shared-mut",
            message: "nope".into(),
        };
        assert_eq!(f.to_string(), "error[shared-mut] crates/core/src/texunit.rs:16: nope");
    }
}
