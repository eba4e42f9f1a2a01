//! A lightweight struct/impl-aware model of the workspace source.
//!
//! The same token-scanner philosophy as the rest of the linter — no full
//! parser, no type checking — but enough structure for whole-program
//! passes: which structs exist and what fields they declare, which
//! functions exist and which `impl` block owns them, and a name-matched
//! call graph with generic reachability queries.
//!
//! Soundness caveats (documented in DESIGN.md §21): calls are matched by
//! bare name, so reachability over-approximates across same-named
//! methods; field/serializer coverage is matched by token, so a local
//! variable shadowing a field name counts as coverage; macro-generated
//! items are invisible. The passes are tuned so over-approximation errs
//! toward false positives on safety rules (suppressible inline) and
//! false negatives on coverage rules (caught by the runtime
//! differentials the linter merely front-runs).

use std::collections::{BTreeMap, BTreeSet};

use crate::{callees, extract_functions, is_ident_char, Function, ScannedFile};

/// One function plus its location and owning `impl` type, if any.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into the scanned-file slice.
    pub file: usize,
    /// The innermost `impl` block's type name containing this function
    /// (`impl Streamer` and `impl Debug for Streamer` both own as
    /// `Streamer`), or `None` for free functions.
    pub owner: Option<String>,
    /// The extracted function.
    pub func: Function,
}

/// One declared field of a braced struct.
#[derive(Debug)]
pub struct FieldInfo {
    /// Field name.
    pub name: String,
    /// The field's type text (everything after the `:`), whitespace
    /// included — matched by token, never parsed.
    pub ty: String,
    /// 0-based line of the field name.
    pub line: usize,
}

/// One braced struct and its declared fields. Tuple and unit structs are
/// not modeled (no named fields to cover).
#[derive(Debug)]
pub struct StructInfo {
    /// Index into the scanned-file slice.
    pub file: usize,
    /// Struct name.
    pub name: String,
    /// 0-based line of the `struct` keyword.
    pub line: usize,
    /// Declared fields in source order.
    pub fields: Vec<FieldInfo>,
}

/// The whole-workspace source model: every function with its impl owner,
/// every braced struct with its fields, every state list, and a name index
/// for call-graph walks.
pub struct SourceModel<'a> {
    /// The scanned files the model was built from.
    pub files: &'a [ScannedFile],
    /// Every extracted function.
    pub fns: Vec<FnInfo>,
    /// Every braced struct.
    pub structs: Vec<StructInfo>,
    /// Every `impl_json_state!(Type …)` invocation, as `(Type, the tokens
    /// after it)`: the field list that is the type's checkpoint saver
    /// *and* loader.
    pub state_lists: Vec<(String, String)>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl<'a> SourceModel<'a> {
    /// Builds the model. Cost is one extra scan per file on top of what
    /// `lint()` already did — still milliseconds for the workspace.
    pub fn build(files: &'a [ScannedFile]) -> Self {
        let mut fns = Vec::new();
        let mut structs = Vec::new();
        let mut state_lists = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            let impls = extract_impls(&file.lines);
            for func in extract_functions(&file.lines) {
                let owner = impls
                    .iter()
                    .filter(|b| (b.start..=b.end).contains(&func.start_line))
                    .min_by_key(|b| b.end - b.start)
                    .map(|b| b.owner.clone());
                fns.push(FnInfo { file: fi, owner, func });
            }
            structs.extend(extract_structs(fi, &file.lines));
            state_lists.extend(extract_state_lists(&file.lines));
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            by_name.entry(f.func.name.clone()).or_default().push(idx);
        }
        SourceModel { files, fns, structs, state_lists, by_name }
    }

    /// Indices of every function with one of the given bare names.
    pub fn fns_named(&self, names: &[&str]) -> Vec<usize> {
        let mut out: Vec<usize> = names
            .iter()
            .filter_map(|n| self.by_name.get(*n))
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out
    }

    /// The set of functions reachable from `roots` through the
    /// name-matched call graph (roots included).
    pub fn reachable(&self, roots: &[usize]) -> BTreeSet<usize> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue: Vec<usize> = roots.to_vec();
        while let Some(idx) = queue.pop() {
            if !seen.insert(idx) {
                continue;
            }
            for callee in callees(&self.fns[idx].func.body) {
                if let Some(targets) = self.by_name.get(&callee) {
                    for &t in targets {
                        if !seen.contains(&t) {
                            queue.push(t);
                        }
                    }
                }
            }
        }
        seen
    }
}

/// One `impl` block: the type it implements for and its 0-based line
/// span.
#[derive(Debug)]
struct ImplBlock {
    owner: String,
    start: usize,
    end: usize,
}

/// Builds the char-index → 0-based-line table used by all extractors.
fn line_table(chars: &[char]) -> Vec<usize> {
    let mut line_of = Vec::with_capacity(chars.len() + 1);
    let mut ln = 0usize;
    for &c in chars {
        line_of.push(ln);
        if c == '\n' {
            ln += 1;
        }
    }
    line_of.push(ln);
    line_of
}

/// Reads a type path at `i` (skipping `&`, `mut`, `dyn` and path
/// segments) and returns the last plain identifier plus the index after
/// the whole path (generics consumed). Returns `None` if no identifier
/// is found.
fn read_type_name(chars: &[char], mut i: usize) -> Option<(String, usize)> {
    let mut last = String::new();
    loop {
        while i < chars.len() && (chars[i].is_whitespace() || chars[i] == '&') {
            i += 1;
        }
        let start = i;
        while i < chars.len() && is_ident_char(chars[i]) {
            i += 1;
        }
        if i == start {
            return if last.is_empty() { None } else { Some((last, i)) };
        }
        let word: String = chars[start..i].iter().collect();
        if word == "mut" || word == "dyn" {
            continue;
        }
        last = word;
        // Swallow a generic argument list, tracking `->` so closure
        // types inside generics don't unbalance the count.
        if chars.get(i) == Some(&'<') {
            let mut depth = 0i64;
            while i < chars.len() {
                match chars[i] {
                    '<' => depth += 1,
                    '>' if i > 0 && chars[i - 1] == '-' => {}
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        if chars.get(i) == Some(&':') && chars.get(i + 1) == Some(&':') {
            i += 2;
            continue;
        }
        return Some((last, i));
    }
}

/// Extracts every `impl` block's owner type and line span from a
/// stripped file. `impl` in argument or return position (`impl Trait`)
/// is rejected by looking at what precedes the keyword: a block opener
/// may only follow `}`, `;`, `]`, `{`, the start of the file, or the
/// word `unsafe`.
fn extract_impls(lines: &[String]) -> Vec<ImplBlock> {
    let text: String = lines.join("\n");
    let chars: Vec<char> = text.chars().collect();
    let line_of = line_table(&chars);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 4 <= chars.len() {
        let boundary = (i == 0 || !is_ident_char(chars[i - 1]))
            && chars[i..].starts_with(&['i', 'm', 'p', 'l'])
            && !chars.get(i + 4).copied().is_some_and(is_ident_char);
        if !boundary {
            i += 1;
            continue;
        }
        if !impl_position_ok(&chars, i) {
            i += 4;
            continue;
        }
        let kw = i;
        let mut j = i + 4;
        // Generic parameters on the impl itself.
        if chars.get(j).copied().is_some_and(char::is_whitespace) || chars.get(j) == Some(&'<') {
            while j < chars.len() && chars[j].is_whitespace() {
                j += 1;
            }
            if chars.get(j) == Some(&'<') {
                let mut depth = 0i64;
                while j < chars.len() {
                    match chars[j] {
                        '<' => depth += 1,
                        '>' if j > 0 && chars[j - 1] == '-' => {}
                        '>' => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
        }
        // First type: either the self type or a trait name.
        let Some((first, after)) = read_type_name(&chars, j) else {
            i = kw + 4;
            continue;
        };
        let mut owner = first;
        j = after;
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        // `impl Trait for Type`: the owner is the type after `for`.
        if chars[j..].starts_with(&['f', 'o', 'r'])
            && !chars.get(j + 3).copied().is_some_and(is_ident_char)
        {
            if let Some((ty, after_ty)) = read_type_name(&chars, j + 3) {
                owner = ty;
                j = after_ty;
            }
        }
        // Skip the where clause (brace-free in impl headers) to the body.
        while j < chars.len() && chars[j] != '{' && chars[j] != ';' {
            j += 1;
        }
        if j >= chars.len() || chars[j] == ';' {
            i = j.max(kw + 4);
            continue;
        }
        let open = j;
        let mut depth = 0i64;
        while j < chars.len() {
            match chars[j] {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let close = j.min(chars.len() - 1);
        out.push(ImplBlock { owner, start: line_of[kw], end: line_of[close] });
        i = open + 1;
    }
    out
}

/// Whether an `impl` keyword at `i` is in item position (a block) rather
/// than type position (`fn f(x: impl Trait) -> impl Iterator`).
fn impl_position_ok(chars: &[char], i: usize) -> bool {
    let mut j = i;
    while j > 0 && chars[j - 1].is_whitespace() {
        j -= 1;
    }
    if j == 0 {
        return true;
    }
    let prev = chars[j - 1];
    if is_ident_char(prev) {
        // The only identifier that may precede an impl block is
        // `unsafe`; `mut impl`/`dyn impl` and the like are type uses.
        let mut k = j;
        while k > 0 && is_ident_char(chars[k - 1]) {
            k -= 1;
        }
        let word: String = chars[k..j].iter().collect();
        return word == "unsafe";
    }
    matches!(prev, '}' | ';' | ']' | '{')
}

/// Extracts every `impl_json_state!(Type …)` invocation from a stripped
/// file. The macro's own definition does not match: there the name is
/// followed by `{`, and its internal calls open with `@`, not a type.
fn extract_state_lists(lines: &[String]) -> Vec<(String, String)> {
    const OPEN: &str = "impl_json_state!(";
    let text = lines.join("\n");
    let list = |(at, _): (usize, &str)| {
        let rest = &text[at + OPEN.len()..];
        let name_len = rest.find(|c: char| !is_ident_char(c)).filter(|len| *len > 0)?;
        let mut depth = 1i64;
        let close = rest.find(|c: char| {
            depth += i64::from(c == '(') - i64::from(c == ')');
            depth == 0
        })?;
        let (owner, body) = rest[..close].split_at(name_len);
        Some((owner.to_string(), body.to_string()))
    };
    text.match_indices(OPEN).filter_map(list).collect()
}

/// Extracts every braced struct and its fields from a stripped file.
fn extract_structs(file: usize, lines: &[String]) -> Vec<StructInfo> {
    let text: String = lines.join("\n");
    let chars: Vec<char> = text.chars().collect();
    let line_of = line_table(&chars);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 6 <= chars.len() {
        let boundary = (i == 0 || !is_ident_char(chars[i - 1]))
            && chars[i..].starts_with(&['s', 't', 'r', 'u', 'c', 't'])
            && chars.get(i + 6).copied().is_some_and(char::is_whitespace);
        if !boundary {
            i += 1;
            continue;
        }
        let kw = i;
        let mut j = i + 6;
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < chars.len() && is_ident_char(chars[j]) {
            j += 1;
        }
        if j == name_start {
            i = kw + 6;
            continue;
        }
        let name: String = chars[name_start..j].iter().collect();
        // Find the body opener, skipping generics and where clauses.
        // `(` or `;` first means a tuple/unit struct: skip it.
        let mut angle = 0i64;
        let mut opener = None;
        while j < chars.len() {
            match chars[j] {
                '<' => angle += 1,
                '>' if j > 0 && chars[j - 1] == '-' => {}
                '>' => angle -= 1,
                '{' if angle == 0 => {
                    opener = Some(j);
                    break;
                }
                '(' | ';' if angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = opener else {
            i = j.max(kw + 6);
            continue;
        };
        let (fields, close) = parse_fields(&chars, &line_of, open);
        out.push(StructInfo { file, name, line: line_of[kw], fields });
        i = close.max(open + 1);
    }
    out
}

/// Parses the `name: Type` fields between the braces starting at `open`.
/// Returns the fields and the index of the closing brace.
fn parse_fields(chars: &[char], line_of: &[usize], open: usize) -> (Vec<FieldInfo>, usize) {
    let mut fields = Vec::new();
    let mut depth_brace = 0i64;
    let mut depth_paren = 0i64;
    let mut depth_bracket = 0i64;
    let mut depth_angle = 0i64;
    let mut span_start = open + 1;
    let mut j = open;
    let mut close = chars.len().saturating_sub(1);
    while j < chars.len() {
        let at_field_level =
            depth_brace == 1 && depth_paren == 0 && depth_bracket == 0 && depth_angle == 0;
        match chars[j] {
            '{' => {
                depth_brace += 1;
            }
            '}' => {
                depth_brace -= 1;
                if depth_brace == 0 {
                    if let Some(f) = parse_one_field(chars, line_of, span_start, j) {
                        fields.push(f);
                    }
                    close = j;
                    break;
                }
            }
            '(' => depth_paren += 1,
            ')' => depth_paren -= 1,
            '[' => depth_bracket += 1,
            ']' => depth_bracket -= 1,
            '<' if depth_paren == 0 && depth_bracket == 0 => depth_angle += 1,
            '>' if j > 0 && chars[j - 1] == '-' => {}
            '>' if depth_paren == 0 && depth_bracket == 0 && depth_angle > 0 => depth_angle -= 1,
            ',' if at_field_level => {
                if let Some(f) = parse_one_field(chars, line_of, span_start, j) {
                    fields.push(f);
                }
                span_start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    (fields, close)
}

/// Parses one comma-separated field span: optional attributes, optional
/// `pub(...)`, then `name: Type`. Spans that don't look like a field
/// (trailing whitespace after the last comma) yield `None`.
fn parse_one_field(
    chars: &[char],
    line_of: &[usize],
    start: usize,
    end: usize,
) -> Option<FieldInfo> {
    let mut i = start;
    loop {
        while i < end && chars[i].is_whitespace() {
            i += 1;
        }
        if chars.get(i) == Some(&'#') {
            // Attribute: `#[...]` with balanced brackets.
            i += 1;
            if chars.get(i) == Some(&'[') {
                let mut depth = 0i64;
                while i < end {
                    match chars[i] {
                        '[' => depth += 1,
                        ']' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            continue;
        }
        break;
    }
    let word_start = i;
    while i < end && is_ident_char(chars[i]) {
        i += 1;
    }
    let mut name: String = chars[word_start..i].iter().collect();
    let mut name_at = word_start;
    if name == "pub" {
        if chars.get(i) == Some(&'(') {
            let mut depth = 0i64;
            while i < end {
                match chars[i] {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
        }
        while i < end && chars[i].is_whitespace() {
            i += 1;
        }
        name_at = i;
        let start2 = i;
        while i < end && is_ident_char(chars[i]) {
            i += 1;
        }
        name = chars[start2..i].iter().collect();
    }
    if name.is_empty() {
        return None;
    }
    while i < end && chars[i].is_whitespace() {
        i += 1;
    }
    if chars.get(i) != Some(&':') {
        return None;
    }
    let ty: String = chars[i + 1..end].iter().collect();
    Some(FieldInfo { name, ty: ty.trim().to_string(), line: line_of[name_at] })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> ScannedFile {
        ScannedFile::new("crates/core/src/test.rs", src)
    }

    #[test]
    fn impl_owner_is_resolved_including_trait_impls() {
        let f = file(
            "struct Foo { x: u8 }\n\
             impl Foo {\n    fn a(&self) {}\n}\n\
             impl Bar for Foo {\n    fn b(&self) {}\n}\n\
             impl<T: Clone> Baz<T> for Foo {\n    fn c(&self) {}\n}\n\
             fn free() {}\n",
        );
        let m = SourceModel::build(std::slice::from_ref(&f));
        let owner_of = |name: &str| {
            m.fns
                .iter()
                .find(|fi| fi.func.name == name)
                .and_then(|fi| fi.owner.clone())
        };
        assert_eq!(owner_of("a").as_deref(), Some("Foo"));
        assert_eq!(owner_of("b").as_deref(), Some("Foo"));
        assert_eq!(owner_of("c").as_deref(), Some("Foo"));
        assert_eq!(owner_of("free"), None);
    }

    #[test]
    fn impl_trait_in_signatures_is_not_a_block() {
        let f = file(
            "impl Foo {\n\
                 fn iter(&self) -> impl Iterator<Item = u8> + '_ {\n\
                     self.xs.iter().copied()\n\
                 }\n\
                 fn take(x: impl Into<String>) {}\n\
                 fn after(&self) {}\n\
             }\n",
        );
        let m = SourceModel::build(std::slice::from_ref(&f));
        for name in ["iter", "take", "after"] {
            let fi = m.fns.iter().find(|fi| fi.func.name == name).unwrap();
            assert_eq!(fi.owner.as_deref(), Some("Foo"), "{name}");
        }
    }

    #[test]
    fn struct_fields_are_extracted_with_types_and_lines() {
        let f = file(
            "pub struct Streamer {\n\
                 pub(crate) config: StreamerConfig,\n\
                 active: Option<ActiveBatch>,\n\
                 table: [Entry; 16],\n\
                 cb: Box<dyn Fn(u8) -> u8>,\n\
             }\n\
             struct Unit;\n\
             struct Tuple(u8, u16);\n",
        );
        let m = SourceModel::build(std::slice::from_ref(&f));
        assert_eq!(m.structs.len(), 1, "{:?}", m.structs);
        let s = &m.structs[0];
        assert_eq!(s.name, "Streamer");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["config", "active", "table", "cb"]);
        assert_eq!(s.fields[0].ty, "StreamerConfig");
        assert_eq!(s.fields[1].line, 2);
    }

    #[test]
    fn generic_struct_with_where_clause_parses() {
        let f = file(
            "struct Ring<T: Clone>\n\
             where\n    T: Default,\n\
             {\n    slots: Vec<T>,\n    head: usize,\n}\n",
        );
        let m = SourceModel::build(std::slice::from_ref(&f));
        assert_eq!(m.structs.len(), 1);
        let names: Vec<&str> = m.structs[0].fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["slots", "head"]);
    }

    #[test]
    fn reachability_walks_the_call_graph() {
        let f = file(
            "fn try_step() { step_one(); }\n\
             fn step_one() { leaf(); }\n\
             fn leaf() {}\n\
             fn unrelated() { leaf(); }\n",
        );
        let m = SourceModel::build(std::slice::from_ref(&f));
        let roots = m.fns_named(&["try_step"]);
        let reach = m.reachable(&roots);
        let names: Vec<&str> =
            reach.iter().map(|&i| m.fns[i].func.name.as_str()).collect();
        assert_eq!(names, ["try_step", "step_one", "leaf"]);
    }
}
