//! The workspace as the passes see it: every function, and a
//! name-matched call graph with reachability queries.
//!
//! Calls are matched by bare name, so reachability over-approximates
//! across same-named methods (two unrelated `helper_step`s merge) and
//! macro-generated code is invisible. Over-approximation produces false
//! positives, which suppressions absorb; it does not produce silent false
//! negatives on the code shapes this workspace uses.

use std::collections::{BTreeMap, BTreeSet};

use crate::{callees, extract_functions, Function, ScannedFile};

/// One function plus the file it lives in.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into the scanned-file slice.
    pub file: usize,
    /// The extracted function.
    pub func: Function,
}

/// Every function of the scanned files, with a name index for call-graph
/// walks.
pub struct SourceModel<'a> {
    /// The scanned files the model was built from.
    pub files: &'a [ScannedFile],
    /// Every extracted function.
    pub fns: Vec<FnInfo>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl<'a> SourceModel<'a> {
    /// Builds the model: one function scan per file.
    pub fn build(files: &'a [ScannedFile]) -> Self {
        let fns: Vec<FnInfo> = files
            .iter()
            .enumerate()
            .flat_map(|(file, f)| {
                extract_functions(&f.lines).into_iter().map(move |func| FnInfo { file, func })
            })
            .collect();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, f) in fns.iter().enumerate() {
            by_name.entry(f.func.name.clone()).or_default().push(idx);
        }
        SourceModel { files, fns, by_name }
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
                    queue.extend(targets.iter().filter(|t| !seen.contains(t)));
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reachability_walks_the_call_graph() {
        let f = ScannedFile::new(
            "crates/core/src/test.rs",
            "fn try_step() { step_one(); }\n\
             fn step_one() { leaf(); }\n\
             fn leaf() {}\n\
             fn unrelated() { leaf(); }\n",
        );
        let m = SourceModel::build(std::slice::from_ref(&f));
        let reach = m.reachable(&m.fns_named(&["try_step"]));
        let names: Vec<&str> = reach.iter().map(|&i| m.fns[i].func.name.as_str()).collect();
        assert_eq!(names, ["try_step", "step_one", "leaf"]);
    }
}
