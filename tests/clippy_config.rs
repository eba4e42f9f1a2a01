//! The determinism gate has three copies: the workspace `clippy.toml` and
//! the ones in `crates/core` and `crates/mem`, which replace it for those
//! crates (clippy reads the nearest file, not both). Every entry of the
//! workspace file must appear, under the same key, in each crate's copy.

use std::collections::BTreeSet;
use std::path::Path;

/// `(key, entry)` for every `{ path = …, reason = … }` line of a
/// `clippy.toml`, under the `key = [` array that holds it.
fn entries(file: &str) -> BTreeSet<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    let mut key = None;
    let mut out = BTreeSet::new();
    for line in text.lines().map(str::trim) {
        if let Some(k) = line.strip_suffix("= [") {
            key = Some(k.trim().to_string());
        } else if line.starts_with('{') {
            let key = key.clone().unwrap_or_else(|| panic!("{file}: `{line}` outside an array"));
            out.insert((key, line.trim_end_matches(',').to_string()));
        }
    }
    out
}

#[test]
fn box_crates_repeat_every_workspace_clippy_entry() {
    let root = entries("clippy.toml");
    assert_eq!(root.len(), 4, "the workspace file's entries: {root:#?}");
    for file in ["crates/core/clippy.toml", "crates/mem/clippy.toml"] {
        let copy = entries(file);
        let missing: Vec<_> = root.difference(&copy).collect();
        assert!(missing.is_empty(), "{file} lacks the workspace entries {missing:#?}");
    }
}
