//! Fixture tests for the source linter: each fixture must fire the right
//! rule at the right place, and the real workspace must come back clean so
//! the CI gate stays meaningful.

use std::path::{Path, PathBuf};
use std::process::Command;

use attila_lint::{check, scan_workspace, Finding, ScannedFile};

fn lint_fixture(source: &str) -> Vec<Finding> {
    check(&[ScannedFile::new("crates/core/src/fixture.rs", source)])
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn work_horizon_bumping_a_counter_fires_horizon_purity() {
    let src = r#"
pub struct Probe {
    calls: u64,
}

impl Probe {
    pub fn work_horizon(&mut self) -> u64 {
        self.calls += 1;
        0
    }
}
"#;
    let findings = lint_fixture(src);
    // Both the `&mut self` signature and the field bump are flagged.
    assert!(findings.iter().all(|f| f.rule == "horizon-purity"), "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("&self")), "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("side effect")), "{findings:?}");
}

#[test]
fn horizon_purity_follows_the_call_graph() {
    let src = r#"
pub struct Probe {
    stat: std::sync::atomic::AtomicU64,
}

impl Probe {
    pub fn work_horizon(&self) -> u64 {
        self.peek_ahead()
    }
    fn peek_ahead(&self) -> u64 {
        self.stat.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }
}
"#;
    let findings = lint_fixture(src);
    let hit = findings
        .iter()
        .find(|f| f.rule == "horizon-purity")
        .expect("atomic bump reached through a helper must fire");
    assert!(hit.message.contains("peek_ahead"), "{}", hit.message);
}

#[test]
fn shifting_a_field_reachable_from_work_horizon_fires_horizon_purity() {
    let src = r#"
impl Probe {
    pub fn work_horizon(&self) -> u64 {
        self.next_mask()
    }
    fn next_mask(&self) -> u64 {
        self.mask <<= 1;
        self.mask
    }
}
"#;
    let findings = lint_fixture(src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!((findings[0].rule, findings[0].line), ("horizon-purity", 7));
    assert!(findings[0].message.contains("next_mask"), "{}", findings[0].message);
}

#[test]
fn chain_box_interior_mutability_fires_shared_mut_transitively() {
    let src = r#"
pub struct Boxy {
    cell: std::cell::RefCell<Vec<u64>>,
}

impl Boxy {
    pub fn clock(&mut self) {
        self.helper_step();
    }
    fn helper_step(&mut self) {
        self.cell.borrow_mut().push(1);
    }
}
"#;
    let findings = lint_fixture(src);
    let hit = findings
        .iter()
        .find(|f| f.rule == "shared-mut")
        .expect("interior mutability reached from clock must fire");
    assert!(hit.message.contains("helper_step"), "must name the reached fn: {}", hit.message);
}

#[test]
fn stale_suppressions_fire_unused_allow() {
    let src = r#"
// lint:allow(shared-mut)
fn clean() {}
// lint:allow(no-such-rule)
fn also_clean() {}
"#;
    let findings = lint_fixture(src);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "unused-allow"), "{findings:?}");
    assert!(findings.iter().any(|f| f.message.contains("matches no finding")), "{findings:?}");
    assert!(
        findings.iter().any(|f| f.message.contains("unknown rule `no-such-rule`")),
        "{findings:?}"
    );
}

#[test]
fn consumed_suppression_silences_the_finding_and_is_not_stale() {
    let src = r#"
fn clock(&mut self) {
    // lint:allow(shared-mut) shared with the fault injector
    let q = faults.borrow_mut();
}
"#;
    let findings = lint_fixture(src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn real_workspace_is_clean() {
    let files = scan_workspace(&workspace_root()).expect("workspace scans");
    assert!(files.len() > 20, "scan found only {} files", files.len());
    let findings = check(&files);
    assert!(
        findings.is_empty(),
        "the workspace must lint clean; found:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn linter_binary_exits_zero_on_the_workspace_and_one_on_shared_mut() {
    let run = |root: &Path| {
        let out = Command::new(env!("CARGO_BIN_EXE_attila-lint"))
            .arg(root)
            .output()
            .expect("attila-lint runs");
        (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let (code, stdout) = run(&workspace_root());
    assert_eq!(code, Some(0), "stdout: {stdout}");
    assert!(stdout.contains("0 finding(s)"), "stdout: {stdout}");

    let dir = std::env::temp_dir().join(format!("attila-lint-fixture-{}", std::process::id()));
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    let bad = "fn clock(&mut self) { let q = self.shared.borrow_mut(); }\n\
               struct Boxy { shared: std::rc::Rc<std::cell::RefCell<u32>> }\n";
    std::fs::write(src_dir.join("bad.rs"), bad).unwrap();
    let (code, stdout) = run(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(code, Some(1), "stdout: {stdout}");
    assert!(stdout.contains("shared-mut"), "stdout: {stdout}");
}
