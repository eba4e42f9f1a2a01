//! Fixture tests for the attila-lint v2 source analyses: each drifted
//! fixture must fire the right rule at the right place, and the real
//! workspace must come back clean so the CI gate stays meaningful.

use std::path::{Path, PathBuf};
use std::process::Command;

use attila::lint::{lint, scan_workspace, Finding, ScannedFile, Severity};

fn lint_fixture(path: &str, source: &str) -> Vec<Finding> {
    lint(&[ScannedFile::new(path, source)])
}

#[test]
fn unserialized_box_field_fires_state_coverage() {
    let src = r#"
pub struct Foo {
    a: u64,
    b: u64,
}

impl JsonState for Foo {
    fn save_state(&self) -> Json {
        Json::obj([("a", self.a.to_hex())])
    }
    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        self.a = field_with(v, "a", u64::from_hex)?;
        Ok(())
    }
}
"#;
    let findings = lint_fixture("crates/core/src/fixture.rs", src);
    let hit = findings
        .iter()
        .find(|f| f.rule == "state-coverage")
        .expect("unserialized field must fire state-coverage");
    assert_eq!(hit.severity, Severity::Deny);
    assert!(hit.message.contains("`b` of `Foo`"), "wrong field: {}", hit.message);
    assert_eq!(hit.line, 4, "must point at the field declaration");
}

#[test]
fn field_missing_from_a_state_list_fires_state_coverage() {
    let src = r#"
pub struct Unit {
    out: PortSender<u32>,
    cursor: usize,
    issued: ObjectIdGen,
    next_id: u64,
}

impl_json_state!(Unit { cursor, ids_issued = issued: hex });
"#;
    let findings = lint_fixture("crates/core/src/fixture.rs", src);
    // The list is saver and loader at once: what it names is covered on
    // both paths (`issued` under its `ids_issued` key), wiring is exempt,
    // and what it omits is not checkpointed at all — never half.
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "state-coverage");
    assert!(findings[0].message.contains("`next_id` of `Unit`"), "{}", findings[0].message);
    assert_eq!(findings[0].line, 6);

    // Without a declaration the struct is no participant, whatever it is
    // called: there is no name-suffix rule.
    let mirror = "pub struct UnitState {\n    pub cursor: usize,\n}\n";
    assert!(lint_fixture("crates/core/src/fixture.rs", mirror).is_empty());
}

#[test]
fn save_restore_drift_fires_state_pair() {
    let src = r#"
pub struct Bar {
    x: u64,
    y: u64,
}

impl Bar {
    pub fn save_state(&self) -> Json {
        Json::obj([("x", self.x.to_hex()), ("y", self.y.to_hex())])
    }
    pub fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        self.x = field_with(v, "x", u64::from_hex)?;
        Ok(())
    }
}
"#;
    let findings = lint_fixture("crates/core/src/fixture.rs", src);
    let hit = findings
        .iter()
        .find(|f| f.rule == "state-pair" && f.message.contains("`y` of `Bar`"))
        .expect("a field saved but not restored must fire state-pair");
    assert_eq!(hit.severity, Severity::Deny);
    assert!(
        hit.message.contains("Bar::load_state"),
        "must name the drifted path: {}",
        hit.message
    );
}

#[test]
fn state_annotations_exempt_fields() {
    let src = r#"
pub struct Qux {
    x: u64,
    scratch: u64, // state: transient — drained at the boundary
    // state: derived — rebuilt at elaboration
    table_a: u64,
    table_b: u64,
    // state: checkpointed
    y: u64,
}

impl_json_state!(Qux { x: hex });
"#;
    let findings = lint_fixture("crates/core/src/fixture.rs", src);
    // `scratch`, `table_a` and `table_b` are annotated away; `y` sits
    // after the `checkpointed` reset so its omission still fires.
    assert!(
        !findings.iter().any(|f| f.message.contains("`scratch`")
            || f.message.contains("`table_a`")
            || f.message.contains("`table_b`")),
        "annotated fields must be exempt: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "state-coverage" && f.message.contains("`y` of `Qux`")),
        "a field after a `state: checkpointed` reset must still be covered: {findings:?}"
    );
}

#[test]
fn unknown_state_annotation_kind_warns() {
    let src = r#"
pub struct Meh {
    x: u64,
    y: u64, // state: bogus
}

impl_json_state!(Meh { x: hex });
"#;
    let findings = lint_fixture("crates/core/src/fixture.rs", src);
    let hit = findings
        .iter()
        .find(|f| f.rule == "state-annotation")
        .expect("unknown annotation kind must warn");
    assert_eq!(hit.severity, Severity::Warn);
    assert!(hit.message.contains("bogus"), "{}", hit.message);
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
    let findings = lint_fixture("crates/core/src/fixture.rs", src);
    let hits: Vec<&Finding> =
        findings.iter().filter(|f| f.rule == "horizon-purity").collect();
    // Both the `&mut self` signature and the field bump are flagged.
    assert!(
        hits.iter().any(|f| f.message.contains("&self")),
        "`&mut self` signature must be denied: {findings:?}"
    );
    assert!(
        hits.iter().any(|f| f.message.contains("side effect")),
        "the counter bump must be denied: {findings:?}"
    );
    assert!(hits.iter().all(|f| f.severity == Severity::Deny));
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
    let findings = lint_fixture("crates/core/src/fixture.rs", src);
    let hit = findings
        .iter()
        .find(|f| f.rule == "horizon-purity")
        .expect("atomic bump reached through a helper must fire");
    assert!(hit.message.contains("peek_ahead"), "{}", hit.message);
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
    let findings = lint_fixture("crates/core/src/fixture.rs", src);
    let hit = findings
        .iter()
        .find(|f| f.rule == "shared-mut")
        .expect("interior mutability reached from clock must fire");
    assert_eq!(hit.severity, Severity::Deny);
    assert!(hit.message.contains("helper_step"), "must name the reached fn: {}", hit.message);
}

#[test]
fn stale_suppressions_fire_unused_allow() {
    let src = "// lint:allow(hash-iter)\nfn clean() {}\n// lint:allow(no-such-rule)\nfn also_clean() {}\n";
    let findings = lint_fixture("crates/core/src/fixture.rs", src);
    let stale: Vec<&Finding> =
        findings.iter().filter(|f| f.rule == "unused-allow").collect();
    assert_eq!(stale.len(), 2, "{findings:?}");
    assert!(stale.iter().all(|f| f.severity == Severity::Warn));
    assert!(
        stale.iter().any(|f| f.message.contains("matches no finding")),
        "{findings:?}"
    );
    assert!(
        stale.iter().any(|f| f.message.contains("unknown rule `no-such-rule`")),
        "{findings:?}"
    );
}

#[test]
fn consumed_suppression_silences_the_finding_and_is_not_stale() {
    let src = "// lint:allow(hash-iter) tests the allow plumbing\nuse std::collections::HashMap;\n";
    let findings = lint_fixture("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let files = scan_workspace(&root).expect("workspace scans");
    assert!(files.len() > 20, "scan found only {} files", files.len());
    let findings = lint(&files);
    assert!(
        findings.is_empty(),
        "the workspace must lint clean; found:\n{}",
        findings.iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
    );
}

fn attila_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_attila"))
}

#[test]
fn cli_rejects_the_removed_threads_flag() {
    // A removed flag must fail loudly, not be silently ignored.
    let out = attila_bin()
        .args(["--workload", "quickstart", "--threads", "2"])
        .output()
        .expect("attila runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("unknown argument `--threads`"), "stderr: {stderr}");
}

#[test]
fn cli_refuses_a_257th_texture_unit_before_simulating() {
    // Unit indices are 8-bit: unit 256 would alias unit 0 and the run would
    // hang into the watchdog (exit 3, after 500 M cycles by default).
    let out = attila_bin()
        .args(["--preset", "case-study", "--tus", "257", "--workload", "quickstart"])
        .output()
        .expect("attila runs");
    let (stdout, stderr) =
        (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("invalid configuration: texture.units must be between 1 and 256"),
        "stderr: {stderr}"
    );
    assert!(!stdout.contains("cycles:"), "no cycle may be simulated: {stdout}");
}

#[test]
fn cli_source_lint_exits_zero_on_a_clean_tree() {
    let out = attila_bin()
        .args(["lint", "--source", "--deny-warnings", "--root", env!("CARGO_MANIFEST_DIR")])
        .output()
        .expect("attila runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("0 deny, 0 warn"), "stdout: {stdout}");
}

#[test]
fn cli_source_lint_exits_one_on_findings_and_writes_the_report() {
    let dir = std::env::temp_dir().join(format!("attila-lint-fixture-{}", std::process::id()));
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(src_dir.join("bad.rs"), "use std::collections::HashMap;\n").unwrap();
    let report = dir.join("report.txt");

    let out = attila_bin()
        .args(["lint", "--source", "--deny-warnings"])
        .arg("--report")
        .arg(&report)
        .arg("--root")
        .arg(&dir)
        .output()
        .expect("attila runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(stdout.contains("hash-iter"), "stdout: {stdout}");
    let written = std::fs::read_to_string(&report).expect("report file exists");
    assert_eq!(written, stdout, "report must match stdout byte for byte");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn standalone_linter_binary_agrees_with_the_cli() {
    // `cargo run -p attila-lint` and `attila lint --source` share the
    // engine; prove the binary exists and exits clean on the real tree.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = attila_bin()
        .args(["lint", "--source"])
        .arg("--root")
        .arg(root)
        .output()
        .expect("attila runs");
    assert!(out.status.success());
}
