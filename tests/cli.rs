//! The `attila` command line refuses what it no longer accepts, and what
//! it cannot simulate, with the usage-error exit code (1) — never by
//! ignoring it (0), panicking (101) or hanging.

use std::process::Command;

use attila::core::config::GpuConfig;

fn attila_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_attila"))
}

#[test]
fn cli_rejects_removed_arguments() {
    let cases: [(&[&str], &str); 8] = [
        (&["--workload", "quickstart", "--threads", "2"], "--threads"),
        (&["serve"], "serve"),
        (&["serve", "--smoke"], "serve"),
        (&["--workload", "quickstart", "--retry-limit", "3"], "--retry-limit"),
        // Source rules are clippy's; the wiring is checked where it is
        // registered, so there is no `lint` at all.
        (&["lint"], "lint"),
        (&["lint", "--source"], "lint"),
        (&["lint", "--all-presets"], "lint"),
        (&["lint", "--deny-warnings"], "lint"),
    ];
    for (args, removed) in cases {
        let out = attila_bin().args(args).output().expect("attila runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument `{removed}`")),
            "{args:?}: stderr: {stderr}"
        );
    }
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
fn cli_refuses_an_stv_range_it_cannot_render() {
    // `--stv` draws one column per cycle: a `u64`-wide range rendered until killed.
    let path = std::env::temp_dir().join(format!("attila-cli-stv-{}.txt", std::process::id()));
    std::fs::write(&path, "3\tA->B.x\tone\n7\tA->B.x\ttwo\n").expect("write the trace");
    let stv = |from: u64, to: u64| {
        let args = [from, to].map(|c| c.to_string());
        let out = attila_bin().arg("--stv").arg(&path).args(args).output().expect("attila runs");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    for (from, to) in [(5, 5), (7, 3), (0, 10_001), (0, u64::MAX)] {
        let (code, stderr) = stv(from, to);
        assert_eq!(code, Some(1), "{from}..{to}: stderr: {stderr}");
        assert!(stderr.contains(&format!("spans 1 to 10000 cycles, not {from}..{to}")), "{stderr}");
    }
    assert_eq!(stv(0, 10_000).0, Some(0), "the widest range renders");
    std::fs::remove_file(&path).ok();
}

#[test]
fn cli_refuses_a_zero_stage_latency() {
    // A stage latency is a port latency; zero used to be simulated as one.
    let mut config = GpuConfig::baseline();
    config.clipper.latency = 0;
    let path = std::env::temp_dir()
        .join(format!("attila-cli-zero-latency-{}.json", std::process::id()));
    std::fs::write(&path, config.to_json()).expect("write the config");
    let out = attila_bin()
        .arg("--config")
        .arg(&path)
        .args(["--workload", "quickstart"])
        .output()
        .expect("attila runs");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("invalid configuration: clipper.latency must be at least 1"),
        "stderr: {stderr}"
    );
}

#[test]
fn cli_loads_a_config_that_still_names_retired_constants() {
    // `attila --dump-config` from before `fraggen.tile_size`,
    // `hz.block_size`, `hz.depth_bits`, `shader.group_size` and
    // `memory.bytes_per_cycle_per_channel` became constants: the keys are
    // ignored and the file describes the same machine.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/baseline_config_with_retired_keys.json");
    let text = std::fs::read_to_string(path).expect("read the old dump");
    assert_eq!(GpuConfig::from_json(&text).unwrap(), GpuConfig::baseline());
    let dump = |args: &[&str]| {
        let out = attila_bin().args(args).arg("--dump-config").output().expect("attila runs");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        out.stdout
    };
    assert_eq!(dump(&["--config", path]), dump(&[]));
}
