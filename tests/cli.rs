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
    // `memory.bytes_per_cycle_per_channel` became constants, and before
    // seven keys the timing model never read were deleted:
    // `streamer.input_queue`, `colorwrite.latency` and the
    // `shader.instruction_latencies` of `TEX`, `TXB`, `TXP`, `KIL` and
    // `END`. The keys are ignored and the file describes the same machine.
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

#[test]
fn cli_refuses_a_malformed_trace() {
    // No trace input may panic the process: each of these used to reach
    // an assertion or an index out of bounds inside `compile` (exit 101).
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data");
    let from_data = |name: &str| {
        std::fs::read_to_string(format!("{data}/{name}")).expect("read a checked-in trace")
    };
    let trace = |calls: &str| format!(r#"{{"width": 16, "height": 16, "calls": [{calls}, "SwapBuffers"]}}"#);
    let texel = r#"{"TexImage2D": {"id": 1, "width": 1, "height": 1, "format": "Rgba8", "mipmapped": false, "pixels": [1, 2, 3, 4]}}"#;
    let buffer = r#"{"BufferData": {"id": 1, "data": [0, 0, 0, 0]}}"#;
    let cases = [
        ("TexImage2D", from_data("malformed_trace_short_pixels.json")),
        (
            "TexImage2D",
            trace(r#"{"TexImage2D": {"id": 1, "width": 65536, "height": 65536, "format": "Rgba8", "mipmapped": false, "pixels": []}}"#),
        ),
        (
            "TexImage2D",
            trace(r#"{"TexImage2D": {"id": 1, "width": 0, "height": 0, "format": "Rgba8", "mipmapped": true, "pixels": []}}"#),
        ),
        ("BindTexture", from_data("malformed_trace_texture_unit_99.json")),
        ("DisableVertexAttrib", trace(r#"{"DisableVertexAttrib": {"attr": 200}}"#)),
        (
            "VertexAttribPointer",
            trace(&format!(
                r#"{buffer}, {{"VertexAttribPointer": {{"attr": 200, "buffer": 1, "components": 3, "stride": 12, "offset": 0}}}}"#
            )),
        ),
        (
            "ProgramEnvParameter",
            trace(&format!(
                r#"{texel}, {{"ProgramEnvParameter": {{"target_vertex": false, "index": 9999, "value": [0, 0, 0, 0]}}}}"#
            )),
        ),
    ];
    let dir = std::env::temp_dir().join(format!("attila-cli-malformed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("make the temp dir");
    for (i, (call, text)) in cases.iter().enumerate() {
        let path = dir.join(format!("trace{i}.json"));
        std::fs::write(&path, text).expect("write the trace");
        let out = attila_bin()
            .arg("--trace")
            .arg(&path)
            .arg("--out-dir")
            .arg(dir.join("out"))
            .output()
            .expect("attila runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "case {i} ({call}): stderr: {stderr}");
        assert!(stderr.contains(call), "case {i}: stderr names {call}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_refuses_gpu_memory_smaller_than_the_memory_map() {
    // The driver's memory map puts its heap at 16 MiB: with 1 MiB of GPU
    // memory the first upload used to panic inside the memory image.
    let mut config = GpuConfig::baseline();
    config.memory.gpu_memory_mb = 1;
    let dir = std::env::temp_dir().join(format!("attila-cli-small-memory-{}", std::process::id()));
    let path = dir.with_extension("json");
    std::fs::write(&path, config.to_json()).expect("write the config");
    for workload in ["quickstart", "texture_stream"] {
        let out = attila_bin()
            .arg("--config")
            .arg(&path)
            .args(["--workload", workload, "--width", "48", "--height", "48", "--frames", "1"])
            .arg("--out-dir")
            .arg(&dir)
            .output()
            .expect("attila runs");
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(1), "{workload}: stderr: {stderr}");
        assert!(
            stderr.contains("runs past the end of GPU memory (1048576 bytes)"),
            "{workload}: stderr: {stderr}"
        );
        assert!(!stdout.contains("cycles:"), "{workload}: no cycle may be simulated: {stdout}");
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_refuses_a_config_it_cannot_simulate() {
    // Unrefused, each would run: an interleave of 0 divides by zero and 32
    // or 100 splits a transaction across channels (exit 101); the three
    // admission limits hold doom3 until the watchdog (exit 3); the
    // mistyped mnemonic is dropped without a word (exit 0).
    type Edit = fn(&mut GpuConfig);
    let cases: [(Edit, &str); 7] = [
        (|c| c.memory.interleave_bytes = 0, "memory.interleave_bytes"),
        (|c| c.memory.interleave_bytes = 32, "memory.interleave_bytes"),
        (|c| c.memory.interleave_bytes = 100, "memory.interleave_bytes"),
        (|c| c.streamer.max_memory_requests = 0, "streamer.max_memory_requests"),
        (|c| c.shader.temp_registers = 0, "shader.temp_registers"),
        (
            |c| {
                *c = GpuConfig::non_unified_baseline();
                c.shader.vertex_registers = 0;
            },
            "non-unified",
        ),
        (
            |c| {
                c.shader.instruction_latencies.insert("MAD_TYPO".into(), 40);
            },
            "`MAD_TYPO`",
        ),
    ];
    let dir = std::env::temp_dir().join(format!("attila-cli-bad-config-{}", std::process::id()));
    let path = dir.with_extension("json");
    for (i, (edit, names)) in cases.into_iter().enumerate() {
        let mut config = GpuConfig::baseline();
        edit(&mut config);
        std::fs::write(&path, config.to_json()).expect("write the config");
        let out = attila_bin()
            .arg("--config")
            .arg(&path)
            .args(["--workload", "doom3", "--width", "64", "--height", "48", "--frames", "1"])
            .args(["--max-cycles", "2000000", "--out-dir"])
            .arg(&dir)
            .output()
            .expect("attila runs");
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(1), "case {i}: stderr: {stderr}");
        assert!(stderr.contains("invalid configuration"), "case {i}: stderr: {stderr}");
        assert!(stderr.contains(names), "case {i}: stderr names {names}: {stderr}");
        assert!(!stdout.contains("cycles:"), "case {i}: no cycle may be simulated: {stdout}");
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_refuses_a_draw_no_shader_pool_can_admit() {
    // `validate()` cannot see programs. doom3's lit fragment program needs
    // 40 temporaries a quad, so a pool of 8 or 32 (both valid) would never
    // admit it and the run would wait for the watchdog (exit 3); it is
    // refused before the first cycle instead. A pool of 48 runs it.
    let dir = std::env::temp_dir().join(format!("attila-cli-pool-{}", std::process::id()));
    let path = dir.with_extension("json");
    for (registers, code) in [(8, 1), (32, 1), (48, 0)] {
        let mut config = GpuConfig::baseline();
        config.shader.temp_registers = registers;
        std::fs::write(&path, config.to_json()).expect("write the config");
        let out = attila_bin()
            .arg("--config")
            .arg(&path)
            .args(["--workload", "doom3", "--width", "64", "--height", "48", "--frames", "1"])
            .arg("--out-dir")
            .arg(&dir)
            .output()
            .expect("attila runs");
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(code), "{registers}: stderr: {stderr}");
        if code == 1 {
            let refusal = format!(
                "command 22 (DRAW): its fragment program needs 40 temporary registers, the \
                 pool that runs it holds {registers} (shader.temp_registers)"
            );
            assert!(stderr.contains(&refusal), "{registers}: stderr: {stderr}");
            assert!(!stdout.contains("cycles:"), "{registers}: no cycle may be simulated");
        } else {
            assert!(stdout.contains("cycles:              210644"), "{registers}: {stdout}");
        }
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}
