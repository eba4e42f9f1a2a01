//! Crash-safe checkpointing: the restore-equals-never-stopped
//! differential and forward-compat rejection of bad checkpoint files.
//!
//! The differential is the whole point of the checkpoint subsystem: a
//! run that is killed at an arbitrary cycle and resumed from its last
//! checkpoint must be **bit-identical** — final cycle count, every
//! statistic, every frame — to the same run never interrupted. It is
//! exercised across 64 seeds with varying checkpoint cadence and kill
//! cycles, with a fault-injection campaign active for a quarter of them
//! (the injector's RNG and delivery progress are part of the snapshot).

use std::path::PathBuf;
use std::sync::OnceLock;

use attila::core::commands::GpuCommand;
use attila::core::config::GpuConfig;
use attila::core::gpu::Gpu;
use attila::core::{Checkpoint, ShaderScheduling};
use attila::gl::{compile, workloads};
use attila::sim::{FaultInjector, FaultPlan, SimError};

const W: u32 = 48;
const H: u32 = 48;

fn scene() -> &'static Vec<GpuCommand> {
    static SCENE: OnceLock<Vec<GpuCommand>> = OnceLock::new();
    SCENE.get_or_init(|| {
        let params = workloads::WorkloadParams {
            width: W,
            height: H,
            frames: 3,
            texture_size: 64,
            detail: 1,
            ..Default::default()
        };
        let trace = workloads::embedded_scene(params);
        compile(trace.width, trace.height, &trace.calls).expect("scene compiles")
    })
}

fn config() -> GpuConfig {
    let mut config = GpuConfig::case_study(1, ShaderScheduling::ThreadWindow);
    config.display.width = W;
    config.display.height = H;
    config
}

fn fault_for(seed: u64) -> FaultInjector {
    // A silent DRAM bit-flip mid-run: the injector's reply counter and
    // RNG are part of the snapshot, so the flip lands exactly once no
    // matter where the run was interrupted.
    FaultInjector::new(seed).with(FaultPlan::FlipBits {
        reply: 10 + seed % 30,
        bit: (seed as u32) % 8,
    })
}

/// Everything that must match bit-for-bit between the two runs.
#[derive(PartialEq)]
struct FinalState {
    cycles: u64,
    cycles_skipped: u64,
    frames: Vec<(u32, u32, Vec<u8>)>,
    stats: Vec<(String, String)>,
    row_traffic: (u64, u64, u64, u64),
}

impl FinalState {
    /// Field-wise assertion with readable diagnostics (a raw derive-Debug
    /// dump of three RGBA frames is useless on failure).
    fn assert_matches(&self, reference: &FinalState, ctx: &str) {
        assert_eq!(self.cycles, reference.cycles, "{ctx}: final cycle diverged");
        assert_eq!(
            self.cycles_skipped, reference.cycles_skipped,
            "{ctx}: idle-skip behaviour diverged"
        );
        assert_eq!(
            self.frames.len(),
            reference.frames.len(),
            "{ctx}: frame count diverged"
        );
        for (i, (r, b)) in self.frames.iter().zip(&reference.frames).enumerate() {
            assert!(r == b, "{ctx}: frame {i} not bit-identical");
        }
        assert_eq!(self.stats, reference.stats, "{ctx}: statistics diverged");
        assert_eq!(
            self.row_traffic, reference.row_traffic,
            "{ctx}: DRAM row-buffer counters diverged (hits, misses, conflicts, turnarounds)"
        );
    }
}

fn final_state(gpu: &Gpu, frames: &[attila::core::FrameDump]) -> FinalState {
    FinalState {
        cycles: gpu.cycle(),
        cycles_skipped: gpu.cycles_skipped(),
        frames: frames
            .iter()
            .map(|f| (f.width, f.height, f.rgba.clone()))
            .collect(),
        stats: gpu
            .stats()
            .names()
            .iter()
            .filter_map(|n| {
                // Exact bit comparison: render totals via their bits, not
                // a rounded format.
                gpu.stats()
                    .total(n)
                    .map(|v| (n.to_string(), format!("{:016x}", v.to_bits())))
            })
            .collect(),
        row_traffic: (
            gpu.memory().row_hits(),
            gpu.memory().row_misses(),
            gpu.memory().row_conflicts(),
            gpu.memory().turnarounds(),
        ),
    }
}

fn tmp_ckpt(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "attila-ckpt-{tag}-{seed}-{}.ckpt",
        std::process::id()
    ))
}

/// The uninterrupted reference run.
fn baseline(faults: Option<u64>) -> (FinalState, u64) {
    let mut gpu = Gpu::new(config());
    gpu.max_cycles = 50_000_000;
    if let Some(seed) = faults {
        gpu.adopt_faults(fault_for(seed)).expect("plan names real hooks");
    }
    let result = gpu.run_trace(scene()).expect("baseline drains");
    let cycles = gpu.cycle();
    (final_state(&gpu, &result.framebuffers), cycles)
}

/// Kill a checkpointing run at `kill_at` simulated cycles (watchdog),
/// then restore from whatever checkpoint survived and run to the end.
/// Returns `None` if the kill landed before the first quiescent point
/// (no checkpoint on disk yet — nothing to resume).
fn killed_and_resumed(seed: u64, kill_at: u64, every: u64, faults: bool) -> Option<FinalState> {
    let tag = if faults { "fault" } else { "plain" };
    let path = tmp_ckpt(tag, seed);
    let _ = std::fs::remove_file(&path);

    // Leg 1: run with checkpoints enabled and a deliberately tiny
    // watchdog — the deterministic stand-in for `kill -9` at a random
    // cycle. The atomic write-rename means the file, if present, is a
    // complete valid checkpoint no matter when the "kill" hit.
    let mut gpu = Gpu::new(config());
    gpu.max_cycles = kill_at;
    gpu.checkpoint_every = Some(every);
    gpu.checkpoint_path = Some(path.clone());
    if faults {
        gpu.adopt_faults(fault_for(seed)).expect("plan names real hooks");
    }
    let first = gpu.run_trace(scene());
    if first.is_ok() {
        // Kill point past the end of the trace: nothing was interrupted.
        let _ = std::fs::remove_file(&path);
        return None;
    }
    if !path.exists() {
        return None;
    }

    // Leg 2: a fresh process would find the checkpoint and resume.
    let ckpt = Checkpoint::read_file(&path).expect("checkpoint readable");
    // A step can land exactly on the watchdog cycle and checkpoint there
    // before the watchdog fires at the top of the next iteration, so the
    // surviving snapshot may sit at kill_at itself — never past it.
    assert!(
        ckpt.body.cycle <= kill_at,
        "checkpoint must not postdate the kill (cycle {} vs kill {})",
        ckpt.body.cycle,
        kill_at
    );
    let injector = faults.then(|| fault_for(seed));
    let mut gpu =
        Gpu::restore(config(), scene(), &ckpt, injector).expect("restore from valid checkpoint");
    gpu.max_cycles = 50_000_000;
    let result = gpu.run_trace(&[]).expect("resumed run drains");
    let _ = std::fs::remove_file(&path);
    Some(final_state(&gpu, &result.framebuffers))
}

#[test]
fn restore_equals_never_stopped_across_64_seeds() {
    let (reference, total_cycles) = baseline(None);
    let (reference_faulty, total_cycles_faulty) = baseline(Some(7));
    assert_eq!(reference.frames.len(), 3);

    let mut resumed_runs = 0;
    for seed in 0..64u64 {
        let faults = seed % 4 == 3; // every 4th seed runs under injection
        let (reference, total) = if faults {
            (&reference_faulty, total_cycles_faulty)
        } else {
            (&reference, total_cycles)
        };
        // Kill cycles sweep 30%..95% of the run; cadence sweeps 50..~2000
        // cycles so the surviving checkpoint lands on different quiescent
        // points across seeds.
        let kill_at = total * (30 + seed) / 100;
        let every = 50 + (seed * 577) % 2000;
        let Some(resumed) = killed_and_resumed(if faults { 7 } else { seed }, kill_at, every, faults)
        else {
            continue;
        };
        resumed_runs += 1;
        resumed.assert_matches(reference, &format!("seed {seed} (faults={faults})"));
    }
    // The sweep must actually exercise restore, not trivially skip.
    assert!(
        resumed_runs >= 48,
        "only {resumed_runs}/64 seeds produced a checkpoint to resume from"
    );
}

#[test]
fn bank_state_survives_restore_under_stressed_timings() {
    // Non-default DRAM timings make the bank FSMs and their counters do
    // real work (few banks -> conflicts; long tRC -> ACTIVATE spacing).
    // The restored run must still be bit-identical, including the
    // row-buffer counters — the FSM states, per-bank counters and the
    // arbitration ring all flow through the checkpoint.
    let mut stressed = config();
    stressed.memory.t_rcd = 10;
    stressed.memory.t_rp = 9;
    stressed.memory.t_rc = 32;
    stressed.memory.banks = 2;
    stressed.validate().expect("stressed timings are a legal config");

    let mut gpu = Gpu::new(stressed.clone());
    gpu.max_cycles = 50_000_000;
    let result = gpu.run_trace(scene()).expect("baseline drains");
    let reference = final_state(&gpu, &result.framebuffers);
    let total = gpu.cycle();
    assert!(
        reference.row_traffic.2 > 0,
        "two banks must force row conflicts, or the test stresses nothing"
    );

    for (kill_pct, every) in [(40, 97), (70, 451)] {
        let path = tmp_ckpt("bank", kill_pct);
        let _ = std::fs::remove_file(&path);
        let mut gpu = Gpu::new(stressed.clone());
        gpu.max_cycles = total * kill_pct / 100;
        gpu.checkpoint_every = Some(every);
        gpu.checkpoint_path = Some(path.clone());
        assert!(gpu.run_trace(scene()).is_err(), "watchdog interrupts the writer leg");

        let ckpt = Checkpoint::read_file(&path).expect("checkpoint readable");
        let mut gpu = Gpu::restore(stressed.clone(), scene(), &ckpt, None)
            .expect("restore under stressed timings");
        gpu.max_cycles = 50_000_000;
        let result = gpu.run_trace(&[]).expect("resumed run drains");
        final_state(&gpu, &result.framebuffers)
            .assert_matches(&reference, &format!("stressed timings, kill at {kill_pct}%"));
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn checkpoint_written_at_n_threads_restores_at_m_threads() {
    // Checkpoints capture only architectural state, and every thread
    // count produces bit-identical state — so a checkpoint written by a
    // 4-thread run must restore and finish identically on a serial
    // machine, a 2-thread machine, and an 8-thread machine.
    let (reference, total) = baseline(None);
    let path = tmp_ckpt("threads", 4);
    let _ = std::fs::remove_file(&path);

    let mut gpu = Gpu::with_threads(config(), 4);
    assert!(gpu.threading_active(), "writer leg runs threaded");
    gpu.max_cycles = total * 3 / 5;
    gpu.checkpoint_every = Some(300);
    gpu.checkpoint_path = Some(path.clone());
    let killed = gpu.run_trace(scene());
    assert!(killed.is_err(), "watchdog interrupts the writer leg");
    drop(gpu);

    let ckpt = Checkpoint::read_file(&path).expect("checkpoint written while threaded");
    for threads in [1usize, 2, 8] {
        let mut gpu = Gpu::restore_with_threads(config(), threads, scene(), &ckpt, None)
            .expect("restores at a different thread count");
        gpu.max_cycles = 50_000_000;
        let result = gpu.run_trace(&[]).expect("resumed run drains");
        final_state(&gpu, &result.framebuffers)
            .assert_matches(&reference, &format!("4-thread checkpoint resumed at {threads}"));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_from_a_capture_taken_with_boxes_asleep() {
    // Per-box sleep state is transient: a checkpoint taken while the
    // scheduler has boxes asleep must restore into a machine whose gates
    // are all awake (they re-derive sleep from the restored boxes) and
    // still finish bit-identically.
    let (reference, total) = baseline(None);
    let mut gpu = Gpu::new(config());
    // Enables trace logging for the hash; never fires on its own.
    gpu.checkpoint_every = Some(1 << 40);
    gpu.enqueue(scene());
    while !(gpu.cycle() > total / 3 && gpu.quiescent()) {
        gpu.try_step().expect("healthy run");
        assert!(gpu.cycle() < total, "no quiescent point in the middle third of the run");
    }
    let asleep = gpu.failure_report(None).boxes.iter().filter(|b| b.asleep).count();
    assert!(asleep >= 6, "a drained pipeline should have most boxes asleep, found {asleep}");

    let ckpt = gpu.capture_checkpoint();
    let mut resumed = Gpu::restore(config(), scene(), &ckpt, None).expect("restores");
    assert!(
        resumed.failure_report(None).boxes.iter().all(|b| !b.asleep),
        "gates are rebuilt awake, whatever they were at capture"
    );
    resumed.max_cycles = 50_000_000;
    let result = resumed.run_trace(&[]).expect("resumed run drains");
    let mut state = final_state(&resumed, &result.framebuffers);
    // The writer leg stepped cycle by cycle, so only the resumed tail
    // could jump the clock; everything else must match the reference.
    assert!(state.cycles_skipped <= reference.cycles_skipped);
    state.cycles_skipped = reference.cycles_skipped;
    state.assert_matches(&reference, "capture with boxes asleep");
}

#[test]
fn checkpoint_survives_process_exit_semantics() {
    // The file on disk alone — no in-process state — must be enough to
    // finish the run. Everything flows through the serialized JSON.
    let path = tmp_ckpt("exit", 0);
    let _ = std::fs::remove_file(&path);
    let (reference, total) = baseline(None);
    let mut gpu = Gpu::new(config());
    gpu.max_cycles = total * 2 / 3;
    gpu.checkpoint_every = Some(400);
    gpu.checkpoint_path = Some(path.clone());
    let _ = gpu.run_trace(scene());
    drop(gpu); // "process exit"

    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    assert!(text.contains("ATTILA-CKPT"), "file carries the magic");
    let ckpt = Checkpoint::read_file(&path).expect("valid file");
    ckpt.validate_against(&config(), scene()).expect("hashes match");
    let mut gpu = Gpu::restore(config(), scene(), &ckpt, None).expect("restores");
    gpu.max_cycles = 50_000_000;
    let result = gpu.run_trace(&[]).expect("drains");
    final_state(&gpu, &result.framebuffers).assert_matches(&reference, "cold restore");
    let _ = std::fs::remove_file(&path);
}

fn write_valid_checkpoint(tag: &str) -> (PathBuf, String) {
    let path = tmp_ckpt(tag, 99);
    let _ = std::fs::remove_file(&path);
    let mut gpu = Gpu::new(config());
    gpu.max_cycles = 10_000;
    gpu.checkpoint_every = Some(100);
    gpu.checkpoint_path = Some(path.clone());
    let _ = gpu.run_trace(scene());
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    (path, text)
}

fn expect_mismatch(result: Result<Checkpoint, SimError>, what: &str) {
    match result {
        Err(SimError::CheckpointMismatch { reason }) => {
            assert!(!reason.is_empty(), "{what}: reason must say why");
        }
        Err(other) => panic!("{what}: wrong error type: {other:?}"),
        Ok(_) => panic!("{what}: accepted a bad checkpoint"),
    }
}

#[test]
fn truncated_file_yields_typed_error() {
    let (path, text) = write_valid_checkpoint("trunc");
    for keep in [0, 1, text.len() / 2, text.len() - 1] {
        std::fs::write(&path, &text[..keep]).unwrap();
        expect_mismatch(Checkpoint::read_file(&path), "truncated");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_body_fails_the_crc() {
    let (path, text) = write_valid_checkpoint("corrupt");
    // Flip one digit inside the body (the cycle counter's hex rendering).
    let pos = text.find("\"cycle\"").expect("body has a cycle field");
    let digit = text[pos..].find(|c: char| c.is_ascii_hexdigit()).unwrap() + pos;
    let mut bytes = text.into_bytes();
    bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
    std::fs::write(&path, &bytes).unwrap();
    expect_mismatch(Checkpoint::read_file(&path), "corrupted body");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_format_version_is_refused() {
    let (path, text) = write_valid_checkpoint("version");
    let current = format!("\"version\": {}", attila::core::checkpoint::FORMAT_VERSION);
    let bumped = text.replace(&current, "\"version\": 999");
    assert_ne!(bumped, text, "version field must be present to bump");
    std::fs::write(&path, bumped).unwrap();
    match Checkpoint::read_file(&path) {
        Err(SimError::CheckpointVersion { found, supported }) => {
            assert_eq!(found, 999, "error must report the version found in the file");
            assert_eq!(supported, attila::core::checkpoint::FORMAT_VERSION);
        }
        Err(other) => panic!("future version: wrong error type: {other:?}"),
        Ok(_) => panic!("future version: accepted a bad checkpoint"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_magic_is_refused() {
    let (path, text) = write_valid_checkpoint("magic");
    std::fs::write(&path, text.replace("ATTILA-CKPT", "ATTILA-XKPT")).unwrap();
    expect_mismatch(Checkpoint::read_file(&path), "wrong magic");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn config_and_trace_hash_mismatches_are_refused() {
    let (path, _) = write_valid_checkpoint("hashes");
    let ckpt = Checkpoint::read_file(&path).expect("valid file");

    let mut other_config = config();
    other_config.display.width = W * 2;
    match ckpt.validate_against(&other_config, scene()) {
        Err(SimError::CheckpointMismatch { reason }) => {
            assert!(reason.contains("config"), "reason names the config: {reason}");
        }
        other => panic!("different config must be refused, got {other:?}"),
    }

    let mut other_trace = scene().clone();
    other_trace.push(GpuCommand::Swap);
    match ckpt.validate_against(&config(), &other_trace) {
        Err(SimError::CheckpointMismatch { reason }) => {
            assert!(reason.contains("trace"), "reason names the trace: {reason}");
        }
        other => panic!("different trace must be refused, got {other:?}"),
    }

    // Restore enforces the same checks end-to-end.
    match Gpu::restore(other_config, scene(), &ckpt, None) {
        Err(SimError::CheckpointMismatch { .. }) => {}
        other => panic!("restore must refuse a foreign config, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_file_yields_typed_error_not_panic() {
    let path = std::env::temp_dir().join("attila-ckpt-never-written.ckpt");
    let _ = std::fs::remove_file(&path);
    expect_mismatch(Checkpoint::read_file(&path), "missing file");
}
