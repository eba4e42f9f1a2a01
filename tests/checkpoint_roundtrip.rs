//! Crash-safe checkpointing: the restore-equals-never-stopped
//! differential and forward-compat rejection of bad checkpoint files.
//!
//! The differential is the whole point of the checkpoint subsystem: a
//! run that is killed at an arbitrary cycle and resumed from its last
//! checkpoint must be **bit-identical** — final cycle count, every
//! statistic, every frame — to the same run never interrupted. It is
//! exercised across 64 seeds with varying checkpoint cadence and kill
//! cycles.

use std::path::PathBuf;
use std::sync::OnceLock;

use attila::core::checkpoint::{crc32, SparseBytes, FORMAT_VERSION};
use attila::core::commands::GpuCommand;
use attila::core::config::GpuConfig;
use attila::core::gpu::Gpu;
use attila::core::{trace_hash, Checkpoint, ShaderScheduling};
use attila::gl::{compile, workloads, GlCall};
use attila::sim::{SimError, TinyRng};
use attila_json::Json;

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
fn baseline() -> (FinalState, u64) {
    let mut gpu = Gpu::new(config());
    gpu.max_cycles = 50_000_000;
    let result = gpu.run_trace(scene()).expect("baseline drains");
    let cycles = gpu.cycle();
    (final_state(&gpu, &result.framebuffers), cycles)
}

/// Kill a checkpointing run at `kill_at` simulated cycles (watchdog),
/// then restore from whatever checkpoint survived and run to the end.
/// Returns `None` if the kill landed before the first quiescent point
/// (no checkpoint on disk yet — nothing to resume).
fn killed_and_resumed(seed: u64, kill_at: u64, every: u64) -> Option<FinalState> {
    let path = tmp_ckpt("plain", seed);
    let _ = std::fs::remove_file(&path);

    // Leg 1: run with checkpoints enabled and a deliberately tiny
    // watchdog — the deterministic stand-in for `kill -9` at a random
    // cycle. The atomic write-rename means the file, if present, is a
    // complete valid checkpoint no matter when the "kill" hit.
    let mut gpu = Gpu::new(config());
    gpu.max_cycles = kill_at;
    gpu.checkpoint_every = Some(every);
    gpu.checkpoint_path = Some(path.clone());
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
    let mut gpu =
        Gpu::restore(config(), scene(), &ckpt, None).expect("restore from valid checkpoint");
    gpu.max_cycles = 50_000_000;
    let result = gpu.run_trace(&[]).expect("resumed run drains");
    let _ = std::fs::remove_file(&path);
    Some(final_state(&gpu, &result.framebuffers))
}

#[test]
fn restore_equals_never_stopped_across_64_seeds() {
    let (reference, total) = baseline();
    assert_eq!(reference.frames.len(), 3);

    let mut resumed_runs = 0;
    for seed in 0..64u64 {
        // Kill cycles sweep 30%..95% of the run; cadence sweeps 50..~2000
        // cycles so the surviving checkpoint lands on different quiescent
        // points across seeds.
        let kill_at = total * (30 + seed) / 100;
        let every = 50 + (seed * 577) % 2000;
        let Some(resumed) = killed_and_resumed(seed, kill_at, every) else {
            continue;
        };
        resumed_runs += 1;
        resumed.assert_matches(&reference, &format!("seed {seed}"));
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
fn resume_from_a_capture_taken_with_boxes_asleep() {
    // Per-box sleep state is transient: a checkpoint taken while the
    // scheduler has boxes asleep must restore into a machine whose gates
    // are all awake (they re-derive sleep from the restored boxes) and
    // still finish bit-identically.
    let (reference, total) = baseline();
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
    let (reference, total) = baseline();
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
    let current = format!("\"version\": {FORMAT_VERSION}");
    // 999 is a future format; 4 carried the retired fault injector's
    // `fault` key, 3 the retired horizon back-off counter and 2 is the
    // run-length format, whose files the gate must turn away before it
    // looks at their body.
    assert_eq!(FORMAT_VERSION, 5);
    for other in [999u64, 4, 3, 2] {
        let changed = text.replace(&current, &format!("\"version\": {other}"));
        assert_ne!(changed, text, "version field must be present to change");
        std::fs::write(&path, changed).unwrap();
        match Checkpoint::read_file(&path) {
            Err(SimError::CheckpointVersion { found, supported }) => {
                assert_eq!(found, other, "error must report the version found in the file");
                assert_eq!(supported, FORMAT_VERSION);
            }
            Err(other) => panic!("other version: wrong error type: {other:?}"),
            Ok(_) => panic!("other version: accepted a bad checkpoint"),
        }
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

// ---------------------------------------------------------------------
// Version 3: sparse hex extents
// ---------------------------------------------------------------------

/// A machine stepped to the first quiescent point past `after` cycles of
/// `commands`, logging the trace hash as a checkpointing run would.
fn quiescent_machine(config: GpuConfig, commands: &[GpuCommand], after: u64) -> Gpu {
    let mut gpu = Gpu::new(config);
    gpu.checkpoint_every = Some(1 << 40);
    gpu.enqueue(commands);
    while !(gpu.cycle() > after && gpu.quiescent()) {
        gpu.try_step().expect("healthy run");
        assert!(gpu.cycle() < 50_000_000, "no quiescent point after cycle {after}");
    }
    gpu
}

/// Bytes of the image that sit in 4 KiB pages with any non-zero byte —
/// counted byte by byte, independently of the codec's page scan.
fn bytes_in_live_pages(image: &[u8]) -> usize {
    image.chunks(4096).filter(|p| p.iter().any(|&b| b != 0)).map(<[u8]>::len).sum()
}

/// Captures `gpu`, writes the file, and holds its size to what the live
/// pages cost: two hex digits a byte, 10 % for the pretty printer and
/// the small state, 256 KiB for the rest of the body.
fn assert_file_is_byte_proportional(gpu: &Gpu, commands: &[GpuCommand], tag: &str) {
    let path = tmp_ckpt(tag, 3);
    gpu.capture_checkpoint().write_file(&path).expect("writes");
    let file = std::fs::metadata(&path).expect("written").len() as usize;
    let live = bytes_in_live_pages(gpu.memory().gpu_mem().as_slice());
    assert!(live > 0, "{tag}: the image must hold something");
    assert!(
        file <= live * 22 / 10 + (256 << 10),
        "{tag}: {file} file bytes for {live} bytes in non-zero pages"
    );
    let ckpt = Checkpoint::read_file(&path).expect("reads back");
    assert_eq!(ckpt.body.memory.live_bytes(), live, "{tag}: extents are the non-zero pages");
    let restored = Gpu::restore(gpu.config().clone(), commands, &ckpt, None).expect("restores");
    assert!(
        restored.memory().gpu_mem().as_slice() == gpu.memory().gpu_mem().as_slice(),
        "{tag}: restored image differs"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn file_size_is_proportional_to_the_live_pages() {
    let (_, total) = baseline();
    let gpu = quiescent_machine(config(), scene(), total / 3);
    assert_file_is_byte_proportional(&gpu, scene(), "size-scene");

    // Texel-heavy: four 256x256 RGBA8 uploads whose low bits are noise, so
    // no two neighbouring bytes repeat (the run-length format spent ~20
    // file bytes on each).
    let params = workloads::WorkloadParams {
        width: W,
        height: H,
        frames: 4,
        texture_size: 256,
        ..Default::default()
    };
    let mut trace = workloads::texture_stream(params);
    let mut rng = TinyRng::new(11);
    for call in &mut trace.calls {
        if let GlCall::TexImage2D { pixels, .. } = call {
            pixels.iter_mut().for_each(|b| *b ^= (rng.next_u64() & 0xf) as u8);
        }
    }
    let commands = compile(trace.width, trace.height, &trace.calls).expect("compiles");
    let mut stream_config = GpuConfig::baseline();
    stream_config.display.width = W;
    stream_config.display.height = H;
    // Far past the end: the loop stops at the drained end of the run.
    let mut gpu = Gpu::new(stream_config);
    gpu.checkpoint_every = Some(1 << 40);
    gpu.run_trace(&commands).expect("drains");
    while !gpu.quiescent() {
        gpu.try_step().expect("healthy run");
    }
    assert!(bytes_in_live_pages(gpu.memory().gpu_mem().as_slice()) >= 4 * 256 * 256 * 4);
    assert_file_is_byte_proportional(&gpu, &commands, "size-texels");
}

#[test]
fn sparse_images_survive_encode_render_parse_decode() {
    const PAGE: usize = 4096;
    let dense = |s: &SparseBytes| {
        let mut image = vec![0u8; s.len];
        for (at, bytes) in &s.extents {
            image[*at..*at + bytes.len()].copy_from_slice(bytes);
        }
        image
    };
    let mut images: Vec<Vec<u8>> = vec![
        Vec::new(),
        vec![0; 3 * PAGE],      // all zero
        vec![0; 17],            // all zero, shorter than a page
        vec![0xa5; 5 * PAGE],   // all non-zero
        vec![1; 2 * PAGE + 99], // all non-zero, ragged end
    ];
    let edges = [(4 * PAGE, PAGE - 1), (4 * PAGE, PAGE), (4 * PAGE, 0), (3 * PAGE + 1, 3 * PAGE)];
    for (len, at) in edges {
        let mut one = vec![0; len]; // one non-zero byte, on a page edge
        one[at] = 1;
        images.push(one);
    }
    for seed in 0..64u64 {
        // Zero oceans with islands of noise at seeded places and sizes.
        let mut rng = TinyRng::new(seed);
        let mut image = vec![0u8; rng.range_u64(1, 40 * PAGE as u64) as usize];
        for _ in 0..rng.range_u64(0, 6) {
            let at = rng.range_u64(0, image.len() as u64) as usize;
            let end = (at + rng.range_u64(1, 3 * PAGE as u64) as usize).min(image.len());
            image[at..end].iter_mut().for_each(|b| *b = rng.next_u64() as u8);
        }
        images.push(image);
    }
    for (n, image) in images.iter().enumerate() {
        let sparse = SparseBytes::scan(image);
        assert_eq!(sparse.len, image.len());
        assert_eq!(sparse.live_bytes(), bytes_in_live_pages(image), "image {n}");
        let mut end = 0;
        for (at, bytes) in &sparse.extents {
            assert!(at % PAGE == 0 && !bytes.is_empty(), "image {n}: extent at {at}");
            assert!(*at > end || (end == 0 && *at == 0), "image {n}: runs are maximal");
            end = at + bytes.len();
        }
        for text in [sparse.to_json().render(), sparse.to_json().pretty()] {
            let parsed = attila_json::parse(&text).expect("a JSON document");
            let back = SparseBytes::from_json(&parsed, image.len(), "image").expect("decodes");
            assert_eq!(back, sparse, "image {n}");
            assert!(dense(&back) == *image, "image {n}: bytes differ");
        }
    }
}

fn field_mut<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = j else { panic!("not an object") };
    let found = fields.iter_mut().find(|(k, _)| k == key);
    &mut found.unwrap_or_else(|| panic!("no field `{key}`")).1
}

fn items_mut(j: &mut Json) -> &mut Vec<Json> {
    let Json::Arr(items) = j else { panic!("not an array") };
    items
}

/// The file's document with `mutate` applied to its body and the body
/// CRC computed again, so the change reaches the decoder instead of
/// stopping at the checksum (which is no secret).
fn with_body(text: &str, mutate: impl FnOnce(&mut Json)) -> Json {
    let mut doc = attila_json::parse(text).expect("a valid file");
    mutate(field_mut(&mut doc, "body"));
    let crc = crc32(field_mut(&mut doc, "body").render().as_bytes());
    *field_mut(&mut doc, "body_crc") = Json::Num(f64::from(crc));
    doc
}

/// A checkpoint of [`scene`] past its first frame, as file text: three
/// memory extents and one kept frame.
fn valid_text_with_a_frame() -> String {
    let (_, total) = baseline();
    let gpu = quiescent_machine(config(), scene(), total / 2);
    let text = gpu.capture_checkpoint().to_json().pretty();
    let ckpt = Checkpoint::from_json(&attila_json::parse(&text).unwrap()).expect("valid");
    assert!(ckpt.body.memory.extents.len() >= 2 && !ckpt.body.framebuffers.is_empty());
    text
}

#[test]
fn malformed_extents_yield_typed_errors() {
    let text = valid_text_with_a_frame();
    fn hex_mut(extents: &mut Json, i: usize) -> &mut String {
        let Json::Str(hex) = &mut items_mut(extents)[2 * i + 1] else { panic!("no hex") };
        hex
    }
    /// Moves extent `i` to where extent `from` starts, plus `delta`.
    fn move_extent(extents: &mut Json, i: usize, from: usize, delta: f64) {
        let at = items_mut(extents)[2 * from].as_f64().expect("an offset") + delta;
        items_mut(extents)[2 * i] = Json::Num(at);
    }
    type Mutation = Box<dyn Fn(&mut Json)>;
    let memory_cases: Vec<(&str, Mutation)> = vec![
        ("odd-length hex", Box::new(|m| hex_mut(m, 0).truncate(4095))),
        ("non-hex text", Box::new(|m| hex_mut(m, 0).replace_range(0..1, "g"))),
        ("uppercase hex", Box::new(|m| hex_mut(m, 0).replace_range(0..2, "AB"))),
        ("non-ASCII text", Box::new(|m| hex_mut(m, 0).replace_range(0..2, "é"))),
        ("hex is a number", Box::new(|m| items_mut(m)[1] = Json::Num(7.0))),
        ("unaligned extent", Box::new(|m| move_extent(m, 1, 1, 1.0))),
        ("fractional offset", Box::new(|m| move_extent(m, 0, 0, 0.5))),
        ("negative offset", Box::new(|m| move_extent(m, 0, 0, -4096.0 * 1024.0))),
        ("out of order", Box::new(|m| items_mut(m).swap(0, 2))),
        ("overlapping", Box::new(|m| move_extent(m, 1, 0, 0.0))),
        ("past the image", Box::new(|m| move_extent(m, 0, 0, 2f64.powi(52)))),
        ("dangling offset", Box::new(|m| items_mut(m).push(Json::Num(0.0)))),
        ("not an array", Box::new(|m| *m = Json::Str("00".into()))),
    ];
    for (what, mutate) in &memory_cases {
        let doc = with_body(&text, |body| mutate(field_mut(body, "memory")));
        expect_mismatch(Checkpoint::from_json(&doc), what);
    }

    // A length the extents no longer fit in fails in the decoder; one
    // that is merely wrong (and absurd: the old decoder reserved it and
    // aborted) decodes, allocating nothing, and fails against the machine.
    let doc = with_body(&text, |body| *field_mut(body, "memory_len") = Json::Num(4096.0));
    expect_mismatch(Checkpoint::from_json(&doc), "image shorter than its extents");
    let doc = with_body(&text, |body| *field_mut(body, "memory_len") = Json::Num(2f64.powi(50)));
    let huge = Checkpoint::from_json(&doc).expect("a length alone allocates nothing");
    assert_eq!(huge.body.memory.len, 1 << 50);
    match Gpu::restore(config(), scene(), &huge, None) {
        Err(SimError::CheckpointMismatch { reason }) => {
            assert!(reason.contains("memory image"), "names the image: {reason}")
        }
        other => panic!("wrong image size must be refused, got {other:?}"),
    }

    // Frames: the decoded bytes must be width x height x 4, whatever the
    // file claims the size is.
    fn resize(frame: &mut Json, width: f64, height: f64) {
        *field_mut(frame, "width") = Json::Num(width);
        *field_mut(frame, "height") = Json::Num(height);
    }
    let frame_cases: Vec<(&str, Mutation)> = vec![
        ("wider than its bytes", Box::new(|f| resize(f, f64::from(W + 1), f64::from(H)))),
        ("17 GB claimed", Box::new(|f| resize(f, 65535.0, 65535.0))),
        ("size overflows", Box::new(|f| resize(f, 4294967295.0, 4294967295.0))),
        ("zero pages omitted", Box::new(|f| items_mut(field_mut(f, "rgba")).clear())),
        ("not at offset 0", Box::new(|f| items_mut(field_mut(f, "rgba"))[0] = Json::Num(4096.0))),
    ];
    for (what, mutate) in &frame_cases {
        let doc = with_body(&text, |body| {
            mutate(&mut items_mut(field_mut(body, "framebuffers"))[0]);
        });
        expect_mismatch(Checkpoint::from_json(&doc), what);
    }

    // The helper itself keeps a file valid when it changes nothing.
    Checkpoint::from_json(&with_body(&text, |_| {})).expect("unchanged body still loads");
}

/// The `n`-th leaf under `j`, depth first (`n` is reduced as leaves pass).
fn nth_leaf<'a>(j: &'a mut Json, n: &mut usize) -> Option<&'a mut Json> {
    match j {
        Json::Arr(items) => items.iter_mut().find_map(|v| nth_leaf(v, n)),
        Json::Obj(fields) => fields.iter_mut().find_map(|(_, v)| nth_leaf(v, n)),
        leaf if *n == 0 => Some(leaf),
        _ => {
            *n -= 1;
            None
        }
    }
}

fn count_leaves(j: &Json) -> usize {
    match j {
        Json::Arr(items) => items.iter().map(count_leaves).sum(),
        Json::Obj(fields) => fields.iter().map(|(_, v)| count_leaves(v)).sum(),
        _ => 1,
    }
}

#[test]
fn mutated_files_never_panic_across_512_seeds() {
    let text = valid_text_with_a_frame();
    let path = tmp_ckpt("fuzz", 0);
    let leaves = count_leaves(attila_json::parse(&text).unwrap().get("body").unwrap());
    let (mut loaded, mut refused) = (0, 0);
    let mut outcome = |result: Result<Checkpoint, SimError>, seed: u64| {
        // Whatever loads must also survive being applied to a machine.
        match result.and_then(|ckpt| Gpu::restore(config(), scene(), &ckpt, None)) {
            Ok(_) => loaded += 1,
            Err(SimError::CheckpointMismatch { reason }) => {
                assert!(!reason.is_empty(), "seed {seed}");
                refused += 1;
            }
            Err(SimError::CheckpointVersion { .. }) => refused += 1,
            Err(other) => panic!("seed {seed}: untyped failure {other:?}"),
        }
    };
    for seed in 0..512u64 {
        let mut rng = TinyRng::new(seed);
        if seed.is_multiple_of(2) {
            // Raw bytes of the file: flips, overwrites, a cut, an insertion.
            let mut bytes = text.clone().into_bytes();
            for _ in 0..rng.range_u64(1, 5) {
                let at = rng.range_u64(0, bytes.len() as u64) as usize;
                match rng.range_u32(0, 4) {
                    0 => bytes[at] ^= 1 << rng.range_u32(0, 8),
                    1 => bytes[at] = rng.next_u64() as u8,
                    2 => bytes.truncate(at),
                    _ => bytes.insert(at, rng.next_u64() as u8),
                }
            }
            std::fs::write(&path, &bytes).unwrap();
            outcome(Checkpoint::read_file(&path), seed);
        } else {
            // One leaf of the body, behind a fresh CRC: this is what gets
            // past the checksum and into the decoders.
            let doc = with_body(&text, |body| {
                let mut n = rng.range_u64(0, leaves as u64) as usize;
                let leaf = nth_leaf(body, &mut n).expect("counted");
                *leaf = match (&*leaf, rng.range_u32(0, 4)) {
                    (Json::Str(s), 0) if !s.is_empty() => Json::Str(s[..s.len() - 1].to_string()),
                    (Json::Str(s), 1) => Json::Str(format!("{s}0")),
                    (Json::Str(_), 2) => Json::Str("zz".into()),
                    (Json::Num(v), 0) => Json::Num(v + 1.0),
                    (Json::Num(v), 1) => Json::Num(-v - 0.5),
                    (Json::Num(_), 2) => Json::Num(2f64.powi(rng.range_u32(20, 70) as i32)),
                    (Json::Bool(b), _) => Json::Bool(!b),
                    (Json::Null, _) => Json::Num(1.0),
                    _ => Json::Null,
                };
            });
            outcome(Checkpoint::from_json(&doc), seed);
        }
    }
    let _ = std::fs::remove_file(&path);
    assert!(refused >= 256, "only {refused} of 512 mutations were refused ({loaded} loaded)");
}

#[test]
fn checkpoint_text_is_pinned() {
    // Recorded at 1621d28, before the per-box state lists replaced the
    // hand-written codec, as version 3 (179 776 bytes). A deliberate format
    // change bumps FORMAT_VERSION and these together. Version 4 drops the
    // body's 44-byte line holding the horizon back-off counter; the rest
    // of the text differs from version 3 only in the version digit,
    // `config_hash` (the `on_fault` option left `GpuConfig`, whose JSON it
    // hashes) and the `body_crc` over the shorter body. Version 5 drops the
    // body's last key, the 19 bytes of `,\n    "fault": null` (fault
    // injection is gone); the rest differs from version 4 only in the
    // version digit and `body_crc`. Four config values that could hold
    // only one value became constants, leaving `GpuConfig`'s JSON: the
    // text differs from the earlier version-5 files only in `config_hash`.
    // So does it again since `hz.depth_bits` became `hz::DEPTH_BITS`.
    let text = valid_text_with_a_frame();
    assert_eq!(FORMAT_VERSION, 5);
    assert_eq!((text.len(), crc32(text.as_bytes())), (179_713, 0x3ed5_75bb));
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn expect_refusal(doc: &Json, config: GpuConfig, what: &str, names: &str) {
    let ckpt = Checkpoint::from_json(doc).unwrap_or_else(|e| panic!("{what}: {e}"));
    match Gpu::restore(config, scene(), &ckpt, None) {
        Err(SimError::CheckpointMismatch { reason }) => {
            assert!(reason.contains(names), "{what}: reason must name `{names}`: {reason}")
        }
        other => panic!("{what}: must be refused, got {other:?}"),
    }
}

#[test]
fn loaders_size_by_what_the_file_carries() {
    // Each of these sat behind a valid CRC and took the process down at
    // 1621d28: a geometry was built from a size the file *claimed* before
    // it was compared with what the file *held*.
    let text = valid_text_with_a_frame();
    fn z_cache(body: &mut Json) -> &mut Json {
        field_mut(&mut items_mut(field_mut(body, "zstencil"))[0], "cache")
    }
    type Mutation = Box<dyn Fn(&mut Json)>;
    let cases: Vec<(&str, &str, Mutation)> = vec![
        // `RopCache::new` asserted "buffer must be whole blocks".
        ("ROP len off the line grid", "len", Box::new(|b| *field_mut(z_cache(b), "len") = hex(257))),
        // 2^40 / 256 block states: "memory allocation of 34359738368 bytes failed".
        ("ROP len of 1 TiB", "len", Box::new(|b| *field_mut(z_cache(b), "len") = hex(1 << 40))),
        (
            // In range and on its grid only because nothing is resident:
            // the first fast clear would write past the image.
            "ROP surface past GPU memory",
            "ROP cache",
            Box::new(|b| {
                let lines = field_mut(field_mut(z_cache(b), "cache"), "lines");
                for line in items_mut(lines) {
                    *field_mut(line, "valid") = Json::Bool(false);
                }
                *field_mut(z_cache(b), "base") = hex((64 << 20) - 256);
            }),
        ),
        (
            // Line 0 with tag 0 is address 0; written back, it indexed the
            // block-state memory at (0 - base) / 256.
            "resident ROP line outside its surface",
            "zstencil: [0]: cache",
            Box::new(|b| {
                let lines = field_mut(field_mut(z_cache(b), "cache"), "lines");
                let line = &mut items_mut(lines)[0];
                *field_mut(line, "tag") = hex(0);
                *field_mut(line, "valid") = Json::Bool(true);
                *field_mut(line, "dirty") = Json::Bool(true);
            }),
        ),
        (
            // `resize_with` asked for 2^40 queues of 32 bytes.
            "2^40 queue slots",
            "queue_slots",
            Box::new(|b| {
                let slots = field_mut(field_mut(b, "mem_ctrl"), "queue_slots");
                items_mut(slots)[0] = Json::Num(2f64.powi(40));
            }),
        ),
        (
            // `block_count` multiplied two u32 tile counts in a u32.
            "HZ surface of 2^30 x 2^30",
            "bound_z",
            Box::new(|b| {
                let surface = items_mut(field_mut(field_mut(b, "hz"), "bound_z"));
                surface[1] = Json::Num(2f64.powi(30));
                surface[2] = Json::Num(2f64.powi(30));
            }),
        ),
        (
            // Restored; `stats().csv()` then wrote 65 537 rows for a run
            // that had closed no window (at 2^40, it never returned).
            "65536 windows closed, none carried",
            "windows",
            Box::new(|b| {
                *field_mut(field_mut(b, "stats"), "windows_closed") = Json::Num(65536.0);
            }),
        ),
    ];
    for (what, names, mutate) in &cases {
        expect_refusal(&with_body(&text, mutate), config(), what, names);
    }
}

/// Arrays the directed sweep leaves to the 512-seed loop: bulk data,
/// thousands of words that are all read by the same line of a decoder.
const BULK_KEYS: [&str; 6] = ["memory", "rgba", "lines", "blocks", "entry_bits", "windows"];

/// Calls `visit` on every scalar under `j` outside [`BULK_KEYS`], depth
/// first, with its path; stops at (and returns) the first `Some`.
fn each_scalar<R>(
    j: &mut Json,
    path: &str,
    visit: &mut impl FnMut(&mut Json, &str) -> Option<R>,
) -> Option<R> {
    match j {
        Json::Arr(items) => items
            .iter_mut()
            .enumerate()
            .find_map(|(i, v)| each_scalar(v, &format!("{path}[{i}]"), visit)),
        Json::Obj(fields) => fields
            .iter_mut()
            .filter(|(key, _)| !BULK_KEYS.contains(&key.as_str()))
            .find_map(|(key, v)| each_scalar(v, &format!("{path}.{key}"), visit)),
        leaf => visit(leaf, path),
    }
}

/// What a hostile writer would put in place of `leaf`: a neighbouring
/// value, zero, 2^40, a negative, a fraction — each in the leaf's own
/// encoding — then another JSON type and `null`.
fn hostile_values(leaf: &Json) -> Vec<Json> {
    let str = |s: &str| Json::Str(s.to_string());
    let mut values = match leaf {
        Json::Str(s) if s.len() == 16 && u64::from_str_radix(s, 16).is_ok() => {
            let v = u64::from_str_radix(s, 16).unwrap();
            vec![hex(v.wrapping_add(1)), hex(0), hex(1 << 40), str("-000000000000001"), str("0.5")]
        }
        Json::Str(s) => vec![str(&format!("{s}x")), str(""), hex(0)],
        Json::Num(v) => [v + 1.0, 0.0, 2f64.powi(40), -v - 1.0, v + 0.5].map(Json::Num).to_vec(),
        Json::Bool(b) => vec![Json::Bool(!b)],
        _ => vec![Json::Bool(true), hex(0)],
    };
    values.push(if matches!(leaf, Json::Num(_)) { str("1") } else { Json::Num(1.0) });
    values.push(Json::Null);
    values.retain(|v| v != leaf);
    values
}

#[test]
fn every_scalar_leaf_survives_a_hostile_value() {
    // Short sampling windows, so the captured file carries several closed
    // ones and the resumed tail closes more.
    let mut config = config();
    config.stats.window_cycles = 256;
    let (_, total) = baseline();
    let gpu = quiescent_machine(config.clone(), scene(), total / 2);
    let mut doc = gpu.capture_checkpoint().to_json();
    assert!(gpu.stats().windows_closed() >= 8, "the file must carry closed windows");

    let mut paths = Vec::new();
    each_scalar(field_mut(&mut doc, "body"), "body", &mut |_, path| {
        paths.push(path.to_string());
        None::<()>
    });
    assert!(paths.len() > 500, "only {} scalar leaves found", paths.len());

    let (mut refused, mut ran) = (0, 0);
    for (n, path) in paths.iter().enumerate() {
        // Swaps `value` with the `n`-th scalar and returns what was there.
        let swap = |doc: &mut Json, mut value: Json| {
            let mut seen = 0;
            each_scalar(field_mut(doc, "body"), "body", &mut |leaf, _| {
                seen += 1;
                (seen > n).then(|| std::mem::swap(leaf, &mut value))
            });
            value
        };
        let original = swap(&mut doc, Json::Null);
        for hostile in hostile_values(&original) {
            let what = format!("{path} = {}", hostile.render());
            swap(&mut doc, hostile);
            let crc = crc32(field_mut(&mut doc, "body").render().as_bytes());
            *field_mut(&mut doc, "body_crc") = Json::Num(f64::from(crc));
            let restored = Checkpoint::from_json(&doc)
                .and_then(|ckpt| Gpu::restore(config.clone(), scene(), &ckpt, None));
            let mut gpu = match restored {
                Ok(gpu) => gpu,
                Err(SimError::CheckpointMismatch { reason }) => {
                    assert!(!reason.is_empty(), "{what}");
                    refused += 1;
                    continue;
                }
                Err(other) => panic!("{what}: untyped refusal {other:?}"),
            };
            // Whatever loads must also run: a typed error (the watchdog,
            // mostly) or the end of the trace, and a CSV of the size its
            // own window count says.
            gpu.max_cycles = 600;
            let _ = gpu.run_trace(&[]);
            let rows = gpu.stats().csv().lines().count();
            assert_eq!(rows, gpu.stats().windows_closed() + 1, "{what}");
            ran += 1;
        }
        swap(&mut doc, original);
    }
    assert!(refused > 1000 && ran > 500, "{refused} refused, {ran} ran");
}

#[test]
fn failed_write_leaves_no_temp_file() {
    // The destination is a directory: the document is written and synced
    // to the temp file, and the final rename is what fails.
    let dir = tmp_ckpt("is-a-dir", 0);
    std::fs::create_dir_all(&dir).unwrap();
    let mut gpu = Gpu::new(config());
    gpu.checkpoint_every = Some(1 << 40);
    match gpu.capture_checkpoint().write_file(&dir) {
        Err(SimError::CheckpointMismatch { reason }) => {
            assert!(reason.contains("write failed"), "{reason}")
        }
        other => panic!("writing onto a directory must fail with the typed error: {other:?}"),
    }
    let stray = dir.with_extension("ckpt.tmp");
    let left_behind = stray.exists();
    let _ = std::fs::remove_file(&stray);
    let _ = std::fs::remove_dir(&dir);
    assert!(!left_behind, "{} was left behind", stray.display());
}

#[test]
fn running_trace_hash_is_chunk_independent_and_survives_restore() {
    let whole = trace_hash(scene());
    for chunks in [1usize, 2, 7] {
        let mut gpu = Gpu::new(config());
        gpu.checkpoint_every = Some(1 << 40);
        for chunk in scene().chunks(scene().len().div_ceil(chunks)) {
            gpu.enqueue(chunk);
        }
        assert_eq!(gpu.capture_checkpoint().trace_hash, whole, "{chunks} chunks");
    }

    // A restored machine picks the hash up where the file left it: more
    // commands enqueued on it hash as the longer trace.
    let (_, total) = baseline();
    let gpu = quiescent_machine(config(), scene(), total / 2);
    let ckpt = gpu.capture_checkpoint();
    assert_eq!(ckpt.trace_hash, whole);
    let mut resumed = Gpu::restore(config(), scene(), &ckpt, None).expect("restores");
    resumed.checkpoint_every = Some(1 << 40);
    assert_eq!(resumed.capture_checkpoint().trace_hash, whole);
    let extra = &scene()[..5];
    resumed.enqueue(extra);
    let longer: Vec<GpuCommand> = scene().iter().chain(extra).cloned().collect();
    assert_eq!(resumed.capture_checkpoint().trace_hash, trace_hash(&longer));
}
