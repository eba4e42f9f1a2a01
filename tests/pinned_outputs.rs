//! The machine, pinned. The four CLI scenes at 160×120 × 2 frames
//! (`attila --workload W --width 160 --height 120 --frames 2 --stats`) must
//! keep their cycle count, every frame and the windowed statistics CSV to
//! the byte. A change that claims "bit-identical" — a host-speed PR, a
//! refactor of a box — is held to it here instead of by a manual `cmp`
//! against the parent's binary.
//!
//! A fifth row runs `doom3` under the in-order shader queue of the paper's
//! Section 5 case study, the scheduler no CLI scene uses. A sixth runs the
//! benchmark ledger's `ut2004_geometry` scene (`ut2004_like` at 48×48, two
//! frames, 64² textures, detail 8): 52 620 vertices for few fragments, the
//! Streamer's index-chunk, attribute-fetch and post-shading-cache path.
//!
//! The first four values were recorded at d371d8a, the parent of the
//! texture fast path, the fifth at 5ae9def, the sixth at de852b5, before
//! the Streamer kept a stalled vertex's resolution. A PR that moves them on purpose
//! (a timing-model change) re-pins them from the table the failure message
//! prints and says why.

use attila::core::config::{GpuConfig, ShaderScheduling};
use attila::core::gpu::Gpu;
use attila::gl::workloads::{self, WorkloadParams};
use attila::gl::{GlPlayer, GlTrace};

/// FNV-1a, 64-bit: a stable, dependency-free digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The trace `attila --workload name --width 160 --height 120 --frames 2`
/// renders, or the ledger's `ut2004_geometry` scene.
fn scene_trace(name: &str) -> GlTrace {
    let (width, height) = (160, 120);
    let params = WorkloadParams {
        width,
        height,
        frames: 2,
        texture_size: 128,
        ..Default::default()
    };
    match name {
        "doom3" => workloads::doom3_like(params),
        "fillrate" => workloads::fillrate(width, height, 8, true),
        "ut2004" => workloads::ut2004_like(params),
        "texture_stream" => workloads::texture_stream(params),
        "ut2004_geometry" => workloads::ut2004_like(WorkloadParams {
            width: 48,
            height: 48,
            frames: 2,
            texture_size: 64,
            detail: 8,
            seed: 0x00A7_711A,
            ..Default::default()
        }),
        other => unreachable!("no CLI scene {other}"),
    }
}

/// The pinned scenes: a CLI workload and the shader scheduler it runs under.
const SCENES: [(&str, ShaderScheduling); 6] = [
    ("doom3", ShaderScheduling::ThreadWindow),
    ("fillrate", ShaderScheduling::ThreadWindow),
    ("ut2004", ShaderScheduling::ThreadWindow),
    ("texture_stream", ShaderScheduling::ThreadWindow),
    ("doom3", ShaderScheduling::InOrderQueue),
    ("ut2004_geometry", ShaderScheduling::ThreadWindow),
];

/// One line per scene, `name cycles csv-digest frame-digest…` (the name
/// followed by `/in-order` under the in-order queue), and the cycles the
/// clock loop jumped over.
fn outcome(name: &str, scheduling: ShaderScheduling) -> (String, u64) {
    let trace = scene_trace(name);
    let commands = GlPlayer::new().replay(&trace).expect("trace replays");
    let mut config = GpuConfig::baseline();
    config.display.width = trace.width;
    config.display.height = trace.height;
    config.shader.scheduling = scheduling;
    let mut gpu = Gpu::new(config);
    let result = gpu.run_trace(&commands).expect("scene drains");
    let label = match scheduling {
        ShaderScheduling::ThreadWindow => name.to_string(),
        ShaderScheduling::InOrderQueue => format!("{name}/in-order"),
    };
    let mut line = format!(
        "{label} {} {:016x}",
        result.cycles,
        fnv1a(gpu.stats().csv().as_bytes())
    );
    for frame in &result.framebuffers {
        line += &format!(" {:016x}", fnv1a(&frame.rgba));
    }
    (line, gpu.cycles_skipped())
}

/// `cycles`, then the FNV-64 of `stats().csv()` (equal to that of the
/// CLI's `stats.csv`), then one FNV-64 per frame's RGBA bytes.
const PINNED: [&str; 6] = [
    "doom3 654791 c7019ddabd5df443 5b24a8d1196cf64a 55888f541ece4fc6",
    "fillrate 105471 db18374d496fb821 237be738ab153ec2",
    "ut2004 95869 21321263936b4612 6aeb9aa98c7a52d5 fbbca730eef6ba36",
    "texture_stream 23931 f3484820b783842b c2dc5c68095ecb6e 86905c155d90a609",
    "doom3/in-order 1296104 5e11eeb826eb2cd2 5b24a8d1196cf64a 55888f541ece4fc6",
    "ut2004_geometry 476521 a528a72bd1632f7a e8929e32e2c41d6a 517f1779afa53655",
];

/// `cycles_skipped` of each scene at ad85ddb, where the clock loop still
/// jumped by a fresh fold of every unit's horizon behind a 32-step back-off
/// and the memory controller clocked on every stepped cycle. Reading the
/// gates instead may only find more idle cycles, never fewer. The fifth,
/// the in-order queue's, is its count at 5ae9def; the sixth, the
/// geometry scene's, at de852b5.
const SKIPPED_FLOOR: [u64; 6] = [15_300, 2_332, 13_425, 15_309, 15_563, 38_533];

#[test]
fn cli_scenes_are_pinned() {
    let (actual, skipped): (Vec<String>, Vec<u64>) =
        SCENES.iter().map(|&(name, scheduling)| outcome(name, scheduling)).unzip();
    assert_eq!(
        actual, PINNED,
        "a pinned scene moved; the measured table is on the left"
    );
    for ((line, skipped), floor) in actual.iter().zip(skipped).zip(SKIPPED_FLOOR) {
        assert!(skipped >= floor, "{line} skipped {skipped} cycles, fewer than {floor}");
    }
}
