//! The machine, pinned. The four CLI scenes at 160×120 × 2 frames
//! (`attila --workload W --width 160 --height 120 --frames 2 --stats`) must
//! keep their cycle count, every frame and the windowed statistics CSV to
//! the byte. A change that claims "bit-identical" — a host-speed PR, a
//! refactor of a box — is held to it here instead of by a manual `cmp`
//! against the parent's binary.
//!
//! The values were recorded at d371d8a, the parent of the texture fast
//! path. A PR that moves them on purpose (a timing-model change) re-pins
//! them from the table the failure message prints and says why.

use attila::core::config::GpuConfig;
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
/// renders.
fn cli_trace(name: &str) -> GlTrace {
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
        other => unreachable!("no CLI scene {other}"),
    }
}

/// One line per scene: `name cycles csv-digest frame-digest…`.
fn outcome(name: &str) -> String {
    let trace = cli_trace(name);
    let commands = GlPlayer::new().replay(&trace).expect("trace replays");
    let mut config = GpuConfig::baseline();
    config.display.width = trace.width;
    config.display.height = trace.height;
    let mut gpu = Gpu::new(config);
    let result = gpu.run_trace(&commands).expect("scene drains");
    let mut line = format!(
        "{name} {} {:016x}",
        result.cycles,
        fnv1a(gpu.stats().csv().as_bytes())
    );
    for frame in &result.framebuffers {
        line += &format!(" {:016x}", fnv1a(&frame.rgba));
    }
    line
}

/// `cycles`, then the FNV-64 of `stats().csv()` (equal to that of the
/// CLI's `stats.csv`), then one FNV-64 per frame's RGBA bytes.
const PINNED: [&str; 4] = [
    "doom3 654791 c7019ddabd5df443 5b24a8d1196cf64a 55888f541ece4fc6",
    "fillrate 105471 db18374d496fb821 237be738ab153ec2",
    "ut2004 95869 21321263936b4612 6aeb9aa98c7a52d5 fbbca730eef6ba36",
    "texture_stream 23931 f3484820b783842b c2dc5c68095ecb6e 86905c155d90a609",
];

#[test]
fn cli_scenes_are_pinned() {
    let names = ["doom3", "fillrate", "ut2004", "texture_stream"];
    let actual: Vec<String> = names.iter().map(|n| outcome(n)).collect();
    assert_eq!(
        actual, PINNED,
        "a pinned scene moved; the measured table is on the left"
    );
}
