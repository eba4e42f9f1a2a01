//! Per-box sleep gating must be invisible cycle by cycle, not just at the
//! end of a run: two machines step side by side through `try_step()`, one
//! with `skip_idle` on (sleeping boxes are left unclocked) and one with it
//! off (every box clocks every cycle — the paper's loop). Driving
//! `try_step()` directly keeps the machine-level clock jump out of the
//! picture, so box gating is the only difference between the twins, and
//! every piece of state a box could have changed on a cycle it should have
//! been clocked on is compared after that very cycle.

use attila::core::config::{GpuConfig, ShaderScheduling};
use attila::core::gpu::Gpu;
use attila::core::BoxStatus;
use attila::gl::workloads::{self, WorkloadParams};
use attila::gl::{compile, GlTrace};

/// The scheduler's own checks are `debug_assert!`s: the gates against the
/// gate-free reference fold, the walk's check on every box it leaves
/// asleep, and the end-of-step check that no wire holds an arrival left
/// unread. Every test here, and every other debug-build test that runs a
/// trace, leans on them. `[profile.test]` raises `opt-level` for speed; a
/// further tweak that also dropped `debug-assertions` would switch them
/// all off without a sound, so this test fails instead.
#[test]
#[expect(
    clippy::assertions_on_constants,
    reason = "the constant is the build profile under test; a const block would stop the whole \
              file from compiling in a release build instead of failing this one test"
)]
fn scheduler_checks_are_compiled_in() {
    assert!(
        cfg!(debug_assertions),
        "the scheduler's debug assertions are off in this test build: re-enable \
         `debug-assertions` in the profile the tests are built with"
    );
}

fn tiny_params() -> WorkloadParams {
    WorkloadParams { width: 64, height: 64, frames: 1, texture_size: 32, ..Default::default() }
}

fn machine(config: &GpuConfig, trace: &GlTrace, skip_idle: bool) -> Gpu {
    let mut config = config.clone();
    config.display.width = trace.width;
    config.display.height = trace.height;
    config.stats.window_cycles = 10_000;
    let mut gpu = Gpu::new(config);
    gpu.skip_idle = skip_idle;
    gpu.keep_frames = false;
    gpu
}

/// What a box's `clock()` can change that the report shows: the gate
/// columns legitimately differ between the twins and are left out.
fn occupancy(boxes: &[BoxStatus]) -> Vec<(&str, bool, usize)> {
    boxes.iter().map(|b| (b.name.as_str(), b.busy, b.queued)).collect()
}

/// Steps both machines to the end of the trace, returning the cycle count
/// and, per box in table order, how many cycles the gated machine slept
/// that box through.
fn assert_lockstep(config: GpuConfig, trace: &GlTrace) -> (u64, Vec<(String, u64)>) {
    let commands = compile(trace.width, trace.height, &trace.calls).expect("trace compiles");
    let mut gated = machine(&config, trace, true);
    let mut plain = machine(&config, trace, false);
    gated.enqueue(&commands);
    plain.enqueue(&commands);
    let mut windows = 0;
    let mut slept: Vec<(String, u64)> = Vec::new();
    loop {
        let cycle = plain.cycle();
        assert!(cycle < 20_000_000, "trace failed to drain");
        gated.try_step().unwrap_or_else(|e| panic!("gated machine, cycle {cycle}: {e}"));
        plain.try_step().unwrap_or_else(|e| panic!("plain machine, cycle {cycle}: {e}"));

        let g = gated.failure_report(None);
        let p = plain.failure_report(None);
        for (gb, pb) in occupancy(&g.boxes).iter().zip(&occupancy(&p.boxes)) {
            assert_eq!(gb, pb, "first divergence after cycle {cycle}, box {}\n{g}", pb.0);
        }
        for (gs, ps) in g.signals.iter().zip(&p.signals) {
            assert_eq!(gs, ps, "first divergence after cycle {cycle}, signal {}\n{g}", ps.name);
        }
        assert_eq!(
            gated.work_horizon(),
            plain.work_horizon(),
            "machine horizons diverge after cycle {cycle}\n{g}"
        );
        assert_eq!(
            gated.stats().totals_csv(),
            plain.stats().totals_csv(),
            "statistic totals diverge after cycle {cycle}\n{g}"
        );
        // The windowed CSV is a function of the closed windows alone, so
        // comparing it whenever one closes compares it after every cycle.
        if plain.stats().windows_closed() != windows {
            windows = plain.stats().windows_closed();
            assert_eq!(gated.stats().csv(), plain.stats().csv(), "window {windows} diverges");
        }
        assert!(p.boxes.iter().all(|b| !b.asleep), "skip_idle off must clock everything");
        if slept.is_empty() {
            slept = g.boxes.iter().map(|b| (b.name.clone(), 0)).collect();
        }
        for ((_, n), b) in slept.iter_mut().zip(&g.boxes) {
            *n += u64::from(b.asleep);
        }
        if p.boxes.iter().all(|b| !b.busy) {
            break;
        }
    }
    assert_eq!(gated.stats().csv(), plain.stats().csv(), "final windowed statistics diverge");
    assert_eq!(gated.cycles_skipped(), 0, "try_step never jumps the clock");
    (plain.cycle(), slept)
}

#[test]
fn quickstart_baseline() {
    assert_lockstep(GpuConfig::baseline(), &workloads::quickstart_trace(64, 64));
}

/// Asleep box-cycles of the Streamer, Primitive Assembly, the Clipper,
/// Triangle Setup and the texture units below which units waiting on a
/// credit, a memory reply or their own filter are being clocked again.
const WAITING_FLOOR: u64 = 220_000;

/// Also holds the units that wait more than they work to their sleep: the
/// geometry front end stalls behind the shaders and on vertex fetches, and
/// a texture unit spends most of a request waiting for its fills or its
/// filter. The floor sits between the 117 159 box-cycles these units slept
/// over the frame's 62 627 cycles when a batch in flight or a request in
/// service meant `Busy` and the 329 709 they sleep now.
#[test]
fn doom3_like_baseline() {
    let trace = workloads::doom3_like(tiny_params());
    let (cycles, per_box) = assert_lockstep(GpuConfig::baseline(), &trace);
    let waiting: u64 = per_box
        .iter()
        .filter(|(name, _)| {
            ["Streamer", "PrimitiveAssembly", "Clipper", "TriangleSetup"].contains(&name.as_str())
                || name.starts_with("Texture")
        })
        .map(|(_, n)| n)
        .sum();
    assert!(
        waiting >= WAITING_FLOOR,
        "the waiting units slept {waiting} box-cycles over {cycles} cycles \
         (floor {WAITING_FLOOR}); per box: {per_box:?}"
    );
}

/// The Section 5 case study: in-order shader queues stall whole units on
/// texture misses, the longest box-level idle stretches inside a busy run.
#[test]
fn doom3_like_in_order_queue_case_study() {
    let trace = workloads::doom3_like(tiny_params());
    assert_lockstep(GpuConfig::case_study(3, ShaderScheduling::InOrderQueue), &trace);
}

#[test]
fn ut2004_like_non_unified() {
    let trace = workloads::ut2004_like(tiny_params());
    assert_lockstep(GpuConfig::non_unified_baseline(), &trace);
}

#[test]
fn embedded_scene_embedded_gpu() {
    let mut params = tiny_params();
    params.width = 48;
    params.height = 48;
    assert_lockstep(GpuConfig::embedded(), &workloads::embedded_scene(params));
}

#[test]
fn fillrate_baseline() {
    assert_lockstep(GpuConfig::baseline(), &workloads::fillrate(64, 64, 4, true));
}

/// Asleep box-cycles of the two Colour Write units below which a unit
/// whose head quad waits for its line's fill is being clocked again.
const COLOR_WRITE_FLOOR: u64 = 40_000;

/// The fill-bound back end: four full-screen layers over a 48 KiB colour
/// buffer, which the two 16 KiB colour caches cannot hold, keep the Colour
/// Write units' head quads waiting on fills. A memory reply wakes such a unit,
/// not its horizon. The floor sits between the 28 479 box-cycles the two
/// slept over the scene's 37 478 cycles at 5ae9def, where fills in flight
/// meant `Busy`, and the 50 819 they sleep now.
#[test]
fn fillrate_fill_bound_sleeps_the_color_write_units() {
    let (cycles, per_box) =
        assert_lockstep(GpuConfig::baseline(), &workloads::fillrate(128, 96, 4, true));
    let color_write: u64 =
        per_box.iter().filter(|(name, _)| name.starts_with("ColorWrite")).map(|(_, n)| n).sum();
    assert!(
        color_write >= COLOR_WRITE_FLOOR,
        "the Colour Write units slept {color_write} box-cycles over {cycles} cycles \
         (floor {COLOR_WRITE_FLOOR}); per box: {per_box:?}"
    );
}

#[test]
fn texture_stream_baseline() {
    let mut params = tiny_params();
    params.texture_size = 64;
    assert_lockstep(GpuConfig::baseline(), &workloads::texture_stream(params));
}

/// The geometry-bound shape the gate exists for: many vertices, few
/// fragments, an idle back end. Also proves the gate does something —
/// most back-end box-cycles must actually be slept through.
#[test]
fn ut2004_like_geometry_bound_sleeps_the_back_end() {
    let mut params = tiny_params();
    params.width = 48;
    params.height = 48;
    params.detail = 8;
    let trace = workloads::ut2004_like(params);
    let (cycles, per_box) = assert_lockstep(GpuConfig::baseline(), &trace);
    let slept: u64 = per_box.iter().map(|(_, n)| n).sum();
    assert!(
        slept > 4 * cycles,
        "a geometry-bound frame should sleep several boxes on the average \
         cycle: {slept} box-cycles asleep over {cycles} cycles"
    );
}

/// Asleep box-cycles of FragGen, HZ, the Z/stencil units and the
/// Interpolator below which stalled units are being clocked again.
const FRONT_END_FLOOR: u64 = 250_000;

/// The texture-bound shape: one texture unit behind a `doom3_like` light
/// pass backs the fragment front end up behind the shaders. A unit whose
/// output is out of credits must sleep until one returns instead of being
/// clocked to find that out. The floor sits between the 51 986 box-cycles
/// these units slept over the frame's 116 716 cycles when they reported
/// `Busy` on any queued input and the 546 263 they sleep now (482 948
/// while each gate still cached a `Busy` answer for 32 clocks).
#[test]
fn doom3_like_texture_bound_sleeps_the_stalled_front_end() {
    let mut config = GpuConfig::baseline();
    config.texture.units = 1;
    let (cycles, per_box) = assert_lockstep(config, &workloads::doom3_like(tiny_params()));
    let front_end: u64 = per_box
        .iter()
        .filter(|(name, _)| {
            ["FragmentGenerator", "HierarchicalZ", "Interpolator"].contains(&name.as_str())
                || name.starts_with("ZStencil")
        })
        .map(|(_, n)| n)
        .sum();
    assert!(
        front_end >= FRONT_END_FLOOR,
        "the stalled fragment front end slept {front_end} box-cycles over {cycles} cycles \
         (floor {FRONT_END_FLOOR}); per box: {per_box:?}"
    );
}
