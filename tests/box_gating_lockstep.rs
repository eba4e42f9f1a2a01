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
/// and how many box-cycles the gated machine slept through.
fn assert_lockstep(config: GpuConfig, trace: &GlTrace) -> (u64, u64) {
    let commands = compile(trace.width, trace.height, &trace.calls).expect("trace compiles");
    let mut gated = machine(&config, trace, true);
    let mut plain = machine(&config, trace, false);
    gated.enqueue(&commands);
    plain.enqueue(&commands);
    let mut windows = 0;
    let mut slept = 0u64;
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
        slept += g.boxes.iter().filter(|b| b.asleep).count() as u64;
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

#[test]
fn doom3_like_baseline() {
    assert_lockstep(GpuConfig::baseline(), &workloads::doom3_like(tiny_params()));
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
    let (cycles, slept) = assert_lockstep(GpuConfig::baseline(), &trace);
    assert!(
        slept > 4 * cycles,
        "a geometry-bound frame should sleep several boxes on the average \
         cycle: {slept} box-cycles asleep over {cycles} cycles"
    );
}
