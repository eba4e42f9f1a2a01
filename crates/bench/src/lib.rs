//! # attila-bench — experiment harnesses
//!
//! Regenerates every table and figure of the ATTILA ISPASS 2006 paper's
//! evaluation:
//!
//! | Paper artefact | Harness binary |
//! |---|---|
//! | Table 1 (unit bandwidths / queues / latencies) | `table1` |
//! | Table 2 (cache geometry + behaviour) | `table2` |
//! | Figure 7 (performance vs texture units, two schedulers) | `fig7` |
//! | Figure 8 (texture cache hit rate and bandwidth) | `fig8` |
//! | Figure 9 (unit-utilization time series) | `fig9` |
//! | Figure 10 (rendered-frame validation) | `fig10` |
//!
//! Benches in `benches/` (plain `harness = false` programs timed with
//! [`std::time::Instant`]) cover the same ground as repeatable
//! micro-measurements plus the design-choice ablations (HZ, compression,
//! traversal, unified vs non-unified) and the event-horizon scheduler
//! (`idle_skip`: cycles per wall-second with idle skipping on vs off,
//! gated on bit-identical results between the two modes).
//!
//! Absolute cycle counts differ from the paper's (their substrate was a
//! 2006 testbed, their traces real games at 1024×768); the harnesses
//! report the *shape* — who wins, by what factor, where behaviour
//! saturates — which is what `EXPERIMENTS.md` records.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use attila_core::config::{GpuConfig, ShaderScheduling};
use attila_core::gpu::Gpu;
use attila_gl::workloads::WorkloadParams;
use attila_gl::{compile, GlTrace};

/// Metrics extracted from one simulation run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Frames rendered.
    pub frames: u64,
    /// Frames per second at the configured clock.
    pub fps: f64,
    /// Aggregate texture cache hit rate.
    pub tex_hit_rate: f64,
    /// Texture bytes fetched from DRAM.
    pub tex_bytes: u64,
    /// Total DRAM bytes moved.
    pub mem_bytes: u64,
    /// Per-shader-unit busy cycles.
    pub shader_busy: Vec<u64>,
    /// Per-texture-unit busy cycles.
    pub texture_busy: Vec<u64>,
    /// Windowed statistics CSV (the simulator's statistics file).
    pub stats_csv: String,
    /// Per-window samples of the busy-cycle statistics.
    pub windows: Vec<(String, Vec<f64>)>,
}

/// Runs `trace` on `config`.
///
/// # Panics
///
/// Panics if the trace fails to compile or the watchdog expires (a
/// harness bug, not a measurement).
pub fn run_workload(mut config: GpuConfig, trace: &GlTrace) -> RunMetrics {
    config.display.width = trace.width;
    config.display.height = trace.height;
    let commands = compile(trace.width, trace.height, &trace.calls).expect("trace compiles");
    let clock = config.display.clock_mhz;
    let mut gpu = Gpu::new(config);
    gpu.max_cycles = 2_000_000_000;
    gpu.keep_frames = false;
    let result = gpu.run_trace(&commands).expect("simulation drains");
    let (_, _, tex_hit_rate) = gpu.texture_cache_stats();
    let mut windows = Vec::new();
    for name in gpu.stats().names() {
        if name.contains("busy_cycles") {
            if let Some(series) = gpu.stats().window_series(name) {
                windows.push((name.to_string(), series.to_vec()));
            }
        }
    }
    RunMetrics {
        cycles: result.cycles,
        frames: result.frames,
        fps: result.fps(clock),
        tex_hit_rate,
        tex_bytes: gpu.texture_bytes_read(),
        mem_bytes: gpu.memory().bytes_read() + gpu.memory().bytes_written(),
        shader_busy: gpu.shader_busy_cycles(),
        texture_busy: gpu.texture_busy_cycles(),
        stats_csv: gpu.stats().csv(),
        windows,
    }
}

/// One simulation pass for the idle-skip benchmark: runs `trace` with the
/// event-horizon scheduler on or off and returns
/// `(final cycles, cycles skipped, FNV-1a hash over every dumped frame)`.
///
/// # Panics
///
/// Panics if the trace fails to compile or the watchdog expires.
pub fn run_skip_pass(mut config: GpuConfig, trace: &GlTrace, skip: bool) -> (u64, u64, u64) {
    config.display.width = trace.width;
    config.display.height = trace.height;
    let commands = compile(trace.width, trace.height, &trace.calls).expect("trace compiles");
    let mut gpu = Gpu::new(config);
    gpu.max_cycles = 2_000_000_000;
    gpu.skip_idle = skip;
    let result = gpu.run_trace(&commands).expect("simulation drains");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for frame in &result.framebuffers {
        for &b in &frame.rgba {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (result.cycles, gpu.cycles_skipped(), hash)
}

/// The Section 5 case-study configuration with `tus` texture units, the
/// given scheduler and a statistics window.
pub fn case_study_config(tus: usize, sched: ShaderScheduling, window: u64) -> GpuConfig {
    let mut c = GpuConfig::case_study(tus, sched);
    c.stats.window_cycles = window;
    c
}

/// Harness workload scale: `--full` runs closer to paper scale.
pub fn harness_params(full: bool) -> WorkloadParams {
    if full {
        WorkloadParams {
            width: 320,
            height: 240,
            frames: 5,
            texture_size: 256,
            detail: 2,
            ..Default::default()
        }
    } else {
        WorkloadParams {
            width: 160,
            height: 120,
            frames: 2,
            texture_size: 128,
            detail: 1,
            ..Default::default()
        }
    }
}

/// Whether `--full` was passed on the command line.
pub fn is_full_run() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Formats a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// A dependency-free measurement loop for the `harness = false` benches:
/// runs `f` for one warm-up pass plus `samples` timed passes and prints
/// the best and mean wall-clock time per pass.
///
/// The best-of-N is the headline number (least scheduler noise); the mean
/// is printed alongside so outliers are visible. `iters_per_sample`
/// repeats `f` inside one timed sample for sub-microsecond work.
pub fn bench_case<F: FnMut()>(name: &str, samples: u32, iters_per_sample: u32, mut f: F) {
    f(); // warm-up: first pass pays cold caches and lazy init
    let mut best = f64::INFINITY;
    let mut total = 0.0f64;
    for _ in 0..samples.max(1) {
        let start = std::time::Instant::now();
        for _ in 0..iters_per_sample.max(1) {
            f();
        }
        let per_iter = start.elapsed().as_secs_f64() / f64::from(iters_per_sample.max(1));
        best = best.min(per_iter);
        total += per_iter;
    }
    let mean = total / f64::from(samples.max(1));
    println!("{name:<40} best {:>12}  mean {:>12}", fmt_secs(best), fmt_secs(mean));
}

/// The standard 8-config sweep grid: texture-unit counts 1–4 crossed with
/// both shader schedulers, over a small doom3-like trace.
pub fn standard_grid() -> Vec<attila_core::sweep::SweepJob> {
    let mut jobs = Vec::new();
    for &sched in &[ShaderScheduling::ThreadWindow, ShaderScheduling::InOrderQueue] {
        for tus in 1..=4 {
            let name = match sched {
                ShaderScheduling::ThreadWindow => "window",
                ShaderScheduling::InOrderQueue => "queue",
            };
            jobs.push(attila_core::sweep::SweepJob {
                label: format!("tus={tus},sched={name}"),
                config: GpuConfig::case_study(tus, sched),
            });
        }
    }
    jobs
}

/// Renders a duration in the most readable unit (s/ms/µs/ns).
fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attila_gl::workloads;

    #[test]
    fn run_workload_produces_metrics() {
        let trace = workloads::quickstart_trace(64, 64);
        let m = run_workload(GpuConfig::baseline(), &trace);
        assert!(m.cycles > 0);
        assert_eq!(m.frames, 1);
        assert!(m.fps > 0.0);
        assert!(!m.stats_csv.is_empty());
        assert_eq!(m.shader_busy.len(), 2);
    }

    #[test]
    fn case_study_config_respects_knobs() {
        let c = case_study_config(2, ShaderScheduling::InOrderQueue, 5_000);
        assert_eq!(c.texture.units, 2);
        assert_eq!(c.stats.window_cycles, 5_000);
    }
}
