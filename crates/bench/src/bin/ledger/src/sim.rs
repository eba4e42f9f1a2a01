//! The calls into the simulator both modes share: set-up, one timed
//! pass, the golden comparison and the checkpoint round trip. Every call
//! goes through a `pub` function another crate, test or example already
//! uses; README.md lists them.

use std::path::Path;
use std::sync::Arc;

use attila_core::config::GpuConfig;
use attila_core::gpu::{FrameDump, Gpu};
use attila_core::sweep::{run_sweep, sweep_csv, SweepJob};
use attila_core::{Checkpoint, GpuCommand};
use attila_gl::verify::{diff_frames, golden_frames};
use attila_gl::{compile, GlTrace};

use crate::calib::{Host, Timing};
use crate::span::Tracer;
use crate::workloads::{self, Kind, Scale, Workload};

/// Sweep workers: the host's core count, fixed so results compare.
pub const SWEEP_WORKERS: usize = 2;

/// FNV-1a over bytes: the digest that must repeat across passes.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A workload's inputs, ready to simulate.
pub struct Prepared {
    pub trace: GlTrace,
    pub commands: Arc<Vec<GpuCommand>>,
    /// [`baseline_for`] the trace.
    pub config: GpuConfig,
    /// The sweep grid over the same display; empty unless `Kind::Sweep`.
    pub jobs: Vec<SweepJob>,
}

/// Raw seconds of the three set-up steps.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub gen_s: f64,
    pub compile_s: f64,
    pub elaborate_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.gen_s + self.compile_s + self.elaborate_s
    }
}

/// Generates the trace, compiles it and elaborates one `Gpu`, one span
/// each. Reseeding the texels is the benchmark's own work and is left
/// out of the times.
pub fn prepare(
    tracer: &mut Tracer,
    w: &Workload,
    seed: u64,
    scale: Scale,
) -> (Prepared, SetupTimes) {
    let (mut trace, gen_s) = tracer.timed("gl.trace_gen", || (w.generate)(scale == Scale::Full));
    tracer.within("ledger.reseed_texels", || {
        workloads::reseed_texels(&mut trace, seed)
    });
    let (commands, compile_s) = tracer.timed("gl.compile", || {
        compile(trace.width, trace.height, &trace.calls).expect("generated trace compiles")
    });
    let config = baseline_for(&trace);
    let (gpu, elaborate_s) = tracer.timed("core.gpu.elaborate", || Gpu::new(config.clone()));
    drop(gpu);

    let jobs = match w.kind {
        Kind::Single => Vec::new(),
        Kind::Sweep => grid_over(&config, attila_bench::standard_grid()),
    };
    let prepared = Prepared {
        trace,
        commands: Arc::new(commands),
        config,
        jobs,
    };
    (
        prepared,
        SetupTimes {
            gen_s,
            compile_s,
            elaborate_s,
        },
    )
}

/// `GpuConfig::baseline()` with `display` set from the trace.
pub fn baseline_for(trace: &GlTrace) -> GpuConfig {
    let mut config = GpuConfig::baseline();
    config.display.width = trace.width;
    config.display.height = trace.height;
    config
}

/// `jobs` with every config's display set to `config`'s.
pub fn grid_over(config: &GpuConfig, mut jobs: Vec<SweepJob>) -> Vec<SweepJob> {
    for j in &mut jobs {
        j.config.display = config.display.clone();
    }
    jobs
}

/// A fresh machine as users run it: empty caches, frames not kept, the
/// serial clock loop, idle skipping at its default.
pub fn fresh_gpu(config: &GpuConfig) -> Gpu {
    let mut gpu = Gpu::new(config.clone());
    gpu.max_cycles = 2_000_000_000;
    gpu.keep_frames = false;
    gpu
}

/// Simulated result of one pass; must be identical on every pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Simulated cycles (summed over the sweep's configs).
    pub cycles: u64,
    /// FNV of the stats CSV (or of the sweep CSV).
    pub digest: u64,
}

/// One timed pass: only `Gpu::run_trace` (or `run_sweep`) is inside the
/// timed region; the machine is built before it and the digest taken
/// after.
pub fn pass(host: &mut Host, w: &Workload, p: &Prepared) -> Result<(Outcome, Timing), String> {
    match w.kind {
        Kind::Single => {
            let mut gpu = fresh_gpu(&p.config);
            let (result, timing) = host.timed(|| gpu.run_trace(&p.commands));
            let cycles = result.map_err(|e| format!("run_trace: {e}"))?.cycles;
            Ok((
                Outcome {
                    cycles,
                    digest: fnv(gpu.stats().csv().as_bytes()),
                },
                timing,
            ))
        }
        Kind::Sweep => {
            let jobs = p.jobs.clone();
            let commands = Arc::clone(&p.commands);
            let (outcomes, timing) = host.timed(|| run_sweep(jobs, commands, SWEEP_WORKERS));
            if let Some(o) = outcomes.iter().find(|o| o.error.is_some()) {
                return Err(format!(
                    "sweep cell {}: {}",
                    o.label,
                    o.error.as_deref().unwrap_or("")
                ));
            }
            let cycles = outcomes.iter().map(|o| o.cycles).sum();
            Ok((
                Outcome {
                    cycles,
                    digest: fnv(sweep_csv(&outcomes).as_bytes()),
                },
                timing,
            ))
        }
    }
}

/// Runs the trace once on the baseline with `keep_frames` on; returns
/// the cycles it took and its frames.
pub fn run_keeping_frames(p: &Prepared) -> Result<(u64, Vec<FrameDump>), String> {
    let mut gpu = fresh_gpu(&p.config);
    gpu.keep_frames = true;
    let result = gpu
        .run_trace(&p.commands)
        .map_err(|e| format!("run_trace: {e}"))?;
    Ok((result.cycles, result.framebuffers))
}

/// The commands up to and including the first `Swap`.
pub fn first_frame(commands: &[GpuCommand]) -> &[GpuCommand] {
    commands
        .split_inclusive(|c| matches!(c, GpuCommand::Swap))
        .next()
        .unwrap_or(commands)
}

/// A machine at the drained end of the trace's first frame, ready for
/// `capture_checkpoint`. (A checkpoint of `texture_stream`'s final state
/// is an 800 MB file: the codec spends ~20 bytes of JSON on every byte
/// of GPU memory that does not run-length encode, and 40 MiB of texels
/// do not.)
///
/// `checkpoint_every` is set (far beyond the run, with no path) because
/// `run_trace` only logs the commands a later `restore` hashes when it
/// is; without it restore refuses with a trace-hash mismatch.
pub fn checkpoint_probe(p: &Prepared) -> Result<Gpu, String> {
    let mut gpu = fresh_gpu(&p.config);
    gpu.checkpoint_every = Some(1 << 40);
    gpu.run_trace(first_frame(&p.commands))
        .map_err(|e| format!("run_trace: {e}"))?;
    // `run_trace` returns as soon as nothing is busy, which can be one
    // clock before every wire has drained; `capture_checkpoint` panics
    // unless `quiescent()`.
    for _ in 0..1_000 {
        if gpu.quiescent() {
            return Ok(gpu);
        }
        gpu.try_step()
            .map_err(|e| format!("step to quiescence: {e}"))?;
    }
    Err("machine not quiescent 1000 cycles after run_trace returned".into())
}

/// Renders the trace with the golden renderer.
pub fn golden(p: &Prepared) -> Vec<FrameDump> {
    golden_frames(
        &p.commands,
        p.config.memory.gpu_memory_mb as usize * 1024 * 1024,
    )
}

/// Pixels that differ between the simulated and the golden frames; a
/// missing frame counts whole.
pub fn mismatched_pixels(simulated: &[FrameDump], golden: &[FrameDump]) -> u64 {
    let mut bad = 0;
    for (i, g) in golden.iter().enumerate() {
        bad += match simulated.get(i) {
            Some(s) => diff_frames(s, g).mismatched,
            None => u64::from(g.width) * u64::from(g.height),
        };
    }
    bad + simulated
        .iter()
        .skip(golden.len())
        .map(|s| u64::from(s.width) * u64::from(s.height))
        .sum::<u64>()
}

/// Raw seconds of the four checkpoint steps, and the file written.
pub struct Roundtrip {
    pub capture_s: f64,
    pub write_s: f64,
    pub read_s: f64,
    pub restore_s: f64,
    pub file_bytes: u64,
}

impl Roundtrip {
    pub fn total_s(&self) -> f64 {
        self.capture_s + self.write_s + self.read_s + self.restore_s
    }
}

/// Captures `gpu` (from [`checkpoint_probe`]), writes the checkpoint to
/// `path`, reads it back and restores a machine from it; fails unless
/// the restored machine is at the same cycle with the same statistics.
pub fn checkpoint_roundtrip(
    tracer: &mut Tracer,
    gpu: &Gpu,
    p: &Prepared,
    path: &Path,
) -> Result<Roundtrip, String> {
    let (ckpt, capture_s) = tracer.timed("core.checkpoint.capture", || gpu.capture_checkpoint());
    let (written, write_s) = tracer.timed("core.checkpoint.write", || ckpt.write_file(path));
    written.map_err(|e| format!("write_file: {e}"))?;
    drop(ckpt);
    let file_bytes = std::fs::metadata(path)
        .map_err(|e| format!("stat checkpoint: {e}"))?
        .len();
    let (read, read_s) = tracer.timed("core.checkpoint.read", || Checkpoint::read_file(path));
    let read = read.map_err(|e| format!("read_file: {e}"))?;
    let (restored, restore_s) = tracer.timed("core.checkpoint.restore", || {
        Gpu::restore(p.config.clone(), first_frame(&p.commands), &read, None)
    });
    let restored = restored.map_err(|e| format!("restore: {e}"))?;

    if restored.cycle() != gpu.cycle() || restored.stats().csv() != gpu.stats().csv() {
        return Err(format!(
            "restored machine differs: cycle {} vs {}",
            restored.cycle(),
            gpu.cycle()
        ));
    }
    Ok(Roundtrip {
        capture_s,
        write_s,
        read_s,
        restore_s,
        file_bytes,
    })
}

/// The sweep's CSV at 1 worker, for the byte-identity check against the
/// 2-worker passes.
pub fn serial_sweep_digest(p: &Prepared) -> u64 {
    let outcomes = run_sweep(p.jobs.clone(), Arc::clone(&p.commands), 1);
    fnv(sweep_csv(&outcomes).as_bytes())
}
