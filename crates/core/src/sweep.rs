//! Parallel design-space sweeps.
//!
//! The ATTILA paper's evaluation (Figures 7–9) is a *design-space sweep*:
//! the same trace simulated across a grid of configurations (texture-unit
//! counts, schedulers). A single simulation is inherently serial — the
//! boxes share one clock — but distinct configurations are embarrassingly
//! parallel: each worker owns an independent [`Gpu`] built from its own
//! [`GpuConfig`], so nothing is shared but the (immutable) command trace.
//!
//! [`run_sweep`] fans a job list across `std::thread` workers pulling from
//! a shared queue and merges the results back **in job order**, making the
//! report byte-identical no matter how many workers ran or how the OS
//! scheduled them. Each job's simulation is the ordinary single-threaded,
//! deterministic clock loop, so per-config results are also identical to a
//! serial run of the same config.

#![expect(
    clippy::disallowed_types,
    reason = "the job queue is a Mutex shared by host threads, each running its own Gpu; no box reaches it"
)]

use std::sync::{Arc, Mutex};

use crate::commands::GpuCommand;
use crate::config::GpuConfig;
use crate::gpu::{Gpu, GpuError};

/// One configuration to simulate in a sweep.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Label identifying the configuration in the report (e.g. `tus=2`).
    pub label: String,
    /// The full GPU configuration for this run.
    pub config: GpuConfig,
}

/// The outcome of one sweep job.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The job's label.
    pub label: String,
    /// Simulated cycles (deterministic per config).
    pub cycles: u64,
    /// Frames rendered.
    pub frames: u64,
    /// Frames per second at the configured core clock.
    pub fps: f64,
    /// Aggregate texture-cache hit rate.
    pub tex_hit_rate: f64,
    /// Total DRAM bytes moved.
    pub mem_bytes: u64,
    /// DRAM row-buffer hits across all channels and banks.
    pub row_hits: u64,
    /// DRAM row-buffer misses (bank idle, one ACTIVATE).
    pub row_misses: u64,
    /// DRAM row-buffer conflicts (PRECHARGE + ACTIVATE).
    pub row_conflicts: u64,
    /// End-of-run statistic totals, in name order (`name,value` rows).
    pub stat_totals: Vec<(String, f64)>,
    /// Wall-clock seconds this job took (machine-dependent; excluded from
    /// the deterministic CSV/JSON fields above).
    pub wall_secs: f64,
    /// The error, if the run aborted instead of draining.
    pub error: Option<String>,
}

/// Runs one job to completion on a fresh [`Gpu`] (no frame dumps, a
/// 2 G-cycle watchdog) and reduces it to its report row: cycle and frame
/// counts, memory and texture-cache totals and every end-of-run statistic
/// total. A run that aborts yields a row carrying the error instead.
fn collect_outcome(label: String, config: GpuConfig, commands: &[GpuCommand]) -> SweepOutcome {
    let clock = config.display.clock_mhz;
    #[expect(
        clippy::disallowed_methods,
        reason = "host-side harness timing; excluded from the deterministic report fields"
    )]
    let start = std::time::Instant::now();
    let mut gpu = Gpu::new(config);
    gpu.keep_frames = false;
    gpu.max_cycles = 2_000_000_000;
    match gpu.run_trace(commands) {
        Ok(result) => {
            let (_, _, tex_hit_rate) = gpu.texture_cache_stats();
            let stat_totals = gpu
                .stats()
                .names()
                .iter()
                .filter_map(|n| gpu.stats().total(n).map(|v| (n.to_string(), v)))
                .collect();
            SweepOutcome {
                label,
                cycles: result.cycles,
                frames: result.frames,
                fps: result.fps(clock),
                tex_hit_rate,
                mem_bytes: gpu.memory().bytes_read() + gpu.memory().bytes_written(),
                row_hits: gpu.memory().row_hits(),
                row_misses: gpu.memory().row_misses(),
                row_conflicts: gpu.memory().row_conflicts(),
                stat_totals,
                wall_secs: start.elapsed().as_secs_f64(),
                error: None,
            }
        }
        Err(e) => SweepOutcome {
            label,
            cycles: gpu.cycle(),
            frames: 0,
            fps: 0.0,
            tex_hit_rate: 0.0,
            mem_bytes: 0,
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 0,
            stat_totals: Vec::new(),
            wall_secs: start.elapsed().as_secs_f64(),
            error: Some(describe_error(&e)),
        },
    }
}

fn describe_error(e: &GpuError) -> String {
    e.to_string()
}

/// [`collect_outcome`] with a panic fence: a config cell whose
/// elaboration or run panics (e.g. a constraint [`Gpu::new`] refuses)
/// becomes a failed row in the merged report instead of poisoning the
/// worker and losing the whole sweep.
fn collect_outcome_caught(
    label: String,
    config: GpuConfig,
    commands: &[GpuCommand],
) -> SweepOutcome {
    let keep = label.clone();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        collect_outcome(label, config, commands)
    }));
    caught.unwrap_or_else(|payload| failed_outcome(keep, panic_text(payload.as_ref())))
}

/// Extracts a printable message from a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn failed_outcome(label: String, message: String) -> SweepOutcome {
    SweepOutcome {
        label,
        cycles: 0,
        frames: 0,
        fps: 0.0,
        tex_hit_rate: 0.0,
        mem_bytes: 0,
        row_hits: 0,
        row_misses: 0,
        row_conflicts: 0,
        stat_totals: Vec::new(),
        wall_secs: 0.0,
        error: Some(format!("worker panic: {message}")),
    }
}

/// Runs `jobs` over `commands` on up to `workers` threads and returns the
/// outcomes **in job order** (deterministic merge).
///
/// `workers == 0` or `1` runs serially on the calling thread — useful as
/// the baseline when measuring sweep scaling. Each worker builds its own
/// [`Gpu`]; nothing is shared across jobs except the immutable command
/// slice, so per-config results are bit-identical to a serial run.
pub fn run_sweep(
    jobs: Vec<SweepJob>,
    commands: Arc<Vec<GpuCommand>>,
    workers: usize,
) -> Vec<SweepOutcome> {
    let n_jobs = jobs.len();
    if workers <= 1 || n_jobs <= 1 {
        return jobs
            .into_iter()
            .map(|j| collect_outcome_caught(j.label, j.config, &commands))
            .collect();
    }
    let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
    let workers = workers.min(n_jobs);
    // A shared pull queue: indexes keep the merge order independent of
    // which worker finishes first.
    let queue: Arc<Mutex<Vec<(usize, SweepJob)>>> =
        Arc::new(Mutex::new(jobs.into_iter().enumerate().rev().collect()));
    let results: Arc<Mutex<Vec<Option<SweepOutcome>>>> =
        Arc::new(Mutex::new((0..n_jobs).map(|_| None).collect()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let results = Arc::clone(&results);
            let commands = Arc::clone(&commands);
            scope.spawn(move || loop {
                let job = queue.lock().expect("queue lock").pop();
                let Some((idx, job)) = job else { break };
                let outcome = collect_outcome_caught(job.label, job.config, &commands);
                results.lock().expect("results lock")[idx] = Some(outcome);
            });
        }
    });
    // Belt and braces: `collect_outcome_caught` already fences panics, so
    // every slot should be filled — but if a worker nonetheless died
    // between claiming a job and reporting, mark that cell failed instead
    // of panicking the merge and losing the healthy rows.
    Arc::try_unwrap(results)
        .expect("workers joined")
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .enumerate()
        .map(|(idx, r)| {
            r.unwrap_or_else(|| {
                failed_outcome(labels[idx].clone(), "worker died before reporting".into())
            })
        })
        .collect()
}

/// Renders sweep outcomes as a CSV table (one row per job, job order).
pub fn sweep_csv(outcomes: &[SweepOutcome]) -> String {
    let mut out = String::from(
        "config,cycles,frames,fps,tex_hit_rate,mem_bytes,row_hits,row_misses,row_conflicts,error\n",
    );
    for o in outcomes {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "{},{},{},{:.4},{:.6},{},{},{},{},{}",
            o.label,
            o.cycles,
            o.frames,
            o.fps,
            o.tex_hit_rate,
            o.mem_bytes,
            o.row_hits,
            o.row_misses,
            o.row_conflicts,
            o.error.as_deref().unwrap_or("")
        );
    }
    out
}

/// Renders sweep outcomes as a JSON report (job order, deterministic).
pub fn sweep_json(outcomes: &[SweepOutcome]) -> attila_json::Json {
    use attila_json::Json;
    Json::Obj(vec![(
        "sweep".into(),
        Json::Arr(
            outcomes
                .iter()
                .map(|o| {
                    let mut fields = vec![
                        ("config".into(), Json::Str(o.label.clone())),
                        ("cycles".into(), Json::Num(o.cycles as f64)),
                        ("frames".into(), Json::Num(o.frames as f64)),
                        ("fps".into(), Json::Num(o.fps)),
                        ("tex_hit_rate".into(), Json::Num(o.tex_hit_rate)),
                        ("mem_bytes".into(), Json::Num(o.mem_bytes as f64)),
                        ("row_hits".into(), Json::Num(o.row_hits as f64)),
                        ("row_misses".into(), Json::Num(o.row_misses as f64)),
                        ("row_conflicts".into(), Json::Num(o.row_conflicts as f64)),
                    ];
                    if let Some(e) = &o.error {
                        fields.push(("error".into(), Json::Str(e.clone())));
                    }
                    Json::Obj(fields)
                })
                .collect(),
        ),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShaderScheduling;

    fn tiny_jobs(n: usize) -> Vec<SweepJob> {
        (0..n)
            .map(|i| {
                let mut config = GpuConfig::case_study(
                    1 + i % 2,
                    if i % 2 == 0 {
                        ShaderScheduling::ThreadWindow
                    } else {
                        ShaderScheduling::InOrderQueue
                    },
                );
                config.display.width = 32;
                config.display.height = 32;
                SweepJob { label: format!("job{i}"), config }
            })
            .collect()
    }

    fn tiny_commands() -> Arc<Vec<GpuCommand>> {
        // A minimal command stream: clear and swap one frame.
        Arc::new(vec![
            GpuCommand::FastClearColor(0xff20_4060),
            GpuCommand::Swap,
        ])
    }

    #[test]
    fn parallel_matches_serial_in_order() {
        let commands = tiny_commands();
        let serial = run_sweep(tiny_jobs(4), Arc::clone(&commands), 1);
        let parallel = run_sweep(tiny_jobs(4), commands, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label, "merge order must be job order");
            assert_eq!(s.cycles, p.cycles, "{}: cycles diverge across workers", s.label);
            assert_eq!(s.frames, p.frames);
            assert_eq!(s.stat_totals, p.stat_totals, "{}: stats diverge", s.label);
        }
    }

    #[test]
    fn panicking_config_cell_fails_alone() {
        // One cell of the grid is broken in a way Gpu::new panics on
        // (mismatched ROP unit counts, bypassing validate()); the sweep
        // must mark that row failed and still deliver the healthy rows —
        // on both the serial and the threaded path.
        let mut bad = GpuConfig::case_study(1, ShaderScheduling::ThreadWindow);
        bad.display.width = 32;
        bad.display.height = 32;
        bad.zstencil.units = 2;
        bad.colorwrite.units = 1;
        for workers in [1, 3] {
            let mut jobs = tiny_jobs(3);
            jobs.insert(1, SweepJob { label: "bad".into(), config: bad.clone() });
            let outcomes = run_sweep(jobs, tiny_commands(), workers);
            assert_eq!(outcomes.len(), 4, "workers={workers}: all rows present");
            assert_eq!(outcomes[1].label, "bad", "workers={workers}: job order kept");
            let err = outcomes[1].error.as_deref().unwrap_or_default();
            assert!(
                err.contains("worker panic"),
                "workers={workers}: failed cell must say it panicked: {err:?}"
            );
            for o in [&outcomes[0], &outcomes[2], &outcomes[3]] {
                assert!(o.error.is_none(), "workers={workers}: healthy row {} lost", o.label);
                assert!(o.cycles > 0, "workers={workers}: healthy row {} empty", o.label);
            }
            // The failed cell shows up in the merged reports, not just in memory.
            assert!(sweep_csv(&outcomes).contains("worker panic"));
            assert!(sweep_json(&outcomes).pretty().contains("worker panic"));
        }
    }

    #[test]
    fn csv_and_json_are_deterministic() {
        let commands = tiny_commands();
        let a = run_sweep(tiny_jobs(3), Arc::clone(&commands), 3);
        let b = run_sweep(tiny_jobs(3), commands, 2);
        assert_eq!(sweep_csv(&a), sweep_csv(&b));
        assert_eq!(sweep_json(&a).pretty(), sweep_json(&b).pretty());
    }
}
