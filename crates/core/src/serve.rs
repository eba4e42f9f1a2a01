//! `attila serve` — a resumable job daemon with retry, timeout and
//! graceful degradation.
//!
//! A batch of trace jobs (each a [`GpuConfig`] plus a command stream) is
//! fanned across `std::thread` workers pulling from a shared queue —
//! dependency-free, like [`crate::sweep`], but built for *unattended*
//! operation rather than one-shot grids:
//!
//! - **Timeout.** Every job runs under the ordinary watchdog with a
//!   per-job budget of *simulated* cycles ([`JobSpec::max_cycles`]). A
//!   hung pipeline expires deterministically at the same cycle on every
//!   host; the daemon never needs a wall-clock kill.
//! - **Retry from checkpoint.** A failed attempt is requeued with capped
//!   exponential backoff. If the job checkpoints
//!   ([`JobSpec::checkpoint_every`]), the retry resumes from the last
//!   checkpoint file via [`Gpu::restore`] instead of starting over.
//! - **Poison quarantine.** A job that fails *deterministically* — the
//!   same failure signature on two consecutive attempts — or exhausts
//!   [`ServeConfig::retry_limit`] is quarantined with its
//!   [`FailureReport`] attached, and the daemon moves on.
//! - **Degradation.** A panicking worker attempt is caught with
//!   [`std::panic::catch_unwind`]; the job is requeued (or quarantined if
//!   the panic repeats) and the worker thread keeps serving. One bad job
//!   never takes down the daemon or loses the other jobs' results.
//!
//! Results come back in job-id order, so a serve report is deterministic
//! for a deterministic job set regardless of worker count or OS
//! scheduling. [`smoke`] is the self-test the CLI exposes as
//! `attila serve --smoke`: a healthy job, a once-panicking job, a poison
//! job and a checkpointing job, all of which must land in the right
//! bucket.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
// lint:allow(wall-clock) retry backoff only; simulated timing never reads the host clock
use std::time::Duration;

use attila_json::Json;

use crate::checkpoint::Checkpoint;
use crate::commands::GpuCommand;
use crate::config::GpuConfig;
use crate::gpu::Gpu;
use crate::report::FailureReport;
use crate::sweep::panic_text;

/// One trace job submitted to the daemon.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique job identifier; also names the job's checkpoint file.
    pub id: String,
    /// The GPU configuration to simulate.
    pub config: GpuConfig,
    /// The command trace to run.
    pub commands: Vec<GpuCommand>,
    /// Per-job timeout in **simulated** cycles: the watchdog budget for
    /// each attempt. Deterministic — a hang expires at the same cycle on
    /// every host, unlike a wall-clock kill.
    pub max_cycles: u64,
    /// Checkpoint every N cycles (at quiescent points) so a retry resumes
    /// instead of restarting. `None` disables checkpointing.
    pub checkpoint_every: Option<u64>,
    /// Chaos hook: panic the worker on these 0-based attempt indexes.
    /// Used by [`smoke`] and the tests to prove the daemon survives a
    /// panicking worker; empty in normal operation.
    pub panic_on_attempts: Vec<u32>,
}

impl JobSpec {
    /// A job with the default cycle budget and no checkpointing.
    pub fn new(id: impl Into<String>, config: GpuConfig, commands: Vec<GpuCommand>) -> Self {
        JobSpec {
            id: id.into(),
            config,
            commands,
            max_cycles: 2_000_000_000,
            checkpoint_every: None,
            panic_on_attempts: Vec::new(),
        }
    }
}

/// Daemon-wide settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Maximum attempts per job before quarantine.
    pub retry_limit: u32,
    /// First retry backoff in milliseconds; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Directory for per-job checkpoint files.
    pub work_dir: PathBuf,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            retry_limit: 3,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
            work_dir: PathBuf::from("attila-serve"),
        }
    }
}

/// How a job ended.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// The trace drained; totals are absolute (checkpoint + final leg).
    Completed {
        /// Final simulated cycle count.
        cycles: u64,
        /// Total frames rendered across all legs of the job.
        frames: u64,
    },
    /// The job failed deterministically (same signature twice) or
    /// exhausted its retries and was isolated.
    Quarantined {
        /// The failure signature that condemned the job.
        signature: String,
        /// The post-mortem from the last failing attempt, when the
        /// failure produced one (panics do not).
        report: Option<Box<FailureReport>>,
    },
}

/// The record the daemon keeps for one finished job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's id.
    pub id: String,
    /// Attempts consumed (1 for a first-try success).
    pub attempts: u32,
    /// Attempts that resumed from a checkpoint instead of starting over.
    pub resumed: u32,
    /// Terminal status.
    pub status: JobStatus,
}

impl JobResult {
    /// Whether the job completed.
    pub fn completed(&self) -> bool {
        matches!(self.status, JobStatus::Completed { .. })
    }
}

/// Everything the daemon did: one [`JobResult`] per submitted job, in
/// job-id order, plus degradation counters.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Terminal results, sorted by job id.
    pub results: Vec<JobResult>,
    /// Worker panics caught (each cost an attempt, never a thread).
    pub worker_panics: u64,
    /// Attempts that were requeued for retry.
    pub retries: u64,
}

impl ServeReport {
    /// Jobs that completed.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.completed()).count()
    }

    /// Jobs that were quarantined.
    pub fn quarantined(&self) -> usize {
        self.results.len() - self.completed()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} jobs: {} completed, {} quarantined ({} retries, {} worker panics caught)",
            self.results.len(),
            self.completed(),
            self.quarantined(),
            self.retries,
            self.worker_panics
        )
    }

    /// The report as JSON (deterministic: job-id order).
    pub fn to_json(&self) -> Json {
        let jobs = self
            .results
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("id".to_string(), Json::Str(r.id.clone())),
                    ("attempts".to_string(), Json::Num(f64::from(r.attempts))),
                    ("resumed".to_string(), Json::Num(f64::from(r.resumed))),
                ];
                match &r.status {
                    JobStatus::Completed { cycles, frames } => {
                        fields.push(("status".to_string(), Json::Str("completed".to_string())));
                        fields.push(("cycles".to_string(), Json::Num(*cycles as f64)));
                        fields.push(("frames".to_string(), Json::Num(*frames as f64)));
                    }
                    JobStatus::Quarantined { signature, .. } => {
                        fields.push(("status".to_string(), Json::Str("quarantined".to_string())));
                        fields.push(("signature".to_string(), Json::Str(signature.clone())));
                    }
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("jobs".to_string(), Json::Arr(jobs)),
            ("retries".to_string(), Json::Num(self.retries as f64)),
            (
                "worker_panics".to_string(),
                Json::Num(self.worker_panics as f64),
            ),
        ])
    }
}

/// A queued job plus its retry bookkeeping.
struct QueuedJob {
    spec: JobSpec,
    attempts: u32,
    resumed: u32,
    last_signature: Option<String>,
}

enum WorkerEvent {
    Finished(Box<JobResult>),
    Retried { panicked: bool },
}

struct AttemptSuccess {
    cycles: u64,
    frames: u64,
    resumed: bool,
}

struct AttemptFailure {
    signature: String,
    report: Option<Box<FailureReport>>,
}

/// The job id reduced to a safe file stem for its checkpoint.
fn checkpoint_path(work_dir: &Path, id: &str) -> PathBuf {
    let stem: String = id
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect();
    work_dir.join(format!("{stem}.ckpt"))
}

/// Tries to resume from the job's checkpoint file. Any problem — no
/// file, corrupt file, hash mismatch — falls back to a fresh start, so a
/// bad checkpoint can never wedge a retry.
fn try_resume(spec: &JobSpec, ckpt_path: &Path) -> Option<(Gpu, u64)> {
    if spec.checkpoint_every.is_none() || !ckpt_path.exists() {
        return None;
    }
    let ckpt = Checkpoint::read_file(ckpt_path).ok()?;
    let base_frames = ckpt.body.frames;
    let gpu = Gpu::restore(spec.config.clone(), &spec.commands, &ckpt, None).ok()?;
    Some((gpu, base_frames))
}

/// One attempt at a job: resume if a checkpoint exists, else fresh.
fn run_attempt(
    spec: &JobSpec,
    ckpt_path: &Path,
    attempt: u32,
) -> Result<AttemptSuccess, AttemptFailure> {
    if spec.panic_on_attempts.contains(&attempt) {
        panic!("injected chaos panic on attempt {attempt}");
    }
    let (mut gpu, base_frames, resumed) = match try_resume(spec, ckpt_path) {
        Some((gpu, frames)) => (gpu, frames, true),
        None => (Gpu::new(spec.config.clone()), 0, false),
    };
    gpu.max_cycles = spec.max_cycles;
    gpu.keep_frames = false;
    if spec.checkpoint_every.is_some() {
        gpu.checkpoint_every = spec.checkpoint_every;
        gpu.checkpoint_path = Some(ckpt_path.to_path_buf());
    }
    // A resumed GPU already holds the unconsumed tail of the trace; a
    // fresh one gets the whole stream.
    let run = if resumed {
        gpu.run_trace(&[])
    } else {
        gpu.run_trace(&spec.commands)
    };
    match run {
        Ok(result) => Ok(AttemptSuccess {
            cycles: gpu.cycle(),
            frames: base_frames + result.frames,
            resumed,
        }),
        Err(error) => Err(AttemptFailure {
            signature: error.to_string(),
            report: error.report().cloned().map(Box::new),
        }),
    }
}

fn worker_loop(
    queue: &Mutex<VecDeque<QueuedJob>>,
    remaining: &AtomicUsize,
    tx: &mpsc::Sender<WorkerEvent>,
    config: &ServeConfig,
) {
    loop {
        if remaining.load(Ordering::SeqCst) == 0 {
            break;
        }
        let next = queue.lock().expect("job queue poisoned").pop_front();
        let Some(mut qjob) = next else {
            // Queue momentarily empty but jobs still in flight elsewhere
            // (one may yet be requeued): nap briefly and re-check.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        let attempt = qjob.attempts;
        let ckpt_path = checkpoint_path(&config.work_dir, &qjob.spec.id);
        let caught = catch_unwind(AssertUnwindSafe(|| run_attempt(&qjob.spec, &ckpt_path, attempt)));
        let (outcome, panicked) = match caught {
            Ok(outcome) => (outcome, false),
            Err(payload) => (
                Err(AttemptFailure {
                    signature: format!("worker panic: {}", panic_text(payload.as_ref())),
                    report: None,
                }),
                true,
            ),
        };
        qjob.attempts += 1;
        match outcome {
            Ok(success) => {
                if success.resumed {
                    qjob.resumed += 1;
                }
                let _ = std::fs::remove_file(&ckpt_path);
                remaining.fetch_sub(1, Ordering::SeqCst);
                let _ = tx.send(WorkerEvent::Finished(Box::new(JobResult {
                    id: qjob.spec.id,
                    attempts: qjob.attempts,
                    resumed: qjob.resumed,
                    status: JobStatus::Completed {
                        cycles: success.cycles,
                        frames: success.frames,
                    },
                })));
            }
            Err(failure) => {
                let repeated = qjob.last_signature.as_deref() == Some(failure.signature.as_str());
                if repeated || qjob.attempts >= config.retry_limit {
                    remaining.fetch_sub(1, Ordering::SeqCst);
                    let _ = tx.send(WorkerEvent::Finished(Box::new(JobResult {
                        id: qjob.spec.id,
                        attempts: qjob.attempts,
                        resumed: qjob.resumed,
                        status: JobStatus::Quarantined {
                            signature: failure.signature,
                            report: failure.report,
                        },
                    })));
                } else {
                    // Transient (so far): requeue with capped exponential
                    // backoff, remembering the signature so a repeat is
                    // recognised as deterministic.
                    let exp = qjob.attempts.saturating_sub(1).min(16);
                    let backoff = config
                        .backoff_base_ms
                        .saturating_mul(1u64 << exp)
                        .min(config.backoff_cap_ms);
                    std::thread::sleep(Duration::from_millis(backoff));
                    qjob.last_signature = Some(failure.signature);
                    queue.lock().expect("job queue poisoned").push_back(qjob);
                    let _ = tx.send(WorkerEvent::Retried { panicked });
                }
            }
        }
    }
}

/// Runs `jobs` to completion and returns the per-job results in job-id
/// order. Never panics on a bad job: failures retry, deterministic
/// failures quarantine, worker panics are caught and cost only the
/// attempt.
pub fn serve(config: &ServeConfig, jobs: Vec<JobSpec>) -> ServeReport {
    let total = jobs.len();
    if total > 0 {
        let _ = std::fs::create_dir_all(&config.work_dir);
    }
    let queue: Arc<Mutex<VecDeque<QueuedJob>>> = Arc::new(Mutex::new(
        jobs.into_iter()
            .map(|spec| QueuedJob {
                spec,
                attempts: 0,
                resumed: 0,
                last_signature: None,
            })
            .collect(),
    ));
    let remaining = Arc::new(AtomicUsize::new(total));
    let (tx, rx) = mpsc::channel();
    let workers = config.workers.max(1).min(total.max(1));
    let mut results: Vec<JobResult> = Vec::with_capacity(total);
    let mut worker_panics = 0u64;
    let mut retries = 0u64;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let remaining = Arc::clone(&remaining);
            let tx = tx.clone();
            let config = &*config;
            scope.spawn(move || worker_loop(&queue, &remaining, &tx, config));
        }
        drop(tx);
        while results.len() < total {
            match rx.recv() {
                Ok(WorkerEvent::Finished(result)) => results.push(*result),
                Ok(WorkerEvent::Retried { panicked }) => {
                    retries += 1;
                    if panicked {
                        worker_panics += 1;
                    }
                }
                Err(_) => break,
            }
        }
    });
    results.sort_by(|a, b| a.id.cmp(&b.id));
    ServeReport {
        results,
        worker_panics,
        retries,
    }
}

/// The self-test behind `attila serve --smoke`: four jobs exercising
/// every daemon path. Returns the report and whether every job landed in
/// its expected bucket:
///
/// - `ok` — healthy job, must complete first try;
/// - `flaky-panic` — panics on attempt 0 (chaos hook), must be caught,
///   requeued and complete on the retry;
/// - `poison` — cycle budget far too small, hits the watchdog with the
///   same signature twice, must be quarantined;
/// - `resumable` — checkpoints as it runs, must complete.
pub fn smoke(work_dir: &Path) -> (ServeReport, bool) {
    use crate::config::ShaderScheduling;
    let mut config = GpuConfig::case_study(1, ShaderScheduling::ThreadWindow);
    config.display.width = 32;
    config.display.height = 32;
    let commands = vec![
        GpuCommand::FastClearColor(0xff20_4060),
        GpuCommand::Swap,
        GpuCommand::FastClearColor(0xff60_2040),
        GpuCommand::Swap,
    ];

    let ok = JobSpec::new("ok", config.clone(), commands.clone());
    let mut flaky = JobSpec::new("flaky-panic", config.clone(), commands.clone());
    flaky.panic_on_attempts = vec![0];
    let mut poison = JobSpec::new("poison", config.clone(), commands.clone());
    poison.max_cycles = 64;
    let mut resumable = JobSpec::new("resumable", config, commands);
    resumable.checkpoint_every = Some(500);

    let serve_config = ServeConfig {
        workers: 2,
        retry_limit: 3,
        backoff_base_ms: 1,
        backoff_cap_ms: 8,
        work_dir: work_dir.to_path_buf(),
    };
    let report = serve(&serve_config, vec![ok, flaky, poison, resumable]);
    let expect = |id: &str, done: bool| {
        report
            .results
            .iter()
            .any(|r| r.id == id && r.completed() == done)
    };
    let passed = report.results.len() == 4
        && expect("ok", true)
        && expect("flaky-panic", true)
        && expect("poison", false)
        && expect("resumable", true)
        && report.worker_panics >= 1;
    (report, passed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShaderScheduling;

    fn tiny_config() -> GpuConfig {
        let mut config = GpuConfig::case_study(1, ShaderScheduling::ThreadWindow);
        config.display.width = 32;
        config.display.height = 32;
        config
    }

    fn tiny_commands() -> Vec<GpuCommand> {
        vec![GpuCommand::FastClearColor(0xff20_4060), GpuCommand::Swap]
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("attila-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        dir
    }

    #[test]
    fn healthy_job_completes_first_try() {
        let dir = tmp_dir("healthy");
        let report = serve(
            &ServeConfig {
                workers: 1,
                work_dir: dir.clone(),
                ..ServeConfig::default()
            },
            vec![JobSpec::new("solo", tiny_config(), tiny_commands())],
        );
        assert_eq!(report.results.len(), 1);
        let r = &report.results[0];
        assert!(r.completed(), "healthy job must complete: {:?}", r.status);
        assert_eq!(r.attempts, 1);
        assert_eq!(report.retries, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_worker_is_caught_and_job_retried() {
        let dir = tmp_dir("panic");
        let mut flaky = JobSpec::new("flaky", tiny_config(), tiny_commands());
        flaky.panic_on_attempts = vec![0];
        let report = serve(
            &ServeConfig {
                workers: 1,
                backoff_base_ms: 1,
                work_dir: dir.clone(),
                ..ServeConfig::default()
            },
            vec![flaky],
        );
        let r = &report.results[0];
        assert!(r.completed(), "job must recover after panic: {:?}", r.status);
        assert_eq!(r.attempts, 2);
        assert_eq!(report.worker_panics, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deterministic_failure_is_quarantined_without_losing_others() {
        let dir = tmp_dir("poison");
        let mut poison = JobSpec::new("poison", tiny_config(), tiny_commands());
        poison.max_cycles = 64; // far below one frame: watchdog every attempt
        let healthy = JobSpec::new("healthy", tiny_config(), tiny_commands());
        let report = serve(
            &ServeConfig {
                workers: 2,
                backoff_base_ms: 1,
                work_dir: dir.clone(),
                ..ServeConfig::default()
            },
            vec![poison, healthy],
        );
        assert_eq!(report.results.len(), 2);
        let healthy_r = report.results.iter().find(|r| r.id == "healthy").unwrap();
        let poison_r = report.results.iter().find(|r| r.id == "poison").unwrap();
        assert!(healthy_r.completed(), "healthy job lost to the poison job");
        match &poison_r.status {
            JobStatus::Quarantined { signature, report } => {
                assert!(signature.contains("watchdog"), "signature: {signature}");
                assert!(report.is_some(), "watchdog failure must attach a report");
            }
            other => panic!("poison job must be quarantined, got {other:?}"),
        }
        // Same signature twice → quarantined on the second attempt, not
        // after the full retry budget.
        assert_eq!(poison_r.attempts, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn smoke_passes() {
        let dir = tmp_dir("smoke");
        let (report, passed) = smoke(&dir);
        assert!(passed, "smoke failed: {}", report.summary());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
