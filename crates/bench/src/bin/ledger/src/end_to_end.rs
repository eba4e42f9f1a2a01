//! `--trace 0`: the end-to-end metrics of one workload, tracing off.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::calib::{calibrated, Host};
use crate::metrics::Report;
use crate::sim::{self, Outcome, Prepared};
use crate::span::Tracer;
use crate::summary::Summary;
use crate::workloads::{Kind, Scale, Workload};

/// `setup_s` is the median over calibrated blocks of set-ups; a block
/// repeats the set-up until `SETUP_BLOCK_S` have gone by. Most set-ups
/// take a millisecond, and one calibration pair around all of them would
/// put its own ±8 % into the metric. At least `MIN_SETUP_BLOCKS`, then
/// more until `SETUP_S` have gone by or `MAX_SETUP_BLOCKS` are done.
const SETUP_BLOCK_S: f64 = 0.03;
const MIN_SETUP_BLOCKS: usize = 7;
const MAX_SETUP_BLOCKS: usize = 15;
const SETUP_S: f64 = 1.2;
/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Checkpoint round trips, whose median is `ckpt_roundtrip_s`: at least
/// `MIN_ROUNDTRIPS`, then more until `ROUNDTRIPS_S` have gone by or
/// `MAX_ROUNDTRIPS` are done (a round trip takes 0.25–1 s).
const MIN_ROUNDTRIPS: usize = 5;
const MAX_ROUNDTRIPS: usize = 12;
const ROUNDTRIPS_S: f64 = 3.0;

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn run(w: &Workload, seed: u64, seconds: f64, scale: Scale, out_dir: &Path) -> Report {
    let mut report = Report::new(w.name, seed, false);
    let full = scale == Scale::Full;
    let mut host = if full { Host::new() } else { Host::quick() };

    let (p, setup_s) = set_up(&mut host, w, seed, scale);

    // Timed passes until `seconds` have gone by.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let min_passes = if full { MIN_PASSES } else { 1 };
    let mut wall_s = Vec::new();
    let mut first: Option<Outcome> = None;
    while wall_s.len() < min_passes || Instant::now() < deadline {
        match sim::pass(&mut host, w, &p) {
            Ok((outcome, timing)) => {
                let expected = *first.get_or_insert(outcome);
                report.check(outcome == expected, || {
                    format!(
                        "pass {}: {outcome:?} differs from the first pass's {expected:?}",
                        wall_s.len()
                    )
                });
                wall_s.push(timing.cal_s());
            }
            Err(e) => {
                report.check(false, || e);
                break;
            }
        }
    }
    // Before the golden renderer and the checkpoints allocate: this is
    // the memory simulating the workload needs.
    let peak_rss = peak_rss_mb();

    if let Some(outcome) = first {
        verify(&mut report, w, &p, outcome);
        let rates: Vec<f64> = wall_s.iter().map(|s| outcome.cycles as f64 / s).collect();
        report.put("sim_cycles_per_s", Summary::of(&rates));
        report.put("wall_s", Summary::of(&wall_s));
    }
    report.put("setup_s", Summary::of(&setup_s));
    report.put_value("peak_rss_mb", peak_rss);
    let roundtrip_s = round_trips(&mut report, &mut host, w, &p, full, out_dir);
    if !roundtrip_s.is_empty() {
        report.put("ckpt_roundtrip_s", Summary::of(&roundtrip_s));
    }
    report.noisy = host.noisy();
    report
}

/// Sets the workload up block after block; returns the last set-up and
/// every set-up's calibrated seconds.
fn set_up(host: &mut Host, w: &Workload, seed: u64, scale: Scale) -> (Prepared, Vec<f64>) {
    let full = scale == Scale::Full;
    let mut tracer = Tracer::new(w.name); // times the steps; the spans are not written
    let mut prepared: Option<Prepared> = None;
    let mut setup_s = Vec::new();
    let start = Instant::now();
    for block in 0..if full { MAX_SETUP_BLOCKS } else { 1 } {
        if block >= MIN_SETUP_BLOCKS && start.elapsed().as_secs_f64() >= SETUP_S {
            break;
        }
        let (raw, timing) = host.timed(|| {
            let block_start = Instant::now();
            let mut raw = Vec::new();
            while raw.is_empty() || (full && block_start.elapsed().as_secs_f64() < SETUP_BLOCK_S) {
                drop(prepared.take()); // one trace alive at a time, as in a user's run
                let (p, times) = sim::prepare(&mut tracer, w, seed, scale);
                prepared = Some(p);
                raw.push(times.total_s());
            }
            raw
        });
        setup_s.extend(raw.iter().map(|&s| calibrated(s, timing.calib_s)));
    }
    (prepared.expect("at least one set-up"), setup_s)
}

/// The correctness gate, after the timed passes: cycle count of a
/// kept-frames run against the timed passes, its frames against the
/// golden renderer, and the sweep's CSV at 1 worker against 2.
fn verify(report: &mut Report, w: &Workload, p: &Prepared, timed: Outcome) {
    let (cycles, frames) = match sim::run_keeping_frames(p) {
        Ok(kept) => kept,
        Err(e) => return report.check(false, || e),
    };
    match w.kind {
        Kind::Single => report.check(cycles == timed.cycles, || {
            format!(
                "kept-frames run took {cycles} cycles, a timed run {}",
                timed.cycles
            )
        }),
        Kind::Sweep => report.check(sim::serial_sweep_digest(p) == timed.digest, || {
            "sweep CSV differs between 1 and 2 workers".to_string()
        }),
    }
    let golden = sim::golden(p);
    let bad = sim::mismatched_pixels(&frames, &golden);
    report.check(bad == 0 && !golden.is_empty(), || {
        format!(
            "{bad} pixels differ from the golden renderer over {} frames",
            golden.len()
        )
    });
}

/// Checkpoint round trips at the end of the first frame (one when not
/// `full`); returns their calibrated seconds.
fn round_trips(
    report: &mut Report,
    host: &mut Host,
    w: &Workload,
    p: &Prepared,
    full: bool,
    out_dir: &Path,
) -> Vec<f64> {
    let probe = match sim::checkpoint_probe(p) {
        Ok(gpu) => gpu,
        Err(e) => {
            report.check(false, || e);
            return Vec::new();
        }
    };
    let mut tracer = Tracer::new(w.name); // times the steps; the spans are not written
    let path = out_dir.join(format!("{}.ckpt", w.name));
    let mut roundtrip_s = Vec::new();
    let start = Instant::now();
    for trip in 0..if full { MAX_ROUNDTRIPS } else { 1 } {
        if trip >= MIN_ROUNDTRIPS && start.elapsed().as_secs_f64() >= ROUNDTRIPS_S {
            break;
        }
        let (result, timing) =
            host.timed(|| sim::checkpoint_roundtrip(&mut tracer, &probe, p, &path));
        match result {
            Ok(steps) => {
                report.check(true, String::new);
                roundtrip_s.push(calibrated(steps.total_s(), timing.calib_s));
            }
            Err(e) => report.check(false, || e),
        }
    }
    let _ = std::fs::remove_file(&path);
    roundtrip_s
}
