//! `--trace 1`: the per-layer metrics of one workload and its span file.
//!
//! Untraced counted passes give the exact counts and the per-cycle
//! costs; three traced runs, cut at every `Swap`, give the frame spans;
//! a checkpoint round trip step by step and the isolated kernels follow.
//! For `sweep_grid8` all of this describes one baseline-config run of
//! the sweep's trace.

use std::path::Path;
use std::time::{Duration, Instant};

use attila_core::gpu::Gpu;
use attila_core::GpuCommand;
use attila_emu::texture::TexFilter;

use crate::alloc::counted;
use crate::calib::{calibrated, Host};
use crate::kernels::{self, KernelRun, MemStream};
use crate::metrics::Report;
use crate::sim::{self, fnv, Prepared};
use crate::span::Tracer;
use crate::summary::Summary;
use crate::workloads::{self, Scale, Workload};

/// Share of `--seconds` the counted passes may use; the traced runs,
/// the checkpoint and the kernels take about as long again.
const COUNTED_SHARE: f64 = 0.4;
const HORIZON_CALLS: u32 = 100_000;
const TRACED_RUNS: usize = 3;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sum of `<Prefix><n>.<stat>` over every unit `n` (and of
/// `<Prefix>.<stat>` for single boxes).
fn stat(gpu: &Gpu, prefix: &str, name: &str) -> f64 {
    let stats = gpu.stats();
    stats
        .names()
        .into_iter()
        .filter(|n| {
            n.strip_prefix(prefix)
                .and_then(|rest| rest.strip_suffix(name))
                .and_then(|unit| unit.strip_suffix('.'))
                .is_some_and(|unit| unit.chars().all(|c| c.is_ascii_digit()))
        })
        .filter_map(|n| stats.total(n))
        .sum()
}

/// The exact counts of a finished untraced run: `core.<box>.*`, `mem.*`.
fn box_metrics(report: &mut Report, gpu: &Gpu, cycles: u64) {
    let cfg = gpu.config();
    let unit_cycles = |units: usize| (units as u64 * cycles) as f64;
    let s = |prefix: &str, name: &str| stat(gpu, prefix, name);

    report.put_value(
        "core.command_processor.draws",
        s("CommandProcessor", "draws"),
    );
    report.put_value(
        "core.command_processor.upload_bytes",
        s("CommandProcessor", "upload_bytes"),
    );
    report.put_value("core.streamer.vertices", s("Streamer", "vertices"));
    report.put_value(
        "core.streamer.vertex_cache_hit_ratio",
        ratio(
            s("Streamer", "vertex_cache_hits"),
            s("Streamer", "vertices"),
        ),
    );
    report.put_value(
        "core.primitive_assembly.triangles",
        s("PrimitiveAssembly", "triangles"),
    );
    report.put_value(
        "core.clipper.rejected_ratio",
        ratio(
            s("Clipper", "trivially_rejected"),
            s("Clipper", "triangles"),
        ),
    );
    report.put_value(
        "core.setup.culled_ratio",
        ratio(s("Setup", "face_culled"), s("Setup", "triangles")),
    );
    report.put_value("core.fraggen.fragments", s("FragGen", "fragments"));
    report.put_value(
        "core.hz.culled_ratio",
        ratio(s("HZ", "tiles_rejected"), s("HZ", "tiles")),
    );
    report.put_value(
        "core.zstencil.fragments_tested",
        s("ZStencil", "fragments_tested"),
    );
    report.put_value(
        "core.zstencil.pass_ratio",
        ratio(
            s("ZStencil", "fragments_passed"),
            s("ZStencil", "fragments_tested"),
        ),
    );
    report.put_value(
        "core.zstencil.busy_share",
        ratio(
            s("ZStencil", "busy_cycles"),
            unit_cycles(cfg.zstencil.units),
        ),
    );
    report.put_value(
        "core.ffifo.fragments_shaded",
        s("FFIFO", "fragments_shaded"),
    );
    report.put_value(
        "core.ffifo.shader_instructions",
        s("Shader", "instructions"),
    );
    report.put_value(
        "core.ffifo.shader_busy_share",
        ratio(
            s("Shader", "busy_cycles"),
            unit_cycles(gpu.shader_busy_cycles().len()),
        ),
    );
    report.put_value("core.texunit.requests", s("Texture", "requests"));
    report.put_value("core.texunit.cache_hit_ratio", gpu.texture_cache_stats().2);
    report.put_value(
        "core.texunit.busy_share",
        ratio(s("Texture", "busy_cycles"), unit_cycles(cfg.texture.units)),
    );
    report.put_value("core.texunit.bytes_read", gpu.texture_bytes_read() as f64);
    report.put_value(
        "core.colorwrite.fragments_written",
        s("ColorWrite", "fragments_written"),
    );
    report.put_value(
        "core.colorwrite.busy_share",
        ratio(
            s("ColorWrite", "busy_cycles"),
            unit_cycles(cfg.colorwrite.units),
        ),
    );

    let mem = gpu.memory();
    let rows = (mem.row_hits() + mem.row_misses() + mem.row_conflicts()) as f64;
    report.put_value("mem.controller.bytes_read", mem.bytes_read() as f64);
    report.put_value("mem.controller.bytes_written", mem.bytes_written() as f64);
    report.put_value(
        "mem.controller.channel_busy_share",
        ratio(
            mem.channel_busy_cycles() as f64,
            unit_cycles(mem.channel_count()),
        ),
    );
    report.put_value("mem.gddr.row_hit_ratio", ratio(mem.row_hits() as f64, rows));
    report.put_value("mem.gddr.row_conflicts", mem.row_conflicts() as f64);
    report.put_value("mem.gddr.turnarounds", mem.turnarounds() as f64);
}

/// What one counted pass saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counted {
    cycles: u64,
    skipped: u64,
    digest: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// The pieces of a run every phase works on.
struct Ctx<'a> {
    report: Report,
    host: Host,
    tracer: Tracer,
    scale: Scale,
    out_dir: &'a Path,
}

pub fn run(w: &Workload, seed: u64, seconds: f64, scale: Scale, out_dir: &Path) -> Report {
    let full = scale == Scale::Full;
    let mut cx = Ctx {
        report: Report::new(w.name, seed, true),
        host: if full { Host::new() } else { Host::quick() },
        tracer: Tracer::new(w.name),
        scale,
        out_dir,
    };
    let root = cx.tracer.begin("ledger.workload");

    // Set-up, one step per span. The calibration pair around it serves
    // the three set-up times.
    let ((p, setup), block) = cx
        .host
        .timed(|| sim::prepare(&mut cx.tracer, w, seed, scale));
    let cal = |s: f64| calibrated(s, block.calib_s);
    cx.report.put_value("gl.trace_gen_s", cal(setup.gen_s));
    cx.report.put_value("gl.compile_s", cal(setup.compile_s));
    cx.report
        .put_value("core.gpu.elaborate_s", cal(setup.elaborate_s));
    cx.report.put_value("gl.commands", p.commands.len() as f64);
    cx.report.put_value(
        "gl.trace_payload_mb",
        workloads::payload_bytes(&p.trace) as f64 / 1048576.0,
    );

    let counts = match counted_passes(&mut cx, &p, seconds * COUNTED_SHARE) {
        Some((wall, seen)) => {
            traced_runs(&mut cx, &p, &wall);
            checkpoint_steps(&mut cx, w, &p);
            run_kernels(&mut cx, &p);
            vec![
                ("cycles", seen.cycles as f64),
                ("allocs", seen.allocs as f64),
            ]
        }
        None => Vec::new(),
    };
    cx.tracer.end(root, &counts);

    let calib = cx.host.calib_ms();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cx.report.put_value("host.cores", cores as f64);
    cx.report.put_value("host.calib_ms.median", calib.median);
    cx.report
        .put_value("host.calib_ms.spread", calib.spread() * 100.0);
    cx.report.noisy = cx.host.noisy();

    let span_file = out_dir.join(format!("trace-{}.json", w.name));
    if let Err(e) = std::fs::write(&span_file, cx.tracer.to_json().pretty()) {
        cx.report.check(false, || {
            format!("cannot write {}: {e}", span_file.display())
        });
    }
    cx.report
}

/// Untraced whole-trace runs with the allocator armed, for `budget_s`
/// seconds: the exact counts, the per-cycle costs, horizon polling and
/// the stats CSV. Returns the calibrated pass times and what every pass
/// saw, or `None` when the first pass failed.
fn counted_passes(cx: &mut Ctx, p: &Prepared, budget_s: f64) -> Option<(Summary, Counted)> {
    let deadline = Instant::now() + Duration::from_secs_f64(budget_s);
    let (mut raw_s, mut cal_s) = (Vec::new(), Vec::new());
    let mut first: Option<(Counted, Gpu)> = None;
    while first.is_none() || (cx.scale == Scale::Full && Instant::now() < deadline) {
        let mut gpu = sim::fresh_gpu(&p.config);
        let ((result, (allocs, alloc_bytes)), timing) = cx.host.timed(|| {
            cx.tracer.within("ledger.counted_pass", || {
                counted(|| gpu.run_trace(&p.commands))
            })
        });
        let cycles = match result {
            Ok(r) => r.cycles,
            Err(e) => {
                cx.report.check(false, || format!("run_trace: {e}"));
                break;
            }
        };
        let seen = Counted {
            cycles,
            skipped: gpu.cycles_skipped(),
            digest: fnv(gpu.stats().csv().as_bytes()),
            allocs,
            alloc_bytes,
        };
        raw_s.push(timing.raw_s);
        cal_s.push(timing.cal_s());
        match &first {
            None => {
                cx.report.check(true, String::new);
                first = Some((seen, gpu));
            }
            Some((expected, _)) => cx.report.check(seen == *expected, || {
                format!(
                    "counted pass {}: {seen:?} differs from the first pass's {expected:?}",
                    raw_s.len()
                )
            }),
        }
    }
    let (seen, gpu) = first?;
    let report = &mut cx.report;
    let wall = Summary::of(&cal_s);
    let kcycles = seen.cycles as f64 / 1e3;
    let stepped = (seen.cycles - seen.skipped) as f64;
    let fragments = stat(&gpu, "FragGen", "fragments");
    report.put("host.raw_wall_s", Summary::of(&raw_s));
    report.put_value("core.gpu.sim_cycles", seen.cycles as f64);
    report.put_value("core.gpu.cycles_skipped", seen.skipped as f64);
    let skip_ratio = ratio(seen.skipped as f64, seen.cycles as f64);
    report.put_value("core.gpu.skip_ratio", skip_ratio);
    let per_stepped = wall.scaled(1e9 / stepped);
    report.put("core.gpu.host_ns_per_stepped_cycle", per_stepped);
    let per_fragment = wall.scaled(ratio(1e9, fragments));
    report.put("core.gpu.host_ns_per_fragment", per_fragment);
    report.put_value("core.gpu.allocs_per_kcycle", seen.allocs as f64 / kcycles);
    let alloc_kb = seen.alloc_bytes as f64 / 1024.0;
    report.put_value("core.gpu.alloc_kb_per_kcycle", alloc_kb / kcycles);
    box_metrics(report, &gpu, seen.cycles);

    // Horizon polling and the stats CSV, on the drained machine.
    let ((), horizon) = cx.host.timed(|| {
        cx.tracer.within("core.gpu.work_horizon", || {
            for _ in 0..HORIZON_CALLS {
                std::hint::black_box(gpu.work_horizon());
            }
        })
    });
    let per_call = horizon.cal_s() * 1e9 / f64::from(HORIZON_CALLS);
    report.put_value("core.gpu.work_horizon_ns", per_call);
    let (csv_len, csv) = cx.host.timed(|| {
        cx.tracer
            .within("sim.stats.csv", || gpu.stats().csv().len())
    });
    std::hint::black_box(csv_len);
    report.put_value("core.gpu.stats_csv_ms", csv.cal_s() * 1e3);
    Some((wall, seen))
}

/// The traced runs: `run_trace` once per `Swap`-delimited chunk, one
/// `core.gpu.frame` span each. This drains the pipe between frames, so
/// the cycle count is not the workload's; only the counted passes define
/// `core.gpu.sim_cycles`. Three runs, because one run's time against the
/// untraced median says more about the host than about tracing. The
/// first run's frames go to the golden comparison.
fn traced_runs(cx: &mut Ctx, p: &Prepared, untraced: &Summary) {
    let mut first_frames = None;
    let (mut run_s, mut frame_ms) = (Vec::new(), Vec::new());
    for _ in 0..if cx.scale == Scale::Full {
        TRACED_RUNS
    } else {
        1
    } {
        let mut gpu = sim::fresh_gpu(&p.config);
        gpu.keep_frames = true;
        let mut frames = Vec::new();
        let mut raw_frame_ms = Vec::new();
        let (run_ok, traced) = cx.host.timed(|| {
            let run = cx.tracer.begin("core.gpu.run_trace");
            let mut ok = Ok(());
            for chunk in p
                .commands
                .split_inclusive(|c| matches!(c, GpuCommand::Swap))
            {
                let skipped_before = gpu.cycles_skipped();
                let frame = cx.tracer.begin("core.gpu.frame");
                let (result, (allocs, alloc_bytes)) = counted(|| gpu.run_trace(chunk));
                let cycles = result.as_ref().map_or(0, |r| r.cycles);
                let skipped = gpu.cycles_skipped() - skipped_before;
                let span = cx.tracer.end(
                    frame,
                    &[
                        ("cycles", cycles as f64),
                        ("cycles_skipped", skipped as f64),
                        ("allocs", allocs as f64),
                        ("alloc_bytes", alloc_bytes as f64),
                    ],
                );
                raw_frame_ms.push(span.duration_ns() as f64 * 1e-6);
                match result {
                    Ok(r) => frames.extend(r.framebuffers),
                    Err(e) => {
                        ok = Err(format!("traced run_trace: {e}"));
                        break;
                    }
                }
            }
            cx.tracer.end(run, &[("cycles", gpu.cycle() as f64)]);
            ok
        });
        cx.report
            .check(run_ok.is_ok(), || run_ok.clone().unwrap_err());
        run_s.push(traced.cal_s());
        frame_ms.extend(
            raw_frame_ms
                .iter()
                .map(|&ms| calibrated(ms, traced.calib_s)),
        );
        first_frames.get_or_insert(frames);
    }
    let frame = Summary::of(&frame_ms);
    cx.report
        .put_value("core.gpu.frame_ms.median", frame.median);
    cx.report.put_value("core.gpu.frame_ms.max", frame.max);
    let overhead = Summary::of(&run_s).median / untraced.median - 1.0;
    cx.report
        .put_value("host.trace_overhead_pct", overhead * 100.0);

    // Golden frames: the accuracy check and the functional-only ceiling.
    let (golden, golden_t) = cx
        .host
        .timed(|| cx.tracer.within("core.golden.render", || sim::golden(p)));
    let bad = sim::mismatched_pixels(&first_frames.unwrap_or_default(), &golden);
    cx.report.check(bad == 0 && !golden.is_empty(), || {
        format!(
            "{bad} pixels differ from the golden renderer over {} frames",
            golden.len()
        )
    });
    cx.report
        .put_value("core.golden.render_s", golden_t.cal_s());
    let speedup = untraced.median / golden_t.cal_s();
    cx.report
        .put_value("core.golden.speedup_vs_timing", speedup);
}

/// One checkpoint round trip at the end of the first frame, step by
/// step, then `attila_json::parse` alone over the file's text.
fn checkpoint_steps(cx: &mut Ctx, w: &Workload, p: &Prepared) {
    let path = cx.out_dir.join(format!("{}.ckpt", w.name));
    let probe = cx
        .tracer
        .within("core.checkpoint.probe_run", || sim::checkpoint_probe(p));
    let (roundtrip, timing) = cx.host.timed(|| {
        let gpu = probe.as_ref().map_err(String::clone)?;
        let id = cx.tracer.begin("core.checkpoint.roundtrip");
        let steps = sim::checkpoint_roundtrip(&mut cx.tracer, gpu, p, &path);
        cx.tracer.end(id, &[]);
        steps
    });
    drop(probe);
    match roundtrip {
        Ok(steps) => {
            cx.report.check(true, String::new);
            let ms = |s: f64| calibrated(s, timing.calib_s) * 1e3;
            let report = &mut cx.report;
            report.put_value("core.checkpoint.capture_ms", ms(steps.capture_s));
            report.put_value("core.checkpoint.write_ms", ms(steps.write_s));
            report.put_value("core.checkpoint.read_ms", ms(steps.read_s));
            report.put_value("core.checkpoint.restore_ms", ms(steps.restore_s));
            let file_mb = steps.file_bytes as f64 / 1048576.0;
            report.put_value("core.checkpoint.file_mb", file_mb);
        }
        Err(e) => cx.report.check(false, || e),
    }
    if let Ok(text) = std::fs::read_to_string(&path) {
        let (parsed, timing) = cx.host.timed(|| {
            cx.tracer
                .within("json.parse", || attila_json::parse(&text).is_ok())
        });
        cx.report.check(parsed, || {
            "attila_json::parse rejected the checkpoint text".to_string()
        });
        let mb_per_s = text.len() as f64 / 1048576.0 / timing.cal_s();
        cx.report.put_value("json.parse_mb_per_s", mb_per_s);
    }
    let _ = std::fs::remove_file(&path);
}

/// The isolated kernels, one span each, under one calibration pair.
fn run_kernels(cx: &mut Ctx, p: &Prepared) {
    let Ctx {
        report,
        host,
        tracer,
        scale,
        ..
    } = cx;
    let scale = *scale;
    // Sized for 0.08–0.15 s each on the reference host.
    let n = |full: u64| {
        if scale == Scale::Full {
            full
        } else {
            full / 50
        }
    };
    // (metric, run, whether the metric is M work/s rather than ns/work)
    let mut runs: Vec<(&str, KernelRun, bool)> = Vec::new();
    let mut sweep = None;
    let ((), block) = host.timed(|| {
        let mut kernel = |name: &'static str, rate: bool, f: &dyn Fn() -> KernelRun| {
            runs.push((name, tracer.within(name, f), rate));
        };
        kernel("sim.signal.kernel_ns_per_op.lat1_bw4", false, &|| {
            kernels::signal(1, 4, n(1_500_000))
        });
        kernel("sim.signal.kernel_ns_per_op.lat8_bw1", false, &|| {
            kernels::signal(8, 1, n(5_000_000))
        });
        kernel(
            "mem.controller.kernel_ns_per_req.read_stream",
            false,
            &|| kernels::memory(MemStream::Read, n(800_000)),
        );
        kernel(
            "mem.controller.kernel_ns_per_req.write_stream",
            false,
            &|| kernels::memory(MemStream::Write, n(800_000)),
        );
        kernel("mem.controller.kernel_ns_per_req.mixed_rw", false, &|| {
            kernels::memory(MemStream::Mixed, n(600_000))
        });
        kernel("emu.shader.kernel_minstr_per_s", true, &|| {
            kernels::shader(&p.trace, n(524_288))
        });
        kernel("emu.texture.kernel_mtexel_per_s.bilinear", true, &|| {
            kernels::texture(TexFilter::Bilinear, n(200_000))
        });
        kernel("emu.texture.kernel_mtexel_per_s.trilinear", true, &|| {
            kernels::texture(TexFilter::Trilinear, n(100_000))
        });
        kernel("emu.raster.kernel_mfrag_per_s", true, &|| {
            kernels::raster(n(2_000))
        });
        // 1 and 3 texture units under both schedulers; two configs for --check.
        let stride = if scale == Scale::Full { 2 } else { 4 };
        sweep = Some(tracer.within("core.sweep.kernel", || kernels::sweep(stride)));
    });
    for (name, run, rate) in runs {
        let cal_s = calibrated(run.raw_s, block.calib_s);
        let value = if rate {
            run.work / cal_s / 1e6
        } else {
            cal_s * 1e9 / run.work
        };
        report.put_value(name, value);
    }
    let (serial, parallel) = sweep.expect("sweep kernel ran");
    report.put_value("core.sweep.kernel_scaling", serial.raw_s / parallel.raw_s);
    report.put_value(
        "core.sweep.kernel_configs_per_s",
        parallel.work / calibrated(parallel.raw_s, block.calib_s),
    );
}
