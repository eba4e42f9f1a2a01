//! The ATTILA simulator command-line front end — the equivalent of the
//! original project's `bGPU` binary: run a trace file on a configuration,
//! produce statistics CSV, frame dumps and (optionally) a signal trace.
//!
//! ```sh
//! attila --preset case-study --tus 2 --workload doom3 --frames 2 \
//!        --out-dir target/run --stats --signal-trace
//! attila --config my_gpu.json --trace my_trace.json --hot-start 10
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use attila::core::config::{GpuConfig, ShaderScheduling};
use attila::core::gpu::{Gpu, GpuError};
use attila::core::Checkpoint;
use attila::gl::workloads::{self, WorkloadParams};
use attila::gl::{GlPlayer, GlTrace};

struct Args {
    sweep: bool,
    sweep_tus: Vec<usize>,
    sweep_schedulers: Vec<ShaderScheduling>,
    sweep_trcd: Option<Vec<u64>>,
    sweep_trp: Option<Vec<u64>>,
    sweep_banks: Option<Vec<usize>>,
    viz: Option<PathBuf>,
    viz_out: Option<PathBuf>,
    viz_title: Option<String>,
    viz_buckets: usize,
    workers: Option<usize>,
    checkpoint_every: Option<u64>,
    checkpoint_path: Option<PathBuf>,
    resume: bool,
    config_file: Option<PathBuf>,
    preset: String,
    tus: Option<usize>,
    scheduler: Option<ShaderScheduling>,
    trace_file: Option<PathBuf>,
    workload: Option<String>,
    width: u32,
    height: u32,
    frames: u32,
    hot_start: u64,
    max_frames: Option<u64>,
    max_cycles: Option<u64>,
    out_dir: PathBuf,
    stats: bool,
    signal_trace: bool,
    dump_config: bool,
    dump_trace: bool,
    dump_pipeline: bool,
    stv: Option<(PathBuf, u64, u64)>,
}

/// The widest `--stv` range: one column per cycle per signal (`--help` states it).
const STV_COLUMNS: u64 = 10_000;

fn usage() -> &'static str {
    "ATTILA cycle-level GPU simulator

USAGE:
    attila [OPTIONS]

GPU selection:
    --config <file.json>     load a GpuConfig JSON file
    --preset <name>          baseline | non-unified | case-study | embedded | high-end
    --tus <n>                override the texture-unit count
    --scheduler <s>          window | queue
    --dump-config            print the effective config JSON and exit
    --dump-pipeline          print the box/signal topology (Figures 1/2/5)

Input selection:
    --trace <file.json>      run a captured GlTrace file
    --workload <name>        quickstart | doom3 | ut2004 | embedded |
                             texture_stream | fillrate
    --width/--height <px>    workload resolution (default 160x120)
    --frames <n>             workload frame count (default 2)
    --hot-start <frame>      skip draws before this frame (hot start)
    --max-frames <n>         stop after n simulated frames
    --max-cycles <n>         watchdog: abort with a failure report if the
                             simulation runs past n cycles
    --dump-trace             write the generated workload trace JSON and exit

Crash safety:
    --checkpoint-every <n>   write a checkpoint at the first quiescent
                             point every n cycles (atomic write-rename: a
                             killed run always leaves a valid file)
    --checkpoint <file>      checkpoint file path
                             (default <out-dir>/latest.ckpt)
    --resume                 restore from the checkpoint file and finish
                             the run; bit-identical to never stopping

Output:
    --out-dir <dir>          output directory (default target/attila-run)
    --stats                  write the windowed statistics CSV
    --signal-trace           write a signal trace + STV rendering of the
                             first 200 cycles

Tools:
    --stv <file> <from> <to> render a saved signal-trace file for the
                             cycle range [from, to) and exit; the range
                             holds 1 to 10000 cycles (one column each)
    viz <trace-file>         render a saved signal-trace dump as a single
                             self-contained HTML timeline: per-box
                             busy/stall lanes, DRAM bank row-buffer
                             outcomes and an occupancy table. The output
                             is byte-for-byte deterministic.
      --out <file>           output path (default <out-dir>/timeline.html)
      --title <text>         page title
      --buckets <n>          maximum timeline columns (default 240)

Subcommands:
    sweep                    run the selected workload across a grid of
                             case-study configurations on worker threads;
                             writes sweep.csv / sweep.json to --out-dir.
                             The merged report is in job order, so it is
                             byte-identical for any worker count.
      --tus-list <a,b,..>    texture-unit counts to sweep (default 1,2,3,4)
      --schedulers <a,b>     shader schedulers to sweep: window,queue
                             (default both)
      --trcd-list <a,b,..>   DRAM tRCD values to sweep (row-miss cost)
      --trp-list <a,b,..>    DRAM tRP values to sweep (row-conflict adds
                             tRP + tRCD)
      --banks-list <a,b,..>  DRAM banks-per-channel counts to sweep
      --workers <n>          worker threads (default: available cores)
"
}

fn parse_list<T: std::str::FromStr>(text: &str, flag: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    let list: Vec<T> = text
        .split(',')
        .map(|t| t.trim().parse().map_err(|e| format!("{flag}: {e}")))
        .collect::<Result<_, _>>()?;
    if list.is_empty() {
        return Err(format!("{flag} needs at least one entry"));
    }
    Ok(list)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sweep: false,
        sweep_tus: vec![1, 2, 3, 4],
        sweep_schedulers: vec![ShaderScheduling::ThreadWindow, ShaderScheduling::InOrderQueue],
        sweep_trcd: None,
        sweep_trp: None,
        sweep_banks: None,
        viz: None,
        viz_out: None,
        viz_title: None,
        viz_buckets: 240,
        workers: None,
        checkpoint_every: None,
        checkpoint_path: None,
        resume: false,
        config_file: None,
        preset: "baseline".into(),
        tus: None,
        scheduler: None,
        trace_file: None,
        workload: None,
        width: 160,
        height: 120,
        frames: 2,
        hot_start: 0,
        max_frames: None,
        max_cycles: None,
        out_dir: PathBuf::from("target/attila-run"),
        stats: false,
        signal_trace: false,
        dump_config: false,
        dump_trace: false,
        dump_pipeline: false,
        stv: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "sweep" => args.sweep = true,
            "viz" => {
                args.viz = Some(PathBuf::from(val("viz <trace-file>")?));
            }
            "--out" => args.viz_out = Some(PathBuf::from(val("--out")?)),
            "--title" => args.viz_title = Some(val("--title")?),
            "--buckets" => {
                args.viz_buckets =
                    val("--buckets")?.parse().map_err(|e| format!("--buckets: {e}"))?;
                if args.viz_buckets == 0 {
                    return Err("--buckets needs at least 1".into());
                }
            }
            "--checkpoint-every" => {
                args.checkpoint_every = Some(
                    val("--checkpoint-every")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-every: {e}"))?,
                )
            }
            "--checkpoint" => {
                args.checkpoint_path = Some(PathBuf::from(val("--checkpoint")?))
            }
            "--resume" => args.resume = true,
            "--tus-list" => {
                args.sweep_tus = val("--tus-list")?
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|e| format!("--tus-list: {e}")))
                    .collect::<Result<_, _>>()?;
                if args.sweep_tus.is_empty() {
                    return Err("--tus-list needs at least one count".into());
                }
            }
            "--schedulers" => {
                args.sweep_schedulers = val("--schedulers")?
                    .split(',')
                    .map(|s| match s.trim() {
                        "window" => Ok(ShaderScheduling::ThreadWindow),
                        "queue" => Ok(ShaderScheduling::InOrderQueue),
                        other => Err(format!("unknown scheduler `{other}`")),
                    })
                    .collect::<Result<_, _>>()?;
                if args.sweep_schedulers.is_empty() {
                    return Err("--schedulers needs at least one entry".into());
                }
            }
            "--trcd-list" => {
                args.sweep_trcd = Some(parse_list(&val("--trcd-list")?, "--trcd-list")?);
            }
            "--trp-list" => {
                args.sweep_trp = Some(parse_list(&val("--trp-list")?, "--trp-list")?);
            }
            "--banks-list" => {
                let banks: Vec<usize> = parse_list(&val("--banks-list")?, "--banks-list")?;
                if banks.contains(&0) {
                    return Err("--banks-list: a channel needs at least one bank".into());
                }
                args.sweep_banks = Some(banks);
            }
            "--workers" => {
                args.workers =
                    Some(val("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?)
            }
            "--config" => args.config_file = Some(PathBuf::from(val("--config")?)),
            "--preset" => args.preset = val("--preset")?,
            "--tus" => args.tus = Some(val("--tus")?.parse().map_err(|e| format!("--tus: {e}"))?),
            "--scheduler" => {
                args.scheduler = Some(match val("--scheduler")?.as_str() {
                    "window" => ShaderScheduling::ThreadWindow,
                    "queue" => ShaderScheduling::InOrderQueue,
                    other => return Err(format!("unknown scheduler `{other}`")),
                })
            }
            "--trace" => args.trace_file = Some(PathBuf::from(val("--trace")?)),
            "--workload" => args.workload = Some(val("--workload")?),
            "--width" => args.width = val("--width")?.parse().map_err(|e| format!("{e}"))?,
            "--height" => args.height = val("--height")?.parse().map_err(|e| format!("{e}"))?,
            "--frames" => args.frames = val("--frames")?.parse().map_err(|e| format!("{e}"))?,
            "--hot-start" => {
                args.hot_start = val("--hot-start")?.parse().map_err(|e| format!("{e}"))?
            }
            "--max-frames" => {
                args.max_frames = Some(val("--max-frames")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--max-cycles" => {
                args.max_cycles = Some(val("--max-cycles")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--out-dir" => args.out_dir = PathBuf::from(val("--out-dir")?),
            "--stats" => args.stats = true,
            "--signal-trace" => args.signal_trace = true,
            "--dump-config" => args.dump_config = true,
            "--dump-trace" => args.dump_trace = true,
            "--dump-pipeline" => args.dump_pipeline = true,
            "--stv" => {
                let file = PathBuf::from(val("--stv")?);
                let from = val("--stv")?.parse().map_err(|e| format!("--stv from: {e}"))?;
                let to: u64 = val("--stv")?.parse().map_err(|e| format!("--stv to: {e}"))?;
                if !(1..=STV_COLUMNS).contains(&to.saturating_sub(from)) {
                    return Err(format!("--stv spans 1 to {STV_COLUMNS} cycles, not {from}..{to}"));
                }
                args.stv = Some((file, from, to));
            }
            "--help" | "-h" => {
                print!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn build_config(args: &Args) -> Result<GpuConfig, String> {
    let mut config = if let Some(path) = &args.config_file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        GpuConfig::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?
    } else {
        match args.preset.as_str() {
            "baseline" => GpuConfig::baseline(),
            "non-unified" => GpuConfig::non_unified_baseline(),
            "case-study" => GpuConfig::case_study(
                args.tus.unwrap_or(3),
                args.scheduler.unwrap_or(ShaderScheduling::ThreadWindow),
            ),
            "embedded" => GpuConfig::embedded(),
            "high-end" => GpuConfig::high_end(),
            other => return Err(format!("unknown preset `{other}`")),
        }
    };
    if let Some(tus) = args.tus {
        config.texture.units = tus;
    }
    if let Some(s) = args.scheduler {
        config.shader.scheduling = s;
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

fn build_trace(args: &Args) -> Result<GlTrace, String> {
    if let Some(path) = &args.trace_file {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        return GlTrace::from_json(&text).map_err(|e| format!("{}: {e}", path.display()));
    }
    let params = WorkloadParams {
        width: args.width,
        height: args.height,
        frames: args.frames,
        texture_size: 128,
        ..Default::default()
    };
    Ok(match args.workload.as_deref().unwrap_or("quickstart") {
        "quickstart" => workloads::quickstart_trace(args.width, args.height),
        "doom3" => workloads::doom3_like(params),
        "ut2004" => workloads::ut2004_like(params),
        "embedded" => workloads::embedded_scene(params),
        "texture_stream" => workloads::texture_stream(params),
        "fillrate" => workloads::fillrate(args.width, args.height, 8, true),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// The sweep configuration grid: case-study texture-unit counts ×
/// shader schedulers, optionally crossed with DRAM timing axes
/// (`--trcd-list`, `--trp-list`, `--banks-list`). Memory axes only show
/// up in the label when explicitly swept, so the default grid's labels
/// are unchanged.
fn sweep_grid(args: &Args, width: u32, height: u32) -> Result<Vec<(String, GpuConfig)>, String> {
    let trcd_axis = args.sweep_trcd.clone().map(|v| (true, v)).unwrap_or((false, vec![0]));
    let trp_axis = args.sweep_trp.clone().map(|v| (true, v)).unwrap_or((false, vec![0]));
    let banks_axis = args.sweep_banks.clone().map(|v| (true, v)).unwrap_or((false, vec![0]));
    let mut grid = Vec::new();
    for &tus in &args.sweep_tus {
        for &sched in &args.sweep_schedulers {
            for &trcd in &trcd_axis.1 {
                for &trp in &trp_axis.1 {
                    for &banks in &banks_axis.1 {
                        let mut config = GpuConfig::case_study(tus, sched);
                        config.display.width = width;
                        config.display.height = height;
                        let sched_name = match sched {
                            ShaderScheduling::ThreadWindow => "window",
                            ShaderScheduling::InOrderQueue => "queue",
                        };
                        let mut label = format!("tus{tus}-{sched_name}");
                        if trcd_axis.0 {
                            config.memory.t_rcd = trcd;
                            label.push_str(&format!("-trcd{trcd}"));
                        }
                        if trp_axis.0 {
                            config.memory.t_rp = trp;
                            label.push_str(&format!("-trp{trp}"));
                        }
                        if banks_axis.0 {
                            config.memory.banks = banks;
                            label.push_str(&format!("-bk{banks}"));
                        }
                        config.validate().map_err(|e| e.to_string())?;
                        grid.push((label, config));
                    }
                }
            }
        }
    }
    Ok(grid)
}

/// `attila sweep`: fan the selected workload across a grid of case-study
/// configurations (texture-unit counts × shader schedulers) on worker
/// threads, then write the merged, job-ordered report. Per-config results
/// are bit-identical to a serial run, so the CSV/JSON never depend on the
/// worker count or OS scheduling.
fn run_sweep_cli(args: &Args) -> Result<(), CliError> {
    use attila::core::sweep::{run_sweep, sweep_csv, sweep_json, SweepJob};

    let trace = build_trace(args)?;
    let player = GlPlayer { skip_frames: args.hot_start, max_frames: args.max_frames };
    let commands = player.replay(&trace).map_err(|e| CliError::Usage(e.to_string()))?;

    let jobs: Vec<SweepJob> = sweep_grid(args, trace.width, trace.height)?
        .into_iter()
        .map(|(label, config)| SweepJob { label, config })
        .collect();
    let workers = args.workers.unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    });
    eprintln!(
        "sweep: {} configs ({} tus x {} schedulers) on {workers} worker(s)",
        jobs.len(),
        args.sweep_tus.len(),
        args.sweep_schedulers.len(),
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "host-side harness timing; not part of the deterministic report"
    )]
    let start = std::time::Instant::now();
    let outcomes = run_sweep(jobs, std::sync::Arc::new(commands), workers);
    let wall = start.elapsed().as_secs_f64();

    std::fs::create_dir_all(&args.out_dir).map_err(|e| CliError::Usage(e.to_string()))?;
    let csv = sweep_csv(&outcomes);
    let csv_path = args.out_dir.join("sweep.csv");
    std::fs::write(&csv_path, &csv).map_err(|e| CliError::Usage(e.to_string()))?;
    let json_path = args.out_dir.join("sweep.json");
    std::fs::write(&json_path, sweep_json(&outcomes).pretty())
        .map_err(|e| CliError::Usage(e.to_string()))?;

    print!("{csv}");
    println!("sweep: {} configs in {wall:.2}s -> {} and {}",
        outcomes.len(),
        csv_path.display(),
        json_path.display(),
    );
    let failed: Vec<&attila::core::SweepOutcome> =
        outcomes.iter().filter(|o| o.error.is_some()).collect();
    if !failed.is_empty() {
        for f in &failed {
            eprintln!("sweep: config `{}` failed: {}", f.label, f.error.as_deref().unwrap_or(""));
        }
        return Err(CliError::Usage(format!(
            "sweep: {} of {} config(s) failed; the other rows are intact in {}",
            failed.len(),
            outcomes.len(),
            csv_path.display(),
        )));
    }
    Ok(())
}

/// What went wrong, and therefore which exit code to die with.
enum CliError {
    /// Bad arguments, unreadable files, invalid configs: exit 1.
    Usage(String),
    /// The simulator refused the run (exit 1), aborted on a fault (exit
    /// 2) or hung past the watchdog (exit 3), with any failure report on
    /// stderr.
    Gpu(Box<GpuError>),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

fn run() -> Result<(), CliError> {
    let args = parse_args()?;
    if let Some((file, from, to)) = &args.stv {
        let text =
            std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let trace = attila::sim::SignalTrace::parse(&text);
        println!("{} events in {}", trace.len(), file.display());
        print!("{}", trace.render(*from, *to));
        return Ok(());
    }
    if let Some(input) = &args.viz {
        let text =
            std::fs::read_to_string(input).map_err(|e| format!("{}: {e}", input.display()))?;
        let trace = attila::sim::SignalTrace::parse(&text);
        let opts = attila::sim::VizOptions {
            title: args
                .viz_title
                .clone()
                .unwrap_or_else(|| format!("ATTILA signal timeline: {}", input.display())),
            buckets: args.viz_buckets,
        };
        let html = attila::sim::render_html(&trace, &opts);
        let out = args
            .viz_out
            .clone()
            .unwrap_or_else(|| args.out_dir.join("timeline.html"));
        if let Some(dir) = out.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(&out, &html).map_err(|e| format!("{}: {e}", out.display()))?;
        println!(
            "viz: {} events from {} -> {} ({} bytes)",
            trace.len(),
            input.display(),
            out.display(),
            html.len(),
        );
        return Ok(());
    }
    if args.sweep {
        return run_sweep_cli(&args);
    }
    let mut config = build_config(&args)?;
    if args.dump_config {
        println!("{}", config.to_json());
        return Ok(());
    }
    if args.dump_pipeline {
        let gpu = Gpu::new(config);
        println!("== ATTILA pipeline: {} signals ==", gpu.binder().len());
        print!("{}", gpu.binder().describe());
        return Ok(());
    }
    let trace = build_trace(&args)?;
    if args.dump_trace {
        println!("{}", trace.to_json());
        return Ok(());
    }
    config.display.width = trace.width;
    config.display.height = trace.height;

    let player = GlPlayer { skip_frames: args.hot_start, max_frames: args.max_frames };
    let commands = player.replay(&trace).map_err(|e| CliError::Usage(e.to_string()))?;
    eprintln!(
        "trace: {} API calls, {} frames; GPU: {} shader unit(s), {} TU(s), {:?} scheduler",
        trace.calls.len(),
        trace.frame_count(),
        config.shader.fragment_units,
        config.texture.units,
        config.shader.scheduling,
    );

    std::fs::create_dir_all(&args.out_dir).map_err(|e| CliError::Usage(e.to_string()))?;
    let clock = config.display.clock_mhz;
    let ckpt_path = args
        .checkpoint_path
        .clone()
        .unwrap_or_else(|| args.out_dir.join("latest.ckpt"));
    let mut resumed = false;
    let mut gpu = if args.resume {
        // Restore refuses (typed, no panic) on a corrupt file, a future
        // format version or a config/trace that doesn't hash-match.
        #[expect(
            clippy::disallowed_methods,
            reason = "host cost of the resume, printed once; the simulator never sees it"
        )]
        let started = std::time::Instant::now();
        let ckpt = Checkpoint::read_file(&ckpt_path)
            .map_err(|e| CliError::Usage(format!("{}: {e}", ckpt_path.display())))?;
        let gpu = Gpu::restore(config, &commands, &ckpt, None)
            .map_err(|e| CliError::Usage(format!("{}: {e}", ckpt_path.display())))?;
        let host_ms = started.elapsed().as_secs_f64() * 1e3;
        eprintln!(
            "resumed from {} at cycle {} ({} of {} commands consumed); {} file bytes, \
             {} extents holding {} live bytes, read + restore {host_ms:.1} ms",
            ckpt_path.display(),
            ckpt.body.cycle,
            ckpt.body.commands_consumed,
            commands.len(),
            std::fs::metadata(&ckpt_path).map_or(0, |m| m.len()),
            ckpt.body.memory.extents.len(),
            ckpt.body.memory.live_bytes(),
        );
        resumed = true;
        gpu
    } else {
        Gpu::new(config)
    };
    if let Some(limit) = args.max_cycles {
        gpu.max_cycles = limit;
    }
    if args.checkpoint_every.is_some() {
        gpu.checkpoint_every = args.checkpoint_every;
        gpu.checkpoint_path = Some(ckpt_path.clone());
    }
    let sink = args.signal_trace.then(|| gpu.enable_signal_trace(200_000));
    // A resumed GPU already holds the unconsumed tail of the trace.
    let to_run: &[attila::core::commands::GpuCommand] = if resumed { &[] } else { &commands };
    let result = gpu.run_trace(to_run).map_err(|e| CliError::Gpu(Box::new(e)))?;
    if gpu.checkpoint_every.is_some() && ckpt_path.exists() {
        // The run drained: the checkpoint has served its purpose.
        let _ = std::fs::remove_file(&ckpt_path);
    }

    println!("{}", gpu.summary());
    if gpu.checkpoint_every.is_some() {
        println!(
            "checkpoints written: {} ({} bytes)",
            gpu.checkpoints_written(),
            gpu.checkpoint_bytes_written()
        );
    }
    println!("fps at {clock} MHz: {:.2}", result.fps(clock));
    for (i, frame) in result.framebuffers.iter().enumerate() {
        let path = args.out_dir.join(format!("frame{i}.ppm"));
        std::fs::write(&path, frame.to_ppm()).map_err(|e| e.to_string())?;
        println!("frame {i} -> {}", path.display());
    }
    if args.stats {
        let path = args.out_dir.join("stats.csv");
        std::fs::write(&path, gpu.stats().csv()).map_err(|e| e.to_string())?;
        let totals = args.out_dir.join("stats_totals.csv");
        std::fs::write(&totals, gpu.stats().totals_csv()).map_err(|e| e.to_string())?;
        println!("statistics -> {} and {}", path.display(), totals.display());
    }
    if let Some(sink) = sink {
        let trace_ref = sink.borrow();
        let path = args.out_dir.join("signal_trace.txt");
        std::fs::write(&path, trace_ref.dump()).map_err(|e| e.to_string())?;
        println!("signal trace ({} events) -> {}", trace_ref.len(), path.display());
        let first = trace_ref.events().first().map(|e| e.cycle).unwrap_or(0);
        println!();
        println!("== Signal Trace Visualizer: cycles {first}..{} ==", first + 120);
        print!("{}", trace_ref.render(first, first + 120));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Gpu(e)) => {
            // The post-mortem first — which box hung, which wire dropped
            // data — then the one-line cause. No panic, no backtrace.
            if let Some(report) = e.report() {
                eprintln!("{report}");
            }
            eprintln!("error: {e}");
            match *e {
                GpuError::Watchdog { .. } => ExitCode::from(3),
                // Refused before (or instead of) simulating: a typed
                // refusal like any other bad input.
                GpuError::BadConfig(_) => ExitCode::FAILURE,
                GpuError::Sim { .. } => ExitCode::from(2),
            }
        }
    }
}
