//! The top-level GPU: box construction, signal wiring, the clock loop and
//! the DAC.
//!
//! [`Gpu::new`] instantiates every unit of the configured pipeline
//! (Figures 1/2/5 of the paper), registers all signals in a
//! [`SignalBinder`] and wires them with flow-controlled ports.
//! [`Gpu::run_trace`] feeds a Command Processor trace and clocks the
//! machine until it drains, collecting statistics and framebuffer dumps.

use std::fmt::Write as _;

use attila_emu::fragops::DEPTH_MAX;
use attila_json::{impl_json_state, JsonState};
use attila_mem::{Client, MemoryController};
use attila_sim::{Cycle, Horizon, SignalBinder, SimError, StatsRegistry, WakeLine};

use crate::address::{pixel_address, surface_bytes};
use crate::checkpoint::{mismatch, refused, Checkpoint, CheckpointBody, SparseBytes};
use crate::clipper::Clipper;
use crate::colorwrite::ColorWriteUnit;
use crate::command_processor::{CommandProcessor, CpAction};
use crate::commands::GpuCommand;
use crate::config::GpuConfig;
use crate::dac::Dac;
use crate::ffifo::{fragment_registers, vertex_registers, FragmentFifo};
use crate::fraggen::FragmentGenerator;
use crate::hz::HierarchicalZ;
use crate::interpolator::Interpolator;
use crate::port::port;
use crate::primitive_assembly::PrimitiveAssembly;
use crate::report::{BoxStatus, FailureReport};
use crate::setup::TriangleSetup;
use crate::state::RenderState;
use crate::streamer::Streamer;
use crate::texunit::TextureUnit;
use crate::unit::Unit;
use crate::zstencil::ZStencilUnit;

/// A dumped frame (the DAC's output file in the paper — used to verify
/// the simulation against a reference image).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameDump {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Row-major RGBA bytes, row 0 at the bottom (OpenGL convention).
    pub rgba: Vec<u8>,
}

impl FrameDump {
    /// Serializes as a binary PPM (`P6`) image, flipping to top-down rows.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for y in (0..self.height).rev() {
            for x in 0..self.width {
                let o = ((y * self.width + x) * 4) as usize;
                out.extend_from_slice(&self.rgba[o..o + 3]);
            }
        }
        out
    }

    /// The RGBA pixel at `(x, y)` (bottom-up), or `None` when the
    /// coordinate lies outside the dump.
    pub fn pixel(&self, x: u32, y: u32) -> Option<[u8; 4]> {
        if x >= self.width || y >= self.height {
            return None;
        }
        let o = ((y * self.width + x) * 4) as usize;
        self.rgba.get(o..o + 4).map(|px| px.try_into().expect("4 bytes"))
    }
}

/// Result of running a command trace.
#[derive(Debug)]
pub struct RunResult {
    /// Total simulated cycles.
    pub cycles: Cycle,
    /// Frames completed (swaps).
    pub frames: u64,
    /// DAC dumps, one per frame.
    pub framebuffers: Vec<FrameDump>,
}

impl RunResult {
    /// Frames per second at the configured core clock.
    pub fn fps(&self, clock_mhz: u32) -> f64 {
        if self.cycles == 0 || self.frames == 0 {
            return 0.0;
        }
        let seconds = self.cycles as f64 / (clock_mhz as f64 * 1e6);
        self.frames as f64 / seconds
    }
}

/// Errors surfaced by [`Gpu::run_trace`].
#[derive(Debug, Clone, PartialEq)]
pub enum GpuError {
    /// The watchdog expired: the pipeline failed to drain. The attached
    /// report shows which boxes still held work.
    Watchdog {
        /// The cycle limit that was hit.
        limit: Cycle,
        /// Machine snapshot at expiry.
        report: Box<FailureReport>,
    },
    /// A signal verification check failed.
    Sim {
        /// The underlying verification error.
        error: SimError,
        /// Machine snapshot at the failing cycle.
        report: Box<FailureReport>,
    },
    /// The configuration is inconsistent.
    BadConfig(String),
}

impl GpuError {
    /// The failure report attached to the error, when there is one.
    pub fn report(&self) -> Option<&FailureReport> {
        match self {
            GpuError::Watchdog { report, .. } | GpuError::Sim { report, .. } => Some(report),
            GpuError::BadConfig(_) => None,
        }
    }
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::Watchdog { limit, .. } => {
                write!(f, "simulation watchdog expired after {limit} cycles")
            }
            GpuError::Sim { error, .. } => write!(f, "simulation fault: {error}"),
            GpuError::BadConfig(msg) => write!(f, "bad GPU configuration: {msg}"),
        }
    }
}

impl std::error::Error for GpuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GpuError::Sim { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// The assembled ATTILA GPU.
pub struct Gpu {
    config: GpuConfig,
    binder: SignalBinder,
    stats: StatsRegistry,
    mem: MemoryController,
    cp: CommandProcessor,
    streamer: Streamer,
    pa: PrimitiveAssembly,
    clipper: Clipper,
    setup: TriangleSetup,
    fraggen: FragmentGenerator,
    hz: HierarchicalZ,
    zstencil: Vec<ZStencilUnit>,
    interpolator: Interpolator,
    ffifo: FragmentFifo,
    texunits: Vec<TextureUnit>,
    colorwrite: Vec<ColorWriteUnit>,
    dac: Dac,
    cycle: Cycle,
    frames: u64,
    framebuffers: Vec<FrameDump>,
    /// Watchdog limit for [`run_trace`](Self::run_trace).
    pub max_cycles: Cycle,
    /// Keep per-frame DAC dumps (disable for long benchmark runs).
    pub keep_frames: bool,
    /// Do not clock what is provably idle: the schedule walk leaves
    /// individual sleeping boxes unclocked (DESIGN.md §14) and the clock
    /// loop jumps over cycles in which the whole machine is idle (the
    /// event-horizon scheduler). On by default. Results are bit-identical
    /// either way — only wall-clock time changes.
    pub skip_idle: bool,
    /// Cycles the scheduler jumped over (a plain field, *not* a stats
    /// counter: the stats CSV must be identical with skipping on or off).
    cycles_skipped: Cycle,
    /// The unit table: one row per gated unit in clock order, fixed at
    /// elaboration from the configured unit counts (the Command Processor
    /// clocks ahead of it, the memory controller after it). The clock loop
    /// walks it, and so does every per-unit question (`work_horizon`,
    /// `pipeline_busy`, `failure_report`) through [`unit`](Self::unit) —
    /// they cannot disagree about which units exist.
    table: Box<[UnitRow]>,
    /// Forensic trace sink, when signal tracing is enabled.
    trace: Option<attila_sim::TraceSink>,
    /// A framebuffer dump that failed its bounds check mid-step.
    dump_failure: Option<GpuError>,
    /// Take a crash-safe checkpoint at the first quiescent point at or
    /// after every `N` simulated cycles (see [`crate::checkpoint`]).
    pub checkpoint_every: Option<Cycle>,
    /// Destination file for the automatic checkpoints
    /// [`run_trace`](Self::run_trace) writes (atomic write-then-rename: a
    /// killed process always finds the latest valid checkpoint here).
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Cycle at or after which the next automatic checkpoint is due.
    next_checkpoint_at: Cycle,
    /// Running [`trace_hash`](crate::checkpoint::trace_hash) of every
    /// command ever enqueued, advanced while checkpointing is enabled so
    /// a capture reads it instead of re-hashing the trace.
    trace_hash: u64,
    /// Automatic checkpoints [`run_trace`](Self::run_trace) has written.
    checkpoints_written: u64,
    /// Their total file bytes.
    checkpoint_bytes_written: u64,
}

// `CheckpointBody::boxes`: the boxes' keys in file order, each with the
// field that owns the state. A field added to the machine and to neither
// list is a compile error.
impl_json_state!(Gpu {
    mem as mem_ctrl: state,
    cp: state,
    streamer: state,
    pa as pa_ids: state,
    setup as setup_ids: state,
    fraggen as fraggen_ids: state,
    hz: state,
    interpolator as interpolator_next_input: state,
    ffifo: state,
    texunits: state,
    zstencil: state,
    colorwrite: state,
    dac as dac_next_id: state,
    stats: state,
    binder as signals: state,
} skip {
    "configuration": config;
    "wiring: ports and statistics only": clipper;
    "external: `CheckpointBody`'s typed header (`capture_checkpoint` writes it, `restore` reads \
     it back), or an option the caller sets": cycle, frames, framebuffers, max_cycles, keep_frames,
        skip_idle, cycles_skipped;
    "derived: fixed at elaboration; the gates restart awake": table;
    "transient: this process's diagnostics, checkpointing options and accounting; `trace_hash` \
     travels in the file's header": trace, dump_failure, checkpoint_every,
        checkpoint_path, next_checkpoint_at, trace_hash, checkpoints_written,
        checkpoint_bytes_written;
});

/// One entry of the flat clock schedule (see [`Gpu::try_step`]): which box
/// to clock, with the unit index for replicated units. The Command
/// Processor clocks ahead of the entries with extra arguments (the machine
/// idle flag), and the memory controller after them: neither is gated.
#[derive(Debug, Clone, Copy)]
enum ScheduleEntry {
    Streamer,
    PrimitiveAssembly,
    Clipper,
    Setup,
    FragGen,
    Hz,
    ZStencil(u8),
    Interpolator,
    FragmentFifo,
    TexUnit(u8),
    ColorWrite(u8),
    Dac,
}

/// One row of [`Gpu`]'s unit table.
#[derive(Debug)]
struct UnitRow {
    entry: ScheduleEntry,
    gate: BoxGate,
}

/// The sleep gate of one [`UnitRow`]: lets the walk of
/// [`Gpu::try_step`] leave a box unclocked while that is provably a no-op
/// (DESIGN.md §14), and tells the machine-level jump what it holds
/// ([`Gpu::gate_horizon`]). A box sleeps on cycle `c` iff nothing written
/// to any wire it reads is still due, the horizon it reported promises
/// idleness past `c`, and the memory controller holds no reply for it.
/// Everything that mutates a box behind its wires (`CpAction`s,
/// checkpoint restore) must call [`Gpu::wake_all_boxes`].
#[derive(Debug)]
struct BoxGate {
    /// Latest arrival over the wires the box reads, data and credit alike;
    /// `None` for the DAC, which no wire reads: a CP action wakes it, and
    /// so does a reply to its `client`.
    wake: Option<WakeLine>,
    /// Whose memory replies wake the box. Box horizons do not cover
    /// replies the box does not wait on (ROP write-back acknowledgements),
    /// yet an unpopped reply pins the controller `Busy`.
    client: Option<Client>,
    /// First cycle the box must be clocked again by its own account: `0`
    /// while awake, the `IdleUntil` cycle or `Cycle::MAX` (`Idle`) while
    /// asleep. Only trusted on cycles past `wake`.
    idle_until: Cycle,
}

impl BoxGate {
    /// Whether wire input is still due on `cycle` or later.
    fn input_due(&self, cycle: Cycle) -> bool {
        self.wake.as_ref().is_some_and(|line| cycle <= line.latest_arrival())
    }

    /// Whether a delivered memory reply waits for the box.
    fn reply_waits(&self, mem: &MemoryController) -> bool {
        self.client.is_some_and(|c| mem.has_reply(c))
    }

    /// The one asleep predicate: the walk's, the failure report's and the
    /// machine-level jump's.
    fn asleep(&self, cycle: Cycle, mem: &MemoryController) -> bool {
        !self.input_due(cycle) && cycle < self.idle_until && !self.reply_waits(mem)
    }

    fn wake_up(&mut self) {
        self.idle_until = 0;
    }

    /// Re-arms the gate after its box clocked on `cycle`, returning
    /// whether the box answered `Busy`. The horizon is only worth reading
    /// once every input written so far has been absorbed: until then the
    /// box is clocked whatever it says.
    fn settle(&mut self, cycle: Cycle, horizon: impl FnOnce() -> Horizon) -> bool {
        self.idle_until = 0;
        if self.input_due(cycle + 1) {
            return false;
        }
        let horizon = horizon();
        self.idle_until = match horizon {
            Horizon::Busy => 0,
            Horizon::IdleUntil(t) => t,
            Horizon::Idle => Cycle::MAX,
        };
        horizon.is_busy()
    }
}

impl Gpu {
    /// Builds the GPU described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (e.g. differing
    /// Z-stencil and colour-write unit counts — the paper couples its
    /// "fragment test and framebuffer update" units).
    pub fn new(config: GpuConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("bad GPU configuration: {e}");
        }

        let mut binder = SignalBinder::new();
        let mut stats = StatsRegistry::new(config.stats.window_cycles);
        let mem = MemoryController::new(config.memory, config.memory.gpu_memory_bytes());

        let b = &mut binder;
        let n_rop = config.zstencil.units;
        let n_tu = config.texture.units;

        // --- ports -------------------------------------------------------
        const FFIFO: &str = FragmentFifo::NAME; // the box on nine of the wires below
        let (cp_draw_tx, cp_draw_rx) =
            port(b, "CP->Streamer.draws", CommandProcessor::NAME, Streamer::NAME, 1, 1, 2).unwrap();
        let (st_work_tx, st_work_rx) =
            port(b, "Streamer->FFIFO.vertices", Streamer::NAME, FFIFO, 1, 1, 16).unwrap();
        let (ff_shaded_tx, ff_shaded_rx) =
            port(b, "FFIFO->Streamer.shaded", FFIFO, Streamer::NAME, 4, 1, 16).unwrap();
        let (st_out_tx, st_out_rx) = port(
            b,
            "Streamer->PA.vertices",
            Streamer::NAME,
            PrimitiveAssembly::NAME,
            1,
            config.streamer.latency,
            config.primitive_assembly.input_queue,
        )
        .unwrap();
        let (pa_tx, pa_rx) = port(
            b,
            "PA->Clipper.triangles",
            PrimitiveAssembly::NAME,
            Clipper::NAME,
            1,
            config.primitive_assembly.latency,
            config.clipper.input_queue,
        )
        .unwrap();
        let (cl_tx, cl_rx) = port(
            b,
            "Clipper->Setup.triangles",
            Clipper::NAME,
            TriangleSetup::NAME,
            1,
            config.clipper.latency,
            config.setup.input_queue,
        )
        .unwrap();
        let (su_tx, su_rx) = port(
            b,
            "Setup->FragGen.triangles",
            TriangleSetup::NAME,
            FragmentGenerator::NAME,
            1,
            config.setup.latency,
            config.fraggen.input_queue,
        )
        .unwrap();
        let (fg_tx, fg_rx) = port(
            b,
            "FragGen->HZ.tiles",
            FragmentGenerator::NAME,
            HierarchicalZ::NAME,
            config.fraggen.tiles_per_cycle as usize,
            config.fraggen.latency,
            config.hz.input_queue,
        )
        .unwrap();

        let mut hz_to_zst_tx = Vec::new();
        let mut hz_to_zst_rx = Vec::new();
        let mut zst_to_interp_tx = Vec::new();
        let mut zst_to_interp_rx = Vec::new();
        let mut ff_to_zst_tx = Vec::new();
        let mut ff_to_zst_rx = Vec::new();
        let mut zst_to_cw_tx = Vec::new();
        let mut zst_to_cw_rx = Vec::new();
        let mut ff_to_cw_tx = Vec::new();
        let mut ff_to_cw_rx = Vec::new();
        let mut zst_hz_tx = Vec::new();
        let mut zst_hz_rx = Vec::new();
        for i in 0..n_rop {
            let zst = ZStencilUnit::name_of(i);
            let cw = ColorWriteUnit::name_of(i);
            let (tx, rx) = port(
                b,
                &format!("HZ->{zst}.quads"),
                HierarchicalZ::NAME,
                &zst,
                2,
                config.hz.latency,
                config.zstencil.input_queue,
            )
            .unwrap();
            hz_to_zst_tx.push(tx);
            hz_to_zst_rx.push(rx);
            let (tx, rx) = port(
                b,
                &format!("{zst}->Interpolator.quads"),
                &zst,
                Interpolator::NAME,
                1,
                config.zstencil.latency,
                8,
            )
            .unwrap();
            zst_to_interp_tx.push(tx);
            zst_to_interp_rx.push(rx);
            let (tx, rx) = port(
                b,
                &format!("FFIFO->{zst}.quads"),
                FFIFO,
                &zst,
                1,
                1,
                config.zstencil.input_queue,
            )
            .unwrap();
            ff_to_zst_tx.push(tx);
            ff_to_zst_rx.push(rx);
            let (tx, rx) = port(
                b,
                &format!("{zst}->{cw}.quads"),
                &zst,
                &cw,
                1,
                config.zstencil.latency,
                config.colorwrite.input_queue,
            )
            .unwrap();
            zst_to_cw_tx.push(tx);
            zst_to_cw_rx.push(rx);
            let (tx, rx) = port(
                b,
                &format!("FFIFO->{cw}.quads"),
                FFIFO,
                &cw,
                1,
                1,
                config.colorwrite.input_queue,
            )
            .unwrap();
            ff_to_cw_tx.push(tx);
            ff_to_cw_rx.push(rx);
            let (tx, rx) = port(
                b,
                &format!("{zst}->HZ.updates"),
                &zst,
                HierarchicalZ::NAME,
                4,
                1,
                32,
            )
            .unwrap();
            zst_hz_tx.push(tx);
            zst_hz_rx.push(rx);
        }
        let (hz_late_tx, hz_late_rx) = port(
            b,
            "HZ->Interpolator.quads",
            HierarchicalZ::NAME,
            Interpolator::NAME,
            2,
            config.hz.latency,
            16,
        )
        .unwrap();
        let (in_tx, in_rx) = port(
            b,
            "Interpolator->FFIFO.quads",
            Interpolator::NAME,
            FFIFO,
            (config.interpolator.frags_per_cycle / 4).max(1) as usize,
            1,
            16,
        )
        .unwrap();

        let mut tex_req_tx = Vec::new();
        let mut tex_req_rx = Vec::new();
        let mut tex_rep_tx = Vec::new();
        let mut tex_rep_rx = Vec::new();
        for i in 0..n_tu {
            let tu = TextureUnit::name_of(i);
            let (tx, rx) = port(
                b,
                &format!("FFIFO->{tu}.requests"),
                FFIFO,
                &tu,
                1,
                1,
                config.texture.request_queue,
            )
            .unwrap();
            tex_req_tx.push(tx);
            tex_req_rx.push(rx);
            let (tx, rx) =
                port(b, &format!("{tu}->FFIFO.replies"), &tu, FFIFO, 1, 1, 16).unwrap();
            tex_rep_tx.push(tx);
            tex_rep_rx.push(rx);
        }

        // --- boxes -------------------------------------------------------
        let index = |i: usize| u8::try_from(i).expect("validate() bounds the unit counts");
        let cp = CommandProcessor::new(cp_draw_tx, &mut stats);
        let streamer = Streamer::new(
            config.streamer.clone(),
            cp_draw_rx,
            st_work_tx,
            ff_shaded_rx,
            st_out_tx,
            &mut stats,
        );
        let pa = PrimitiveAssembly::new(st_out_rx, pa_tx, &mut stats);
        let clipper = Clipper::new(pa_rx, cl_tx, &mut stats);
        let setup = TriangleSetup::new(cl_rx, su_tx, &mut stats);
        let fraggen = FragmentGenerator::new(config.fraggen.clone(), su_rx, fg_tx, &mut stats);
        let hz = HierarchicalZ::new(
            config.hz.clone(),
            config.display.width,
            config.display.height,
            fg_rx,
            zst_hz_rx,
            hz_to_zst_tx,
            hz_late_tx,
            &mut stats,
        );
        let mut zstencil = Vec::new();
        for (i, ((((in_early, in_late), out_early), out_late), out_hz)) in hz_to_zst_rx
            .into_iter()
            .zip(ff_to_zst_rx)
            .zip(zst_to_interp_tx)
            .zip(zst_to_cw_tx)
            .zip(zst_hz_tx)
            .enumerate()
        {
            zstencil.push(ZStencilUnit::new(
                index(i),
                config.zstencil.clone(),
                in_early,
                in_late,
                out_early,
                out_late,
                out_hz,
                &mut stats,
            ));
        }
        let interpolator = Interpolator::new(
            config.interpolator.clone(),
            zst_to_interp_rx,
            hz_late_rx,
            in_tx,
            &mut stats,
        );
        let ffifo = FragmentFifo::new(
            config.shader.clone(),
            st_work_rx,
            in_rx,
            ff_shaded_tx,
            ff_to_cw_tx,
            ff_to_zst_tx,
            tex_req_tx,
            tex_rep_rx,
            &mut stats,
        );
        let mut texunits = Vec::new();
        for (i, (in_req, out_rep)) in tex_req_rx.into_iter().zip(tex_rep_tx).enumerate() {
            texunits.push(TextureUnit::new(
                index(i),
                config.texture.clone(),
                in_req,
                out_rep,
                &mut stats,
            ));
        }
        let mut colorwrite = Vec::new();
        for (i, (in_late, in_early)) in zst_to_cw_rx.into_iter().zip(ff_to_cw_rx).enumerate() {
            colorwrite.push(ColorWriteUnit::new(
                index(i),
                config.colorwrite.clone(),
                in_early,
                in_late,
                &mut stats,
            ));
        }
        let dac = Dac::new(&mut stats);

        // The fixed clock order of the pipeline, flattened over the
        // configured unit counts.
        let mut schedule = vec![
            ScheduleEntry::Streamer,
            ScheduleEntry::PrimitiveAssembly,
            ScheduleEntry::Clipper,
            ScheduleEntry::Setup,
            ScheduleEntry::FragGen,
            ScheduleEntry::Hz,
        ];
        schedule.extend((0..zstencil.len()).map(|i| ScheduleEntry::ZStencil(index(i))));
        schedule.push(ScheduleEntry::Interpolator);
        schedule.push(ScheduleEntry::FragmentFifo);
        schedule.extend((0..texunits.len()).map(|i| ScheduleEntry::TexUnit(index(i))));
        schedule.extend((0..colorwrite.len()).map(|i| ScheduleEntry::ColorWrite(index(i))));
        schedule.push(ScheduleEntry::Dac);

        let mut gpu = Gpu {
            config,
            binder,
            stats,
            mem,
            cp,
            streamer,
            pa,
            clipper,
            setup,
            fraggen,
            hz,
            zstencil,
            interpolator,
            ffifo,
            texunits,
            colorwrite,
            dac,
            cycle: 0,
            frames: 0,
            framebuffers: Vec::new(),
            max_cycles: 500_000_000,
            keep_frames: true,
            skip_idle: true,
            cycles_skipped: 0,
            table: Box::default(),
            trace: None,
            dump_failure: None,
            checkpoint_every: None,
            checkpoint_path: None,
            next_checkpoint_at: 0,
            trace_hash: crate::checkpoint::trace_hash(&[]),
            checkpoints_written: 0,
            checkpoint_bytes_written: 0,
        };
        // Each row asks the binder and its unit for what the gate needs. A
        // unit reads a wire exactly when it holds a port (a credit return,
        // if nothing else), and its wake line is the binder's line under
        // the name it answers with.
        let row = |entry| {
            let unit = gpu.unit(entry);
            let wake = gpu.binder.wake_line(unit.name());
            UnitRow { entry, gate: BoxGate { wake, client: unit.client(), idle_until: 0 } }
        };
        gpu.table = schedule.into_iter().map(row).collect();
        gpu
    }

    /// The unit of one table row — the one place a [`ScheduleEntry`] turns
    /// into the box, for every read-only question ([`Unit`]). Only
    /// [`try_step`](Self::try_step)'s `clock` match names the units again:
    /// their `clock` signatures differ.
    fn unit(&self, entry: ScheduleEntry) -> &dyn Unit {
        match entry {
            ScheduleEntry::Streamer => &self.streamer,
            ScheduleEntry::PrimitiveAssembly => &self.pa,
            ScheduleEntry::Clipper => &self.clipper,
            ScheduleEntry::Setup => &self.setup,
            ScheduleEntry::FragGen => &self.fraggen,
            ScheduleEntry::Hz => &self.hz,
            ScheduleEntry::ZStencil(u) => &self.zstencil[u as usize],
            ScheduleEntry::Interpolator => &self.interpolator,
            ScheduleEntry::FragmentFifo => &self.ffifo,
            ScheduleEntry::TexUnit(u) => &self.texunits[u as usize],
            ScheduleEntry::ColorWrite(u) => &self.colorwrite[u as usize],
            ScheduleEntry::Dac => &self.dac,
        }
    }

    /// The configuration the GPU was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The signal name server (pipeline introspection).
    pub fn binder(&self) -> &SignalBinder {
        &self.binder
    }

    /// Attaches a Signal Trace Visualizer sink to every inter-box data
    /// signal and returns it. The sink retains the most recent
    /// `capacity` events (0 = unbounded — long runs will use a lot of
    /// memory, exactly why the real tool streams to disk).
    pub fn enable_signal_trace(&mut self, capacity: usize) -> attila_sim::TraceSink {
        let sink = attila_sim::SignalTrace::new_sink(capacity);
        self.binder.attach_trace(&sink);
        // The memory controller is not signal-wired; it records one
        // `mem.ch{c}.bank{b}` event per DRAM issue directly into the sink
        // (the bank lanes of `attila viz`).
        self.mem.attach_trace(sink.clone());
        self.trace = Some(sink.clone());
        sink
    }

    /// The statistics registry.
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// The memory controller (bandwidth statistics, functional image).
    pub fn memory(&self) -> &MemoryController {
        &self.mem
    }

    /// The current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Whether any pipeline unit (excluding the Command Processor, the DAC
    /// and the memory controller) still holds work. A unit is wired into
    /// the pipeline when it reads a registered wire, as every holder of a
    /// port reads at least its credit returns.
    pub fn pipeline_busy(&self) -> bool {
        self.table.iter().any(|row| row.gate.wake.is_some() && self.unit(row.entry).busy())
    }

    /// The machine-wide event horizon, asked afresh of every unit: the
    /// meet of the Command Processor's horizon, every table row's, the
    /// memory controller's and the earliest in-flight arrival on *any*
    /// registered signal, data or credit wire alike
    /// ([`SignalBinder::next_event_cycle`]). A unit's horizon speaks only
    /// for its own state; this fold is where wire arrivals enter the
    /// machine's. Readers verify that events are drained at their exact
    /// arrival cycle, so jumping past any arrival would surface as a
    /// spurious verification failure.
    ///
    /// The clock loop of [`run_trace`](Self::run_trace) jumps by what the
    /// per-unit sleep gates hold instead; this gate-free fold is the
    /// reference debug builds check that against.
    pub fn work_horizon(&self) -> Horizon {
        // `Busy` absorbs the meet, so bail out at the first busy unit; the
        // CP goes first because it stays busy for as long as any command
        // that is not waiting on an upload remains queued.
        let mut h = self.cp.work_horizon();
        for row in &self.table {
            if h.is_busy() {
                break;
            }
            h = h.meet(self.unit(row.entry).work_horizon());
        }
        if !h.is_busy() {
            h = h.meet(self.mem.work_horizon());
        }
        if h.is_busy() {
            return Horizon::Busy;
        }
        h.meet(Horizon::from_event(self.binder.next_event_cycle()))
    }

    /// The machine-wide horizon for the cycle after a stepped one, read
    /// off the gates: a row asleep on that cycle answers the horizon its
    /// gate holds, one with wire input still in flight towards it answers
    /// its unit's own and brings the binder's earliest arrival in (the
    /// unit's horizon does not cover its inputs), and any other row — a
    /// reply waiting, its own wake-up due — is `Busy`. The ungated
    /// controller answers its exact horizon.
    fn gate_horizon(&self) -> Horizon {
        let next = self.cycle;
        let mut h = self.cp.work_horizon();
        let mut in_flight = false;
        for row in &self.table {
            if h.is_busy() {
                break;
            }
            let gate = &row.gate;
            h = h.meet(if gate.asleep(next, &self.mem) {
                match gate.idle_until {
                    Cycle::MAX => Horizon::Idle,
                    at => Horizon::IdleUntil(at),
                }
            } else if gate.input_due(next) && !gate.reply_waits(&self.mem) {
                in_flight = true;
                self.unit(row.entry).work_horizon()
            } else {
                Horizon::Busy
            });
        }
        if !h.is_busy() {
            h = h.meet(self.mem.work_horizon());
        }
        if h.is_busy() {
            return Horizon::Busy;
        }
        if in_flight {
            h = h.meet(Horizon::from_event(self.binder.next_event_cycle()));
        }
        // What the gates promise is no later than what the units say.
        debug_assert_eq!(h.meet(self.work_horizon()), h, "gates and units after cycle {next}");
        h
    }

    /// Wakes every sleeping box: whatever mutates boxes other than through
    /// their wires and memory replies must call this, because the gates
    /// cache horizons the mutation may have invalidated.
    fn wake_all_boxes(&mut self) {
        for row in &mut self.table {
            row.gate.wake_up();
        }
    }

    /// Jumps the clock to `to` without clocking anything, advancing the
    /// windowed statistics coherently (each crossed window closes with
    /// all-zero deltas, exactly as per-cycle ticking would record).
    fn skip_to(&mut self, to: Cycle) {
        if to <= self.cycle {
            return;
        }
        self.stats.skip_to(self.cycle, to);
        self.cycles_skipped += to - self.cycle;
        self.cycle = to;
    }

    /// Cycles the event-horizon scheduler jumped over so far.
    pub fn cycles_skipped(&self) -> Cycle {
        self.cycles_skipped
    }

    /// Clocks the whole GPU one cycle, surfacing signal verification
    /// failures instead of panicking.
    ///
    /// The cycle counter advances *before* the boxes clock, so a failing
    /// step never replays: after an error, calling `try_step` again
    /// resumes on the next cycle (boxes the fault preempted simply skip
    /// one cycle — acceptable for a machine already known to be faulty).
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] raised by any box's signals.
    pub fn try_step(&mut self) -> Result<(), SimError> {
        self.step().map(drop)
    }

    /// [`try_step`](Self::try_step), answering whether a gate settled
    /// `Busy`: the machine cannot then be idle on the next cycle, and the
    /// clock loop need not fold the gates to learn that.
    fn step(&mut self) -> Result<bool, SimError> {
        let cycle = self.cycle;
        self.cycle += 1;
        // `pipeline_busy` walks every box; only compute it on the cycles
        // where the CP's head command actually waits on a drained pipe,
        // and after the controller's O(1) answer (an upload-bound machine
        // is the common case of a waiting head command).
        let idle =
            self.cp.needs_idle_probe() && !self.mem.busy() && !self.pipeline_busy();
        self.cp.clock(cycle, &mut self.mem, idle)?;
        // Drain the CP's side-effect queue in place: popping one action at
        // a time keeps the borrow local, so no per-cycle `Vec` is built.
        while let Some(action) = self.cp.actions.pop_front() {
            self.apply_action(action);
        }
        // Take the table out of `self` so the walk borrows it directly
        // instead of re-indexing (and re-bounds-checking) `self.table` on
        // every row of the hot loop, and so the gates can be updated while
        // `self` lends out the boxes.
        let mut table = std::mem::take(&mut self.table);
        let gated = self.skip_idle;
        let mut busy = false;
        let mut result = Ok(());
        for UnitRow { entry, gate } in table.iter_mut() {
            let entry = *entry;
            if gated && gate.asleep(cycle, &self.mem) {
                // Queued work is no reason to clock a unit: one stalled on
                // output credits holds it asleep until a credit returns.
                debug_assert!(
                    !self.unit(entry).work_horizon().is_busy(),
                    "{entry:?} left asleep on cycle {cycle} with a Busy horizon, {} queued",
                    self.unit(entry).queued(),
                );
                continue;
            }
            let step = match entry {
                ScheduleEntry::Streamer => self.streamer.clock(cycle, &mut self.mem),
                ScheduleEntry::PrimitiveAssembly => self.pa.clock(cycle),
                ScheduleEntry::Clipper => self.clipper.clock(cycle),
                ScheduleEntry::Setup => self.setup.clock(cycle),
                ScheduleEntry::FragGen => self.fraggen.clock(cycle),
                ScheduleEntry::Hz => self.hz.clock(cycle),
                ScheduleEntry::ZStencil(u) => {
                    self.zstencil[u as usize].clock(cycle, &mut self.mem)
                }
                ScheduleEntry::Interpolator => self.interpolator.clock(cycle),
                ScheduleEntry::FragmentFifo => self.ffifo.clock(cycle),
                ScheduleEntry::TexUnit(u) => {
                    self.texunits[u as usize].clock(cycle, &mut self.mem)
                }
                ScheduleEntry::ColorWrite(u) => {
                    self.colorwrite[u as usize].clock(cycle, &mut self.mem)
                }
                ScheduleEntry::Dac => {
                    self.dac.clock(&mut self.mem);
                    Ok(())
                }
            };
            if let Err(e) = step {
                gate.wake_up();
                result = Err(e);
                break;
            }
            if gated {
                busy |= gate.settle(cycle, || self.unit(entry).work_horizon());
            } else {
                // Clocked without consulting the gate: whatever it cached
                // is stale should `skip_idle` be switched back on.
                gate.wake_up();
            }
        }
        self.table = table;
        result?;
        // The walk's last stage: every submit of the cycle is in.
        self.mem.clock(cycle);
        // Every wire has latency >= 1, every clocked box polls all of its
        // ports and an asleep box has nothing due: an arrival left unread
        // on any wire, data or credit, is a box that forgot a poll.
        debug_assert!(
            self.binder.next_event_cycle().is_none_or(|at| at > cycle),
            "an arrival was left unread on cycle {cycle}",
        );
        self.stats.tick(cycle);
        Ok(busy)
    }

    fn apply_action(&mut self, action: CpAction) {
        // Actions reach into ROP caches, the HZ buffer and the DAC directly.
        self.wake_all_boxes();
        match action {
            CpAction::ClearColor { base, len, word } => {
                for c in &mut self.colorwrite {
                    c.fast_clear(&mut self.mem, base, len, word);
                }
            }
            CpAction::ClearZStencil { base, len, word } => {
                for z in &mut self.zstencil {
                    z.fast_clear(&mut self.mem, base, len, word);
                }
                let depth = (word & DEPTH_MAX) as f32 / DEPTH_MAX as f32;
                let state = self.cp.state();
                let (w, h) = (state.target_width, state.target_height);
                self.hz.fast_clear_for(base, w, h, depth);
            }
            CpAction::Swap => {
                for z in &mut self.zstencil {
                    z.flush(&mut self.mem);
                }
                for c in &mut self.colorwrite {
                    c.flush(&mut self.mem);
                }
                let state = std::sync::Arc::clone(self.cp.state());
                let dump = match self.dump_framebuffer(
                    state.color_buffer,
                    state.target_width,
                    state.target_height,
                ) {
                    Ok(dump) => Some(dump),
                    Err(e) => {
                        // Surface the bad surface binding from run_trace
                        // instead of panicking inside the clock loop.
                        self.dump_failure.get_or_insert(e);
                        None
                    }
                };
                // DAC refresh traffic for the frame.
                self.dac.refresh(state.color_buffer, state.target_width, state.target_height);
                if self.keep_frames {
                    self.framebuffers.extend(dump);
                }
                self.frames += 1;
            }
        }
    }

    /// Reads the (tiled) colour buffer into a row-major RGBA dump — the
    /// DAC's file output.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::BadConfig`] when the surface extends past the
    /// end of GPU memory (a corrupt render-target binding).
    pub fn dump_framebuffer(
        &self,
        base: u64,
        width: u32,
        height: u32,
    ) -> Result<FrameDump, GpuError> {
        let bytes = surface_bytes(width, height);
        let end = base.checked_add(bytes).ok_or_else(|| {
            GpuError::BadConfig(format!("framebuffer at {base:#x} wraps the address space"))
        })?;
        if end > self.mem.gpu_mem().size() as u64 {
            return Err(GpuError::BadConfig(format!(
                "framebuffer {base:#x}..{end:#x} exceeds GPU memory ({} bytes)",
                self.mem.gpu_mem().size()
            )));
        }
        let mut rgba = vec![0u8; (width * height * 4) as usize];
        let image = self.mem.gpu_mem();
        for y in 0..height {
            for x in 0..width {
                let addr = pixel_address(base, width, x, y);
                let mut px = [0u8; 4];
                image.read(addr, &mut px);
                let o = ((y * width + x) * 4) as usize;
                rgba[o..o + 4].copy_from_slice(&px);
            }
        }
        Ok(FrameDump { width, height, rgba })
    }

    /// Whether the machine sits at a quiescent point: the Command
    /// Processor is at a command boundary, no box holds work, the memory
    /// controller is fully drained, the DAC has no pending refresh reads
    /// and no signal carries in-flight data or credit returns. Only at
    /// such a point is a checkpoint valid — all transient state is
    /// provably empty, so the persistent state alone reconstructs the
    /// machine exactly.
    pub fn quiescent(&self) -> bool {
        self.cp.at_command_boundary()
            && !self.pipeline_busy()
            && self.mem.fully_drained()
            && !self.dac.busy()
            && self.binder.next_event_cycle().is_none()
    }

    /// Captures a [`Checkpoint`] of the whole machine. Call only at a
    /// [`quiescent`](Self::quiescent) point; [`run_trace`](Self::run_trace)
    /// does this automatically when [`checkpoint_every`](Self::checkpoint_every)
    /// is set.
    ///
    /// # Panics
    ///
    /// Panics when the machine is not quiescent — a snapshot taken with
    /// transient state in flight could not restore faithfully.
    pub fn capture_checkpoint(&self) -> Checkpoint {
        assert!(self.quiescent(), "checkpoint requested outside a quiescent point");
        Checkpoint {
            config_hash: crate::checkpoint::config_hash(&self.config),
            trace_hash: self.trace_hash,
            body: CheckpointBody {
                cycle: self.cycle,
                frames: self.frames,
                cycles_skipped: self.cycles_skipped,
                commands_consumed: self.cp.commands_processed(),
                memory: SparseBytes::scan(self.mem.gpu_mem()),
                framebuffers: self.framebuffers.clone(),
                boxes: self.save_state(),
            },
        }
    }

    /// Rebuilds a GPU from a checkpoint: validates the config and trace
    /// hashes, reconstructs the machine, loads every box's persistent
    /// state and re-enqueues the unconsumed tail of the trace. Running
    /// the restored machine (`run_trace(&[])`) finishes the original
    /// trace bit-identically to a run that never stopped.
    ///
    /// `commands` must be the *full* trace of the original run.
    /// `_unused` is always `None`: the parameter is kept only so the
    /// repo benchmark's `Gpu::restore(.., &read, None)` call still
    /// compiles.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointMismatch`] on any hash, geometry or
    /// layout mismatch.
    ///
    /// # Panics
    ///
    /// Panics when `config` itself is invalid (as [`Gpu::new`] would).
    pub fn restore(
        config: GpuConfig,
        commands: &[GpuCommand],
        ckpt: &Checkpoint,
        _unused: Option<std::convert::Infallible>,
    ) -> Result<Gpu, SimError> {
        ckpt.validate_against(&config, commands)?;
        let body = &ckpt.body;
        let consumed = usize::try_from(body.commands_consumed).unwrap_or(usize::MAX);
        if consumed > commands.len() {
            return Err(mismatch(format!(
                "checkpoint consumed {consumed} commands but the trace has only {}",
                commands.len()
            )));
        }
        let mut gpu = Gpu::new(config);
        // Fresh from `Gpu::new`, so the image is all zeros, which is what lets
        // the extents be written and nothing else ("omitted page = zero").
        body.memory.write_into(gpu.mem.gpu_mem_mut())?;
        gpu.load_state(&body.boxes).map_err(refused)?;
        // A ROP cache's surface lies in GPU memory: fast clears write it
        // and evictions read it back.
        let size = gpu.mem.gpu_mem().size() as u64;
        let z = gpu.zstencil.iter().map(ZStencilUnit::cache);
        let mut rops = z.chain(gpu.colorwrite.iter().map(ColorWriteUnit::cache)).flatten();
        if let Some(c) = rops.find(|c| c.base().checked_add(c.len()).is_none_or(|e| e > size)) {
            let (base, len) = (c.base(), c.len());
            return Err(mismatch(format!(
                "ROP cache: base {base:#x} + len {len} runs past the {size} bytes of GPU memory"
            )));
        }
        gpu.cp.resume(commands, consumed);
        gpu.stats.resume_at(body.cycle);
        gpu.cycle = body.cycle;
        gpu.frames = body.frames;
        gpu.cycles_skipped = body.cycles_skipped;
        gpu.framebuffers = body.framebuffers.clone();
        // `validate_against` just hashed `commands` to this.
        gpu.trace_hash = ckpt.trace_hash;
        gpu.wake_all_boxes();
        Ok(gpu)
    }

    /// Automatic checkpoints this machine has written
    /// ([`checkpoint_every`](Self::checkpoint_every)); a count, not a
    /// clock, so it repeats exactly.
    pub fn checkpoints_written(&self) -> u64 {
        self.checkpoints_written
    }

    /// Total file bytes of the automatic checkpoints written so far.
    pub fn checkpoint_bytes_written(&self) -> u64 {
        self.checkpoint_bytes_written
    }

    /// Snapshots the machine for a post-mortem.
    pub fn failure_report(&self, error: Option<SimError>) -> FailureReport {
        let status = |unit: &dyn Unit, asleep: Option<&BoxGate>| BoxStatus {
            name: unit.name().into(),
            busy: unit.busy(),
            queued: unit.queued(),
            asleep: asleep.is_some(),
            wake_cycle: asleep.map(|gate| gate.idle_until).filter(|&at| at != Cycle::MAX),
        };
        // The Command Processor and the memory controller clock around the
        // table, never gated; every other unit is one row with its gate.
        let mut boxes = vec![status(&self.cp, None)];
        boxes.extend(self.table.iter().map(|row| {
            let asleep = self.skip_idle && row.gate.asleep(self.cycle, &self.mem);
            status(self.unit(row.entry), asleep.then_some(&row.gate))
        }));
        boxes.push(BoxStatus {
            name: "MemoryController".into(),
            busy: self.mem.busy(),
            queued: 0,
            asleep: false,
            wake_cycle: None,
        });
        #[expect(
            clippy::disallowed_methods,
            reason = "a post-mortem copy out of the trace sink, a write-only observer of the wires"
        )]
        let recent_events = self
            .trace
            .as_ref()
            .map(|t| t.borrow().events().to_vec())
            .unwrap_or_default();
        FailureReport {
            cycle: self.cycle,
            error,
            boxes,
            signals: self.binder.statuses(),
            recent_events,
        }
    }

    /// Queues `commands` on the Command Processor without clocking
    /// anything — [`run_trace`](Self::run_trace)'s first step, on its own
    /// for callers that drive [`try_step`](Self::try_step) themselves.
    pub fn enqueue(&mut self, commands: &[GpuCommand]) {
        self.cp.enqueue(commands.iter().cloned());
        if self.checkpoint_every.is_some() {
            self.trace_hash = crate::checkpoint::extend_trace_hash(self.trace_hash, commands);
        }
    }

    /// Runs a command trace to completion. A signal verification failure
    /// stops it with [`GpuError::Sim`] and a full [`FailureReport`].
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::Watchdog`] if the pipeline fails to drain
    /// within [`max_cycles`](Self::max_cycles), [`GpuError::Sim`] on an
    /// aborting verification failure, and [`GpuError::BadConfig`] when a
    /// command reaches past the end of GPU memory or a draw's program
    /// needs more temporaries than its shader pool holds (before any cycle
    /// runs; see [`check_memory_ranges`](Self::check_memory_ranges) and
    /// [`check_programs`](Self::check_programs)) or a swap dumps an
    /// out-of-range framebuffer.
    pub fn run_trace(&mut self, commands: &[GpuCommand]) -> Result<RunResult, GpuError> {
        self.check_memory_ranges(commands)?;
        self.check_programs(commands)?;
        self.enqueue(commands);
        let start_cycle = self.cycle;
        let start_frames = self.frames;
        let limit = start_cycle + self.max_cycles;
        if let Some(every) = self.checkpoint_every {
            self.next_checkpoint_at = self.cycle + every;
        }
        while !(self.cp.done() && !self.pipeline_busy() && !self.mem.busy() && !self.dac.busy())
        {
            if self.cycle >= limit {
                return Err(GpuError::Watchdog {
                    limit: self.max_cycles,
                    report: Box::new(self.failure_report(None)),
                });
            }
            let busy = match self.step() {
                Ok(busy) => busy,
                Err(error) => {
                    return Err(GpuError::Sim {
                        report: Box::new(self.failure_report(Some(error.clone()))),
                        error,
                    });
                }
            };
            // Event-horizon skip: with everything idle until a known
            // wake-up cycle, jump there. Clamped to the watchdog limit so
            // expiry fires at exactly the same cycle as per-cycle clocking
            // would; a fully `Idle` horizon is left to the loop condition
            // (drained → exit) or the watchdog (deadlock) rather than
            // jumped.
            if self.skip_idle && !busy {
                if let Horizon::IdleUntil(wake) = self.gate_horizon() {
                    let to = wake.min(limit).max(self.cycle);
                    self.skip_to(to);
                }
            }
            if let Some(e) = self.dump_failure.take() {
                return Err(e);
            }
            if let Some(every) = self.checkpoint_every {
                if self.cycle >= self.next_checkpoint_at && self.quiescent() {
                    self.write_due_checkpoint()?;
                    self.next_checkpoint_at = self.cycle + every;
                }
            }
        }
        Ok(RunResult {
            cycles: self.cycle - start_cycle,
            frames: self.frames - start_frames,
            framebuffers: std::mem::take(&mut self.framebuffers),
        })
    }

    /// Refuses a command list that would touch memory past the end of the
    /// GPU's image: every `WriteBuffer` range, and each `SetState`'s colour
    /// and depth surfaces and bound texture extents. Unchecked, a machine
    /// with less memory than the driver's memory map would panic inside
    /// the memory image on the first such access.
    ///
    /// # Errors
    ///
    /// [`GpuError::BadConfig`] naming the first command that does not fit
    /// and its range.
    pub fn check_memory_ranges(&self, commands: &[GpuCommand]) -> Result<(), GpuError> {
        let size = self.mem.gpu_mem().size() as u64;
        for (n, command) in commands.iter().enumerate() {
            let fits = |what: &str, base: u64, len: u64| {
                if base.checked_add(len).is_some_and(|end| end <= size) {
                    return Ok(());
                }
                Err(GpuError::BadConfig(format!(
                    "command {n} ({}): {what} {base:#x}+{len} bytes runs past the end of GPU \
                     memory ({size} bytes); raise memory.gpu_memory_mb",
                    command.mnemonic()
                )))
            };
            match command {
                GpuCommand::WriteBuffer { address, data } => {
                    fits("upload", *address, data.len() as u64)?;
                }
                GpuCommand::SetState(state) => {
                    let surface = surface_bytes(state.target_width, state.target_height);
                    fits("colour buffer", state.color_buffer, surface)?;
                    fits("depth buffer", state.z_buffer, surface)?;
                    for desc in state.textures.iter().flatten() {
                        fits("texture", desc.base_address, desc.total_bytes())?;
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Refuses a command list with a draw whose vertex or fragment program
    /// needs more temporaries than the shader pool that would run it
    /// holds. The Fragment FIFO's admission, which reads the same need and
    /// pool, would never let its work in, and the run would wait for the
    /// watchdog. Each draw runs the programs of the
    /// `SetState` before it, or the Command Processor's current state.
    ///
    /// # Errors
    ///
    /// [`GpuError::BadConfig`] naming the first draw that cannot run, its
    /// need and the pool.
    pub fn check_programs(&self, commands: &[GpuCommand]) -> Result<(), GpuError> {
        let shader = &self.config.shader;
        let vertex_pool = if shader.unified {
            "shader.temp_registers"
        } else {
            "shader.vertex_units × shader.vertex_registers"
        };
        let mut state: &RenderState = self.cp.state();
        for (n, command) in commands.iter().enumerate() {
            match command {
                GpuCommand::SetState(s) => state = s,
                GpuCommand::Draw(_) => {
                    let programs = [
                        ("vertex", vertex_registers(shader, &state.vertex_program), vertex_pool),
                        (
                            "fragment",
                            fragment_registers(shader, &state.fragment_program),
                            "shader.temp_registers",
                        ),
                    ];
                    for (what, (need, pool), knob) in programs {
                        if need > pool {
                            return Err(GpuError::BadConfig(format!(
                                "command {n} (DRAW): its {what} program needs {need} temporary \
                                 registers, the pool that runs it holds {pool} ({knob})"
                            )));
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Writes the automatic checkpoint that has come due to
    /// [`checkpoint_path`](Self::checkpoint_path), if one is set. Out of
    /// line: [`run_trace`](Self::run_trace)'s loop only tests for it.
    #[cold]
    fn write_due_checkpoint(&mut self) -> Result<(), GpuError> {
        let Some(path) = self.checkpoint_path.clone() else { return Ok(()) };
        match self.capture_checkpoint().write_file_sized(&path) {
            Ok(bytes) => {
                self.checkpoints_written += 1;
                self.checkpoint_bytes_written += bytes;
                Ok(())
            }
            Err(error) => Err(GpuError::Sim {
                report: Box::new(self.failure_report(Some(error.clone()))),
                error,
            }),
        }
    }

    /// Aggregate texture-cache statistics `(hits, misses, hit_rate)` over
    /// the TU pool — the Figure 8 metric.
    pub fn texture_cache_stats(&self) -> (u64, u64, f64) {
        let hits: u64 = self.texunits.iter().map(|t| t.cache().hits()).sum();
        let misses: u64 = self.texunits.iter().map(|t| t.cache().misses()).sum();
        let rate = if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        (hits, misses, rate)
    }

    /// Total bytes the texture units fetched from memory (Figure 8's
    /// texture bandwidth).
    pub fn texture_bytes_read(&self) -> u64 {
        self.texunits.iter().map(|t| t.bytes_read()).sum()
    }

    /// Per-shader-unit busy cycles (Figure 9's shader utilization).
    pub fn shader_busy_cycles(&self) -> Vec<u64> {
        self.ffifo.unit_busy_cycles()
    }

    /// Per-texture-unit busy cycles (Figure 9's TU utilization).
    pub fn texture_busy_cycles(&self) -> Vec<u64> {
        self.texunits.iter().map(|t| t.busy_cycles()).collect()
    }

    /// A human-readable end-of-run summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "cycles:              {}", self.cycle);
        let _ = writeln!(out, "frames:              {}", self.frames);
        let _ = writeln!(out, "draws:               {}", self.cp.draws_issued());
        let _ = writeln!(out, "vertices:            {}", self.streamer.vertices_issued());
        let _ = writeln!(out, "vertex cache hits:   {}", self.streamer.vertex_cache_hits());
        let _ = writeln!(out, "triangles assembled: {}", self.pa.triangles_assembled());
        let _ = writeln!(out, "triangles rejected:  {}", self.clipper.rejected());
        let _ = writeln!(out, "faces culled:        {}", self.setup.face_culled());
        let _ = writeln!(out, "fragments generated: {}", self.fraggen.fragments_generated());
        let _ = writeln!(out, "HZ tiles rejected:   {}", self.hz.tiles_rejected());
        let z_tested: u64 = self.zstencil.iter().map(|z| z.fragments_tested()).sum();
        let z_passed: u64 = self.zstencil.iter().map(|z| z.fragments_passed()).sum();
        let _ = writeln!(out, "Z tested / passed:   {z_tested} / {z_passed}");
        let _ = writeln!(out, "fragments shaded:    {}", self.ffifo.fragments_shaded());
        let written: u64 = self.colorwrite.iter().map(|c| c.fragments_written()).sum();
        let _ = writeln!(out, "fragments written:   {written}");
        let (h, m, r) = self.texture_cache_stats();
        let _ = writeln!(out, "texture cache:       {h} hits, {m} misses ({:.1}%)", r * 100.0);
        let _ = writeln!(out, "texture bandwidth:   {} bytes", self.texture_bytes_read());
        let _ = writeln!(
            out,
            "memory read/written: {} / {} bytes",
            self.mem.bytes_read(),
            self.mem.bytes_written()
        );
        let _ = writeln!(
            out,
            "DRAM row buffer:     {} hits, {} misses, {} conflicts, {} turnarounds",
            self.mem.row_hits(),
            self.mem.row_misses(),
            self.mem.row_conflicts(),
            self.mem.turnarounds()
        );
        out
    }
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("cycle", &self.cycle)
            .field("frames", &self.frames)
            .field("signals", &self.binder.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fps_is_zero_for_empty_runs() {
        let r = RunResult { cycles: 0, frames: 0, framebuffers: Vec::new() };
        assert_eq!(r.fps(400), 0.0, "zero cycles must not divide by zero");
        let r = RunResult { cycles: 0, frames: 3, framebuffers: Vec::new() };
        assert_eq!(r.fps(400), 0.0, "frames with zero cycles is degenerate");
        let r = RunResult { cycles: 1_000_000, frames: 0, framebuffers: Vec::new() };
        assert_eq!(r.fps(400), 0.0, "no frames means no rate");
    }

    #[test]
    fn fps_counts_frames_per_simulated_second() {
        // 4M cycles at 400 MHz is 10 ms of simulated time; 60 frames in
        // 10 ms is 6000 frames per second.
        let r = RunResult { cycles: 4_000_000, frames: 60, framebuffers: Vec::new() };
        assert!((r.fps(400) - 6000.0).abs() < 1e-9);
    }

    #[test]
    fn run_trace_reports_an_oversubscribed_wire() {
        // Primitive Assembly returns a credit for every vertex it pops
        // without asking the wire for room: fill the credit wire's
        // bandwidth on the cycle of the first pop, and that pop is one
        // write too many.
        const WIRE: &str = "Streamer->PA.vertices.credits";
        let commands = [
            GpuCommand::SetState(Box::default()),
            GpuCommand::Draw(crate::commands::DrawCall {
                primitive: crate::commands::Primitive::Triangles,
                vertex_count: 3,
                index_buffer: None,
            }),
        ];
        let started = |cycle| {
            let mut gpu = Gpu::new(GpuConfig::baseline());
            gpu.enqueue(&commands);
            while gpu.cycle < cycle && gpu.binder.probe(WIRE).unwrap().status().written == 0 {
                gpu.try_step().expect("a healthy run");
            }
            gpu
        };
        // Boxes clock at `cycle` and then the counter advances.
        let pop = started(Cycle::MAX).cycle - 1;
        let mut gpu = started(pop);
        let credits = gpu.pa.in_verts.credit_wire();
        for _ in 0..credits.bandwidth() {
            credits.write(pop, 1).expect("within the bandwidth");
        }
        let Err(GpuError::Sim { error, report }) = gpu.run_trace(&[]) else {
            panic!("an over-subscribed wire must stop the run");
        };
        assert!(
            matches!(&error, SimError::BandwidthExceeded { signal, cycle, .. }
                if signal == WIRE && *cycle == pop),
            "{error:?}"
        );
        assert_eq!(report.error.as_ref(), Some(&error));
        let text = report.to_string();
        assert!(text.contains(&format!("`{WIRE}` exceeded its bandwidth")), "{text}");
        assert!(text.contains(&format!("at cycle {pop}")), "{text}");
    }

    #[test]
    fn dump_framebuffer_refuses_out_of_range_surfaces() {
        let gpu = Gpu::new(GpuConfig::baseline());
        let size = gpu.memory().gpu_mem().size() as u64;
        // One 8x8 tile (256 bytes) starting 64 bytes short of the end.
        let base = size - 64;
        assert_eq!(
            gpu.dump_framebuffer(base, 8, 8),
            Err(GpuError::BadConfig(format!(
                "framebuffer {base:#x}..{:#x} exceeds GPU memory ({size} bytes)",
                base + 256
            )))
        );
        assert_eq!(
            gpu.dump_framebuffer(u64::MAX - 8, 8, 8),
            Err(GpuError::BadConfig(
                "framebuffer at 0xfffffffffffffff7 wraps the address space".into()
            ))
        );
    }

    #[test]
    fn commands_past_the_end_of_memory_are_refused_before_the_first_cycle() {
        use crate::state::RenderState;
        use attila_emu::texture::{TexFormat, TextureDesc};
        use std::sync::Arc;
        let mut gpu = Gpu::new(GpuConfig::baseline());
        let size = gpu.memory().gpu_mem().size() as u64;
        let upload = |address| GpuCommand::WriteBuffer { address, data: Arc::new(vec![1; 64]) };
        let with_texture = |base| {
            let mut textures = vec![None; 16];
            textures[3] = Some(TextureDesc::new_2d(8, 8, TexFormat::Rgba8, base));
            GpuCommand::SetState(Box::new(RenderState {
                textures: Arc::new(textures),
                ..RenderState::default()
            }))
        };
        let fits = [upload(size - 64), with_texture(size - 256), GpuCommand::Swap];
        assert_eq!(gpu.check_memory_ranges(&fits), Ok(()));
        let refused = |commands: &[GpuCommand]| match gpu.check_memory_ranges(commands) {
            Err(GpuError::BadConfig(msg)) => msg,
            other => panic!("not refused: {other:?}"),
        };
        assert!(refused(&[upload(size - 63)]).starts_with("command 0 (WRITE): upload "));
        assert!(refused(&[upload(u64::MAX - 8)]).contains("runs past the end of GPU memory"));
        let msg = refused(&[GpuCommand::Swap, with_texture(size - 255)]);
        assert!(msg.starts_with("command 1 (STATE): texture "), "{msg}");
        let far = RenderState { z_buffer: size, ..RenderState::default() };
        let far = GpuCommand::SetState(Box::new(far));
        assert!(refused(std::slice::from_ref(&far)).contains("depth buffer"));
        assert!(matches!(gpu.run_trace(&[far]), Err(GpuError::BadConfig(_))));
        assert_eq!(gpu.cycle(), 0, "no cycle ran");
    }

    #[test]
    fn a_draw_no_shader_pool_can_admit_is_refused_before_the_first_cycle() {
        use crate::commands::{DrawCall, Primitive};
        use crate::state::RenderState;
        use std::sync::Arc;
        // A program writing r0..r(temps - 1).
        let program = |header: &str, temps: usize| {
            let body: String = (0..temps).map(|r| format!("MOV r{r}, i0;\n")).collect();
            let source = format!("{header}\n{body}MOV o0, r0;\nEND;");
            Arc::new(attila_emu::asm::assemble(&source).expect("assembles"))
        };
        let draw = GpuCommand::Draw(DrawCall {
            primitive: Primitive::Triangles,
            vertex_count: 3,
            index_buffer: None,
        });
        let with = |vertex_temps, fragment_temps| {
            GpuCommand::SetState(Box::new(RenderState {
                vertex_program: program("!!ATTILAvp1.0", vertex_temps),
                fragment_program: program("!!ATTILAfp1.0", fragment_temps),
                ..RenderState::default()
            }))
        };
        let check = |config: GpuConfig, commands: &[GpuCommand]| {
            Gpu::new(config).check_programs(commands).map_err(|e| e.to_string())
        };
        // A unified pool of 64 registers: 16 temporaries a quad.
        let mut unified = GpuConfig::baseline();
        unified.shader.temp_registers = 64;
        assert_eq!(check(unified.clone(), &[with(4, 16), draw.clone()]), Ok(()));
        assert_eq!(
            check(unified.clone(), &[draw.clone(), with(4, 17), GpuCommand::Swap, draw.clone()]),
            Err("bad GPU configuration: command 3 (DRAW): its fragment program needs 68 \
                 temporary registers, the pool that runs it holds 64 (shader.temp_registers)"
                .into()),
            "the draw runs the state set before it"
        );
        assert_eq!(check(unified.clone(), &[with(4, 17)]), Ok(()), "no draw, nothing to run");
        // Split pools: vertices run in every vertex unit's registers.
        let mut split = GpuConfig::non_unified_baseline();
        split.shader.vertex_units = 2;
        split.shader.vertex_registers = 3;
        assert_eq!(check(split.clone(), &[with(6, 1), draw.clone()]), Ok(()));
        let msg = check(split, &[with(7, 1), draw.clone()]).unwrap_err();
        assert!(
            msg.ends_with("its vertex program needs 7 temporary registers, the pool that runs \
                           it holds 6 (shader.vertex_units × shader.vertex_registers)"),
            "{msg}"
        );
        let mut gpu = Gpu::new(unified);
        assert!(matches!(gpu.run_trace(&[with(1, 20), draw]), Err(GpuError::BadConfig(_))));
        assert_eq!(gpu.cycle(), 0, "no cycle ran");
    }
}
