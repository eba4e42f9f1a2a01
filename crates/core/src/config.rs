//! GPU configuration.
//!
//! The ATTILA simulator "is highly configurable (the configuration files
//! for our architecture has over 100 parameters)". [`GpuConfig`] gathers
//! ours: 100 parameters, each read by the timing model or named with the
//! reason it is not in `tests/parameter_liveness.rs`, JSON-serializable
//! (via `attila-json`) so configurations can live in files, with presets
//! for the paper's configurations:
//!
//! * [`GpuConfig::baseline`] — Table 1 / Table 2 baseline (unified).
//! * [`GpuConfig::non_unified_baseline`] — the same with 4 dedicated
//!   vertex shaders (Figure 1).
//! * [`GpuConfig::case_study`] — Section 5: three unified shaders, one
//!   ROP, two 64-bit DDR channels, 96-thread window / 384-input queue,
//!   1536 temporary registers, 1–3 texture units.
//! * [`GpuConfig::embedded`] — the paper-\[2\] direction: a single unified
//!   shader doing all vertex, fragment and triangle shading work.

use std::collections::BTreeMap;

use attila_json::{impl_json_enum_unit, impl_json_struct, Json, JsonError, ToJson};
use attila_sim::SimError;

use attila_emu::isa::Opcode;
use attila_emu::raster::TraversalAlgorithm;
use attila_mem::{CacheConfig, MemControllerConfig};

/// Render-target / display parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DisplayConfig {
    /// Framebuffer width in pixels.
    pub width: u32,
    /// Framebuffer height in pixels.
    pub height: u32,
    /// GPU core (and memory) clock in MHz — used only to convert cycles
    /// to frames per second in reports (the paper uses 600 MHz).
    pub clock_mhz: u32,
}

/// Streamer (vertex fetch) parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamerConfig {
    /// Indices fetched per cycle.
    pub indices_per_cycle: u32,
    /// Post-shading vertex cache entries (reuse of shaded vertices in
    /// indexed batches).
    pub vertex_cache_entries: usize,
    /// Outstanding attribute-fetch memory requests.
    pub max_memory_requests: usize,
    /// Fixed pipeline latency of the streamer stages.
    pub latency: u64,
}

/// Primitive assembly parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitiveAssemblyConfig {
    /// Input queue entries (Table 1: 8).
    pub input_queue: usize,
    /// Stage latency in cycles (Table 1: 1).
    pub latency: u64,
}

/// Clipper parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClipperConfig {
    /// Input queue entries (Table 1: 4).
    pub input_queue: usize,
    /// Trivial-rejection latency in cycles (Table 1: 6).
    pub latency: u64,
}

/// Triangle setup parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupConfig {
    /// Input queue entries (Table 1: 12).
    pub input_queue: usize,
    /// Setup latency in cycles (Table 1: 10).
    pub latency: u64,
}

/// Fragment generator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FragGenConfig {
    /// Input triangle queue entries (Table 1: 16).
    pub input_queue: usize,
    /// Stage latency in cycles (Table 1: 1).
    pub latency: u64,
    /// 8×8 fragment tiles emitted per cycle (Table 1: 2×64 fragments).
    /// The tile edge is the framebuffer tiling level,
    /// [`FB_TILE`](crate::address::FB_TILE).
    pub tiles_per_cycle: u32,
    /// Traversal algorithm (recursive is ATTILA's default).
    pub traversal: TraversalAlgorithm,
}

/// Hierarchical-Z parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HzConfig {
    /// Whether the HZ test is performed at all (ablation knob).
    pub enabled: bool,
    /// Input tile queue entries (Table 1: 64).
    pub input_queue: usize,
    /// Tiles tested per cycle (Table 1: up to two 8×8 tiles).
    pub tiles_per_cycle: u32,
    /// Test latency in cycles. One HZ entry covers one
    /// [`FB_TILE`](crate::address::FB_TILE)-edged block, quantized to
    /// [`DEPTH_BITS`](crate::hz::DEPTH_BITS).
    pub latency: u64,
}

/// Z & stencil test (ROPz) parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ZStencilConfig {
    /// Number of ROP units (quads interleave across them).
    pub units: usize,
    /// Fragments processed per cycle per unit (Table 1: 4 = one quad).
    pub frags_per_cycle: u32,
    /// Input quad queue entries (Table 1: 64 fragments = 16 quads).
    pub input_queue: usize,
    /// Latency of the unit's output wires (Table 1: 2 + memory).
    pub latency: u64,
    /// Cache geometry (Table 2).
    pub cache: CacheConfig,
    /// Whether the 1:2/1:4 lossless Z compression is enabled.
    pub compression: bool,
}

/// Colour write (ROPc) parameters: the Z & stencil shape without a
/// latency, since the wire into the unit is timed by `zstencil.latency`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColorWriteConfig {
    /// Number of ROP units; must equal `zstencil.units`.
    pub units: usize,
    /// Fragments processed per cycle per unit (Table 1: 4 = one quad).
    pub frags_per_cycle: u32,
    /// Input quad queue entries (Table 1: 64 fragments = 16 quads).
    pub input_queue: usize,
    /// Cache geometry (Table 2).
    pub cache: CacheConfig,
    /// Whether colour compression is enabled (future work in the paper).
    pub compression: bool,
}

/// Interpolator parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpolatorConfig {
    /// Fragments interpolated per cycle (Table 1: 2×4).
    pub frags_per_cycle: u32,
    /// Latency in cycles (Table 1: 2 to 8, grows with attribute count).
    pub base_latency: u64,
    /// Extra latency per interpolated attribute beyond the first.
    pub latency_per_attribute: u64,
}

/// How the Fragment FIFO schedules shader inputs — the Section 5 case
/// study's central knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShaderScheduling {
    /// A thread window enabling out-of-order execution among shader
    /// threads: any ready (non-texture-blocked) thread may issue.
    #[default]
    ThreadWindow,
    /// A shader input queue allowing only in-order execution: the oldest
    /// thread must finish before younger ones make progress past it.
    InOrderQueue,
}

/// Shader pool parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ShaderConfig {
    /// Unified pool (vertices + fragments on the same units) vs the
    /// classic hard partition.
    pub unified: bool,
    /// Number of fragment (or unified) shader units.
    pub fragment_units: usize,
    /// Number of dedicated vertex shader units (non-unified only).
    pub vertex_units: usize,
    /// Vertex threads per dedicated vertex unit (paper: 12).
    pub vertex_threads: usize,
    /// Physical temporary registers per dedicated vertex unit (paper: a
    /// pool of 96 for non-unified vertex shaders).
    pub vertex_registers: usize,
    /// Maximum shader inputs in flight across the fragment/unified pool
    /// (paper baseline: 112 + 16 per unit; case study: 384 global).
    pub max_inputs: usize,
    /// Physical temporary registers in the pool's register bank
    /// (baseline: 448 per unit; case study: 1536 global; vertex: 96).
    pub temp_registers: usize,
    /// Scheduling model (thread window vs in-order input queue).
    pub scheduling: ShaderScheduling,
    /// Instructions issued per group per cycle (fetch width). A group is
    /// [`GROUP_LANES`](crate::ffifo::GROUP_LANES) inputs: one 2×2 quad.
    pub issue_per_cycle: u32,
    /// Per-opcode execution latencies in cycles — the paper's
    /// "instruction dependent number of execution stages (configurable,
    /// currently ranging from 1 to 9 cycles)", keyed by [timed](default_latency) mnemonic.
    pub instruction_latencies: BTreeMap<String, u64>,
}

/// The default execution latency of a timed opcode: an ALU instruction,
/// whose result readies its destination temporary this many cycles after
/// issue. `None` for the untimed ones: `TEX`/`TXB`/`TXP` wait on the
/// texture unit instead, and `KIL`/`END` write no register.
pub fn default_latency(op: Opcode) -> Option<u64> {
    use Opcode::*;
    Some(match op {
        Mov | Abs | Frc | Flr => 1,
        Add | Sub | Min | Max | Slt | Sge | Cmp => 2,
        Mul => 3,
        Mad | Lrp | Xpd | Dp3 | Dp4 | Dph => 4,
        Rcp | Rsq => 6,
        Ex2 | Lg2 | Sin | Cos => 8,
        Pow => 9,
        Tex | Txb | Txp | Kil | End => return None,
    })
}

/// Texture unit parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TextureConfig {
    /// Number of texture units in the pool (the case-study sweep: 3→1).
    pub units: usize,
    /// Bilinear samples computed per cycle per unit (paper: 1; a
    /// trilinear sample every two cycles).
    pub bilinears_per_cycle: u32,
    /// Pending quad-request queue entries per unit.
    pub request_queue: usize,
    /// Texture cache geometry (Table 2: 16 KB, 4-way, 256 B).
    pub cache: CacheConfig,
    /// Maximum anisotropy the units support (case study: 8).
    pub max_aniso: u32,
}

/// Statistics collection parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsConfig {
    /// Sampling window in cycles (paper figures: 10 000; 0 disables).
    pub window_cycles: u64,
}

/// The complete GPU configuration (100 parameters; the paper has over 100).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Display / render-target parameters.
    pub display: DisplayConfig,
    /// Streamer parameters.
    pub streamer: StreamerConfig,
    /// Primitive assembly parameters.
    pub primitive_assembly: PrimitiveAssemblyConfig,
    /// Clipper parameters.
    pub clipper: ClipperConfig,
    /// Triangle setup parameters.
    pub setup: SetupConfig,
    /// Fragment generator parameters.
    pub fraggen: FragGenConfig,
    /// Hierarchical Z parameters.
    pub hz: HzConfig,
    /// Z & stencil test units.
    pub zstencil: ZStencilConfig,
    /// Colour write units.
    pub colorwrite: ColorWriteConfig,
    /// Interpolator parameters.
    pub interpolator: InterpolatorConfig,
    /// Shader pool parameters.
    pub shader: ShaderConfig,
    /// Texture unit pool parameters.
    pub texture: TextureConfig,
    /// Memory system parameters.
    pub memory: MemControllerConfig,
    /// Statistics sampling parameters.
    pub stats: StatsConfig,
}

impl_json_struct!(DisplayConfig { width, height, clock_mhz });
impl_json_struct!(StreamerConfig {
    indices_per_cycle,
    vertex_cache_entries,
    max_memory_requests,
    latency,
});
impl_json_struct!(PrimitiveAssemblyConfig { input_queue, latency });
impl_json_struct!(ClipperConfig { input_queue, latency });
impl_json_struct!(SetupConfig { input_queue, latency });
impl_json_struct!(FragGenConfig { input_queue, latency, tiles_per_cycle, traversal });
impl_json_struct!(HzConfig { enabled, input_queue, tiles_per_cycle, latency });
impl_json_struct!(ZStencilConfig {
    units,
    frags_per_cycle,
    input_queue,
    latency,
    cache,
    compression,
});
impl_json_struct!(ColorWriteConfig { units, frags_per_cycle, input_queue, cache, compression });
impl_json_struct!(InterpolatorConfig { frags_per_cycle, base_latency, latency_per_attribute });
impl_json_enum_unit!(ShaderScheduling { ThreadWindow, InOrderQueue });
impl_json_struct!(ShaderConfig {
    unified,
    fragment_units,
    vertex_units,
    vertex_threads,
    vertex_registers,
    max_inputs,
    temp_registers,
    scheduling,
    issue_per_cycle,
    instruction_latencies,
});
impl_json_struct!(TextureConfig { units, bilinears_per_cycle, request_queue, cache, max_aniso });
impl_json_struct!(StatsConfig { window_cycles });
impl_json_struct!(GpuConfig {
    display,
    streamer,
    primitive_assembly,
    clipper,
    setup,
    fraggen,
    hz,
    zstencil,
    colorwrite,
    interpolator,
    shader,
    texture,
    memory,
    stats,
});

impl GpuConfig {
    /// The paper's baseline architecture (Tables 1 and 2, unified form):
    /// two unified shaders each processing 4 fragments per cycle, two
    /// fragment-test/framebuffer-update units each processing 4 fragments
    /// per cycle, four 16-byte-per-cycle channels to GPU memory and two
    /// 8-byte system buses.
    pub fn baseline() -> Self {
        GpuConfig {
            display: DisplayConfig { width: 320, height: 240, clock_mhz: 600 },
            streamer: StreamerConfig {
                indices_per_cycle: 1,
                vertex_cache_entries: 16,
                max_memory_requests: 8,
                latency: 4,
            },
            primitive_assembly: PrimitiveAssemblyConfig { input_queue: 8, latency: 1 },
            clipper: ClipperConfig { input_queue: 4, latency: 6 },
            setup: SetupConfig { input_queue: 12, latency: 10 },
            fraggen: FragGenConfig {
                input_queue: 16,
                latency: 1,
                tiles_per_cycle: 2,
                traversal: TraversalAlgorithm::Recursive,
            },
            hz: HzConfig {
                enabled: true,
                input_queue: 64,
                tiles_per_cycle: 2,
                latency: 1,
            },
            zstencil: ZStencilConfig {
                units: 2,
                frags_per_cycle: 4,
                input_queue: 16,
                latency: 2,
                cache: CacheConfig::attila_baseline(4),
                compression: true,
            },
            colorwrite: ColorWriteConfig {
                units: 2,
                frags_per_cycle: 4,
                input_queue: 16,
                cache: CacheConfig::attila_baseline(4),
                compression: false,
            },
            interpolator: InterpolatorConfig {
                frags_per_cycle: 8,
                base_latency: 2,
                latency_per_attribute: 1,
            },
            shader: ShaderConfig {
                unified: true,
                fragment_units: 2,
                vertex_units: 0,
                vertex_threads: 12,
                vertex_registers: 96,
                max_inputs: (112 + 16) * 2,
                temp_registers: 448 * 2,
                scheduling: ShaderScheduling::ThreadWindow,
                issue_per_cycle: 1,
                instruction_latencies: Opcode::ALL
                    .iter()
                    .filter_map(|&op| Some((op.mnemonic().to_string(), default_latency(op)?)))
                    .collect(),
            },
            texture: TextureConfig {
                units: 2,
                bilinears_per_cycle: 1,
                request_queue: 16,
                cache: CacheConfig::attila_baseline(4),
                max_aniso: 8,
            },
            memory: MemControllerConfig::default(),
            stats: StatsConfig { window_cycles: 10_000 },
        }
    }

    /// The baseline with the classic hard partition: four dedicated
    /// vertex shaders (Table 1) and two fragment shaders.
    pub fn non_unified_baseline() -> Self {
        let mut c = Self::baseline();
        c.shader.unified = false;
        c.shader.vertex_units = 4;
        c
    }

    /// The Section 5 case-study configuration: three unified shaders, one
    /// ROP, two 64-bit DDR channels; a global pool of 96 threads (384
    /// quad inputs) and 1536 temporary registers; `texture_units` ∈ 1..=3.
    pub fn case_study(texture_units: usize, scheduling: ShaderScheduling) -> Self {
        let mut c = Self::baseline();
        c.shader.fragment_units = 3;
        c.shader.max_inputs = 384;
        c.shader.temp_registers = 1536;
        c.shader.scheduling = scheduling;
        c.zstencil.units = 1;
        c.colorwrite.units = 1;
        c.texture.units = texture_units;
        c.texture.max_aniso = 8;
        c.memory.channels = 2;
        c
    }

    /// An embedded-segment configuration (the paper's ref \[2\] direction):
    /// one unified shader doing all vertex and fragment work, one ROP,
    /// one memory channel, small caches.
    pub fn embedded() -> Self {
        let mut c = Self::baseline();
        c.display = DisplayConfig { width: 176, height: 144, clock_mhz: 200 };
        c.shader.fragment_units = 1;
        c.shader.max_inputs = 32;
        c.shader.temp_registers = 128;
        c.zstencil.units = 1;
        c.zstencil.cache = CacheConfig { size_bytes: 4096, ways: 2, ..c.zstencil.cache };
        c.zstencil.compression = false;
        c.colorwrite.units = 1;
        c.colorwrite.cache = c.zstencil.cache;
        c.texture.units = 1;
        c.texture.cache = CacheConfig { size_bytes: 4096, ways: 2, ..c.texture.cache };
        c.texture.max_aniso = 1;
        c.hz.enabled = false;
        c.memory.channels = 1;
        // Small part, but the driver's fixed memory map (heap at 16 MB)
        // needs headroom above it.
        c.memory.gpu_memory_mb = 32;
        c
    }

    /// A high-end configuration scaled up from the baseline (the paper's
    /// ref \[1\] direction: current GPUs implement at most 4 or 6 quad
    /// units; this models a future 8-quad part).
    pub fn high_end() -> Self {
        let mut c = Self::baseline();
        c.shader.fragment_units = 8;
        c.shader.max_inputs = (112 + 16) * 8;
        c.shader.temp_registers = 448 * 8;
        c.zstencil.units = 4;
        c.colorwrite.units = 4;
        c.texture.units = 8;
        c.memory.channels = 8;
        c
    }

    /// Serializes to pretty JSON (the simulator's config-file format).
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).pretty()
    }

    /// Parses a JSON config file. Like every key no field reads, a latency
    /// for an untimed opcode (older files list all of them) is dropped.
    ///
    /// # Errors
    ///
    /// Returns the underlying `attila-json` error on malformed input.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let mut config: Self = attila_json::FromJson::from_json(&attila_json::parse(text)?)?;
        let latencies = &mut config.shader.instruction_latencies;
        latencies.retain(|m, _| Opcode::from_mnemonic(m).map(default_latency) != Some(None));
        Ok(config)
    }

    /// Validates the configuration, returning the first inconsistency as
    /// a typed [`SimError::InvalidConfig`]. [`Gpu::new`](crate::Gpu::new)
    /// asserts the same rules; front ends call this to fail gracefully
    /// instead. Degenerate parameter values (zero units, zero-width
    /// signals, zero cache lines) are rejected here rather than
    /// surfacing as a panic in the middle of elaboration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] with a message naming the
    /// offending parameter.
    pub fn validate(&self) -> Result<(), SimError> {
        /// Most units of one replicated kind: what a `u8` unit index carries.
        const MAX_UNITS: usize = u8::MAX as usize + 1;
        fn bad(msg: impl Into<String>) -> Result<(), SimError> {
            Err(SimError::InvalidConfig(msg.into()))
        }
        if self.shader.fragment_units == 0 {
            return bad("shader.fragment_units must be at least 1");
        }
        // A 257th unit would take unit 0's name and memory client again.
        for (name, units) in [
            ("texture.units", self.texture.units),
            ("zstencil.units", self.zstencil.units),
            ("colorwrite.units", self.colorwrite.units),
        ] {
            if !(1..=MAX_UNITS).contains(&units) {
                return bad(format!("{name} must be between 1 and {MAX_UNITS} (got {units})"));
            }
        }
        if self.zstencil.units != self.colorwrite.units {
            return bad(format!(
                "zstencil.units ({}) must equal colorwrite.units ({})",
                self.zstencil.units, self.colorwrite.units
            ));
        }
        if !self.shader.unified && self.shader.vertex_units == 0 {
            return bad("non-unified configurations need shader.vertex_units >= 1");
        }
        if self.display.width == 0 || self.display.height == 0 {
            return bad(format!(
                "display dimensions must be non-zero (got {}x{})",
                self.display.width, self.display.height
            ));
        }
        if self.memory.channels == 0 {
            return bad("memory.channels must be at least 1");
        }
        if self.memory.banks == 0 {
            return bad("memory.banks must be at least 1");
        }
        if self.memory.page_bytes == 0 {
            return bad("memory.page_bytes must be at least 1");
        }
        if self.memory.queue_capacity == 0 {
            return bad("memory.queue_capacity must be at least 1");
        }
        if self.memory.gpu_memory_mb == 0 {
            return bad("memory.gpu_memory_mb must be at least 1");
        }
        // Queue capacities become port queue sizes and per-cycle widths
        // become signal bandwidths; a zero in either would otherwise
        // panic inside `Signal::with_name`/`port()` mid-elaboration.
        for (name, queue) in [
            ("primitive_assembly.input_queue", self.primitive_assembly.input_queue),
            ("clipper.input_queue", self.clipper.input_queue),
            ("setup.input_queue", self.setup.input_queue),
            ("fraggen.input_queue", self.fraggen.input_queue),
            ("hz.input_queue", self.hz.input_queue),
            ("zstencil.input_queue", self.zstencil.input_queue),
            ("colorwrite.input_queue", self.colorwrite.input_queue),
            ("texture.request_queue", self.texture.request_queue),
        ] {
            if queue == 0 {
                return bad(format!("{name} must be at least 1 (a port needs a queue)"));
            }
        }
        for (name, width) in [
            ("streamer.indices_per_cycle", self.streamer.indices_per_cycle),
            ("fraggen.tiles_per_cycle", self.fraggen.tiles_per_cycle),
            ("hz.tiles_per_cycle", self.hz.tiles_per_cycle),
            ("interpolator.frags_per_cycle", self.interpolator.frags_per_cycle),
            ("zstencil.frags_per_cycle", self.zstencil.frags_per_cycle),
            ("colorwrite.frags_per_cycle", self.colorwrite.frags_per_cycle),
            ("texture.bilinears_per_cycle", self.texture.bilinears_per_cycle),
        ] {
            if width == 0 {
                return bad(format!("{name} must be at least 1 (a zero-width signal)"));
            }
        }
        // Stage latencies become port latencies, and a port delivers no
        // earlier than the cycle after its write.
        for (name, latency) in [
            ("streamer.latency", self.streamer.latency),
            ("primitive_assembly.latency", self.primitive_assembly.latency),
            ("clipper.latency", self.clipper.latency),
            ("setup.latency", self.setup.latency),
            ("fraggen.latency", self.fraggen.latency),
            ("hz.latency", self.hz.latency),
            ("zstencil.latency", self.zstencil.latency),
        ] {
            if latency == 0 {
                return bad(format!("{name} must be at least 1 (a port needs a latency)"));
            }
        }
        let transaction = attila_mem::MAX_TRANSACTION as u64;
        if !transaction.is_multiple_of(self.memory.transfer_cycles) {
            return bad(format!(
                "memory.transfer_cycles must divide the {transaction}-byte transaction"
            ));
        }
        // Clients split requests at transaction boundaries
        // (`split_transactions`), so an interleave of whole transactions
        // keeps each request inside one channel.
        if self.memory.interleave_bytes == 0
            || !self.memory.interleave_bytes.is_multiple_of(transaction)
        {
            return bad(format!(
                "memory.interleave_bytes must be a non-zero multiple of the \
                 {transaction}-byte transaction (got {})",
                self.memory.interleave_bytes
            ));
        }
        // Admission limits that no work could ever pass: the run would
        // wait on them until the watchdog.
        if self.streamer.max_memory_requests == 0 {
            return bad("streamer.max_memory_requests must be at least 1");
        }
        let lanes = crate::ffifo::GROUP_LANES;
        if self.shader.max_inputs < lanes {
            return bad("shader.max_inputs must hold at least one group");
        }
        // A quad reserves at least one temporary per fragment.
        if self.shader.temp_registers < lanes {
            return bad(format!(
                "shader.temp_registers must hold at least one group ({lanes} registers)"
            ));
        }
        if !self.shader.unified
            && (self.shader.vertex_threads == 0 || self.shader.vertex_registers == 0)
        {
            return bad(
                "non-unified configurations need shader.vertex_threads and \
                 shader.vertex_registers >= 1",
            );
        }
        if let Some(untimed) = self
            .shader
            .instruction_latencies
            .keys()
            .find(|mnemonic| Opcode::from_mnemonic(mnemonic).and_then(default_latency).is_none())
        {
            return bad(format!(
                "shader.instruction_latencies names `{untimed}`, which is no timed opcode"
            ));
        }
        for (name, c) in [
            ("texture.cache", &self.texture.cache),
            ("zstencil.cache", &self.zstencil.cache),
            ("colorwrite.cache", &self.colorwrite.cache),
        ] {
            if !c.line_bytes.is_power_of_two()
                || c.ways == 0
                || c.size_bytes % (c.ways * c.line_bytes) != 0
            {
                return bad(format!("{name} geometry is inconsistent"));
            }
            if c.size_bytes < c.ways * c.line_bytes {
                return bad(format!("{name} has zero cache lines per way"));
            }
            if c.ports == 0 {
                return bad(format!("{name} needs at least one port"));
            }
        }
        Ok(())
    }

    /// Counts the scalar parameters in the configuration (the paper
    /// quotes "over 100 parameters").
    pub fn parameter_count(&self) -> usize {
        fn count(v: &Json) -> usize {
            match v {
                Json::Obj(m) => m.iter().map(|(_, v)| count(v)).sum(),
                Json::Arr(a) => a.iter().map(count).sum(),
                _ => 1,
            }
        }
        count(&ToJson::to_json(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1_and_table2() {
        let c = GpuConfig::baseline();
        assert_eq!(c.primitive_assembly.input_queue, 8);
        assert_eq!(c.clipper.input_queue, 4);
        assert_eq!(c.clipper.latency, 6);
        assert_eq!(c.setup.input_queue, 12);
        assert_eq!(c.setup.latency, 10);
        assert_eq!(c.fraggen.input_queue, 16);
        assert_eq!(c.hz.input_queue, 64);
        assert_eq!(c.zstencil.frags_per_cycle, 4);
        assert_eq!(c.zstencil.cache.size_bytes, 16 * 1024);
        assert_eq!(c.zstencil.cache.ways, 4);
        assert_eq!(c.zstencil.cache.line_bytes, 256);
        assert_eq!(c.texture.cache.size_bytes, 16 * 1024);
        assert_eq!(c.memory.channels, 4);
        assert_eq!(attila_mem::MAX_TRANSACTION as u64 / c.memory.transfer_cycles, 16);
        assert_eq!(c.memory.system_bus_bytes_per_cycle, 8);
        assert_eq!(c.memory.gpu_memory_bytes(), 64 * 1024 * 1024);
        assert_eq!(c.shader.fragment_units, 2);
        assert!(c.shader.unified);
    }

    #[test]
    fn case_study_matches_section5() {
        let c = GpuConfig::case_study(3, ShaderScheduling::ThreadWindow);
        assert_eq!(c.shader.fragment_units, 3);
        assert_eq!(c.shader.max_inputs, 384);
        assert_eq!(c.shader.temp_registers, 1536);
        assert_eq!(c.zstencil.units, 1);
        assert_eq!(c.memory.channels, 2);
        assert_eq!(c.texture.units, 3);
        let c = GpuConfig::case_study(1, ShaderScheduling::InOrderQueue);
        assert_eq!(c.texture.units, 1);
        assert_eq!(c.shader.scheduling, ShaderScheduling::InOrderQueue);
    }

    #[test]
    fn json_round_trip() {
        let c = GpuConfig::case_study(2, ShaderScheduling::ThreadWindow);
        let json = c.to_json();
        let back = GpuConfig::from_json(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn non_unified_has_vertex_units() {
        let c = GpuConfig::non_unified_baseline();
        assert!(!c.shader.unified);
        assert_eq!(c.shader.vertex_units, 4);
    }

    #[test]
    fn embedded_is_smaller_in_every_dimension() {
        let e = GpuConfig::embedded();
        let b = GpuConfig::baseline();
        assert!(e.shader.fragment_units < b.shader.fragment_units);
        assert!(e.memory.channels < b.memory.channels);
        assert!(e.zstencil.cache.size_bytes < b.zstencil.cache.size_bytes);
        assert!(!e.hz.enabled);
    }

    #[test]
    fn validate_accepts_all_presets() {
        for c in [
            GpuConfig::baseline(),
            GpuConfig::non_unified_baseline(),
            GpuConfig::case_study(1, ShaderScheduling::InOrderQueue),
            GpuConfig::embedded(),
            GpuConfig::high_end(),
        ] {
            c.validate().expect("preset must validate");
        }
    }

    #[test]
    fn validate_rejects_inconsistencies() {
        let mut c = GpuConfig::baseline();
        c.texture.units = 0;
        assert!(c.validate().unwrap_err().to_string().contains("texture.units"));
        let mut c = GpuConfig::baseline();
        c.zstencil.units = 1; // != colorwrite.units (2)
        assert!(c.validate().unwrap_err().to_string().contains("colorwrite"));
        let mut c = GpuConfig::baseline();
        c.zstencil.cache.ways = 0;
        assert!(c.validate().unwrap_err().to_string().contains("zstencil.cache"));
    }

    #[test]
    fn validate_returns_typed_invalid_config() {
        let mut c = GpuConfig::baseline();
        c.shader.fragment_units = 0;
        let err = c.validate().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err:?}");
        assert!(err.to_string().contains("invalid configuration"));
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        type Edit = fn(&mut GpuConfig);
        const LANES: usize = crate::ffifo::GROUP_LANES;
        let refused: [(Edit, &str); 15] = [
            (|c| c.display.width = 0, "display"),
            (|c| c.clipper.input_queue = 0, "clipper.input_queue"),
            (|c| c.fraggen.tiles_per_cycle = 0, "zero-width signal"),
            (|c| c.texture.cache.size_bytes = 0, "texture.cache"),
            (|c| c.memory.queue_capacity = 0, "memory.queue_capacity"),
            (|c| c.memory.banks = 0, "memory.banks"),
            // 0 would divide by zero in the channel interleave; 32 and 100
            // would split a 64-byte transaction across two channels.
            (|c| c.memory.interleave_bytes = 0, "memory.interleave_bytes"),
            (|c| c.memory.interleave_bytes = 32, "memory.interleave_bytes"),
            (|c| c.memory.interleave_bytes = 100, "memory.interleave_bytes"),
            // Limits no work can pass: each would run a scene to the watchdog.
            (|c| c.streamer.max_memory_requests = 0, "streamer.max_memory_requests"),
            (|c| c.shader.temp_registers = LANES - 1, "shader.temp_registers"),
            (|c| c.shader.vertex_threads = 0, "non-unified"),
            (|c| c.shader.vertex_registers = 0, "non-unified"),
            // A mistyped mnemonic would be dropped without a word.
            (|c| _ = c.shader.instruction_latencies.insert("MAD_TYPO".into(), 40), "`MAD_TYPO`"),
            // The texture unit times `TEX`: its latency would never be read.
            (|c| _ = c.shader.instruction_latencies.insert("TEX".into(), 5), "`TEX`"),
        ];
        for (edit, names) in refused {
            let mut c = GpuConfig::non_unified_baseline();
            edit(&mut c);
            let err = c.validate().unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{names}: {err:?}");
            assert!(err.to_string().contains(names), "{names}: {err}");
        }
        // The edges just inside the interleave and admission rules, and an
        // opcode left out of the latency table (it keeps its default).
        let accepted: [Edit; 5] = [
            |c| c.memory.interleave_bytes = 64,
            |c| c.memory.interleave_bytes = 4096,
            |c| c.streamer.max_memory_requests = 1,
            |c| c.shader.temp_registers = LANES,
            |c| _ = c.shader.instruction_latencies.remove("MAD"),
        ];
        for edit in accepted {
            let mut c = GpuConfig::non_unified_baseline();
            edit(&mut c);
            assert_eq!(c.validate(), Ok(()), "{c:?}");
        }
        // Unit counts: what the 8-bit unit index carries, and not one more.
        let with_units = |tus, rops| {
            let mut c = GpuConfig::baseline();
            c.texture.units = tus;
            c.zstencil.units = rops;
            c.colorwrite.units = rops;
            c.validate().map_err(|e| e.to_string())
        };
        assert_eq!(with_units(256, 256), Ok(()));
        assert!(with_units(257, 2).unwrap_err().contains("texture.units must be between 1 and 256"));
        assert!(with_units(2, 257).unwrap_err().contains("zstencil.units must be between 1 and 256"));
        let mut c = GpuConfig::baseline();
        c.colorwrite.units = 257;
        assert!(c.validate().unwrap_err().to_string().contains("colorwrite.units must be between"));
    }

    #[test]
    fn validate_rejects_a_zero_stage_latency() {
        // Each of these is a port latency: zero used to be simulated as one.
        type Zero = fn(&mut GpuConfig);
        let zeroes: [(&str, Zero); 7] = [
            ("streamer.latency", |c| c.streamer.latency = 0),
            ("primitive_assembly.latency", |c| c.primitive_assembly.latency = 0),
            ("clipper.latency", |c| c.clipper.latency = 0),
            ("setup.latency", |c| c.setup.latency = 0),
            ("fraggen.latency", |c| c.fraggen.latency = 0),
            ("hz.latency", |c| c.hz.latency = 0),
            ("zstencil.latency", |c| c.zstencil.latency = 0),
        ];
        for (name, zero) in zeroes {
            let mut c = GpuConfig::baseline();
            zero(&mut c);
            let err = c.validate().unwrap_err();
            assert!(matches!(err, SimError::InvalidConfig(_)), "{name}: {err:?}");
            assert!(err.to_string().contains(&format!("{name} must be at least 1")), "{err}");
        }
    }

    #[test]
    fn validate_holds_transfer_cycles_to_the_transaction() {
        for (cycles, ok) in [(0, false), (1, true), (3, false), (4, true), (64, true), (128, false)] {
            let mut c = GpuConfig::baseline();
            c.memory.transfer_cycles = cycles;
            assert_eq!(c.validate().is_ok(), ok, "transfer_cycles = {cycles}");
        }
    }

    #[test]
    fn every_alu_opcode_is_timed_within_the_paper_range() {
        // "currently ranging from 1 to 9 cycles".
        for op in Opcode::ALL {
            let alu = op.has_dst() && !op.is_texture();
            assert_eq!(default_latency(op).is_some(), alu, "{op}");
            assert!(default_latency(op).is_none_or(|l| (1..=9).contains(&l)), "{op}");
        }
    }

    #[test]
    fn a_config_file_with_a_retired_key_still_loads() {
        // A key no field reads is ignored: files written before an option
        // was removed keep loading, whatever value they gave it, and build
        // the machine. `hz.depth_bits` became `hz::DEPTH_BITS`: 64 used to
        // overflow the shift that sized the HZ buffer's levels.
        for (at, retired) in [
            ("{", "\"a_removed_option\": false"),
            ("{", "\"on_fault\": \"Report\""),
            ("\"hz\": {", "\"depth_bits\": 64"),
            // Untimed opcodes' latencies, whatever their value.
            ("\"instruction_latencies\": {", "\"TEX\": 0"),
            ("\"instruction_latencies\": {", "\"KIL\": 99"),
        ] {
            let text = GpuConfig::baseline().to_json().replacen(at, &format!("{at}{retired},"), 1);
            assert!(text.contains(retired), "{text}");
            let gpu = crate::gpu::Gpu::new(GpuConfig::from_json(&text).unwrap());
            assert_eq!(gpu.config(), &GpuConfig::baseline(), "{retired}");
        }
    }

    #[test]
    fn presets_serialize_byte_for_byte() {
        // FNV-1a-64 of each preset's `to_json()`: the config file format,
        // and through it `config_hash` and every checkpoint header.
        use ShaderScheduling::{InOrderQueue as InOrder, ThreadWindow as Window};
        let pinned = [
            (GpuConfig::baseline(), 0x334d5acd164ead31),
            (GpuConfig::non_unified_baseline(), 0x46b000269941b94a),
            (GpuConfig::case_study(1, Window), 0xf886e98f32b6e7b1),
            (GpuConfig::case_study(2, Window), 0x620fc5964ce13e06),
            (GpuConfig::case_study(3, Window), 0x2e5a2d9b2da1f117),
            (GpuConfig::case_study(1, InOrder), 0x205161819f5bd401),
            (GpuConfig::case_study(2, InOrder), 0x5483a2fa246493d6),
            (GpuConfig::case_study(3, InOrder), 0xe48404b2e128d867),
            (GpuConfig::embedded(), 0x06b3aace724af7e5),
            (GpuConfig::high_end(), 0x98170ea9b47a1956),
        ];
        let fnv1a = |text: String| {
            let step = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            text.bytes().fold(0xcbf2_9ce4_8422_2325, step)
        };
        let hashes: Vec<u64> = pinned.iter().map(|(c, _)| fnv1a(c.to_json())).collect();
        let expected: Vec<u64> = pinned.iter().map(|&(_, hash)| hash).collect();
        assert_eq!(hashes, expected, "every preset now: {hashes:#018x?}");
        assert!(pinned.iter().all(|(c, _)| c.parameter_count() == 100));
    }
}
