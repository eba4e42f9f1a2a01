//! GPU configuration.
//!
//! The ATTILA simulator "is highly configurable (the configuration files
//! for our architecture has over 100 parameters)". [`GpuConfig`] gathers
//! them, JSON-serializable (via `attila-json`) so configurations can live
//! in files, with presets for the paper's configurations:
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
use attila_mem::{CacheConfig, GddrTiming, MemControllerConfig};


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
    /// Input vertex queue entries (Table 1: 48).
    pub input_queue: usize,
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
    pub tiles_per_cycle: u32,
    /// Generation tile size in pixels (second/third tiling level: 8).
    pub tile_size: u32,
    /// Traversal algorithm (recursive is ATTILA's default).
    pub traversal: Traversal,
}

/// Serializable mirror of [`TraversalAlgorithm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Traversal {
    /// McCool recursive descent.
    #[default]
    Recursive,
    /// Neon-style tile scanning.
    TileScan,
}

impl From<Traversal> for TraversalAlgorithm {
    fn from(t: Traversal) -> Self {
        match t {
            Traversal::Recursive => TraversalAlgorithm::Recursive,
            Traversal::TileScan => TraversalAlgorithm::TileScan,
        }
    }
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
    /// Test latency in cycles.
    pub latency: u64,
    /// HZ block edge in pixels (one HZ entry covers `block`×`block`).
    pub block_size: u32,
    /// Depth precision of on-chip HZ entries in bits (paper: 8 bits,
    /// 256 KB for 4096×4096).
    pub depth_bits: u32,
}

/// Z & stencil / colour-write (ROP) parameters, shared shape.
#[derive(Debug, Clone, PartialEq)]
pub struct RopConfig {
    /// Number of ROP units of this type (quads interleave across them).
    pub units: usize,
    /// Fragments processed per cycle per unit (Table 1: 4 = one quad).
    pub frags_per_cycle: u32,
    /// Input quad queue entries (Table 1: 64 fragments = 16 quads).
    pub input_queue: usize,
    /// Pipeline latency before the cache access (Table 1: 2 + memory).
    pub latency: u64,
    /// Cache geometry (Table 2).
    pub cache: RopCacheConfig,
    /// Whether the buffer compression algorithm is enabled (Z: 1:2/1:4
    /// lossless; colour compression is future work in the paper).
    pub compression: bool,
}

/// Serializable cache geometry (mirrors `attila_mem::CacheConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RopCacheConfig {
    /// Total bytes (Table 2: 16 KB).
    pub size_bytes: u32,
    /// Ways (Table 2: 4).
    pub ways: u32,
    /// Line bytes (Table 2: 256).
    pub line_bytes: u32,
    /// Ports (Table 2: 4 for Z/Color, 4×4 for texture).
    pub ports: u32,
}

impl From<RopCacheConfig> for CacheConfig {
    fn from(c: RopCacheConfig) -> Self {
        CacheConfig {
            size_bytes: c.size_bytes,
            ways: c.ways,
            line_bytes: c.line_bytes,
            ports: c.ports,
        }
    }
}

impl RopCacheConfig {
    /// Table 2 geometry with the given port count.
    pub fn table2(ports: u32) -> Self {
        RopCacheConfig { size_bytes: 16 * 1024, ways: 4, line_bytes: 256, ports }
    }
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
    /// Instructions issued per group per cycle (fetch width).
    pub issue_per_cycle: u32,
    /// Inputs per thread group (fragments are processed as 2×2 quads: 4).
    pub group_size: u32,
    /// Per-opcode execution latencies in cycles — the paper's
    /// "instruction dependent number of execution stages (configurable,
    /// currently ranging from 1 to 9 cycles)". Keys are mnemonics.
    pub instruction_latencies: BTreeMap<String, u64>,
}

/// The default per-opcode latency table (every supported mnemonic).
pub fn default_instruction_latencies() -> BTreeMap<String, u64> {
    Opcode::ALL.iter().map(|op| (op.mnemonic().to_string(), op.default_latency())).collect()
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
    pub cache: RopCacheConfig,
    /// Maximum anisotropy the units support (case study: 8).
    pub max_aniso: u32,
}

/// Memory-system parameters (mirrors `attila_mem` config, serializable).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryConfig {
    /// GDDR channels (baseline: 4; case study: 2).
    pub channels: usize,
    /// Channel interleave granularity in bytes (256).
    pub interleave_bytes: u64,
    /// Bytes per cycle per channel — fixed at 16 by the 64-bit DDR model.
    pub bytes_per_cycle_per_channel: u32,
    /// Transfer cycles per 64-byte transaction (4).
    pub transfer_cycles: u64,
    /// tRCD — cycles from row ACTIVATE until a column command may issue;
    /// the cost of a row miss (bank idle).
    pub t_rcd: u64,
    /// tRP — row precharge cycles; a row conflict (wrong row open) pays
    /// `t_rp + t_rcd`.
    pub t_rp: u64,
    /// tRC — minimum cycles between ACTIVATEs to the same bank; bounds
    /// row thrashing.
    pub t_rc: u64,
    /// Write→read turnaround penalty.
    pub write_to_read_penalty: u64,
    /// Read→write turnaround penalty.
    pub read_to_write_penalty: u64,
    /// DRAM page size in bytes.
    pub page_bytes: u64,
    /// Banks per channel.
    pub banks: usize,
    /// CAS-like read latency in cycles.
    pub access_latency: u64,
    /// Per-client controller queue entries.
    pub queue_capacity: usize,
    /// Crossbar latency added to replies.
    pub bus_latency: u64,
    /// System (PCIe-like) bus bytes per cycle per direction (paper: 8).
    pub system_bus_bytes_per_cycle: u64,
    /// System bus base latency.
    pub system_bus_latency: u64,
    /// GPU memory size in megabytes.
    pub gpu_memory_mb: u32,
}

impl MemoryConfig {
    /// Converts to the `attila-mem` controller configuration.
    pub fn to_controller_config(&self) -> MemControllerConfig {
        MemControllerConfig {
            channels: self.channels,
            interleave_bytes: self.interleave_bytes,
            timing: GddrTiming {
                transfer_cycles: self.transfer_cycles,
                t_rcd: self.t_rcd,
                t_rp: self.t_rp,
                t_rc: self.t_rc,
                write_to_read_penalty: self.write_to_read_penalty,
                read_to_write_penalty: self.read_to_write_penalty,
                page_bytes: self.page_bytes,
                banks: self.banks,
                access_latency: self.access_latency,
            },
            queue_capacity: self.queue_capacity,
            bus_latency: self.bus_latency,
            system_bus_bytes_per_cycle: self.system_bus_bytes_per_cycle,
            system_bus_latency: self.system_bus_latency,
        }
    }

    /// GPU memory size in bytes.
    pub fn gpu_memory_bytes(&self) -> usize {
        self.gpu_memory_mb as usize * 1024 * 1024
    }
}

/// Statistics collection parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsConfig {
    /// Sampling window in cycles (paper figures: 10 000; 0 disables).
    pub window_cycles: u64,
}

/// The complete GPU configuration (over 100 parameters, as in the paper).
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
    pub zstencil: RopConfig,
    /// Colour write units.
    pub colorwrite: RopConfig,
    /// Interpolator parameters.
    pub interpolator: InterpolatorConfig,
    /// Shader pool parameters.
    pub shader: ShaderConfig,
    /// Texture unit pool parameters.
    pub texture: TextureConfig,
    /// Memory system parameters.
    pub memory: MemoryConfig,
    /// Statistics sampling parameters.
    pub stats: StatsConfig,
}

impl_json_struct!(DisplayConfig { width, height, clock_mhz });
impl_json_struct!(StreamerConfig {
    indices_per_cycle,
    input_queue,
    vertex_cache_entries,
    max_memory_requests,
    latency,
});
impl_json_struct!(PrimitiveAssemblyConfig { input_queue, latency });
impl_json_struct!(ClipperConfig { input_queue, latency });
impl_json_struct!(SetupConfig { input_queue, latency });
impl_json_struct!(FragGenConfig { input_queue, latency, tiles_per_cycle, tile_size, traversal });
impl_json_enum_unit!(Traversal { Recursive, TileScan });
impl_json_struct!(HzConfig {
    enabled,
    input_queue,
    tiles_per_cycle,
    latency,
    block_size,
    depth_bits,
});
impl_json_struct!(RopConfig { units, frags_per_cycle, input_queue, latency, cache, compression });
impl_json_struct!(RopCacheConfig { size_bytes, ways, line_bytes, ports });
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
    group_size,
    instruction_latencies,
});
impl_json_struct!(TextureConfig { units, bilinears_per_cycle, request_queue, cache, max_aniso });
impl_json_struct!(MemoryConfig {
    channels,
    interleave_bytes,
    bytes_per_cycle_per_channel,
    transfer_cycles,
    t_rcd,
    t_rp,
    t_rc,
    write_to_read_penalty,
    read_to_write_penalty,
    page_bytes,
    banks,
    access_latency,
    queue_capacity,
    bus_latency,
    system_bus_bytes_per_cycle,
    system_bus_latency,
    gpu_memory_mb,
});
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
                input_queue: 48,
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
                tile_size: 8,
                traversal: Traversal::Recursive,
            },
            hz: HzConfig {
                enabled: true,
                input_queue: 64,
                tiles_per_cycle: 2,
                latency: 1,
                block_size: 8,
                depth_bits: 8,
            },
            zstencil: RopConfig {
                units: 2,
                frags_per_cycle: 4,
                input_queue: 16,
                latency: 2,
                cache: RopCacheConfig::table2(4),
                compression: true,
            },
            colorwrite: RopConfig {
                units: 2,
                frags_per_cycle: 4,
                input_queue: 16,
                latency: 2,
                cache: RopCacheConfig::table2(4),
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
                group_size: 4,
                instruction_latencies: default_instruction_latencies(),
            },
            texture: TextureConfig {
                units: 2,
                bilinears_per_cycle: 1,
                request_queue: 16,
                cache: RopCacheConfig::table2(4),
                max_aniso: 8,
            },
            memory: MemoryConfig {
                channels: 4,
                interleave_bytes: 256,
                bytes_per_cycle_per_channel: 16,
                transfer_cycles: 4,
                t_rcd: 6,
                t_rp: 6,
                t_rc: 16,
                write_to_read_penalty: 6,
                read_to_write_penalty: 4,
                page_bytes: 4096,
                banks: 8,
                access_latency: 8,
                queue_capacity: 16,
                bus_latency: 2,
                system_bus_bytes_per_cycle: 8,
                system_bus_latency: 100,
                gpu_memory_mb: 64,
            },
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
        c.zstencil.cache = RopCacheConfig { size_bytes: 4096, ways: 2, line_bytes: 256, ports: 4 };
        c.zstencil.compression = false;
        c.colorwrite.units = 1;
        c.colorwrite.cache = c.zstencil.cache;
        c.texture.units = 1;
        c.texture.cache = RopCacheConfig { size_bytes: 4096, ways: 2, line_bytes: 256, ports: 4 };
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

    /// Framebuffer pixel count.
    pub fn pixels(&self) -> u64 {
        self.display.width as u64 * self.display.height as u64
    }

    /// Serializes to pretty JSON (the simulator's config-file format).
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).pretty()
    }

    /// Parses a JSON config file.
    ///
    /// # Errors
    ///
    /// Returns the underlying `attila-json` error on malformed input.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        attila_json::FromJson::from_json(&attila_json::parse(text)?)
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
            ("streamer.input_queue", self.streamer.input_queue),
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
        if self.fraggen.tile_size != crate::address::FB_TILE {
            return bad(format!(
                "fraggen.tile_size must equal the framebuffer tiling level ({})",
                crate::address::FB_TILE
            ));
        }
        if self.hz.block_size != crate::address::FB_TILE {
            return bad(format!(
                "hz.block_size must equal the framebuffer tiling level ({})",
                crate::address::FB_TILE
            ));
        }
        if self.memory.bytes_per_cycle_per_channel as u64 * self.memory.transfer_cycles
            != attila_mem::MAX_TRANSACTION as u64
        {
            return bad(format!(
                "memory.bytes_per_cycle_per_channel * transfer_cycles must equal the {}-byte transaction",
                attila_mem::MAX_TRANSACTION
            ));
        }
        if self.shader.group_size != 4 {
            return bad("shader.group_size must be 4 (fragment quads)");
        }
        if self.shader.max_inputs < self.shader.group_size as usize {
            return bad("shader.max_inputs must hold at least one group");
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

    /// Counts the scalar parameters in the configuration — the paper
    /// quotes "over 100 parameters"; this keeps us honest.
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

impl Default for GpuConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1_and_table2() {
        let c = GpuConfig::baseline();
        assert_eq!(c.streamer.input_queue, 48);
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
        assert_eq!(c.memory.bytes_per_cycle_per_channel, 16);
        assert_eq!(c.memory.system_bus_bytes_per_cycle, 8);
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
    fn over_100_parameters() {
        let c = GpuConfig::baseline();
        assert!(c.parameter_count() > 100, "only {} parameters", c.parameter_count());
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
        c.fraggen.tile_size = 16;
        assert!(c.validate().unwrap_err().to_string().contains("tile_size"));
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
        let mut c = GpuConfig::baseline();
        c.display.width = 0;
        assert!(c.validate().unwrap_err().to_string().contains("display"));
        let mut c = GpuConfig::baseline();
        c.clipper.input_queue = 0;
        assert!(c.validate().unwrap_err().to_string().contains("clipper.input_queue"));
        let mut c = GpuConfig::baseline();
        c.fraggen.tiles_per_cycle = 0;
        assert!(c.validate().unwrap_err().to_string().contains("zero-width signal"));
        let mut c = GpuConfig::baseline();
        c.texture.cache.size_bytes = 0;
        assert!(c.validate().unwrap_err().to_string().contains("texture.cache"));
        let mut c = GpuConfig::baseline();
        c.memory.queue_capacity = 0;
        assert!(c.validate().unwrap_err().to_string().contains("memory.queue_capacity"));
        let mut c = GpuConfig::baseline();
        c.memory.banks = 0;
        assert!(c.validate().unwrap_err().to_string().contains("memory.banks"));
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
    fn a_config_file_with_a_retired_key_still_loads() {
        // A key no field reads is ignored: files written before an option
        // was removed keep loading, whatever value they gave it.
        for retired in ["\"a_removed_option\": false", "\"on_fault\": \"Report\""] {
            let text = GpuConfig::baseline().to_json().replacen('{', &format!("{{{retired},"), 1);
            assert_eq!(GpuConfig::from_json(&text).unwrap(), GpuConfig::baseline(), "{retired}");
        }
    }

    #[test]
    fn memory_config_conversion() {
        let m = GpuConfig::baseline().memory;
        let cc = m.to_controller_config();
        assert_eq!(cc.channels, 4);
        assert_eq!(cc.timing.transfer_cycles, 4);
        assert_eq!(m.gpu_memory_bytes(), 64 * 1024 * 1024);
    }
}
