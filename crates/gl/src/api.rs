//! The ATTILA OpenGL library: API calls and the context state machine.
//!
//! The paper's framework implements "an important part of the OpenGL API"
//! (~200 calls) as a layered library/driver stack: "the top layer, the
//! library, manages the OpenGL state while the lower layer, the driver,
//! offers basic services as writing registers, sending commands,
//! configuring shaders and basic memory allocation" (§4).
//!
//! Here the API surface is the serializable [`GlCall`] enum — the unit
//! recorded by the GLInterceptor-style tracer — and [`GlContext`] is the
//! library+driver: it tracks GL state and translates each call into
//! Command Processor commands ([`GpuCommand`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use attila_core::commands::{DrawCall, GpuCommand, Primitive};
use attila_core::state::{AttributeBinding, CullMode, RenderState, ScissorState};
use attila_emu::asm;
use attila_emu::fragops as fo;
use attila_emu::raster::Viewport;
use attila_emu::texture as tex;
use attila_emu::vector::{Mat4, Vec4};
use attila_mem::BumpAllocator;

use crate::fixed::{self, FixedFunctionState};

/// Serializable compare function (mirrors the emulator's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum GlCompare {
    Never,
    Less,
    Equal,
    LEqual,
    Greater,
    NotEqual,
    GEqual,
    Always,
}

impl From<GlCompare> for fo::CompareFunc {
    fn from(c: GlCompare) -> Self {
        match c {
            GlCompare::Never => fo::CompareFunc::Never,
            GlCompare::Less => fo::CompareFunc::Less,
            GlCompare::Equal => fo::CompareFunc::Equal,
            GlCompare::LEqual => fo::CompareFunc::LEqual,
            GlCompare::Greater => fo::CompareFunc::Greater,
            GlCompare::NotEqual => fo::CompareFunc::NotEqual,
            GlCompare::GEqual => fo::CompareFunc::GEqual,
            GlCompare::Always => fo::CompareFunc::Always,
        }
    }
}

/// Serializable stencil op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum GlStencilOp {
    Keep,
    Zero,
    Replace,
    Incr,
    IncrWrap,
    Decr,
    DecrWrap,
    Invert,
}

impl From<GlStencilOp> for fo::StencilOp {
    fn from(o: GlStencilOp) -> Self {
        match o {
            GlStencilOp::Keep => fo::StencilOp::Keep,
            GlStencilOp::Zero => fo::StencilOp::Zero,
            GlStencilOp::Replace => fo::StencilOp::Replace,
            GlStencilOp::Incr => fo::StencilOp::Incr,
            GlStencilOp::IncrWrap => fo::StencilOp::IncrWrap,
            GlStencilOp::Decr => fo::StencilOp::Decr,
            GlStencilOp::DecrWrap => fo::StencilOp::DecrWrap,
            GlStencilOp::Invert => fo::StencilOp::Invert,
        }
    }
}

/// Serializable blend factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum GlBlendFactor {
    Zero,
    One,
    SrcColor,
    OneMinusSrcColor,
    DstColor,
    OneMinusDstColor,
    SrcAlpha,
    OneMinusSrcAlpha,
    DstAlpha,
    OneMinusDstAlpha,
    ConstColor,
    OneMinusConstColor,
    SrcAlphaSaturate,
}

impl From<GlBlendFactor> for fo::BlendFactor {
    fn from(f: GlBlendFactor) -> Self {
        match f {
            GlBlendFactor::Zero => fo::BlendFactor::Zero,
            GlBlendFactor::One => fo::BlendFactor::One,
            GlBlendFactor::SrcColor => fo::BlendFactor::SrcColor,
            GlBlendFactor::OneMinusSrcColor => fo::BlendFactor::OneMinusSrcColor,
            GlBlendFactor::DstColor => fo::BlendFactor::DstColor,
            GlBlendFactor::OneMinusDstColor => fo::BlendFactor::OneMinusDstColor,
            GlBlendFactor::SrcAlpha => fo::BlendFactor::SrcAlpha,
            GlBlendFactor::OneMinusSrcAlpha => fo::BlendFactor::OneMinusSrcAlpha,
            GlBlendFactor::DstAlpha => fo::BlendFactor::DstAlpha,
            GlBlendFactor::OneMinusDstAlpha => fo::BlendFactor::OneMinusDstAlpha,
            GlBlendFactor::ConstColor => fo::BlendFactor::ConstColor,
            GlBlendFactor::OneMinusConstColor => fo::BlendFactor::OneMinusConstColor,
            GlBlendFactor::SrcAlphaSaturate => fo::BlendFactor::SrcAlphaSaturate,
        }
    }
}

/// Serializable blend equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum GlBlendEq {
    Add,
    Subtract,
    ReverseSubtract,
    Min,
    Max,
}

impl From<GlBlendEq> for fo::BlendEquation {
    fn from(e: GlBlendEq) -> Self {
        match e {
            GlBlendEq::Add => fo::BlendEquation::Add,
            GlBlendEq::Subtract => fo::BlendEquation::Subtract,
            GlBlendEq::ReverseSubtract => fo::BlendEquation::ReverseSubtract,
            GlBlendEq::Min => fo::BlendEquation::Min,
            GlBlendEq::Max => fo::BlendEquation::Max,
        }
    }
}

/// Serializable primitive topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum GlPrimitive {
    Triangles,
    TriangleStrip,
    TriangleFan,
    Quads,
    QuadStrip,
}

impl From<GlPrimitive> for Primitive {
    fn from(p: GlPrimitive) -> Self {
        match p {
            GlPrimitive::Triangles => Primitive::Triangles,
            GlPrimitive::TriangleStrip => Primitive::TriangleStrip,
            GlPrimitive::TriangleFan => Primitive::TriangleFan,
            GlPrimitive::Quads => Primitive::Quads,
            GlPrimitive::QuadStrip => Primitive::QuadStrip,
        }
    }
}

/// Serializable texture format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum GlTexFormat {
    Rgba8,
    Rgb8,
    L8,
    A8,
    Dxt1,
    Dxt3,
}

impl From<GlTexFormat> for tex::TexFormat {
    fn from(f: GlTexFormat) -> Self {
        match f {
            GlTexFormat::Rgba8 => tex::TexFormat::Rgba8,
            GlTexFormat::Rgb8 => tex::TexFormat::Rgb8,
            GlTexFormat::L8 => tex::TexFormat::L8,
            GlTexFormat::A8 => tex::TexFormat::A8,
            GlTexFormat::Dxt1 => tex::TexFormat::Dxt1,
            GlTexFormat::Dxt3 => tex::TexFormat::Dxt3,
        }
    }
}

/// Serializable texture filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum GlTexFilter {
    Nearest,
    Bilinear,
    BilinearMipNearest,
    Trilinear,
}

impl From<GlTexFilter> for tex::TexFilter {
    fn from(f: GlTexFilter) -> Self {
        match f {
            GlTexFilter::Nearest => tex::TexFilter::Nearest,
            GlTexFilter::Bilinear => tex::TexFilter::Bilinear,
            GlTexFilter::BilinearMipNearest => tex::TexFilter::BilinearMipNearest,
            GlTexFilter::Trilinear => tex::TexFilter::Trilinear,
        }
    }
}

/// Serializable wrap mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum GlWrap {
    Repeat,
    Clamp,
    Mirror,
}

impl From<GlWrap> for tex::WrapMode {
    fn from(w: GlWrap) -> Self {
        match w {
            GlWrap::Repeat => tex::WrapMode::Repeat,
            GlWrap::Clamp => tex::WrapMode::Clamp,
            GlWrap::Mirror => tex::WrapMode::Mirror,
        }
    }
}

/// Capabilities toggled by `Enable`/`Disable`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum GlCap {
    DepthTest,
    StencilTest,
    Blend,
    CullFace,
    ScissorTest,
    AlphaTest,
    Fog,
    Texture2D,
}

/// Face culling selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum GlCullFace {
    Front,
    Back,
}

/// Matrix stack selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum GlMatrixMode {
    ModelView,
    Projection,
}

/// Clear-mask bits.
pub mod clear_mask {
    /// Clear the colour buffer.
    pub const COLOR: u32 = 1;
    /// Clear the depth buffer.
    pub const DEPTH: u32 = 2;
    /// Clear the stencil buffer.
    pub const STENCIL: u32 = 4;
}

/// One recorded OpenGL API call — the unit of the trace format.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum GlCall {
    // Buffer objects / vertex arrays.
    BufferData { id: u32, data: Vec<u8> },
    VertexAttribPointer { attr: u8, buffer: u32, components: u8, stride: u32, offset: u32 },
    DisableVertexAttrib { attr: u8 },

    // Textures.
    TexImage2D {
        id: u32,
        width: u32,
        height: u32,
        format: GlTexFormat,
        mipmapped: bool,
        /// Row-major RGBA bytes (4 per texel), converted/compressed by
        /// the driver.
        pixels: Vec<u8>,
    },
    TexFilter { id: u32, min: GlTexFilter },
    TexWrap { id: u32, s: GlWrap, t: GlWrap },
    TexMaxAniso { id: u32, samples: u32 },
    BindTexture { unit: u8, id: u32 },

    // Render to texture (paper §7 future work, implemented).
    RenderTexture { id: u32, width: u32, height: u32 },
    SetRenderTarget { texture: u32 },
    ResetRenderTarget,

    // ARB-style programs.
    ProgramString { id: u32, source: String },
    BindProgram { target_vertex: bool, id: u32 },
    UnbindPrograms,
    ProgramEnvParameter { target_vertex: bool, index: u32, value: [f32; 4] },

    // Fixed-function state.
    MatrixMode(GlMatrixMode),
    LoadIdentity,
    LoadMatrix { m: [[f32; 4]; 4] },
    MultMatrix { m: [[f32; 4]; 4] },
    Translate { x: f32, y: f32, z: f32 },
    RotateY { radians: f32 },
    RotateX { radians: f32 },
    ScaleM { x: f32, y: f32, z: f32 },
    Perspective { fovy_radians: f32, aspect: f32, near: f32, far: f32 },
    Ortho { left: f32, right: f32, bottom: f32, top: f32, near: f32, far: f32 },
    LookAt { eye: [f32; 3], center: [f32; 3], up: [f32; 3] },
    Color4f { r: f32, g: f32, b: f32, a: f32 },
    AlphaFunc { func: GlCompare, reference: f32 },
    Fog { color: [f32; 4], start: f32, end: f32 },

    // Raster state.
    Enable(GlCap),
    Disable(GlCap),
    DepthFunc(GlCompare),
    DepthMask(bool),
    StencilFunc { func: GlCompare, reference: u8, mask: u8 },
    StencilOpSet { sfail: GlStencilOp, dpfail: GlStencilOp, dppass: GlStencilOp },
    /// Separate back-face stencil (double-sided stencil; one-pass shadow
    /// volumes). `EnableTwoSidedStencil` activates it.
    StencilFuncBack { func: GlCompare, reference: u8, mask: u8 },
    StencilOpBack { sfail: GlStencilOp, dpfail: GlStencilOp, dppass: GlStencilOp },
    EnableTwoSidedStencil(bool),
    StencilMask(u8),
    BlendFunc { src: GlBlendFactor, dst: GlBlendFactor },
    BlendEquation(GlBlendEq),
    BlendColor { r: f32, g: f32, b: f32, a: f32 },
    ColorMask { r: bool, g: bool, b: bool, a: bool },
    CullFaceSet(GlCullFace),
    Scissor { x: u32, y: u32, width: u32, height: u32 },
    ViewportSet { x: u32, y: u32, width: u32, height: u32 },

    // Clears and drawing.
    ClearColor { r: f32, g: f32, b: f32, a: f32 },
    ClearDepth(f32),
    ClearStencil(u8),
    Clear { mask: u32 },
    DrawArrays { primitive: GlPrimitive, count: u32 },
    DrawElements { primitive: GlPrimitive, index_buffer: u32, count: u32 },
    SwapBuffers,
}

// JSON encodings matching serde's externally-tagged conventions, so traces
// captured before the hand-rolled codec replaced serde still replay.
attila_json::impl_json_enum_unit!(GlCompare {
    Never, Less, Equal, LEqual, Greater, NotEqual, GEqual, Always,
});
attila_json::impl_json_enum_unit!(GlStencilOp {
    Keep, Zero, Replace, Incr, IncrWrap, Decr, DecrWrap, Invert,
});
attila_json::impl_json_enum_unit!(GlBlendFactor {
    Zero, One, SrcColor, OneMinusSrcColor, DstColor, OneMinusDstColor,
    SrcAlpha, OneMinusSrcAlpha, DstAlpha, OneMinusDstAlpha, ConstColor,
    OneMinusConstColor, SrcAlphaSaturate,
});
attila_json::impl_json_enum_unit!(GlBlendEq { Add, Subtract, ReverseSubtract, Min, Max });
attila_json::impl_json_enum_unit!(GlPrimitive {
    Triangles, TriangleStrip, TriangleFan, Quads, QuadStrip,
});
attila_json::impl_json_enum_unit!(GlTexFormat { Rgba8, Rgb8, L8, A8, Dxt1, Dxt3 });
attila_json::impl_json_enum_unit!(GlTexFilter {
    Nearest, Bilinear, BilinearMipNearest, Trilinear,
});
attila_json::impl_json_enum_unit!(GlWrap { Repeat, Clamp, Mirror });
attila_json::impl_json_enum_unit!(GlCap {
    DepthTest, StencilTest, Blend, CullFace, ScissorTest, AlphaTest, Fog, Texture2D,
});
attila_json::impl_json_enum_unit!(GlCullFace { Front, Back });
attila_json::impl_json_enum_unit!(GlMatrixMode { ModelView, Projection });
attila_json::impl_json_enum!(GlCall {
    units { LoadIdentity, UnbindPrograms, ResetRenderTarget, SwapBuffers }
    newtypes {
        MatrixMode(GlMatrixMode),
        Enable(GlCap),
        Disable(GlCap),
        DepthFunc(GlCompare),
        DepthMask(bool),
        EnableTwoSidedStencil(bool),
        StencilMask(u8),
        BlendEquation(GlBlendEq),
        CullFaceSet(GlCullFace),
        ClearDepth(f32),
        ClearStencil(u8),
    }
    structs {
        BufferData { id, data },
        VertexAttribPointer { attr, buffer, components, stride, offset },
        DisableVertexAttrib { attr },
        TexImage2D { id, width, height, format, mipmapped, pixels },
        TexFilter { id, min },
        TexWrap { id, s, t },
        TexMaxAniso { id, samples },
        BindTexture { unit, id },
        RenderTexture { id, width, height },
        SetRenderTarget { texture },
        ProgramString { id, source },
        BindProgram { target_vertex, id },
        ProgramEnvParameter { target_vertex, index, value },
        LoadMatrix { m },
        MultMatrix { m },
        Translate { x, y, z },
        RotateY { radians },
        RotateX { radians },
        ScaleM { x, y, z },
        Perspective { fovy_radians, aspect, near, far },
        Ortho { left, right, bottom, top, near, far },
        LookAt { eye, center, up },
        Color4f { r, g, b, a },
        AlphaFunc { func, reference },
        Fog { color, start, end },
        StencilFunc { func, reference, mask },
        StencilOpSet { sfail, dpfail, dppass },
        StencilFuncBack { func, reference, mask },
        StencilOpBack { sfail, dpfail, dppass },
        BlendFunc { src, dst },
        BlendColor { r, g, b, a },
        ColorMask { r, g, b, a },
        Scissor { x, y, width, height },
        ViewportSet { x, y, width, height },
        ClearColor { r, g, b, a },
        Clear { mask },
        DrawArrays { primitive, count },
        DrawElements { primitive, index_buffer, count },
    }
});

/// A texture object's stored definition.
#[derive(Debug, Clone)]
struct TextureObject {
    desc: tex::TextureDesc,
}

/// Errors raised by the GL layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GlError {
    /// Reference to an object id that was never defined.
    UnknownObject(&'static str, u32),
    /// A shader failed to assemble.
    BadProgram(String),
    /// The driver's GPU memory heap is exhausted.
    OutOfMemory,
}

impl std::fmt::Display for GlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GlError::UnknownObject(kind, id) => write!(f, "unknown {kind} object {id}"),
            GlError::BadProgram(e) => write!(f, "program failed to assemble: {e}"),
            GlError::OutOfMemory => write!(f, "GPU memory heap exhausted"),
        }
    }
}

impl std::error::Error for GlError {}

/// Driver memory map: the colour buffer base address.
pub const COLOR_BUFFER_BASE: u64 = 0x0010_0000;
/// Driver memory map: the depth/stencil buffer base address.
pub const Z_BUFFER_BASE: u64 = 0x0080_0000;
/// Driver memory map: start of the object heap.
pub const HEAP_BASE: u64 = 0x0100_0000;

/// The OpenGL context: library state + driver, producing a
/// [`GpuCommand`] stream.
pub struct GlContext {
    width: u32,
    height: u32,
    commands: Vec<GpuCommand>,
    alloc: BumpAllocator,

    buffers: BTreeMap<u32, (u64, u32)>,
    textures: BTreeMap<u32, TextureObject>,
    /// Render-target textures: (colour base, private z base, w, h).
    render_targets: BTreeMap<u32, (u64, u64, u32, u32)>,
    /// The bound render-target texture, if any.
    current_target: Option<u32>,
    programs: BTreeMap<u32, Arc<attila_emu::Program>>,

    attributes: Vec<Option<AttributeBinding>>,
    bound_textures: Vec<Option<u32>>,
    bound_vp: Option<u32>,
    bound_fp: Option<u32>,
    vp_constants: Vec<Vec4>,
    fp_constants: Vec<Vec4>,

    viewport: Viewport,
    scissor: ScissorState,
    depth: fo::DepthState,
    stencil: fo::StencilState,
    stencil_back: fo::StencilState,
    two_sided_stencil: bool,
    blend: fo::BlendState,
    cull_enabled: bool,
    cull_face: GlCullFace,

    fixed: FixedFunctionState,
    matrix_mode: GlMatrixMode,

    clear_color: [f32; 4],
    clear_depth: f32,
    clear_stencil: u8,

    state_dirty: bool,
    frames: u64,
    draw_calls: u64,
    /// Hot start: draws are skipped while `frames < skip_frames`.
    skip_draws_until_frame: u64,
}

impl GlContext {
    /// Creates a context rendering to a `width`×`height` framebuffer.
    pub fn new(width: u32, height: u32) -> Self {
        // Default to a 64 MiB device (the baseline GpuConfig); callers
        // with other memory sizes use `set_heap_limit`.
        Self::with_memory(width, height, 64 * 1024 * 1024)
    }

    /// Creates a context for a device with `memory_bytes` of GPU memory;
    /// the driver heap ends there and allocation failures surface as
    /// [`GlError::OutOfMemory`] instead of out-of-range addresses.
    ///
    /// # Panics
    ///
    /// Panics if the framebuffer does not fit the driver's fixed memory
    /// map (colour at 1 MiB, depth at 8 MiB, heap at 16 MiB).
    pub fn with_memory(width: u32, height: u32, memory_bytes: u64) -> Self {
        let surface = attila_core::address::surface_bytes(width, height);
        assert!(
            COLOR_BUFFER_BASE + surface <= Z_BUFFER_BASE,
            "colour buffer ({surface} B at {width}x{height}) overflows the driver memory map"
        );
        assert!(
            Z_BUFFER_BASE + surface <= HEAP_BASE,
            "depth buffer overflows the driver memory map"
        );
        assert!(memory_bytes > HEAP_BASE, "device smaller than the driver memory map");
        GlContext {
            width,
            height,
            commands: Vec::new(),
            alloc: BumpAllocator::new(HEAP_BASE, memory_bytes),
            buffers: BTreeMap::new(),
            textures: BTreeMap::new(),
            render_targets: BTreeMap::new(),
            current_target: None,
            programs: BTreeMap::new(),
            attributes: vec![None; 16],
            bound_textures: vec![None; 16],
            bound_vp: None,
            bound_fp: None,
            vp_constants: vec![Vec4::ZERO; 256],
            fp_constants: vec![Vec4::ZERO; 256],
            viewport: Viewport::new(width, height),
            scissor: ScissorState::default(),
            depth: fo::DepthState::default(),
            stencil: fo::StencilState::default(),
            stencil_back: fo::StencilState::default(),
            two_sided_stencil: false,
            blend: fo::BlendState::default(),
            cull_enabled: false,
            cull_face: GlCullFace::Back,
            fixed: FixedFunctionState::default(),
            matrix_mode: GlMatrixMode::ModelView,
            clear_color: [0.0, 0.0, 0.0, 1.0],
            clear_depth: 1.0,
            clear_stencil: 0,
            state_dirty: true,
            frames: 0,
            draw_calls: 0,
            skip_draws_until_frame: 0,
        }
    }

    /// Enables hot start: draw commands are skipped (state changes and
    /// buffer writes still applied) until `frame` frames have swapped —
    /// the paper's technique for starting simulation at any frame of a
    /// trace.
    pub fn set_hot_start(&mut self, frame: u64) {
        self.skip_draws_until_frame = frame;
    }

    /// Frames swapped so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Draw calls issued (after hot-start skipping).
    pub fn draw_calls(&self) -> u64 {
        self.draw_calls
    }

    /// Takes the Command Processor stream accumulated so far.
    pub fn take_commands(&mut self) -> Vec<GpuCommand> {
        std::mem::take(&mut self.commands)
    }

    /// GPU memory (bytes) the driver has allocated from its heap.
    pub fn heap_used(&self) -> u64 {
        (u64::MAX / 2 - HEAP_BASE) - self.alloc.remaining()
    }

    /// Applies one API call.
    ///
    /// # Errors
    ///
    /// Returns a [`GlError`] for unknown ids, bad programs or heap
    /// exhaustion.
    pub fn apply(&mut self, call: &GlCall) -> Result<(), GlError> {
        match call {
            GlCall::BufferData { id, data } => {
                let addr = self
                    .alloc
                    .alloc(data.len().max(4) as u64, 256)
                    .ok_or(GlError::OutOfMemory)?;
                // Buffer uploads are far below 4 GiB.
                self.buffers.insert(*id, (addr, data.len() as u32));
                self.commands.push(GpuCommand::WriteBuffer {
                    address: addr,
                    data: Arc::new(data.clone()),
                });
            }
            GlCall::VertexAttribPointer { attr, buffer, components, stride, offset } => {
                let (base, _) = *self
                    .buffers
                    .get(buffer)
                    .ok_or(GlError::UnknownObject("buffer", *buffer))?;
                self.attributes[*attr as usize] = Some(AttributeBinding {
                    address: base + *offset as u64,
                    stride: *stride,
                    components: *components as u32,
                    default_w: 1.0,
                });
                self.state_dirty = true;
            }
            GlCall::DisableVertexAttrib { attr } => {
                self.attributes[*attr as usize] = None;
                self.state_dirty = true;
            }
            GlCall::TexImage2D { id, width, height, format, mipmapped, pixels } => {
                self.tex_image_2d(*id, *width, *height, *format, *mipmapped, pixels)?;
            }
            GlCall::TexFilter { id, min } => {
                let t = self
                    .textures
                    .get_mut(id)
                    .ok_or(GlError::UnknownObject("texture", *id))?;
                t.desc.min_filter = (*min).into();
                self.state_dirty = true;
            }
            GlCall::TexWrap { id, s, t } => {
                let o = self
                    .textures
                    .get_mut(id)
                    .ok_or(GlError::UnknownObject("texture", *id))?;
                o.desc.wrap_s = (*s).into();
                o.desc.wrap_t = (*t).into();
                self.state_dirty = true;
            }
            GlCall::TexMaxAniso { id, samples } => {
                let t = self
                    .textures
                    .get_mut(id)
                    .ok_or(GlError::UnknownObject("texture", *id))?;
                t.desc.max_aniso = (*samples).max(1);
                self.state_dirty = true;
            }
            GlCall::BindTexture { unit, id } => {
                if !self.textures.contains_key(id) {
                    return Err(GlError::UnknownObject("texture", *id));
                }
                self.bound_textures[*unit as usize] = Some(*id);
                self.state_dirty = true;
            }
            GlCall::RenderTexture { id, width, height } => {
                // Colour surface in framebuffer layout + a private depth
                // buffer, both heap-allocated.
                let color_len = attila_core::address::surface_bytes(*width, *height);
                let color = self
                    .alloc
                    .alloc(color_len, 256)
                    .ok_or(GlError::OutOfMemory)?;
                let z = self.alloc.alloc(color_len, 256).ok_or(GlError::OutOfMemory)?;
                let desc = tex::TextureDesc::new_render_target(*width, *height, color);
                self.textures.insert(*id, TextureObject { desc });
                self.render_targets.insert(*id, (color, z, *width, *height));
                self.state_dirty = true;
            }
            GlCall::SetRenderTarget { texture } => {
                if !self.render_targets.contains_key(texture) {
                    return Err(GlError::UnknownObject("render target", *texture));
                }
                self.current_target = Some(*texture);
                self.state_dirty = true;
            }
            GlCall::ResetRenderTarget => {
                self.current_target = None;
                self.state_dirty = true;
            }
            GlCall::ProgramString { id, source } => {
                let program =
                    asm::assemble(source).map_err(|e| GlError::BadProgram(e.to_string()))?;
                self.programs.insert(*id, Arc::new(program));
                self.commands.push(GpuCommand::LoadPrograms);
            }
            GlCall::BindProgram { target_vertex, id } => {
                if !self.programs.contains_key(id) {
                    return Err(GlError::UnknownObject("program", *id));
                }
                if *target_vertex {
                    self.bound_vp = Some(*id);
                } else {
                    self.bound_fp = Some(*id);
                }
                self.state_dirty = true;
            }
            GlCall::UnbindPrograms => {
                self.bound_vp = None;
                self.bound_fp = None;
                self.state_dirty = true;
            }
            GlCall::ProgramEnvParameter { target_vertex, index, value } => {
                let v = Vec4::new(value[0], value[1], value[2], value[3]);
                if *target_vertex {
                    self.vp_constants[*index as usize] = v;
                } else {
                    self.fp_constants[*index as usize] = v;
                }
                self.state_dirty = true;
            }
            GlCall::MatrixMode(m) => self.matrix_mode = *m,
            GlCall::LoadIdentity => self.with_matrix(|_| Mat4::IDENTITY),
            GlCall::LoadMatrix { m } => {
                let m = cols_to_mat(m);
                self.with_matrix(|_| m);
            }
            GlCall::MultMatrix { m } => {
                let m = cols_to_mat(m);
                self.with_matrix(|cur| cur.mul_mat(&m));
            }
            GlCall::Translate { x, y, z } => {
                let m = Mat4::translation(*x, *y, *z);
                self.with_matrix(|cur| cur.mul_mat(&m));
            }
            GlCall::RotateY { radians } => {
                let m = Mat4::rotation_y(*radians);
                self.with_matrix(|cur| cur.mul_mat(&m));
            }
            GlCall::RotateX { radians } => {
                let m = Mat4::rotation_x(*radians);
                self.with_matrix(|cur| cur.mul_mat(&m));
            }
            GlCall::ScaleM { x, y, z } => {
                let m = Mat4::scale(*x, *y, *z);
                self.with_matrix(|cur| cur.mul_mat(&m));
            }
            GlCall::Perspective { fovy_radians, aspect, near, far } => {
                let m = Mat4::perspective(*fovy_radians, *aspect, *near, *far);
                self.with_matrix(|cur| cur.mul_mat(&m));
            }
            GlCall::Ortho { left, right, bottom, top, near, far } => {
                let m = Mat4::ortho(*left, *right, *bottom, *top, *near, *far);
                self.with_matrix(|cur| cur.mul_mat(&m));
            }
            GlCall::LookAt { eye, center, up } => {
                let m = Mat4::look_at(
                    Vec4::point(eye[0], eye[1], eye[2]),
                    Vec4::point(center[0], center[1], center[2]),
                    Vec4::new(up[0], up[1], up[2], 0.0),
                );
                self.with_matrix(|cur| cur.mul_mat(&m));
            }
            GlCall::Color4f { r, g, b, a } => {
                self.fixed.color = Vec4::new(*r, *g, *b, *a);
                self.state_dirty = true;
            }
            GlCall::AlphaFunc { func, reference } => {
                self.fixed.alpha_func = (*func).into();
                self.fixed.alpha_ref = *reference;
                self.state_dirty = true;
            }
            GlCall::Fog { color, start, end } => {
                self.fixed.fog_color = Vec4::new(color[0], color[1], color[2], color[3]);
                self.fixed.fog_start = *start;
                self.fixed.fog_end = *end;
                self.state_dirty = true;
            }
            GlCall::Enable(cap) => self.set_cap(*cap, true),
            GlCall::Disable(cap) => self.set_cap(*cap, false),
            GlCall::DepthFunc(f) => {
                self.depth.func = (*f).into();
                self.state_dirty = true;
            }
            GlCall::DepthMask(w) => {
                self.depth.write = *w;
                self.state_dirty = true;
            }
            GlCall::StencilFunc { func, reference, mask } => {
                self.stencil.func = (*func).into();
                self.stencil.reference = *reference;
                self.stencil.read_mask = *mask;
                self.state_dirty = true;
            }
            GlCall::StencilOpSet { sfail, dpfail, dppass } => {
                self.stencil.sfail = (*sfail).into();
                self.stencil.dpfail = (*dpfail).into();
                self.stencil.dppass = (*dppass).into();
                self.state_dirty = true;
            }
            GlCall::StencilFuncBack { func, reference, mask } => {
                self.stencil_back.func = (*func).into();
                self.stencil_back.reference = *reference;
                self.stencil_back.read_mask = *mask;
                self.state_dirty = true;
            }
            GlCall::StencilOpBack { sfail, dpfail, dppass } => {
                self.stencil_back.sfail = (*sfail).into();
                self.stencil_back.dpfail = (*dpfail).into();
                self.stencil_back.dppass = (*dppass).into();
                self.state_dirty = true;
            }
            GlCall::EnableTwoSidedStencil(on) => {
                self.two_sided_stencil = *on;
                self.state_dirty = true;
            }
            GlCall::StencilMask(m) => {
                self.stencil.write_mask = *m;
                self.stencil_back.write_mask = *m;
                self.state_dirty = true;
            }
            GlCall::BlendFunc { src, dst } => {
                self.blend.src_factor = (*src).into();
                self.blend.dst_factor = (*dst).into();
                self.state_dirty = true;
            }
            GlCall::BlendEquation(e) => {
                self.blend.equation = (*e).into();
                self.state_dirty = true;
            }
            GlCall::BlendColor { r, g, b, a } => {
                self.blend.constant = Vec4::new(*r, *g, *b, *a);
                self.state_dirty = true;
            }
            GlCall::ColorMask { r, g, b, a } => {
                self.blend.color_mask = [*r, *g, *b, *a];
                self.state_dirty = true;
            }
            GlCall::CullFaceSet(f) => {
                self.cull_face = *f;
                self.state_dirty = true;
            }
            GlCall::Scissor { x, y, width, height } => {
                self.scissor.x = *x;
                self.scissor.y = *y;
                self.scissor.width = *width;
                self.scissor.height = *height;
                self.state_dirty = true;
            }
            GlCall::ViewportSet { x, y, width, height } => {
                self.viewport = Viewport { x: *x, y: *y, width: *width, height: *height };
                self.state_dirty = true;
            }
            GlCall::ClearColor { r, g, b, a } => self.clear_color = [*r, *g, *b, *a],
            GlCall::ClearDepth(d) => self.clear_depth = *d,
            GlCall::ClearStencil(s) => self.clear_stencil = *s,
            GlCall::Clear { mask } => {
                // Clears go through the current state's buffer addresses.
                self.flush_state();
                if mask & clear_mask::COLOR != 0 {
                    let c = fo::pack_rgba8(Vec4::new(
                        self.clear_color[0],
                        self.clear_color[1],
                        self.clear_color[2],
                        self.clear_color[3],
                    ));
                    self.commands.push(GpuCommand::FastClearColor(u32::from_le_bytes(c)));
                }
                if mask & (clear_mask::DEPTH | clear_mask::STENCIL) != 0 {
                    let word = fo::pack_depth_stencil(
                        fo::quantize_depth(self.clear_depth),
                        self.clear_stencil,
                    );
                    self.commands.push(GpuCommand::FastClearZStencil(word));
                }
            }
            GlCall::DrawArrays { primitive, count } => {
                self.draw(*primitive, *count, None)?;
            }
            GlCall::DrawElements { primitive, index_buffer, count } => {
                let (base, _) = *self
                    .buffers
                    .get(index_buffer)
                    .ok_or(GlError::UnknownObject("buffer", *index_buffer))?;
                self.draw(*primitive, *count, Some(base))?;
            }
            GlCall::SwapBuffers => {
                self.commands.push(GpuCommand::Swap);
                self.frames += 1;
            }
        }
        Ok(())
    }

    fn set_cap(&mut self, cap: GlCap, on: bool) {
        match cap {
            GlCap::DepthTest => self.depth.enabled = on,
            GlCap::StencilTest => self.stencil.enabled = on,
            GlCap::Blend => self.blend.enabled = on,
            GlCap::CullFace => self.cull_enabled = on,
            GlCap::ScissorTest => self.scissor.enabled = on,
            GlCap::AlphaTest => self.fixed.alpha_test = on,
            GlCap::Fog => self.fixed.fog = on,
            GlCap::Texture2D => self.fixed.texture = on,
        }
        self.state_dirty = true;
    }

    fn with_matrix(&mut self, f: impl FnOnce(Mat4) -> Mat4) {
        let m = match self.matrix_mode {
            GlMatrixMode::ModelView => &mut self.fixed.modelview,
            GlMatrixMode::Projection => &mut self.fixed.projection,
        };
        *m = f(*m);
        self.state_dirty = true;
    }

    fn tex_image_2d(
        &mut self,
        id: u32,
        width: u32,
        height: u32,
        format: GlTexFormat,
        mipmapped: bool,
        pixels: &[u8],
    ) -> Result<(), GlError> {
        assert_eq!(
            pixels.len(),
            (width * height * 4) as usize,
            "TexImage2D expects row-major RGBA bytes"
        );
        let as_vec4: Vec<Vec4> = pixels
            .chunks_exact(4)
            .map(|p| fo::unpack_rgba8([p[0], p[1], p[2], p[3]]))
            .collect();
        let fmt: tex::TexFormat = format.into();
        let mut desc = tex::TextureDesc::new_2d(width, height, fmt, 0);
        if mipmapped {
            desc = desc.with_full_mips();
        }
        // Encode every mip level (box filter) into the device layout.
        let mut encoded = Vec::new();
        let mut level_pixels = as_vec4;
        let (mut w, mut h) = (width, height);
        for level in 0..desc.mip_levels {
            if level > 0 {
                let nw = (w / 2).max(1);
                let nh = (h / 2).max(1);
                let mut next = Vec::with_capacity((nw * nh) as usize);
                for y in 0..nh {
                    for x in 0..nw {
                        let x0 = (x * 2).min(w - 1);
                        let y0 = (y * 2).min(h - 1);
                        let x1 = (x * 2 + 1).min(w - 1);
                        let y1 = (y * 2 + 1).min(h - 1);
                        let p = (level_pixels[(y0 * w + x0) as usize]
                            + level_pixels[(y0 * w + x1) as usize]
                            + level_pixels[(y1 * w + x0) as usize]
                            + level_pixels[(y1 * w + x1) as usize])
                            / 4.0;
                        next.push(p);
                    }
                }
                level_pixels = next;
                w = nw;
                h = nh;
            }
            encoded.extend(tex::encode_tiled(fmt, w, h, &level_pixels));
        }
        assert_eq!(
            encoded.len() as u64,
            desc.total_bytes(),
            "driver encoding must match the sampler's level layout"
        );
        let addr =
            self.alloc.alloc(encoded.len().max(4) as u64, 256).ok_or(GlError::OutOfMemory)?;
        desc.base_address = addr;
        self.commands
            .push(GpuCommand::WriteBuffer { address: addr, data: Arc::new(encoded) });
        self.textures.insert(id, TextureObject { desc });
        self.state_dirty = true;
        Ok(())
    }

    /// Builds the RenderState snapshot for the current GL state.
    fn build_state(&mut self) -> Result<RenderState, GlError> {
        // Programs: bound ARB programs, or driver-generated fixed
        // function (with alpha test / fog folded in, per the paper).
        let (vp, fp, extra_vp_consts, extra_fp_consts) = if let (Some(v), Some(f)) =
            (self.bound_vp, self.bound_fp)
        {
            let vp = Arc::clone(self.programs.get(&v).expect("validated at bind"));
            let mut fp = Arc::clone(self.programs.get(&f).expect("validated at bind"));
            if self.fixed.alpha_test {
                fp = fixed::inject_alpha_test(&fp, self.fixed.alpha_func);
            }
            (vp, fp, Vec::new(), Vec::new())
        } else {
            fixed::generate_programs(&self.fixed)
        };

        let mut vp_constants = self.vp_constants.clone();
        let mut fp_constants = self.fp_constants.clone();
        for (i, v) in extra_vp_consts {
            vp_constants[i] = v;
        }
        for (i, v) in extra_fp_consts {
            fp_constants[i] = v;
        }
        if self.fixed.alpha_test {
            fp_constants[fixed::ALPHA_REF_CONSTANT] =
                Vec4::splat(self.fixed.alpha_ref);
        }

        let mut textures = vec![None; 16];
        for (i, slot) in self.bound_textures.iter().enumerate() {
            if let Some(id) = slot {
                textures[i] = Some(
                    self.textures
                        .get(id)
                        .ok_or(GlError::UnknownObject("texture", *id))?
                        .desc
                        .clone(),
                );
            }
        }

        let varying_count = fp
            .instructions()
            .iter()
            .flat_map(|i| i.srcs.iter().flatten())
            .filter(|s| s.reg.bank == attila_emu::isa::Bank::Input)
            .map(|s| s.reg.index as u32 + 1)
            .max()
            .unwrap_or(0)
            .max(1);

        let (color_buffer, z_buffer, target_width, target_height) = match self.current_target {
            Some(id) => {
                let (c, z, w, h) = self.render_targets[&id];
                (c, z, w, h)
            }
            None => (COLOR_BUFFER_BASE, Z_BUFFER_BASE, self.width, self.height),
        };
        Ok(RenderState {
            viewport: self.viewport,
            scissor: self.scissor,
            cull: if self.cull_enabled {
                match self.cull_face {
                    GlCullFace::Front => CullMode::Front,
                    GlCullFace::Back => CullMode::Back,
                }
            } else {
                CullMode::None
            },
            depth: self.depth,
            stencil: self.stencil,
            stencil_back: self.two_sided_stencil.then(|| {
                let mut back = self.stencil_back;
                back.enabled = self.stencil.enabled;
                back
            }),
            blend: self.blend,
            vertex_program: vp,
            fragment_program: fp,
            vertex_constants: Arc::new(vp_constants),
            fragment_constants: Arc::new(fp_constants),
            textures: Arc::new(textures),
            attributes: Arc::new(self.attributes.clone()),
            varying_count,
            color_buffer,
            z_buffer,
            target_width,
            target_height,
        })
    }

    fn flush_state(&mut self) {
        if self.state_dirty {
            if let Ok(state) = self.build_state() {
                self.commands.push(GpuCommand::SetState(Box::new(state)));
                self.state_dirty = false;
            }
        }
    }

    fn draw(
        &mut self,
        primitive: GlPrimitive,
        count: u32,
        index_buffer: Option<u64>,
    ) -> Result<(), GlError> {
        if self.frames < self.skip_draws_until_frame {
            // Hot start: "the driver skips over the draw commands and only
            // sends state changes and buffer writes to the simulator".
            return Ok(());
        }
        self.state_dirty = true; // fixed-function constants may change per draw
        self.flush_state();
        self.commands.push(GpuCommand::Draw(DrawCall {
            primitive: primitive.into(),
            vertex_count: count,
            index_buffer,
        }));
        self.draw_calls += 1;
        Ok(())
    }
}

impl std::fmt::Debug for GlContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlContext")
            .field("size", &(self.width, self.height))
            .field("buffers", &self.buffers.len())
            .field("textures", &self.textures.len())
            .field("programs", &self.programs.len())
            .field("frames", &self.frames)
            .finish()
    }
}

fn cols_to_mat(m: &[[f32; 4]; 4]) -> Mat4 {
    Mat4::from_cols(
        Vec4::from(m[0]),
        Vec4::from(m[1]),
        Vec4::from(m[2]),
        Vec4::from(m[3]),
    )
}

/// Compiles a call list into a Command Processor stream.
///
/// # Errors
///
/// Propagates the first [`GlError`] raised by any call.
pub fn compile(width: u32, height: u32, calls: &[GlCall]) -> Result<Vec<GpuCommand>, GlError> {
    let mut ctx = GlContext::new(width, height);
    for call in calls {
        ctx.apply(call)?;
    }
    Ok(ctx.take_commands())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_upload_emits_write() {
        let mut ctx = GlContext::new(64, 64);
        ctx.apply(&GlCall::BufferData { id: 1, data: vec![1, 2, 3, 4] }).unwrap();
        let cmds = ctx.take_commands();
        assert_eq!(cmds.len(), 1);
        assert!(matches!(&cmds[0], GpuCommand::WriteBuffer { address, data }
            if *address >= HEAP_BASE && data.len() == 4));
    }

    #[test]
    fn unknown_buffer_is_an_error() {
        let mut ctx = GlContext::new(64, 64);
        let err = ctx
            .apply(&GlCall::VertexAttribPointer {
                attr: 0,
                buffer: 9,
                components: 4,
                stride: 16,
                offset: 0,
            })
            .unwrap_err();
        assert_eq!(err, GlError::UnknownObject("buffer", 9));
    }

    #[test]
    fn clear_packs_color_and_depth() {
        let mut ctx = GlContext::new(64, 64);
        ctx.apply(&GlCall::ClearColor { r: 1.0, g: 0.0, b: 0.0, a: 1.0 }).unwrap();
        ctx.apply(&GlCall::ClearDepth(1.0)).unwrap();
        ctx.apply(&GlCall::Clear { mask: clear_mask::COLOR | clear_mask::DEPTH }).unwrap();
        let cmds = ctx.take_commands();
        let clears: Vec<_> = cmds
            .iter()
            .filter(|c| {
                matches!(c, GpuCommand::FastClearColor(_) | GpuCommand::FastClearZStencil(_))
            })
            .collect();
        assert_eq!(clears.len(), 2);
        if let GpuCommand::FastClearColor(w) = clears[0] {
            assert_eq!(w.to_le_bytes(), [255, 0, 0, 255]);
        } else {
            panic!("first clear should be colour");
        }
    }

    #[test]
    fn draw_emits_state_then_draw() {
        let mut ctx = GlContext::new(64, 64);
        ctx.apply(&GlCall::BufferData { id: 1, data: vec![0; 48] }).unwrap();
        ctx.apply(&GlCall::VertexAttribPointer {
            attr: 0,
            buffer: 1,
            components: 4,
            stride: 16,
            offset: 0,
        })
        .unwrap();
        ctx.apply(&GlCall::DrawArrays { primitive: GlPrimitive::Triangles, count: 3 }).unwrap();
        let cmds = ctx.take_commands();
        let kinds: Vec<_> = cmds.iter().map(|c| c.mnemonic()).collect();
        assert_eq!(kinds, vec!["WRITE", "STATE", "DRAW"]);
        if let GpuCommand::SetState(s) = &cmds[1] {
            assert!(s.attributes[0].is_some());
            assert_eq!(s.color_buffer, COLOR_BUFFER_BASE);
        }
    }

    #[test]
    fn hot_start_skips_draws_but_keeps_state() {
        let mut ctx = GlContext::new(64, 64);
        ctx.set_hot_start(1); // skip frame 0 draws
        ctx.apply(&GlCall::BufferData { id: 1, data: vec![0; 48] }).unwrap();
        ctx.apply(&GlCall::DrawArrays { primitive: GlPrimitive::Triangles, count: 3 }).unwrap();
        ctx.apply(&GlCall::SwapBuffers).unwrap();
        ctx.apply(&GlCall::DrawArrays { primitive: GlPrimitive::Triangles, count: 3 }).unwrap();
        ctx.apply(&GlCall::SwapBuffers).unwrap();
        let cmds = ctx.take_commands();
        let draws = cmds.iter().filter(|c| matches!(c, GpuCommand::Draw(_))).count();
        let writes = cmds.iter().filter(|c| matches!(c, GpuCommand::WriteBuffer { .. })).count();
        assert_eq!(draws, 1, "frame-0 draw skipped");
        assert_eq!(writes, 1, "uploads always applied");
        assert_eq!(ctx.draw_calls(), 1);
    }

    #[test]
    fn texture_upload_encodes_and_allocates() {
        let mut ctx = GlContext::new(64, 64);
        let pixels = vec![128u8; 8 * 8 * 4];
        ctx.apply(&GlCall::TexImage2D {
            id: 7,
            width: 8,
            height: 8,
            format: GlTexFormat::Rgba8,
            mipmapped: true,
            pixels,
        })
        .unwrap();
        ctx.apply(&GlCall::BindTexture { unit: 0, id: 7 }).unwrap();
        let cmds = ctx.take_commands();
        assert!(matches!(&cmds[0], GpuCommand::WriteBuffer { data, .. } if !data.is_empty()));
        assert!(ctx.heap_used() > 0);
    }

    #[test]
    fn program_binding_affects_state() {
        let mut ctx = GlContext::new(64, 64);
        ctx.apply(&GlCall::ProgramString {
            id: 1,
            source: "!!ATTILAvp1.0\nMOV o0, i0;\nEND;".into(),
        })
        .unwrap();
        ctx.apply(&GlCall::ProgramString {
            id: 2,
            source: "!!ATTILAfp1.0\nMOV o0, i0;\nEND;".into(),
        })
        .unwrap();
        ctx.apply(&GlCall::BindProgram { target_vertex: true, id: 1 }).unwrap();
        ctx.apply(&GlCall::BindProgram { target_vertex: false, id: 2 }).unwrap();
        ctx.apply(&GlCall::DrawArrays { primitive: GlPrimitive::Triangles, count: 3 }).unwrap();
        let cmds = ctx.take_commands();
        let state = cmds.iter().find_map(|c| match c {
            GpuCommand::SetState(s) => Some(s),
            _ => None,
        });
        let state = state.expect("state emitted");
        assert_eq!(state.vertex_program.len(), 2);
        assert_eq!(state.varying_count, 1);
    }

    #[test]
    fn bad_program_reports_error() {
        let mut ctx = GlContext::new(64, 64);
        let err = ctx
            .apply(&GlCall::ProgramString { id: 1, source: "!!ATTILAvp1.0\nBOGUS;\nEND;".into() })
            .unwrap_err();
        assert!(matches!(err, GlError::BadProgram(_)));
    }
}
