//! Render state registers.
//!
//! The Command Processor's register file: everything that parametrizes a
//! draw batch. State updates pipeline with rendering, so each batch
//! carries an immutable snapshot (`Arc<RenderState>`) down the pipeline —
//! two batches with different state can be in flight at once (the paper
//! pipelines one batch in the geometry phase with one in the fragment
//! phase).

use std::sync::Arc;

use attila_emu::fragops::{BlendState, DepthState, StencilState};
use attila_emu::isa::limits;
use attila_emu::raster::Viewport;
use attila_emu::texture::TextureDesc;
use attila_emu::vector::Vec4;
use attila_emu::Program;

/// Face culling modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CullMode {
    /// No culling.
    #[default]
    None,
    /// Cull front-facing triangles.
    Front,
    /// Cull back-facing triangles.
    Back,
}

/// A vertex attribute stream binding (vertex arrays / buffer objects).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttributeBinding {
    /// GPU memory address of element 0.
    pub address: u64,
    /// Byte stride between consecutive elements.
    pub stride: u32,
    /// Components per element (1–4, stored as f32).
    pub components: u32,
    /// Value of the missing w (and z) components (OpenGL: w=1, z=0).
    pub default_w: f32,
}

impl AttributeBinding {
    /// Bytes occupied by one element.
    pub fn element_bytes(&self) -> u32 {
        self.components * 4
    }

    /// Address of element `i`.
    pub fn element_address(&self, i: u32) -> u64 {
        self.address + i as u64 * self.stride as u64
    }
}

/// The scissor rectangle test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScissorState {
    /// Whether the test is enabled.
    pub enabled: bool,
    /// Left edge.
    pub x: u32,
    /// Bottom edge.
    pub y: u32,
    /// Width.
    pub width: u32,
    /// Height.
    pub height: u32,
}

impl ScissorState {
    /// Whether pixel `(x, y)` survives the scissor test.
    pub fn contains(&self, x: u32, y: u32) -> bool {
        !self.enabled
            || (x >= self.x && x < self.x + self.width && y >= self.y && y < self.y + self.height)
    }
}

impl Default for ScissorState {
    fn default() -> Self {
        ScissorState { enabled: false, x: 0, y: 0, width: u32::MAX, height: u32::MAX }
    }
}

/// The complete render state snapshot a batch carries.
#[derive(Debug, Clone)]
pub struct RenderState {
    /// Viewport transform.
    pub viewport: Viewport,
    /// Scissor test.
    pub scissor: ScissorState,
    /// Face culling.
    pub cull: CullMode,
    /// Depth test state.
    pub depth: DepthState,
    /// Stencil test state (front faces, and back faces too unless
    /// `stencil_back` is set).
    pub stencil: StencilState,
    /// Separate stencil state for back-facing triangles (the paper's
    /// "double sided stencil" future-work item; one-pass shadow volumes).
    pub stencil_back: Option<StencilState>,
    /// Blend state and colour mask.
    pub blend: BlendState,
    /// The active vertex program.
    pub vertex_program: Arc<Program>,
    /// The active fragment program.
    pub fragment_program: Arc<Program>,
    /// Vertex program constants.
    pub vertex_constants: Arc<Vec<Vec4>>,
    /// Fragment program constants.
    pub fragment_constants: Arc<Vec<Vec4>>,
    /// Bound textures per sampler.
    pub textures: Arc<Vec<Option<TextureDesc>>>,
    /// Active vertex attribute bindings (index 0 must be position).
    pub attributes: Arc<Vec<Option<AttributeBinding>>>,
    /// Number of vertex-shader output attributes interpolated for
    /// fragments (position is output 0).
    pub varying_count: u32,
    /// Colour buffer base address.
    pub color_buffer: u64,
    /// Depth/stencil buffer base address.
    pub z_buffer: u64,
    /// Render-target width in pixels (surface allocation, ROP addressing).
    pub target_width: u32,
    /// Render-target height in pixels.
    pub target_height: u32,
}

impl RenderState {
    /// Whether Z and stencil can run **before** shading for this state:
    /// legal when the fragment shader cannot kill fragments (our shaders
    /// never write depth; alpha test is compiled into `KIL`, see §2.2).
    pub fn early_z(&self) -> bool {
        !self.fragment_program.has_kill()
    }

    /// Number of fragment-shader input attributes to interpolate
    /// (excludes position, which travels as depth + coordinates).
    pub fn fragment_inputs(&self) -> u32 {
        self.varying_count
    }

    /// The texture bound to `sampler` as a unit supporting at most
    /// `max_aniso`:1 anisotropy samples it (`TextureConfig::max_aniso`), or
    /// `None` when nothing is bound. The Texture Unit and the golden
    /// renderer both sample through this, so they clamp alike.
    pub fn sampler_desc(&self, sampler: u8, max_aniso: u32) -> Option<TextureDesc> {
        let mut desc = self.textures.get(usize::from(sampler))?.clone()?;
        desc.max_aniso = desc.max_aniso.min(max_aniso);
        Some(desc)
    }
}

/// A do-nothing vertex program (`MOV o0, i0`).
pub fn passthrough_vertex_program() -> Arc<Program> {
    Arc::new(
        attila_emu::asm::assemble("!!ATTILAvp1.0\nMOV o0, i0;\nMOV o1, i1;\nEND;")
            .expect("passthrough assembles"),
    )
}

/// A flat-colour fragment program (`MOV o0, i0`).
pub fn passthrough_fragment_program() -> Arc<Program> {
    Arc::new(
        attila_emu::asm::assemble("!!ATTILAfp1.0\nMOV o0, i0;\nEND;")
            .expect("passthrough assembles"),
    )
}

impl Default for RenderState {
    fn default() -> Self {
        RenderState {
            viewport: Viewport::new(320, 240),
            scissor: ScissorState::default(),
            cull: CullMode::None,
            depth: DepthState::default(),
            stencil: StencilState::default(),
            stencil_back: None,
            blend: BlendState::default(),
            vertex_program: passthrough_vertex_program(),
            fragment_program: passthrough_fragment_program(),
            vertex_constants: Arc::new(vec![Vec4::ZERO; limits::PARAMS]),
            fragment_constants: Arc::new(vec![Vec4::ZERO; limits::PARAMS]),
            textures: Arc::new(vec![None; limits::SAMPLERS]),
            attributes: Arc::new(vec![None; limits::INPUTS]),
            varying_count: 1,
            color_buffer: 0,
            z_buffer: 0,
            target_width: 320,
            target_height: 240,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_state_is_sane() {
        let s = RenderState::default();
        assert!(!s.depth.enabled);
        assert!(!s.stencil.enabled);
        assert!(!s.blend.enabled);
        assert!(s.early_z(), "no KIL in the passthrough program");
    }

    #[test]
    fn early_z_depends_on_kill() {
        let s = RenderState {
            fragment_program: Arc::new(
                attila_emu::asm::assemble("!!ATTILAfp1.0\nKIL i0;\nMOV o0, i0;\nEND;").unwrap(),
            ),
            ..Default::default()
        };
        assert!(!s.early_z());
    }

    #[test]
    fn scissor_contains() {
        let s = ScissorState { enabled: true, x: 10, y: 10, width: 5, height: 5 };
        assert!(s.contains(10, 10));
        assert!(s.contains(14, 14));
        assert!(!s.contains(15, 10));
        assert!(!s.contains(9, 12));
        let off = ScissorState::default();
        assert!(off.contains(1000, 1000));
    }

    #[test]
    fn attribute_binding_addressing() {
        let b = AttributeBinding { address: 0x100, stride: 24, components: 3, default_w: 1.0 };
        assert_eq!(b.element_bytes(), 12);
        assert_eq!(b.element_address(0), 0x100);
        assert_eq!(b.element_address(2), 0x100 + 48);
    }
}
