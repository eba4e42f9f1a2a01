//! Pipeline payload types — the objects that travel through the signals.
//!
//! Every payload embeds a [`DynamicObject`] identity so signal traces can
//! associate fragments with their triangle and batch (the multilevel
//! hierarchy of paper §3).
//!
//! A payload is copied into and out of a ring slot, a port queue and a
//! `Result<Option<T>>` on every hop, so each one stays thin: shared data
//! sits behind an `Arc`, the fragment quad behind a `Box`. The
//! `size_of` assertions beside the definitions hold that line.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use attila_emu::isa::limits;
use attila_emu::raster::{RasterFragment, SetupTriangle};
use attila_emu::vector::Vec4;
use attila_sim::{DynamicObject, Traceable};

use crate::commands::DrawCall;
use crate::state::RenderState;

/// A draw batch in flight: the draw call plus its immutable state
/// snapshot, shared by every object the batch produces.
#[derive(Debug)]
pub struct Batch {
    /// Batch sequence number.
    pub id: u64,
    /// State snapshot taken when the draw was issued.
    pub state: Arc<RenderState>,
    /// The draw call.
    pub draw: DrawCall,
}

/// Per-vertex shader outputs (o0 = clip position).
pub type VertexOutputs = [Vec4; limits::OUTPUTS];

/// An unshaded vertex travelling from the Streamer to a shader.
#[derive(Debug, Clone)]
pub struct VertexWork {
    /// Trace identity.
    pub obj: DynamicObject,
    /// Owning batch.
    pub batch: Arc<Batch>,
    /// Position in the batch's assembly stream (vertices must reach
    /// Primitive Assembly in this order).
    pub seq: u32,
    /// The vertex index (post-shading cache tag).
    pub index: u32,
    /// Fetched input attributes.
    pub inputs: Vec<Vec4>,
}

const _: () = assert!(std::mem::size_of::<VertexWork>() <= 112);
const _: () = assert!(std::mem::size_of::<Arc<Batch>>() <= 112);

impl Traceable for VertexWork {
    fn dyn_object(&self) -> &DynamicObject {
        &self.obj
    }
}

/// A shaded vertex returning from the shader pool to Streamer Commit.
#[derive(Debug, Clone)]
pub struct ShadedVertex {
    /// Trace identity.
    pub obj: DynamicObject,
    /// Owning batch.
    pub batch: Arc<Batch>,
    /// Assembly-stream position.
    pub seq: u32,
    /// Vertex index.
    pub index: u32,
    /// All shader outputs (o0 = clip position).
    pub outputs: Arc<VertexOutputs>,
}

const _: () = assert!(std::mem::size_of::<ShadedVertex>() <= 112);

impl Traceable for ShadedVertex {
    fn dyn_object(&self) -> &DynamicObject {
        &self.obj
    }
}

/// An assembled triangle travelling PA → Clipper → Setup.
#[derive(Debug, Clone)]
pub struct TriangleWork {
    /// Trace identity.
    pub obj: DynamicObject,
    /// Owning batch.
    pub batch: Arc<Batch>,
    /// The three shaded vertices (winding order preserved).
    pub verts: [Arc<VertexOutputs>; 3],
    /// `true` for the last triangle of a batch (lets the fragment side
    /// track batch completion).
    pub end_of_batch: bool,
}

const _: () = assert!(std::mem::size_of::<TriangleWork>() <= 112);

impl Traceable for TriangleWork {
    fn dyn_object(&self) -> &DynamicObject {
        &self.obj
    }
}

/// Immutable per-triangle data shared by all its fragments.
#[derive(Debug)]
pub struct TriangleData {
    /// Owning batch.
    pub batch: Arc<Batch>,
    /// Edge equations, z plane, bbox.
    pub setup: SetupTriangle,
    /// The three vertices' shader outputs, for interpolation.
    pub outputs: [Arc<VertexOutputs>; 3],
}

/// A set-up triangle travelling Setup → Fragment Generator.
#[derive(Debug, Clone)]
pub struct SetupTriWork {
    /// Trace identity.
    pub obj: DynamicObject,
    /// Shared triangle data.
    pub data: Arc<TriangleData>,
    /// End-of-batch marker.
    pub end_of_batch: bool,
}

const _: () = assert!(std::mem::size_of::<SetupTriWork>() <= 112);

impl Traceable for SetupTriWork {
    fn dyn_object(&self) -> &DynamicObject {
        &self.obj
    }
}

/// A generated 8×8 fragment tile travelling Fragment Generator → HZ.
#[derive(Debug, Clone)]
pub struct FragTile {
    /// Trace identity.
    pub obj: DynamicObject,
    /// Shared triangle data.
    pub tri: Arc<TriangleData>,
    /// Tile origin (multiple of the tile size).
    pub x: u32,
    /// Tile origin.
    pub y: u32,
    /// Fragments with coverage flags (only covered ones are stored).
    pub frags: Vec<RasterFragment>,
    /// Minimum depth over the tile's covered fragments (HZ test input).
    pub min_depth: f32,
}

const _: () = assert!(std::mem::size_of::<FragTile>() <= 112);

impl Traceable for FragTile {
    fn dyn_object(&self) -> &DynamicObject {
        &self.obj
    }
}

/// One fragment inside a quad.
#[derive(Debug, Clone, Copy)]
pub struct QuadFrag {
    /// Whether the fragment is still live (inside triangle, not yet
    /// culled by any test). Dead fragments keep flowing with their quad —
    /// "partial quads continue to flow down the pipeline" (§2.2).
    pub alive: bool,
    /// Edge-equation values (barycentric payload) at the pixel centre.
    pub edges: [f32; 3],
    /// Window-space depth.
    pub depth: f32,
    /// Shaded colour (filled by the shader).
    pub color: Vec4,
}

impl QuadFrag {
    /// A dead fragment placeholder.
    pub fn dead() -> Self {
        QuadFrag { alive: false, edges: [0.0; 3], depth: 0.0, color: Vec4::ZERO }
    }
}

/// What a [`FragQuad`] points at.
#[derive(Debug, Clone)]
pub struct QuadBody {
    /// Trace identity.
    pub obj: DynamicObject,
    /// Shared triangle data.
    pub tri: Arc<TriangleData>,
    /// Quad origin (even pixel coordinates); fragments are ordered
    /// `[(x,y), (x+1,y), (x,y+1), (x+1,y+1)]`.
    pub x: u32,
    /// Quad origin.
    pub y: u32,
    /// The four fragments.
    pub frags: [QuadFrag; 4],
    /// Interpolated shader inputs of all four fragments in one buffer,
    /// fragment-major: fragment `i` owns an equal quarter (see
    /// [`FragQuad::frag_inputs`]). Filled by the Interpolator, empty
    /// before it and after shading.
    pub inputs: Vec<Vec4>,
}

/// A 2×2 fragment quad — "the basic work unit for our fragment processing
/// stages" (§2.2).
///
/// A pointer to a [`QuadBody`] boxed once, where Hierarchical Z splits a
/// tile: a quad crosses five wires, and every ring slot, port queue and
/// return value on the way moves eight bytes instead of the body.
/// Dereferences to the body, so fields read as `quad.x`, `quad.frags[i]`.
#[derive(Clone)]
pub struct FragQuad(Box<QuadBody>);

const _: () = assert!(std::mem::size_of::<FragQuad>() <= 16);

impl Deref for FragQuad {
    type Target = QuadBody;

    fn deref(&self) -> &QuadBody {
        &self.0
    }
}

impl DerefMut for FragQuad {
    fn deref_mut(&mut self) -> &mut QuadBody {
        &mut self.0
    }
}

impl fmt::Debug for FragQuad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl FragQuad {
    /// Boxes a quad with no interpolated inputs yet.
    pub fn new(
        obj: DynamicObject,
        tri: Arc<TriangleData>,
        x: u32,
        y: u32,
        frags: [QuadFrag; 4],
    ) -> Self {
        FragQuad(Box::new(QuadBody { obj, tri, x, y, frags, inputs: Vec::new() }))
    }

    /// The interpolated shader inputs of fragment `i` (empty until the
    /// Interpolator has run).
    pub fn frag_inputs(&self, i: usize) -> &[Vec4] {
        let per_frag = self.inputs.len() / 4;
        &self.inputs[i * per_frag..(i + 1) * per_frag]
    }

    /// Whether any fragment is still alive.
    pub fn any_alive(&self) -> bool {
        self.frags.iter().any(|f| f.alive)
    }

    /// Number of live fragments.
    pub fn live_count(&self) -> u32 {
        self.frags.iter().filter(|f| f.alive).count() as u32
    }

    /// Pixel coordinates of fragment `i`.
    pub fn frag_coords(&self, i: usize) -> (u32, u32) {
        (self.x + (i as u32 & 1), self.y + (i as u32 >> 1))
    }
}

impl Traceable for FragQuad {
    fn dyn_object(&self) -> &DynamicObject {
        &self.obj
    }
}

/// A texture request for a whole quad (the Texture Unit "processes
/// texture requests for a whole fragment quad", §2.2).
#[derive(Debug, Clone)]
pub struct QuadTexRequest {
    /// Request id (matched by the reply).
    pub id: u64,
    /// The shader unit that issued it (replies route back).
    pub shader_unit: usize,
    /// Sampler index.
    pub sampler: u8,
    /// The four fragments' coordinates.
    pub coords: [Vec4; 4],
    /// LOD bias (TXB).
    pub lod_bias: f32,
    /// Projective divide requested (TXP).
    pub projective: bool,
    /// Owning batch (provides the texture descriptors).
    pub batch: Arc<Batch>,
    /// The issuing shader scheduler's slot for the waiting thread group;
    /// the reply carries it back, so no id → group map is kept.
    pub group: u32,
}

const _: () = assert!(std::mem::size_of::<QuadTexRequest>() <= 112);

/// A filtered reply for a quad texture request.
#[derive(Debug, Clone)]
pub struct QuadTexReply {
    /// The request id.
    pub id: u64,
    /// The shader unit to deliver to.
    pub shader_unit: usize,
    /// The four filtered texels.
    pub texels: [Vec4; 4],
    /// The waiting thread group's slot, copied from the request.
    pub group: u32,
}

const _: () = assert!(std::mem::size_of::<QuadTexReply>() <= 112);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_coords_walk_the_2x2() {
        let quad = FragQuad::new(
            DynamicObject::new(0),
            Arc::new(TriangleData {
                batch: Arc::new(Batch {
                    id: 0,
                    state: Arc::new(RenderState::default()),
                    draw: DrawCall {
                        primitive: crate::commands::Primitive::Triangles,
                        vertex_count: 3,
                        index_buffer: None,
                    },
                }),
                setup: attila_emu::raster::setup_triangle(
                    &[
                        Vec4::new(-1.0, -1.0, 0.0, 1.0),
                        Vec4::new(1.0, -1.0, 0.0, 1.0),
                        Vec4::new(0.0, 1.0, 0.0, 1.0),
                    ],
                    attila_emu::raster::Viewport::new(16, 16),
                )
                .unwrap(),
                outputs: [
                    Arc::new([Vec4::ZERO; limits::OUTPUTS]),
                    Arc::new([Vec4::ZERO; limits::OUTPUTS]),
                    Arc::new([Vec4::ZERO; limits::OUTPUTS]),
                ],
            }),
            4,
            6,
            [QuadFrag::dead(); 4],
        );
        assert_eq!(quad.frag_coords(0), (4, 6));
        assert_eq!(quad.frag_coords(1), (5, 6));
        assert_eq!(quad.frag_coords(2), (4, 7));
        assert_eq!(quad.frag_coords(3), (5, 7));
        assert!(!quad.any_alive());
        assert_eq!(quad.live_count(), 0);
    }
}
