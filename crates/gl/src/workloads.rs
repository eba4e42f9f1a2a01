//! Synthetic workload generators.
//!
//! The paper feeds the simulator with traces captured from UT2004 and
//! Doom3. Real game traces are not redistributable, so these generators
//! produce API traces with the same *architectural* characteristics — the
//! properties the Section 5 case study actually measures:
//!
//! * [`doom3_like`] — multi-pass stencil-shadow rendering: an ambient
//!   depth-filling pass, stencil shadow-volume passes (depth-fail
//!   increment/decrement, colour mask off) and additive per-pixel
//!   lighting passes with 4 texture lookups and a ~3:1 ALU:TEX ratio —
//!   high depth complexity, texture-latency sensitive.
//! * [`ut2004_like`] — a single-pass outdoor scene: large terrain mesh
//!   with diffuse + lightmap multitexturing, scattered mesh objects and a
//!   sky layer — wide triangles, moderate overdraw, 2 lookups per
//!   fragment.
//! * [`fillrate`] — layered full-screen textured quads for raw
//!   ROP/texture throughput experiments.
//! * [`quickstart_triangle`] — the minimal textured-triangle demo.
//! * [`embedded_scene`] — a small spinning textured cube for the
//!   embedded-GPU configuration.
//! * [`texture_stream`] — texture streaming: every frame uploads fresh
//!   texture data over the system bus before a small draw, so the
//!   pipeline spends most of its time drained while the bus crawls —
//!   the workload that exercises the event-horizon scheduler.
//!
//! All content is procedurally generated from a seed; traces are fully
//! deterministic.

use attila_sim::TinyRng;

use attila_core::commands::GpuCommand;

use crate::api::{
    clear_mask, compile, GlBlendFactor, GlCall, GlCap, GlCompare, GlCullFace, GlPrimitive,
    GlStencilOp, GlTexFilter, GlTexFormat, GlWrap,
};
use crate::trace::GlTrace;

/// Shared workload sizing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Render-target width.
    pub width: u32,
    /// Render-target height.
    pub height: u32,
    /// Frames to generate.
    pub frames: u32,
    /// RNG seed (content is deterministic per seed).
    pub seed: u64,
    /// Texture edge size (paper-scale: 256; tests: 64).
    pub texture_size: u32,
    /// Geometry density multiplier (1 = default).
    pub detail: u32,
    /// Doom3-like only: draw shadow volumes in a single pass using
    /// double-sided stencil instead of two culled passes.
    pub two_sided_stencil: bool,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            width: 320,
            height: 240,
            frames: 2,
            seed: 0x00A7_711A,
            texture_size: 128,
            detail: 1,
            two_sided_stencil: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Geometry helpers
// ---------------------------------------------------------------------------

/// Interleaved vertex: position (3f), uv (2f), normal (3f) — 32 bytes.
const STRIDE: u32 = 32;

#[derive(Debug, Default)]
struct Mesh {
    data: Vec<u8>,
    indices: Vec<u32>,
    vertex_count: u32,
}

impl Mesh {
    fn push_vertex(&mut self, p: [f32; 3], uv: [f32; 2], n: [f32; 3]) -> u32 {
        for v in p.iter().chain(uv.iter()).chain(n.iter()) {
            self.data.extend_from_slice(&v.to_le_bytes());
        }
        self.vertex_count += 1;
        self.vertex_count - 1
    }

    fn quad(&mut self, corners: [[f32; 3]; 4], uv_scale: f32, normal: [f32; 3]) {
        let uvs = [[0.0, 0.0], [uv_scale, 0.0], [uv_scale, uv_scale], [0.0, uv_scale]];
        let base = self.vertex_count;
        for (c, uv) in corners.iter().zip(uvs.iter()) {
            self.push_vertex(*c, *uv, normal);
        }
        self.indices.extend_from_slice(&[base, base + 1, base + 2, base, base + 2, base + 3]);
    }

    fn index_bytes(&self) -> Vec<u8> {
        self.indices.iter().flat_map(|i| i.to_le_bytes()).collect()
    }
}

/// An axis-aligned box (inward or outward facing).
fn add_box(mesh: &mut Mesh, min: [f32; 3], max: [f32; 3], uv: f32, inward: bool) {
    let [x0, y0, z0] = min;
    let [x1, y1, z1] = max;
    let faces: [([[f32; 3]; 4], [f32; 3]); 6] = [
        // +z
        ([[x0, y0, z1], [x1, y0, z1], [x1, y1, z1], [x0, y1, z1]], [0.0, 0.0, 1.0]),
        // -z
        ([[x1, y0, z0], [x0, y0, z0], [x0, y1, z0], [x1, y1, z0]], [0.0, 0.0, -1.0]),
        // +x
        ([[x1, y0, z1], [x1, y0, z0], [x1, y1, z0], [x1, y1, z1]], [1.0, 0.0, 0.0]),
        // -x
        ([[x0, y0, z0], [x0, y0, z1], [x0, y1, z1], [x0, y1, z0]], [-1.0, 0.0, 0.0]),
        // +y
        ([[x0, y1, z1], [x1, y1, z1], [x1, y1, z0], [x0, y1, z0]], [0.0, 1.0, 0.0]),
        // -y
        ([[x0, y0, z0], [x1, y0, z0], [x1, y0, z1], [x0, y0, z1]], [0.0, -1.0, 0.0]),
    ];
    for (mut corners, mut normal) in faces {
        if inward {
            corners.reverse();
            for n in &mut normal {
                *n = -*n;
            }
        }
        mesh.quad(corners, uv, normal);
    }
}

// ---------------------------------------------------------------------------
// Procedural textures
// ---------------------------------------------------------------------------

/// An RGBA image of `size`² texels: texel `(x, y)` is `texel(x, y)`,
/// called in row-major order (so seeded draws keep their order) and
/// written in place into a buffer sized up front.
fn fill_rgba(size: u32, mut texel: impl FnMut(u32, u32) -> [u8; 4]) -> Vec<u8> {
    let row_bytes = size as usize * 4;
    let mut out = vec![0u8; row_bytes * size as usize];
    for (y, row) in (0..size).zip(out.chunks_exact_mut(row_bytes.max(1))) {
        for (x, px) in (0..size).zip(row.chunks_exact_mut(4)) {
            px.copy_from_slice(&texel(x, y));
        }
    }
    out
}

/// Noisy checkerboard RGBA pixels: one draw in `0..24` per texel picks
/// its noise, so every texel is one of 2 × 24, built up front.
fn checker_texture(size: u32, rng: &mut TinyRng, base: [u8; 3], alt: [u8; 3]) -> Vec<u8> {
    let shades = |c: [u8; 3]| -> [[u8; 4]; 24] {
        std::array::from_fn(|draw| {
            let noise = draw as i16 - 12;
            let ch = |v: u8| (v as i16 + noise).clamp(0, 255) as u8;
            [ch(c[0]), ch(c[1]), ch(c[2]), 255]
        })
    };
    let cells = [shades(base), shades(alt)];
    fill_rgba(size, |x, y| {
        let cell = usize::from((x / 8 + y / 8) % 2 != 0);
        cells[cell][rng.range_u32(0, 24) as usize]
    })
}

/// Blotchy "lightmap" pixels (slow cosine gradients + noise).
fn lightmap_texture(size: u32, rng: &mut TinyRng) -> Vec<u8> {
    let unit = |i: u32| i as f32 / size as f32;
    let columns: Vec<f32> = (0..size).map(|x| 0.35 * (unit(x) * 9.3).sin()).collect();
    let rows: Vec<f32> = (0..size).map(|y| (unit(y) * 7.1).cos()).collect();
    fill_rgba(size, |x, y| {
        let v = 0.55 + columns[x as usize] * rows[y as usize] + rng.range_f32(-0.05, 0.05);
        let b = (v.clamp(0.05, 1.0) * 255.0) as u8;
        [b, b, b, 255]
    })
}

/// Radial falloff texture (bright centre, dark edges) for light
/// attenuation lookups.
fn falloff_texture(size: u32) -> Vec<u8> {
    let half = size as f32 / 2.0;
    // The squared distance from the centre along one axis, the same for
    // columns and rows.
    let squares: Vec<f32> = (0..size)
        .map(|i| {
            let d = (i as f32 - half) / half;
            d * d
        })
        .collect();
    fill_rgba(size, |x, y| {
        let d = (squares[x as usize] + squares[y as usize]).sqrt().min(1.0);
        let v = ((1.0 - d) * 255.0) as u8;
        [v, v, v, 255]
    })
}

// ---------------------------------------------------------------------------
// Shaders
// ---------------------------------------------------------------------------

/// Vertex program: MVP transform + uv + object-space light vector +
/// normal. Constants: c0-c3 MVP rows, c8 light position.
const VP_LIGHT: &str = "!!ATTILAvp1.0\n\
    DP4 o0.x, c0, i0;\n\
    DP4 o0.y, c1, i0;\n\
    DP4 o0.z, c2, i0;\n\
    DP4 o0.w, c3, i0;\n\
    MOV o1, i1;\n\
    SUB o2, c8, i0;\n\
    MOV o3, i2;\n\
    END;";

/// Doom3-style per-pixel lighting: diffuse + perturbation + specular +
/// falloff lookup (4 TEX, ~12 ALU — the ~3:1 ratio the case study cares
/// about). Inputs: i0 uv, i1 light vector, i2 normal. Constants: c1
/// perturbation scale, c2.w specular exponent, c3.x falloff scale.
const FP_LIGHT: &str = "!!ATTILAfp1.0\n\
    TEX r0, i0, texture[0], 2D;\n\
    TEX r1, i0, texture[1], 2D;\n\
    TEX r2, i0, texture[2], 2D;\n\
    DP3 r3.w, i1, i1;\n\
    RSQ r3.w, r3.w;\n\
    MUL r3.xyz, i1, r3.w;\n\
    SUB r4, r1, c1;\n\
    MAD r4.xyz, r4, c1.w, i2;\n\
    DP3 r5.w, r4, r4;\n\
    RSQ r5.w, r5.w;\n\
    MUL r4.xyz, r4, r5.w;\n\
    DP3_SAT r5.x, r4, r3;\n\
    MUL r6.xyz, r0, r5.x;\n\
    POW r7.w, r5.x, c2.w;\n\
    MAD r6.xyz, r2, r7.w, r6;\n\
    DP3_SAT r8.x, i1, i1;\n\
    MUL r8.xy, r8.x, c3.x;\n\
    TEX r9, r8, texture[3], 2D;\n\
    MUL r6.xyz, r6, r9;\n\
    MOV r6.w, r0.w;\n\
    MOV o0, r6;\n\
    END;";

/// Ambient pass fragment program: dark textured base (1 TEX).
const FP_AMBIENT: &str = "!!ATTILAfp1.0\n\
    TEX r0, i0, texture[0], 2D;\n\
    MUL o0, r0, c0;\n\
    END;";

/// Flat program for shadow volumes (colour is masked off anyway).
const FP_FLAT: &str = "!!ATTILAfp1.0\n\
    MOV o0, c0;\n\
    END;";

/// Vertex program for UT2004-style terrain: uv + scaled lightmap uv.
const VP_TERRAIN: &str = "!!ATTILAvp1.0\n\
    DP4 o0.x, c0, i0;\n\
    DP4 o0.y, c1, i0;\n\
    DP4 o0.z, c2, i0;\n\
    DP4 o0.w, c3, i0;\n\
    MOV o1, i1;\n\
    MUL o2, i1, c9;\n\
    END;";

/// UT2004-style fragment program: diffuse × lightmap × tint (2 TEX).
const FP_TERRAIN: &str = "!!ATTILAfp1.0\n\
    TEX r0, i0, texture[0], 2D;\n\
    TEX r1, i1, texture[1], 2D;\n\
    MUL r0, r0, r1;\n\
    MUL o0, r0, c0;\n\
    END;";

// ---------------------------------------------------------------------------
// Scene writer
// ---------------------------------------------------------------------------

/// Small helper accumulating calls with fresh object ids.
struct SceneWriter {
    calls: Vec<GlCall>,
    next_id: u32,
}

impl SceneWriter {
    fn new() -> Self {
        SceneWriter { calls: Vec::new(), next_id: 1 }
    }

    fn id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn call(&mut self, c: GlCall) {
        self.calls.push(c);
    }

    fn upload_mesh(&mut self, mesh: &Mesh) -> (u32, u32) {
        let vb = self.id();
        self.call(GlCall::BufferData { id: vb, data: mesh.data.clone() });
        let ib = self.id();
        self.call(GlCall::BufferData { id: ib, data: mesh.index_bytes() });
        (vb, ib)
    }

    fn bind_mesh(&mut self, vb: u32) {
        self.call(GlCall::VertexAttribPointer {
            attr: 0,
            buffer: vb,
            components: 3,
            stride: STRIDE,
            offset: 0,
        });
        self.call(GlCall::VertexAttribPointer {
            attr: 1,
            buffer: vb,
            components: 2,
            stride: STRIDE,
            offset: 12,
        });
        self.call(GlCall::VertexAttribPointer {
            attr: 2,
            buffer: vb,
            components: 3,
            stride: STRIDE,
            offset: 20,
        });
    }

    fn texture(
        &mut self,
        size: u32,
        format: GlTexFormat,
        pixels: Vec<u8>,
        trilinear: bool,
        aniso: u32,
    ) -> u32 {
        let id = self.id();
        self.call(GlCall::TexImage2D {
            id,
            width: size,
            height: size,
            format,
            mipmapped: trilinear,
            pixels,
        });
        self.call(GlCall::TexFilter {
            id,
            min: if trilinear { GlTexFilter::Trilinear } else { GlTexFilter::Bilinear },
        });
        self.call(GlCall::TexWrap { id, s: GlWrap::Repeat, t: GlWrap::Repeat });
        if aniso > 1 {
            self.call(GlCall::TexMaxAniso { id, samples: aniso });
        }
        id
    }

    fn program(&mut self, source: &str) -> u32 {
        let id = self.id();
        self.call(GlCall::ProgramString { id, source: source.to_string() });
        id
    }

    fn use_programs(&mut self, vp: u32, fp: u32) {
        self.call(GlCall::BindProgram { target_vertex: true, id: vp });
        self.call(GlCall::BindProgram { target_vertex: false, id: fp });
    }

    fn mvp(&mut self, m: &attila_emu::Mat4) {
        for r in 0..4 {
            let row = m.row(r);
            self.call(GlCall::ProgramEnvParameter {
                target_vertex: true,
                index: r as u32,
                value: [row.x, row.y, row.z, row.w],
            });
        }
    }
}

fn camera(frame: u32, frames: u32, dist: f32, height: f32, aspect: f32) -> attila_emu::Mat4 {
    use attila_emu::{Mat4, Vec4};
    let angle = frame as f32 / frames.max(1) as f32 * std::f32::consts::TAU * 0.25;
    let eye = Vec4::point(angle.sin() * dist, height, angle.cos() * dist);
    let view = Mat4::look_at(eye, Vec4::point(0.0, 0.0, 0.0), Vec4::new(0.0, 1.0, 0.0, 0.0));
    let proj = Mat4::perspective(std::f32::consts::FRAC_PI_3, aspect, 0.5, 100.0);
    proj.mul_mat(&view)
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The minimal demo: one textured triangle, one frame. Returns the
/// compiled command stream directly.
pub fn quickstart_triangle(width: u32, height: u32) -> Vec<GpuCommand> {
    let trace = quickstart_trace(width, height);
    compile(trace.width, trace.height, &trace.calls).expect("generated trace compiles")
}

/// The quickstart scene as an API trace.
pub fn quickstart_trace(width: u32, height: u32) -> GlTrace {
    let mut w = SceneWriter::new();
    let mut rng = TinyRng::new(7);
    let tex = w.texture(
        64,
        GlTexFormat::Rgba8,
        checker_texture(64, &mut rng, [230, 60, 40], [250, 240, 220]),
        true,
        1,
    );
    w.call(GlCall::BindTexture { unit: 0, id: tex });
    let vp = w.program(
        "!!ATTILAvp1.0\nMOV o0, i0;\nMOV o1, i1;\nEND;",
    );
    let fp = w.program("!!ATTILAfp1.0\nTEX r0, i0, texture[0], 2D;\nMOV o0, r0;\nEND;");
    w.use_programs(vp, fp);
    let mut mesh = Mesh::default();
    mesh.push_vertex([-0.8, -0.8, 0.0], [0.0, 0.0], [0.0, 0.0, 1.0]);
    mesh.push_vertex([0.8, -0.8, 0.0], [2.0, 0.0], [0.0, 0.0, 1.0]);
    mesh.push_vertex([0.0, 0.8, 0.0], [1.0, 2.0], [0.0, 0.0, 1.0]);
    let vb = w.id();
    w.call(GlCall::BufferData { id: vb, data: mesh.data.clone() });
    w.bind_mesh(vb);
    w.call(GlCall::ClearColor { r: 0.05, g: 0.05, b: 0.1, a: 1.0 });
    w.call(GlCall::Clear { mask: clear_mask::COLOR | clear_mask::DEPTH });
    w.call(GlCall::DrawArrays { primitive: GlPrimitive::Triangles, count: 3 });
    w.call(GlCall::SwapBuffers);
    GlTrace { width, height, calls: w.calls }
}

/// A Doom3-like multi-pass stencil-shadow workload.
pub fn doom3_like(params: WorkloadParams) -> GlTrace {
    let mut rng = TinyRng::new(params.seed);
    let mut w = SceneWriter::new();
    let ts = params.texture_size;
    let aspect = params.width as f32 / params.height as f32;

    // Textures: dark diffuse (DXT1-compressed, as Doom3's are), a noisy
    // perturbation map, a specular map and the light falloff table.
    let diffuse = w.texture(
        ts,
        GlTexFormat::Dxt1,
        checker_texture(ts, &mut rng, [70, 60, 55], [40, 36, 34]),
        true,
        8,
    );
    let perturb = w.texture(ts, GlTexFormat::Rgba8, lightmap_texture(ts, &mut rng), true, 1);
    let specular = w.texture(
        ts,
        GlTexFormat::Dxt1,
        checker_texture(ts, &mut rng, [180, 180, 190], [20, 20, 20]),
        true,
        1,
    );
    let falloff = w.texture(ts.min(64), GlTexFormat::L8, falloff_texture(ts.min(64)), false, 1);

    // Geometry: an inward-facing room plus `detail` boxes, and shadow
    // volume quads extruded from the boxes.
    let mut scene = Mesh::default();
    add_box(&mut scene, [-10.0, -2.0, -10.0], [10.0, 6.0, 10.0], 4.0, true);
    let boxes = 2 + params.detail as usize * 2;
    for i in 0..boxes {
        let x = rng.range_f32(-6.0f32, 6.0);
        let z = rng.range_f32(-6.0f32, 6.0);
        let s = rng.range_f32(0.6f32, 1.6);
        let _ = i;
        add_box(&mut scene, [x - s, -2.0, z - s], [x + s, -2.0 + 2.0 * s, z + s], 1.0, false);
    }
    let (scene_vb, scene_ib) = w.upload_mesh(&scene);
    let scene_indices = scene.indices.len() as u32;

    let mut volumes = Mesh::default();
    for _ in 0..boxes {
        let x = rng.range_f32(-6.0f32, 6.0);
        let z = rng.range_f32(-6.0f32, 6.0);
        let s = rng.range_f32(1.0f32, 2.5);
        // A tall extruded quad standing in for the volume's sides.
        volumes.quad(
            [[x - s, -2.0, z], [x + s, -2.0, z], [x + s, 6.0, z], [x - s, 6.0, z]],
            1.0,
            [0.0, 0.0, 1.0],
        );
        volumes.quad(
            [[x, -2.0, z - s], [x, -2.0, z + s], [x, 6.0, z + s], [x, 6.0, z - s]],
            1.0,
            [1.0, 0.0, 0.0],
        );
    }
    let (vol_vb, vol_ib) = w.upload_mesh(&volumes);
    let vol_indices = volumes.indices.len() as u32;

    let vp = w.program(VP_LIGHT);
    let fp_ambient = w.program(FP_AMBIENT);
    let fp_light = w.program(FP_LIGHT);
    let fp_flat = w.program(FP_FLAT);

    // Static fragment constants.
    w.call(GlCall::ProgramEnvParameter {
        target_vertex: false,
        index: 0,
        value: [0.18, 0.17, 0.2, 1.0], // ambient tint
    });
    w.call(GlCall::ProgramEnvParameter {
        target_vertex: false,
        index: 1,
        value: [0.5, 0.5, 0.5, 0.8], // perturbation bias/scale
    });
    w.call(GlCall::ProgramEnvParameter {
        target_vertex: false,
        index: 2,
        value: [0.0, 0.0, 0.0, 16.0], // specular exponent
    });
    w.call(GlCall::ProgramEnvParameter {
        target_vertex: false,
        index: 3,
        value: [0.02, 0.0, 0.0, 0.0], // falloff scale
    });

    w.call(GlCall::ViewportSet { x: 0, y: 0, width: params.width, height: params.height });
    w.call(GlCall::Enable(GlCap::DepthTest));
    w.call(GlCall::Enable(GlCap::CullFace));
    w.call(GlCall::CullFaceSet(GlCullFace::Back));

    let lights: Vec<[f32; 4]> = (0..2)
        .map(|i| [rng.range_f32(-4.0, 4.0), 3.0 + i as f32, rng.range_f32(-4.0, 4.0), 1.0])
        .collect();

    for frame in 0..params.frames {
        let mvp = camera(frame, params.frames, 7.0, 1.5, aspect);
        w.call(GlCall::ClearColor { r: 0.0, g: 0.0, b: 0.0, a: 1.0 });
        w.call(GlCall::ClearDepth(1.0));
        w.call(GlCall::ClearStencil(128));
        w.call(GlCall::Clear {
            mask: clear_mask::COLOR | clear_mask::DEPTH | clear_mask::STENCIL,
        });
        w.mvp(&mvp);

        // Pass 1: ambient + depth fill.
        w.use_programs(vp, fp_ambient);
        w.call(GlCall::DepthFunc(GlCompare::Less));
        w.call(GlCall::DepthMask(true));
        w.call(GlCall::Disable(GlCap::Blend));
        w.call(GlCall::Disable(GlCap::StencilTest));
        w.call(GlCall::BindTexture { unit: 0, id: diffuse });
        w.bind_mesh(scene_vb);
        w.call(GlCall::DrawElements {
            primitive: GlPrimitive::Triangles,
            index_buffer: scene_ib,
            count: scene_indices,
        });

        for light in &lights {
            // Pass 2: shadow volumes into stencil (depth-fail, colour and
            // depth writes off — "Carmack's reverse").
            w.use_programs(vp, fp_flat);
            w.call(GlCall::ColorMask { r: false, g: false, b: false, a: false });
            w.call(GlCall::DepthMask(false));
            w.call(GlCall::Enable(GlCap::StencilTest));
            w.call(GlCall::StencilFunc { func: GlCompare::Always, reference: 128, mask: 0xff });
            w.bind_mesh(vol_vb);
            if params.two_sided_stencil {
                // One pass with double-sided stencil (paper §7 future
                // work, implemented): front faces increment, back faces
                // decrement, no culling.
                w.call(GlCall::Disable(GlCap::CullFace));
                w.call(GlCall::EnableTwoSidedStencil(true));
                w.call(GlCall::StencilOpSet {
                    sfail: GlStencilOp::Keep,
                    dpfail: GlStencilOp::IncrWrap,
                    dppass: GlStencilOp::Keep,
                });
                w.call(GlCall::StencilFuncBack {
                    func: GlCompare::Always,
                    reference: 128,
                    mask: 0xff,
                });
                w.call(GlCall::StencilOpBack {
                    sfail: GlStencilOp::Keep,
                    dpfail: GlStencilOp::DecrWrap,
                    dppass: GlStencilOp::Keep,
                });
                w.call(GlCall::DrawElements {
                    primitive: GlPrimitive::Triangles,
                    index_buffer: vol_ib,
                    count: vol_indices,
                });
                w.call(GlCall::EnableTwoSidedStencil(false));
                w.call(GlCall::Enable(GlCap::CullFace));
                w.call(GlCall::CullFaceSet(GlCullFace::Back));
            } else {
                // Front faces: increment on depth fail.
                w.call(GlCall::CullFaceSet(GlCullFace::Back));
                w.call(GlCall::StencilOpSet {
                    sfail: GlStencilOp::Keep,
                    dpfail: GlStencilOp::IncrWrap,
                    dppass: GlStencilOp::Keep,
                });
                w.call(GlCall::DrawElements {
                    primitive: GlPrimitive::Triangles,
                    index_buffer: vol_ib,
                    count: vol_indices,
                });
                // Back faces: decrement on depth fail.
                w.call(GlCall::CullFaceSet(GlCullFace::Front));
                w.call(GlCall::StencilOpSet {
                    sfail: GlStencilOp::Keep,
                    dpfail: GlStencilOp::DecrWrap,
                    dppass: GlStencilOp::Keep,
                });
                w.call(GlCall::DrawElements {
                    primitive: GlPrimitive::Triangles,
                    index_buffer: vol_ib,
                    count: vol_indices,
                });
                w.call(GlCall::CullFaceSet(GlCullFace::Back));
            }

            // Pass 3: additive lighting where unshadowed.
            w.use_programs(vp, fp_light);
            w.call(GlCall::ProgramEnvParameter {
                target_vertex: true,
                index: 8,
                value: *light,
            });
            w.call(GlCall::ColorMask { r: true, g: true, b: true, a: true });
            w.call(GlCall::StencilFunc { func: GlCompare::Equal, reference: 128, mask: 0xff });
            w.call(GlCall::StencilOpSet {
                sfail: GlStencilOp::Keep,
                dpfail: GlStencilOp::Keep,
                dppass: GlStencilOp::Keep,
            });
            w.call(GlCall::DepthFunc(GlCompare::LEqual));
            w.call(GlCall::Enable(GlCap::Blend));
            w.call(GlCall::BlendFunc { src: GlBlendFactor::One, dst: GlBlendFactor::One });
            w.call(GlCall::BindTexture { unit: 0, id: diffuse });
            w.call(GlCall::BindTexture { unit: 1, id: perturb });
            w.call(GlCall::BindTexture { unit: 2, id: specular });
            w.call(GlCall::BindTexture { unit: 3, id: falloff });
            w.bind_mesh(scene_vb);
            w.call(GlCall::DrawElements {
                primitive: GlPrimitive::Triangles,
                index_buffer: scene_ib,
                count: scene_indices,
            });
            w.call(GlCall::Disable(GlCap::Blend));
            w.call(GlCall::Disable(GlCap::StencilTest));
            w.call(GlCall::DepthMask(true));
            w.call(GlCall::DepthFunc(GlCompare::Less));
        }
        w.call(GlCall::SwapBuffers);
    }
    GlTrace { width: params.width, height: params.height, calls: w.calls }
}

/// A UT2004-like single-pass outdoor workload.
pub fn ut2004_like(params: WorkloadParams) -> GlTrace {
    let mut rng = TinyRng::new(params.seed ^ 0x0704_2004);
    let mut w = SceneWriter::new();
    let ts = params.texture_size;
    let aspect = params.width as f32 / params.height as f32;

    let terrain_tex = w.texture(
        ts,
        GlTexFormat::Dxt1,
        checker_texture(ts, &mut rng, [96, 120, 60], [70, 90, 50]),
        true,
        8,
    );
    let lightmap = w.texture(ts, GlTexFormat::L8, lightmap_texture(ts, &mut rng), true, 1);
    let object_tex = w.texture(
        ts,
        GlTexFormat::Dxt1,
        checker_texture(ts, &mut rng, [140, 120, 100], [90, 80, 70]),
        true,
        8,
    );
    let sky_tex = w.texture(
        ts,
        GlTexFormat::Rgb8,
        checker_texture(ts, &mut rng, [110, 150, 220], [130, 170, 235]),
        false,
        1,
    );

    // Terrain: an n×n grid with procedural height.
    let n = 8 * params.detail.max(1);
    let mut terrain = Mesh::default();
    let half = 20.0f32;
    let step = 2.0 * half / n as f32;
    for j in 0..=n {
        for i in 0..=n {
            let x = -half + i as f32 * step;
            let z = -half + j as f32 * step;
            let y = -2.0
                + ((x * 0.31).sin() + (z * 0.23).cos()) * 0.8
                + rng.range_f32(-0.05, 0.05);
            terrain.push_vertex(
                [x, y, z],
                [i as f32 / 2.0, j as f32 / 2.0],
                [0.0, 1.0, 0.0],
            );
        }
    }
    for j in 0..n {
        for i in 0..n {
            let v = |a: u32, b: u32| b * (n + 1) + a;
            terrain.indices.extend_from_slice(&[
                v(i, j),
                v(i + 1, j),
                v(i + 1, j + 1),
                v(i, j),
                v(i + 1, j + 1),
                v(i, j + 1),
            ]);
        }
    }
    let (terrain_vb, terrain_ib) = w.upload_mesh(&terrain);
    let terrain_indices = terrain.indices.len() as u32;

    // Scattered mesh objects.
    let mut objects = Mesh::default();
    for _ in 0..(6 * params.detail as usize) {
        let x = rng.range_f32(-15.0f32, 15.0);
        let z = rng.range_f32(-15.0f32, 15.0);
        let s = rng.range_f32(0.5f32, 1.8);
        add_box(&mut objects, [x - s, -1.5, z - s], [x + s, -1.5 + 2.5 * s, z + s], 1.0, false);
    }
    let (obj_vb, obj_ib) = w.upload_mesh(&objects);
    let obj_indices = objects.indices.len() as u32;

    // Sky: a huge background quad drawn first with depth writes off.
    let mut sky = Mesh::default();
    sky.quad(
        [[-60.0, -10.0, -40.0], [60.0, -10.0, -40.0], [60.0, 40.0, -40.0], [-60.0, 40.0, -40.0]],
        2.0,
        [0.0, 0.0, 1.0],
    );
    let (sky_vb, sky_ib) = w.upload_mesh(&sky);

    let vp = w.program(VP_TERRAIN);
    let fp = w.program(FP_TERRAIN);
    w.use_programs(vp, fp);
    w.call(GlCall::ProgramEnvParameter {
        target_vertex: false,
        index: 0,
        value: [1.0, 1.0, 1.0, 1.0],
    });
    w.call(GlCall::ProgramEnvParameter {
        target_vertex: true,
        index: 9,
        value: [0.25, 0.25, 0.0, 0.0], // lightmap uv scale
    });
    w.call(GlCall::ViewportSet { x: 0, y: 0, width: params.width, height: params.height });
    w.call(GlCall::Enable(GlCap::DepthTest));
    w.call(GlCall::DepthFunc(GlCompare::Less));
    w.call(GlCall::Enable(GlCap::CullFace));
    w.call(GlCall::CullFaceSet(GlCullFace::Back));

    for frame in 0..params.frames {
        let mvp = camera(frame, params.frames, 16.0, 4.0, aspect);
        w.call(GlCall::ClearColor { r: 0.4, g: 0.55, b: 0.8, a: 1.0 });
        w.call(GlCall::ClearDepth(1.0));
        w.call(GlCall::Clear { mask: clear_mask::COLOR | clear_mask::DEPTH });
        w.mvp(&mvp);

        // Sky first, depth write off.
        w.call(GlCall::DepthMask(false));
        w.call(GlCall::Disable(GlCap::CullFace));
        w.call(GlCall::BindTexture { unit: 0, id: sky_tex });
        w.call(GlCall::BindTexture { unit: 1, id: lightmap });
        w.bind_mesh(sky_vb);
        w.call(GlCall::DrawElements {
            primitive: GlPrimitive::Triangles,
            index_buffer: sky_ib,
            count: 6,
        });
        w.call(GlCall::DepthMask(true));
        w.call(GlCall::Enable(GlCap::CullFace));

        // Terrain.
        w.call(GlCall::BindTexture { unit: 0, id: terrain_tex });
        w.call(GlCall::BindTexture { unit: 1, id: lightmap });
        w.bind_mesh(terrain_vb);
        w.call(GlCall::DrawElements {
            primitive: GlPrimitive::Triangles,
            index_buffer: terrain_ib,
            count: terrain_indices,
        });

        // Objects.
        w.call(GlCall::BindTexture { unit: 0, id: object_tex });
        w.bind_mesh(obj_vb);
        w.call(GlCall::DrawElements {
            primitive: GlPrimitive::Triangles,
            index_buffer: obj_ib,
            count: obj_indices,
        });

        w.call(GlCall::SwapBuffers);
    }
    GlTrace { width: params.width, height: params.height, calls: w.calls }
}

/// Layered full-screen textured quads (raw fill-rate / texture-rate
/// microworkload for Table-1-style throughput measurements).
pub fn fillrate(width: u32, height: u32, layers: u32, textured: bool) -> GlTrace {
    let mut w = SceneWriter::new();
    let mut rng = TinyRng::new(42);
    let tex = w.texture(
        64,
        GlTexFormat::Rgba8,
        checker_texture(64, &mut rng, [200, 200, 200], [60, 60, 60]),
        false,
        1,
    );
    let fp = if textured {
        w.call(GlCall::BindTexture { unit: 0, id: tex });
        w.program("!!ATTILAfp1.0\nTEX r0, i0, texture[0], 2D;\nMOV o0, r0;\nEND;")
    } else {
        w.program("!!ATTILAfp1.0\nMOV o0, i0;\nEND;")
    };
    let vp = w.program("!!ATTILAvp1.0\nMOV o0, i0;\nMOV o1, i1;\nEND;");
    w.use_programs(vp, fp);
    let mut mesh = Mesh::default();
    for l in 0..layers {
        let z = -0.9 + 1.8 * l as f32 / layers.max(1) as f32;
        mesh.quad(
            [[-1.0, -1.0, z], [1.0, -1.0, z], [1.0, 1.0, z], [-1.0, 1.0, z]],
            1.0 + l as f32 * 0.37,
            [0.0, 0.0, 1.0],
        );
    }
    let (vb, ib) = w.upload_mesh(&mesh);
    w.bind_mesh(vb);
    w.call(GlCall::Clear { mask: clear_mask::COLOR | clear_mask::DEPTH });
    w.call(GlCall::DrawElements {
        primitive: GlPrimitive::Triangles,
        index_buffer: ib,
        count: mesh.indices.len() as u32,
    });
    w.call(GlCall::SwapBuffers);
    GlTrace { width, height, calls: w.calls }
}

/// A small spinning textured cube for the embedded configuration.
pub fn embedded_scene(params: WorkloadParams) -> GlTrace {
    let mut rng = TinyRng::new(params.seed ^ 0xE4B);
    let mut w = SceneWriter::new();
    let tex = w.texture(
        params.texture_size.min(64),
        GlTexFormat::Rgba8,
        checker_texture(params.texture_size.min(64), &mut rng, [255, 130, 30], [40, 40, 80]),
        true,
        1,
    );
    w.call(GlCall::BindTexture { unit: 0, id: tex });
    let vp = w.program(VP_TERRAIN);
    let fp = w.program("!!ATTILAfp1.0\nTEX r0, i0, texture[0], 2D;\nMOV o0, r0;\nEND;");
    w.use_programs(vp, fp);
    w.call(GlCall::ProgramEnvParameter {
        target_vertex: true,
        index: 9,
        value: [1.0, 1.0, 0.0, 0.0],
    });
    let mut cube = Mesh::default();
    add_box(&mut cube, [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], 1.0, false);
    let (vb, ib) = w.upload_mesh(&cube);
    w.bind_mesh(vb);
    w.call(GlCall::Enable(GlCap::DepthTest));
    w.call(GlCall::Enable(GlCap::CullFace));
    let aspect = params.width as f32 / params.height as f32;
    for frame in 0..params.frames {
        let mvp = camera(frame, params.frames, 4.0, 1.0, aspect);
        w.call(GlCall::ClearColor { r: 0.1, g: 0.1, b: 0.15, a: 1.0 });
        w.call(GlCall::Clear { mask: clear_mask::COLOR | clear_mask::DEPTH });
        w.mvp(&mvp);
        w.call(GlCall::DrawElements {
            primitive: GlPrimitive::Triangles,
            index_buffer: ib,
            count: cube.indices.len() as u32,
        });
        w.call(GlCall::SwapBuffers);
    }
    GlTrace { width: params.width, height: params.height, calls: w.calls }
}

/// A texture-streaming workload: every frame uploads a fresh
/// `texture_size`² texture over the system bus before drawing one small
/// textured triangle with it.
///
/// The upload dominates: while the bus crawls through the pixel data the
/// whole pipeline is drained, so most simulated cycles are provably idle.
/// This is the stress case for the event-horizon scheduler — the other
/// workloads measure that skipping costs nothing when there is no
/// idleness; this one measures how much it saves when there is.
pub fn texture_stream(params: WorkloadParams) -> GlTrace {
    let mut rng = TinyRng::new(params.seed ^ 0x57E4);
    let mut w = SceneWriter::new();
    let vp = w.program("!!ATTILAvp1.0\nMOV o0, i0;\nMOV o1, i1;\nEND;");
    let fp = w.program("!!ATTILAfp1.0\nTEX r0, i0, texture[0], 2D;\nMOV o0, r0;\nEND;");
    w.use_programs(vp, fp);
    let mut mesh = Mesh::default();
    mesh.push_vertex([-0.2, -0.2, 0.0], [0.0, 0.0], [0.0, 0.0, 1.0]);
    mesh.push_vertex([0.2, -0.2, 0.0], [1.0, 0.0], [0.0, 0.0, 1.0]);
    mesh.push_vertex([0.0, 0.2, 0.0], [0.5, 1.0], [0.0, 0.0, 1.0]);
    let vb = w.id();
    w.call(GlCall::BufferData { id: vb, data: mesh.data.clone() });
    w.bind_mesh(vb);
    w.call(GlCall::ClearColor { r: 0.02, g: 0.02, b: 0.05, a: 1.0 });
    for frame in 0..params.frames {
        // A fresh texture per frame: nothing is resident, every texel
        // crosses the system bus again.
        let shade = 80 + ((frame * 37) % 120) as u8;
        let tex = w.texture(
            params.texture_size,
            GlTexFormat::Rgba8,
            checker_texture(params.texture_size, &mut rng, [shade, 60, 40], [250, 240, 220]),
            false,
            1,
        );
        w.call(GlCall::BindTexture { unit: 0, id: tex });
        w.call(GlCall::Clear { mask: clear_mask::COLOR | clear_mask::DEPTH });
        w.call(GlCall::DrawArrays { primitive: GlPrimitive::Triangles, count: 3 });
        w.call(GlCall::SwapBuffers);
    }
    GlTrace { width: params.width, height: params.height, calls: w.calls }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_compiles() {
        let cmds = quickstart_triangle(64, 64);
        assert!(cmds.iter().any(|c| matches!(c, GpuCommand::Draw(_))));
        assert!(cmds.iter().any(|c| matches!(c, GpuCommand::Swap)));
    }

    #[test]
    fn doom3_like_has_multipass_structure() {
        let trace = doom3_like(WorkloadParams {
            width: 64,
            height: 64,
            frames: 1,
            texture_size: 32,
            ..Default::default()
        });
        assert_eq!(trace.frame_count(), 1);
        // Ambient + 2 lights × (2 volume passes + 1 light pass) = 7 draws.
        let draws = trace
            .calls
            .iter()
            .filter(|c| matches!(c, GlCall::DrawElements { .. }))
            .count();
        assert_eq!(draws, 7);
        // Stencil is actually exercised.
        assert!(trace.calls.iter().any(|c| matches!(
            c,
            GlCall::StencilOpSet { dpfail: GlStencilOp::IncrWrap, .. }
        )));
        // Compiles into a command stream.
        let cmds = compile(trace.width, trace.height, &trace.calls).unwrap();
        assert!(cmds.iter().filter(|c| matches!(c, GpuCommand::Draw(_))).count() >= 7);
    }

    #[test]
    fn ut2004_like_is_single_pass_multitexture() {
        let trace = ut2004_like(WorkloadParams {
            width: 64,
            height: 64,
            frames: 2,
            texture_size: 32,
            ..Default::default()
        });
        assert_eq!(trace.frame_count(), 2);
        assert!(!trace.calls.iter().any(|c| matches!(c, GlCall::Enable(GlCap::StencilTest))));
        let cmds = compile(trace.width, trace.height, &trace.calls).unwrap();
        assert!(!cmds.is_empty());
    }

    #[test]
    fn workloads_are_deterministic() {
        let p = WorkloadParams { width: 64, height: 64, frames: 1, texture_size: 32, ..Default::default() };
        assert_eq!(doom3_like(p), doom3_like(p));
        assert_eq!(ut2004_like(p), ut2004_like(p));
        let p2 = WorkloadParams { seed: 99, ..p };
        assert_ne!(doom3_like(p), doom3_like(p2), "different seeds differ");
    }

    #[test]
    fn fillrate_layers_scale_draw_size() {
        let t1 = fillrate(64, 64, 1, true);
        let t4 = fillrate(64, 64, 4, true);
        let count = |t: &GlTrace| {
            t.calls
                .iter()
                .find_map(|c| match c {
                    GlCall::DrawElements { count, .. } => Some(*count),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(count(&t1), 6);
        assert_eq!(count(&t4), 24);
    }

    #[test]
    fn embedded_scene_compiles() {
        let trace = embedded_scene(WorkloadParams {
            width: 48,
            height: 48,
            frames: 1,
            texture_size: 32,
            ..Default::default()
        });
        let cmds = compile(trace.width, trace.height, &trace.calls).unwrap();
        assert!(cmds.iter().any(|c| matches!(c, GpuCommand::Draw(_))));
    }

    #[test]
    fn texture_stream_uploads_fresh_textures_each_frame() {
        let trace = texture_stream(WorkloadParams {
            width: 48,
            height: 48,
            frames: 3,
            texture_size: 32,
            ..Default::default()
        });
        assert_eq!(trace.frame_count(), 3);
        let uploads =
            trace.calls.iter().filter(|c| matches!(c, GlCall::TexImage2D { .. })).count();
        assert_eq!(uploads, 3, "one fresh texture per frame");
        let cmds = compile(trace.width, trace.height, &trace.calls).unwrap();
        assert_eq!(cmds.iter().filter(|c| matches!(c, GpuCommand::Draw(_))).count(), 3);
    }

    /// FNV-1a 64 over every `WriteBuffer` of the compiled stream in order
    /// (address as 8 LE bytes, then the payload), then the decimal
    /// command count.
    fn upload_hash(trace: &GlTrace) -> u64 {
        let cmds = compile(trace.width, trace.height, &trace.calls).unwrap();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for c in &cmds {
            if let GpuCommand::WriteBuffer { address, data } = c {
                eat(&address.to_le_bytes());
                eat(data);
            }
        }
        eat(cmds.len().to_string().as_bytes());
        h
    }

    /// Every generator's compiled uploads, byte for byte. Between them
    /// they cover RGBA8 with and without mips, RGB8, L8 with and without
    /// mips and DXT1; the 20² size gives odd mip levels and part-filled
    /// DXT blocks. A change to a generator, to `tex_image_2d` or to an
    /// encoder that moves a single texel byte fails here.
    #[test]
    fn compiled_uploads_are_pinned() {
        let p = WorkloadParams {
            width: 48,
            height: 40,
            frames: 2,
            texture_size: 20,
            ..Default::default()
        };
        let cases = [
            ("quickstart", upload_hash(&quickstart_trace(48, 40))),
            ("doom3_like", upload_hash(&doom3_like(p))),
            ("ut2004_like", upload_hash(&ut2004_like(p))),
            ("fillrate", upload_hash(&fillrate(48, 40, 3, true))),
            ("embedded_scene", upload_hash(&embedded_scene(p))),
            ("texture_stream", upload_hash(&texture_stream(p))),
        ];
        let pinned = [
            ("quickstart", 0x6c1a_0944_2cec_ba2c),
            ("doom3_like", 0xc44a_bfcf_1e3b_c0dc),
            ("ut2004_like", 0xb50d_5cb3_2448_913a),
            ("fillrate", 0x3ee1_d16a_e049_2cea),
            ("embedded_scene", 0xd7e6_6529_5cc3_5fdd),
            ("texture_stream", 0x1bb6_4f3f_8682_6d99),
        ];
        let hex = |list: &[(&str, u64)]| -> Vec<String> {
            list.iter().map(|(name, h)| format!("{name} {h:016x}")).collect()
        };
        assert_eq!(hex(&cases), hex(&pinned), "compiled uploads moved");
    }
}
