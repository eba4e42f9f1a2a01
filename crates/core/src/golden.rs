//! The golden-model renderer: pure functional execution of a command
//! trace, with no timing at all.
//!
//! The paper validates the simulator's rendered output against a real GPU
//! (Figure 10). We cannot ship a GeForce, so the golden model plays that
//! role: it consumes the *same* Command Processor trace through the *same*
//! emulator libraries, but in straight-line code — no boxes, signals,
//! caches or schedulers. Any pixel difference between the cycle-level
//! simulator's DAC dump and the golden model is a timing-model bug
//! (reordering, lost fragments, cache incoherence), which is exactly what
//! the comparison is meant to catch.
//!
//! Fragments are processed in 2×2 quads so texture level-of-detail
//! derivatives match the hardware path bit-for-bit.

use std::sync::Arc;

use attila_emu::fragops::{
    blend, pack_rgba8, quantize_depth, unpack_rgba8, z_stencil_test,
};
use attila_emu::raster::{gen_fragment, setup_triangle, SetupTriangle};
use attila_emu::shader::ShaderEmulator;
use attila_emu::texture::TextureEmulator;
use attila_emu::vector::Vec4;
use attila_emu::ClipperEmulator;
use attila_emu::isa::limits;

use crate::address::pixel_address;
use crate::commands::{GpuCommand, Primitive};
use crate::config::GpuConfig;
use crate::gpu::FrameDump;
use crate::state::{CullMode, RenderState};

/// The golden-model renderer.
pub struct GoldenRenderer {
    memory: Vec<u8>,
    state: Arc<RenderState>,
    frames: Vec<FrameDump>,
    clipper: ClipperEmulator,
    texture: TextureEmulator,
    /// The anisotropy limit of the texture units being modelled.
    max_aniso: u32,
    triangles_drawn: u64,
}

impl GoldenRenderer {
    /// Creates a renderer with `memory_bytes` of GPU memory, sampling as
    /// the baseline configuration's texture units do (up to 8:1
    /// anisotropy).
    pub fn new(memory_bytes: usize) -> Self {
        GoldenRenderer {
            memory: vec![0; memory_bytes],
            state: Arc::new(RenderState::default()),
            frames: Vec::new(),
            clipper: ClipperEmulator::new(),
            texture: TextureEmulator::new(),
            max_aniso: GpuConfig::baseline().texture.max_aniso,
            triangles_drawn: 0,
        }
    }

    /// Samples as texture units limited to `max_aniso`:1 anisotropy do —
    /// pass the simulated configuration's `texture.max_aniso`.
    pub fn with_max_aniso(mut self, max_aniso: u32) -> Self {
        self.max_aniso = max_aniso;
        self
    }

    /// Runs a whole command trace, returning one frame per `Swap`.
    pub fn run_trace(&mut self, commands: &[GpuCommand]) -> Vec<FrameDump> {
        for cmd in commands {
            self.execute(cmd);
        }
        std::mem::take(&mut self.frames)
    }

    /// Triangles rasterized so far.
    pub fn triangles_drawn(&self) -> u64 {
        self.triangles_drawn
    }

    fn execute(&mut self, cmd: &GpuCommand) {
        match cmd {
            GpuCommand::SetState(s) => self.state = Arc::new((**s).clone()),
            GpuCommand::WriteBuffer { address, data } => {
                let a = *address as usize;
                self.memory[a..a + data.len()].copy_from_slice(data);
            }
            GpuCommand::LoadPrograms => {}
            GpuCommand::FastClearColor(word) => {
                let state = Arc::clone(&self.state);
                self.fill_surface(state.color_buffer, state.target_width, state.target_height, *word);
            }
            GpuCommand::FastClearZStencil(word) => {
                let state = Arc::clone(&self.state);
                self.fill_surface(state.z_buffer, state.target_width, state.target_height, *word);
            }
            GpuCommand::Draw(draw) => {
                let draw = draw.clone();
                self.draw(&draw);
            }
            GpuCommand::Swap => {
                let state = Arc::clone(&self.state);
                self.frames.push(self.dump(
                    state.color_buffer,
                    state.target_width,
                    state.target_height,
                ));
            }
        }
    }

    fn fill_surface(&mut self, base: u64, width: u32, height: u32, word: u32) {
        let bytes = crate::address::surface_bytes(width, height);
        for off in (0..bytes).step_by(4) {
            let a = (base + off) as usize;
            self.memory[a..a + 4].copy_from_slice(&word.to_le_bytes());
        }
    }

    fn read_u32(&self, addr: u64) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.memory[a..a + 4].try_into().expect("4 bytes"))
    }

    fn write_u32(&mut self, addr: u64, v: u32) {
        let a = addr as usize;
        self.memory[a..a + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn fetch_vertex(&self, state: &RenderState, index: u32) -> Vec<Vec4> {
        let mut inputs = Vec::new();
        for binding in state.attributes.iter() {
            let Some(b) = binding else {
                inputs.push(Vec4::ZERO);
                continue;
            };
            let addr = b.element_address(index);
            let mut v = Vec4::new(0.0, 0.0, 0.0, b.default_w);
            for c in 0..b.components as usize {
                let a = (addr + c as u64 * 4) as usize;
                v[c] = f32::from_le_bytes(self.memory[a..a + 4].try_into().expect("4 bytes"));
            }
            inputs.push(v);
        }
        inputs
    }

    fn draw(&mut self, draw: &crate::commands::DrawCall) {
        let state = Arc::clone(&self.state);
        // Vertex shading.
        let mut vs = ShaderEmulator::new(Arc::clone(&state.vertex_program));
        for (i, c) in state.vertex_constants.iter().take(limits::PARAMS).enumerate() {
            vs.set_constant(i, *c);
        }
        let mut shaded: Vec<Arc<[Vec4; limits::OUTPUTS]>> = Vec::new();
        for seq in 0..draw.vertex_count {
            let index = match draw.index_buffer {
                Some(ib) => self.read_u32(ib + seq as u64 * 4),
                None => seq,
            };
            let inputs = self.fetch_vertex(&state, index);
            let t = vs.spawn(&inputs);
            let (outputs, _) = vs.run_to_end(t, |_| Vec4::ZERO);
            vs.retire(t);
            shaded.push(Arc::new(outputs));
        }

        // Primitive assembly (same rules as the box).
        let tris = assemble(draw.primitive, &shaded);

        // Fragment shading setup.
        let mut fs = ShaderEmulator::new(Arc::clone(&state.fragment_program));
        for (i, c) in state.fragment_constants.iter().take(limits::PARAMS).enumerate() {
            fs.set_constant(i, *c);
        }

        for tri in tris {
            let positions = [tri[0][0], tri[1][0], tri[2][0]];
            if self.clipper.trivially_rejected(&positions) {
                continue;
            }
            let Some(setup) = setup_triangle(&positions, state.viewport) else { continue };
            let cull = match state.cull {
                CullMode::None => false,
                CullMode::Front => setup.front_facing,
                CullMode::Back => !setup.front_facing,
            };
            if cull {
                continue;
            }
            self.triangles_drawn += 1;
            self.raster_triangle(&state, &setup, &tri, &mut fs);
        }
    }

    fn raster_triangle(
        &mut self,
        state: &RenderState,
        setup: &SetupTriangle,
        tri: &[Arc<[Vec4; limits::OUTPUTS]>; 3],
        fs: &mut ShaderEmulator,
    ) {
        let vp = state.viewport;
        let (x0, y0, x1, y1) = setup.bbox;
        let early = state.early_z();
        let varyings = state.varying_count as usize;
        let qx0 = x0 & !1;
        let qy0 = y0 & !1;
        let mut qy = qy0;
        while qy <= y1 {
            let mut qx = qx0;
            while qx <= x1 {
                // Coverage for the quad.
                let mut alive = [false; 4];
                let mut edges = [[0.0f32; 3]; 4];
                let mut depth = [0.0f32; 4];
                let mut any = false;
                for i in 0..4 {
                    let x = qx + (i as u32 & 1);
                    let y = qy + (i as u32 >> 1);
                    let in_vp =
                        x >= vp.x && x < vp.x + vp.width && y >= vp.y && y < vp.y + vp.height;
                    let f = gen_fragment(setup, x, y);
                    let ok = in_vp
                        && !f.culled
                        && state.scissor.contains(x, y)
                        && (0.0..=1.0).contains(&f.depth);
                    alive[i] = ok;
                    edges[i] = f.edges;
                    depth[i] = f.depth;
                    any |= ok;
                }
                if !any {
                    qx += 2;
                    continue;
                }

                // Early Z/stencil.
                if early {
                    for i in 0..4 {
                        if alive[i] {
                            alive[i] =
                                self.z_test(state, setup.front_facing, qx, qy, i, depth[i]);
                        }
                    }
                    if !alive.iter().any(|a| *a) {
                        qx += 2;
                        continue;
                    }
                }

                // Interpolate inputs for all four fragments (helpers too).
                let mut inputs: [Vec<Vec4>; 4] = Default::default();
                for i in 0..4 {
                    let mut v = Vec::with_capacity(varyings);
                    for a in 0..varyings {
                        let attrs = [tri[0][a + 1], tri[1][a + 1], tri[2][a + 1]];
                        v.push(setup.interpolate(edges[i], &attrs));
                    }
                    inputs[i] = v;
                }

                // Shade the quad in lockstep with quad-level texturing.
                let (colors, killed) = self.shade_quad(state, fs, &inputs);
                for i in 0..4 {
                    if killed[i] {
                        alive[i] = false;
                    }
                }

                // Late Z/stencil.
                if !early {
                    for i in 0..4 {
                        if alive[i] {
                            alive[i] =
                                self.z_test(state, setup.front_facing, qx, qy, i, depth[i]);
                        }
                    }
                }

                // Colour write.
                for i in 0..4 {
                    if !alive[i] {
                        continue;
                    }
                    let x = qx + (i as u32 & 1);
                    let y = qy + (i as u32 >> 1);
                    let addr = pixel_address(state.color_buffer, state.target_width, x, y);
                    let a = addr as usize;
                    let dst = unpack_rgba8(self.memory[a..a + 4].try_into().expect("4 bytes"));
                    let out = blend(&state.blend, colors[i], dst);
                    let packed = pack_rgba8(out);
                    self.memory[a..a + 4].copy_from_slice(&packed);
                }
                qx += 2;
            }
            qy += 2;
        }
    }

    fn z_test(
        &mut self,
        state: &RenderState,
        front_facing: bool,
        qx: u32,
        qy: u32,
        i: usize,
        depth: f32,
    ) -> bool {
        if !state.depth.enabled && !state.stencil.enabled {
            return true;
        }
        let stencil = if front_facing {
            state.stencil
        } else {
            state.stencil_back.unwrap_or(state.stencil)
        };
        let x = qx + (i as u32 & 1);
        let y = qy + (i as u32 >> 1);
        let addr = pixel_address(state.z_buffer, state.target_width, x, y);
        let stored = self.read_u32(addr);
        let r = z_stencil_test(state.depth, stencil, quantize_depth(depth), stored);
        if r.written {
            self.write_u32(addr, r.new_word);
        }
        r.pass
    }

    fn shade_quad(
        &mut self,
        state: &RenderState,
        fs: &mut ShaderEmulator,
        inputs: &[Vec<Vec4>; 4],
    ) -> ([Vec4; 4], [bool; 4]) {
        let threads = [0, 1, 2, 3].map(|i| fs.spawn(&inputs[i]));
        let mut finished = [false; 4];
        let mut killed = [false; 4];
        // Lockstep until all threads finish; texture requests are bundled
        // per quad to compute derivatives exactly like the Texture Unit.
        while !finished.iter().all(|f| *f) {
            let step = fs.step_group(&threads, &finished);
            for i in 0..4 {
                if step.finished[i] {
                    finished[i] = true;
                    killed[i] = step.killed[i];
                }
            }
            if let Some(tex) = step.texture {
                let texels =
                    self.sample_quad(state, tex.sampler, tex.coords, tex.lod_bias, tex.projective);
                for i in 0..4 {
                    if tex.lanes[i] {
                        fs.complete_texture(threads[i], texels[i]);
                    }
                }
            }
        }
        let mut colors = [Vec4::ZERO; 4];
        for i in 0..4 {
            colors[i] = fs.output(threads[i], 0);
            fs.retire(threads[i]);
        }
        (colors, killed)
    }

    fn sample_quad(
        &self,
        state: &RenderState,
        sampler: u8,
        coords: [Vec4; 4],
        lod_bias: f32,
        projective: bool,
    ) -> [Vec4; 4] {
        let Some(desc) = state.sampler_desc(sampler, self.max_aniso) else {
            return [Vec4::new(0.0, 0.0, 0.0, 1.0); 4];
        };
        let mut src: &[u8] = &self.memory;
        let results = self.texture.sample_quad(&desc, &mut src, &coords, lod_bias, projective);
        [results[0].value, results[1].value, results[2].value, results[3].value]
    }

    fn dump(&self, base: u64, width: u32, height: u32) -> FrameDump {
        let mut rgba = vec![0u8; (width * height * 4) as usize];
        for y in 0..height {
            for x in 0..width {
                let addr = pixel_address(base, width, x, y) as usize;
                let o = ((y * width + x) * 4) as usize;
                rgba[o..o + 4].copy_from_slice(&self.memory[addr..addr + 4]);
            }
        }
        FrameDump { width, height, rgba }
    }
}

impl std::fmt::Debug for GoldenRenderer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GoldenRenderer")
            .field("memory_bytes", &self.memory.len())
            .field("frames", &self.frames.len())
            .field("triangles_drawn", &self.triangles_drawn)
            .finish()
    }
}

/// Assembles vertices into triangles following the Primitive Assembly
/// box's rules. This is an *intentionally independent* re-implementation
/// (like the golden model's raw memory): sharing code with the timing box
/// would hide assembly bugs from the golden-equivalence comparison. The
/// two are kept in lockstep by the integration tests.
fn assemble<T: Clone>(prim: Primitive, verts: &[T]) -> Vec<[T; 3]> {
    let mut out = Vec::new();
    match prim {
        Primitive::Triangles => {
            for c in verts.chunks_exact(3) {
                out.push([c[0].clone(), c[1].clone(), c[2].clone()]);
            }
        }
        Primitive::TriangleStrip => {
            for (i, w) in verts.windows(3).enumerate() {
                if i % 2 == 0 {
                    out.push([w[0].clone(), w[1].clone(), w[2].clone()]);
                } else {
                    out.push([w[1].clone(), w[0].clone(), w[2].clone()]);
                }
            }
        }
        Primitive::TriangleFan => {
            for w in verts[1..].windows(2) {
                out.push([verts[0].clone(), w[0].clone(), w[1].clone()]);
            }
        }
        Primitive::Quads => {
            for c in verts.chunks_exact(4) {
                out.push([c[0].clone(), c[1].clone(), c[2].clone()]);
                out.push([c[0].clone(), c[2].clone(), c[3].clone()]);
            }
        }
        Primitive::QuadStrip => {
            let mut i = 0;
            while i + 3 < verts.len() {
                out.push([verts[i].clone(), verts[i + 1].clone(), verts[i + 3].clone()]);
                out.push([verts[i].clone(), verts[i + 3].clone(), verts[i + 2].clone()]);
                i += 2;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_matches_primitive_counts() {
        let v: Vec<u32> = (0..8).collect();
        assert_eq!(assemble(Primitive::Triangles, &v[..6]).len(), 2);
        assert_eq!(assemble(Primitive::TriangleStrip, &v[..5]).len(), 3);
        assert_eq!(assemble(Primitive::TriangleFan, &v[..5]).len(), 3);
        assert_eq!(assemble(Primitive::Quads, &v[..8]).len(), 4);
        assert_eq!(assemble(Primitive::QuadStrip, &v[..6]).len(), 4);
    }

    #[test]
    fn strip_winding_matches_pa_box() {
        let v: Vec<u32> = (0..4).collect();
        let tris = assemble(Primitive::TriangleStrip, &v);
        assert_eq!(tris[0], [0, 1, 2]);
        assert_eq!(tris[1], [2, 1, 3]);
    }
}
