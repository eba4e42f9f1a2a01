//! The texture emulator.
//!
//! Per the paper (§3), the `TextureEmulator` "calculates memory addresses
//! for texture accesses, calculates the number of samples for anisotropic
//! filtering, converts texel data into the internal format and filters the
//! sampled texel data. It also implements decompression functions for
//! compressed textures."
//!
//! Texture data lives in GPU memory; the emulator reads raw bytes through
//! the [`TexelSource`] trait so the *timing* model (Texture Unit box) can
//! interpose its cache while the *golden* model reads memory directly —
//! both see identical texel bytes, which is what makes the simulator
//! execution-driven.
//!
//! Supported (paper §2.2): 1D/2D/3D/cube targets, mipmapping with LOD from
//! quad derivatives, point/bilinear/trilinear filtering (one bilinear
//! sample per cycle, a trilinear sample every two cycles in the timing
//! model), anisotropic filtering up to a configurable sample count, wrap
//! modes, and DXT1/DXT3-style block compression.

use crate::isa::TexTarget;
use crate::vector::Vec4;

/// Source of raw texture bytes (GPU memory, optionally behind a cache).
pub trait TexelSource {
    /// Copies `buf.len()` bytes starting at byte address `addr`.
    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]);
}

/// A flat byte slice as a texel source (addresses index the slice).
impl TexelSource for &[u8] {
    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        let start = addr as usize;
        buf.copy_from_slice(&self[start..start + buf.len()]);
    }
}

/// Texel storage formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TexFormat {
    /// 8-bit red/green/blue/alpha.
    Rgba8,
    /// 8-bit red/green/blue, alpha reads as 1.
    Rgb8,
    /// 8-bit luminance replicated to rgb, alpha reads as 1.
    L8,
    /// 8-bit alpha, rgb read as 0.
    A8,
    /// DXT1-style block compression: 4×4 texels in 8 bytes (1:8 for RGBA).
    Dxt1,
    /// DXT3-style block compression: 4×4 texels in 16 bytes, explicit
    /// 4-bit alpha (1:4).
    Dxt3,
}

impl TexFormat {
    /// Bytes per texel for uncompressed formats.
    ///
    /// # Panics
    ///
    /// Panics for compressed formats; use [`block_bytes`](Self::block_bytes).
    pub fn bytes_per_texel(self) -> u32 {
        match self {
            TexFormat::Rgba8 => 4,
            TexFormat::Rgb8 => 3,
            TexFormat::L8 | TexFormat::A8 => 1,
            TexFormat::Dxt1 | TexFormat::Dxt3 => {
                panic!("compressed formats have no per-texel size")
            }
        }
    }

    /// Whether the format is block compressed.
    pub fn is_compressed(self) -> bool {
        matches!(self, TexFormat::Dxt1 | TexFormat::Dxt3)
    }

    /// Bytes per 4×4 block for compressed formats.
    pub fn block_bytes(self) -> u32 {
        match self {
            TexFormat::Dxt1 => 8,
            TexFormat::Dxt3 => 16,
            _ => panic!("{self:?} is not block compressed"),
        }
    }
}

/// Texture coordinate wrap modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WrapMode {
    /// Repeat the texture (`GL_REPEAT`).
    #[default]
    Repeat,
    /// Clamp to the edge texel (`GL_CLAMP_TO_EDGE`).
    Clamp,
    /// Mirror every other repetition (`GL_MIRRORED_REPEAT`).
    Mirror,
}

impl WrapMode {
    /// Wraps texel index `i` into `[0, size)`.
    pub fn wrap(self, i: i64, size: u32) -> u32 {
        let n = size as i64;
        debug_assert!(n > 0);
        match self {
            WrapMode::Repeat => (i.rem_euclid(n)) as u32,
            WrapMode::Clamp => i.clamp(0, n - 1) as u32,
            WrapMode::Mirror => {
                let period = 2 * n;
                let m = i.rem_euclid(period);
                if m < n {
                    m as u32
                } else {
                    (period - 1 - m) as u32
                }
            }
        }
    }
}

/// Memory layout of an uncompressed texture.
///
/// Ordinary textures use 4×4-texel tiles; **render targets** keep the
/// framebuffer's 8×8-pixel tile layout so the Color Write unit and the
/// Texture Unit address the same bytes — the paper's render-to-texture
/// future-work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TexLayout {
    /// 4×4-texel tiles (the sampling-optimal layout).
    #[default]
    Tiled4,
    /// 8×8-pixel framebuffer tiles (256-byte ROP cache lines).
    FbTiled8,
}

/// Texture filtering modes (minification; magnification uses the
/// non-mipmapped variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TexFilter {
    /// Nearest texel, base level.
    Nearest,
    /// Bilinear, base level.
    #[default]
    Bilinear,
    /// Nearest mip level, bilinear within it.
    BilinearMipNearest,
    /// Full trilinear (linear between two bilinear samples).
    Trilinear,
}

/// A texture descriptor: geometry, format, sampling state and its location
/// in GPU memory.
#[derive(Debug, Clone, PartialEq)]
pub struct TextureDesc {
    /// Texture target.
    pub target: TexTarget,
    /// Base-level width in texels.
    pub width: u32,
    /// Base-level height (1 for 1D).
    pub height: u32,
    /// Base-level depth (1 unless 3D).
    pub depth: u32,
    /// Texel format.
    pub format: TexFormat,
    /// Number of mip levels present (1 = no mipmapping).
    pub mip_levels: u32,
    /// Wrap mode for `s`.
    pub wrap_s: WrapMode,
    /// Wrap mode for `t`.
    pub wrap_t: WrapMode,
    /// Wrap mode for `r`.
    pub wrap_r: WrapMode,
    /// Filter used when minifying.
    pub min_filter: TexFilter,
    /// Maximum anisotropy (1 = isotropic; the paper's case study uses 8).
    pub max_aniso: u32,
    /// Byte address of mip level 0 in GPU memory.
    pub base_address: u64,
    /// Memory layout (render targets use the framebuffer layout).
    pub layout: TexLayout,
}

impl TextureDesc {
    /// A 2D RGBA8 descriptor with default sampling state.
    pub fn new_2d(width: u32, height: u32, format: TexFormat, base_address: u64) -> Self {
        TextureDesc {
            target: TexTarget::Tex2D,
            width,
            height,
            depth: 1,
            format,
            mip_levels: 1,
            wrap_s: WrapMode::default(),
            wrap_t: WrapMode::default(),
            wrap_r: WrapMode::default(),
            min_filter: TexFilter::default(),
            max_aniso: 1,
            base_address,
            layout: TexLayout::default(),
        }
    }

    /// A descriptor for sampling a rendered RGBA8 framebuffer surface:
    /// 8×8 framebuffer tiling, single mip, edge clamping.
    pub fn new_render_target(width: u32, height: u32, base_address: u64) -> Self {
        let mut d = TextureDesc::new_2d(width, height, TexFormat::Rgba8, base_address);
        d.layout = TexLayout::FbTiled8;
        d.wrap_s = WrapMode::Clamp;
        d.wrap_t = WrapMode::Clamp;
        d
    }

    /// Enables a full mip chain down to 1×1.
    pub fn with_full_mips(mut self) -> Self {
        self.mip_levels = full_mip_levels(self.width, self.height, self.depth);
        self.min_filter = TexFilter::Trilinear;
        self
    }

    /// Dimensions of mip `level`.
    pub fn level_dims(&self, level: u32) -> (u32, u32, u32) {
        (
            (self.width >> level).max(1),
            (self.height >> level).max(1),
            (self.depth >> level).max(1),
        )
    }

    /// Byte size of one face of mip `level`.
    pub fn level_bytes(&self, level: u32) -> u64 {
        let (w, h, d) = self.level_dims(level);
        if self.format.is_compressed() {
            let bw = w.div_ceil(4) as u64;
            let bh = h.div_ceil(4) as u64;
            bw * bh * d as u64 * self.format.block_bytes() as u64
        } else if self.layout == TexLayout::FbTiled8 {
            w.div_ceil(8) as u64 * h.div_ceil(8) as u64 * 64 * d as u64
                * self.format.bytes_per_texel() as u64
        } else {
            // Tiled4 pads each level to whole 4×4 tiles, exactly as
            // `encode_tiled` lays the data out — otherwise per-level base
            // addresses diverge for dimensions not divisible by 4.
            w.div_ceil(4) as u64 * h.div_ceil(4) as u64 * 16 * d as u64
                * self.format.bytes_per_texel() as u64
        }
    }

    /// Byte offset of one face of mip `level` from the base address.
    pub fn level_offset(&self, level: u32) -> u64 {
        (0..level).map(|l| self.level_bytes(l) * self.faces() as u64).sum()
    }

    /// Number of faces (6 for cube maps, 1 otherwise).
    pub fn faces(&self) -> u32 {
        if self.target == TexTarget::Cube {
            6
        } else {
            1
        }
    }

    /// Total bytes of storage for all mips and faces — what the driver
    /// must allocate.
    pub fn total_bytes(&self) -> u64 {
        (0..self.mip_levels).map(|l| self.level_bytes(l) * self.faces() as u64).sum()
    }
}

/// Number of mip levels for a full chain.
pub fn full_mip_levels(w: u32, h: u32, d: u32) -> u32 {
    let m = w.max(h).max(d).max(1);
    32 - m.leading_zeros()
}

/// Byte ranges `(start, length)` one sample read from memory.
///
/// A bilinear sample reads four texels and a trilinear one eight, once per
/// fragment per texture instruction, so the list keeps that many entries
/// inline; only anisotropic sampling (up to `max_aniso` probes) moves it to
/// the heap. Reads as a slice.
#[derive(Clone, Default)]
pub struct AccessList {
    /// Entries held in `inline`; meaningless once `spill` is in use.
    len: usize,
    inline: [(u64, u32); AccessList::INLINE],
    /// Every entry, once there are more than `INLINE` of them.
    spill: Vec<(u64, u32)>,
}

impl AccessList {
    /// Entries stored without touching the heap: a trilinear sample's
    /// eight taps.
    const INLINE: usize = 8;

    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `total` entries in one step, for callers that know
    /// they will exceed the inline capacity.
    pub fn reserve(&mut self, total: usize) {
        if total > Self::INLINE {
            self.spill.reserve(total);
        }
    }

    /// Appends one access.
    pub fn push(&mut self, access: (u64, u32)) {
        if !self.spill.is_empty() {
            self.spill.push(access);
        } else if self.len < Self::INLINE {
            self.inline[self.len] = access;
            self.len += 1;
        } else {
            self.spill.reserve(2 * Self::INLINE);
            self.spill.extend_from_slice(&self.inline);
            self.spill.push(access);
        }
    }
}

impl std::ops::Deref for AccessList {
    type Target = [(u64, u32)];

    fn deref(&self) -> &[(u64, u32)] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl std::fmt::Debug for AccessList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl PartialEq for AccessList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// The result of sampling: the filtered texel plus the memory footprint of
/// the access (the byte ranges read), which the timing model converts into
/// texture-cache lookups. Execution-driven simulation in a nutshell: real
/// addresses, real bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleResult {
    /// Filtered texel, RGBA in `[0,1]`.
    pub value: Vec4,
    /// Byte addresses (start, length) read from memory for this sample.
    pub accesses: AccessList,
    /// Number of bilinear sample operations the access cost (1 for
    /// bilinear, 2 for trilinear, up to `max_aniso`×2 for anisotropic) —
    /// drives the Texture Unit's throughput model.
    pub bilinear_ops: u32,
}

/// The texture emulator. Stateless; all per-texture state lives in
/// [`TextureDesc`].
#[derive(Debug, Default, Clone)]
pub struct TextureEmulator;

impl TextureEmulator {
    /// Creates the emulator.
    pub fn new() -> Self {
        TextureEmulator
    }

    /// Computes the mip LOD for a fragment quad from coordinate
    /// derivatives, as hardware does: the quad's 2×2 arrangement provides
    /// `d(u,v)/dx` and `d(u,v)/dy` for free.
    ///
    /// `coords` are the four fragments' texture coordinates in quad order
    /// `[(x,y), (x+1,y), (x,y+1), (x+1,y+1)]`. Returns `(lod, aniso_ratio,
    /// major_axis)` where `aniso_ratio ≥ 1`.
    pub fn quad_lod(&self, desc: &TextureDesc, coords: &[Vec4; 4]) -> (f32, f32, (f32, f32)) {
        let (w, h) = (desc.width as f32, desc.height as f32);
        let dx_u = (coords[1].x - coords[0].x) * w;
        let dx_v = (coords[1].y - coords[0].y) * h;
        let dy_u = (coords[2].x - coords[0].x) * w;
        let dy_v = (coords[2].y - coords[0].y) * h;
        let len_x = (dx_u * dx_u + dx_v * dx_v).sqrt();
        let len_y = (dy_u * dy_u + dy_v * dy_v).sqrt();
        let (major, minor) = if len_x >= len_y { (len_x, len_y) } else { (len_y, len_x) };
        let (major_du, major_dv) =
            if len_x >= len_y { (dx_u / w, dx_v / h) } else { (dy_u / w, dy_v / h) };
        let aniso = if minor > 1e-6 { (major / minor).min(desc.max_aniso as f32) } else { 1.0 };
        // With anisotropic filtering the LOD follows the *minor* axis.
        let rho = if desc.max_aniso > 1 { (major / aniso).max(minor) } else { major };
        let lod = if rho > 1e-6 { rho.log2() } else { 0.0 };
        (lod, aniso, (major_du, major_dv))
    }

    /// Samples a whole 2×2 fragment quad (the basic work unit of the
    /// fragment pipeline), computing LOD from the quad derivatives.
    pub fn sample_quad(
        &self,
        desc: &TextureDesc,
        mem: &mut dyn TexelSource,
        coords: &[Vec4; 4],
        lod_bias: f32,
        projective: bool,
    ) -> [SampleResult; 4] {
        let mut pc = *coords;
        if projective {
            for c in &mut pc {
                if c.w != 0.0 {
                    *c = Vec4::new(c.x / c.w, c.y / c.w, c.z / c.w, 1.0);
                }
            }
        }
        let (lod, aniso, major) = self.quad_lod(desc, &pc);
        let lod = lod + lod_bias;
        [
            self.sample_lod(desc, mem, pc[0], lod, aniso, major),
            self.sample_lod(desc, mem, pc[1], lod, aniso, major),
            self.sample_lod(desc, mem, pc[2], lod, aniso, major),
            self.sample_lod(desc, mem, pc[3], lod, aniso, major),
        ]
    }

    /// Samples at an explicit LOD (already biased). `aniso` ≥ 1 enables
    /// anisotropic sampling along `major`, the major-axis step in texture
    /// space.
    pub fn sample_lod(
        &self,
        desc: &TextureDesc,
        mem: &mut dyn TexelSource,
        coord: Vec4,
        lod: f32,
        aniso: f32,
        major: (f32, f32),
    ) -> SampleResult {
        let samples = aniso.round().max(1.0) as u32;
        if samples <= 1 {
            return self.sample_isotropic(desc, mem, coord, lod);
        }
        // Anisotropic: average several isotropic probes along the major
        // axis, as the paper's TextureEmulator "calculates the number of
        // samples for anisotropic filtering".
        let mut value = Vec4::ZERO;
        let mut accesses = AccessList::new();
        accesses.reserve(samples as usize * AccessList::INLINE);
        let mut ops = 0;
        for i in 0..samples {
            let t = (i as f32 + 0.5) / samples as f32 - 0.5;
            let probe = Vec4::new(coord.x + major.0 * t, coord.y + major.1 * t, coord.z, coord.w);
            let r = self.sample_isotropic(desc, mem, probe, lod);
            value = value + r.value;
            for access in r.accesses.iter() {
                accesses.push(*access);
            }
            ops += r.bilinear_ops;
        }
        SampleResult { value: value / samples as f32, accesses, bilinear_ops: ops }
    }

    fn sample_isotropic(
        &self,
        desc: &TextureDesc,
        mem: &mut dyn TexelSource,
        coord: Vec4,
        lod: f32,
    ) -> SampleResult {
        // Cube maps: pick a face, then sample it as 2D. 3D textures:
        // pick the nearest slice (the paper supports 3D targets; full
        // inter-slice filtering is not modelled).
        let (face, coord) = if desc.target == TexTarget::Cube {
            cube_face(coord)
        } else {
            (0, coord)
        };

        let max_level = desc.mip_levels.saturating_sub(1) as f32;
        let filter =
            if lod <= 0.0 { magnify_filter(desc.min_filter) } else { desc.min_filter };
        match filter {
            TexFilter::Nearest => {
                let mut acc = AccessList::new();
                let v = self.point_sample(desc, mem, coord, 0, face, &mut acc);
                SampleResult { value: v, accesses: acc, bilinear_ops: 1 }
            }
            TexFilter::Bilinear => {
                let mut acc = AccessList::new();
                let v = self.bilinear_sample(desc, mem, coord, 0, face, &mut acc);
                SampleResult { value: v, accesses: acc, bilinear_ops: 1 }
            }
            TexFilter::BilinearMipNearest => {
                let level = lod.round().clamp(0.0, max_level) as u32;
                let mut acc = AccessList::new();
                let v = self.bilinear_sample(desc, mem, coord, level, face, &mut acc);
                SampleResult { value: v, accesses: acc, bilinear_ops: 1 }
            }
            TexFilter::Trilinear => {
                let clamped = lod.clamp(0.0, max_level);
                let lo = clamped.floor() as u32;
                let hi = (lo + 1).min(desc.mip_levels - 1);
                let frac = clamped - lo as f32;
                let mut acc = AccessList::new();
                let a = self.bilinear_sample(desc, mem, coord, lo, face, &mut acc);
                if hi == lo || frac == 0.0 {
                    return SampleResult { value: a, accesses: acc, bilinear_ops: 1 };
                }
                let b = self.bilinear_sample(desc, mem, coord, hi, face, &mut acc);
                SampleResult { value: a.lerp(b, frac), accesses: acc, bilinear_ops: 2 }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn point_sample(
        &self,
        desc: &TextureDesc,
        mem: &mut dyn TexelSource,
        coord: Vec4,
        level: u32,
        face: u32,
        accesses: &mut AccessList,
    ) -> Vec4 {
        let (w, h, d) = desc.level_dims(level);
        let i = desc.wrap_s.wrap((coord.x * w as f32).floor() as i64, w);
        let j = desc.wrap_t.wrap((coord.y * h as f32).floor() as i64, h);
        let slice = slice_for(desc, coord, d);
        self.fetch_texel_3d(desc, mem, i, j, slice, level, face, accesses)
    }

    #[allow(clippy::too_many_arguments)]
    fn bilinear_sample(
        &self,
        desc: &TextureDesc,
        mem: &mut dyn TexelSource,
        coord: Vec4,
        level: u32,
        face: u32,
        accesses: &mut AccessList,
    ) -> Vec4 {
        let (w, h, d) = desc.level_dims(level);
        let slice = slice_for(desc, coord, d);
        let u = coord.x * w as f32 - 0.5;
        let v = coord.y * h as f32 - 0.5;
        let i0 = u.floor() as i64;
        let j0 = v.floor() as i64;
        let fu = u - i0 as f32;
        let fv = v - j0 as f32;
        let i0w = desc.wrap_s.wrap(i0, w);
        let i1w = desc.wrap_s.wrap(i0 + 1, w);
        let j0w = desc.wrap_t.wrap(j0, h);
        let j1w = desc.wrap_t.wrap(j0 + 1, h);
        // All four taps hit the same (level, face, slice) plane: resolve
        // the mip-chain walk behind its base address once, not per tap.
        let plane = plane_base(desc, level, face, slice);
        let t00 = self.fetch_texel_plane(desc, mem, plane, i0w, j0w, w, accesses);
        let t10 = self.fetch_texel_plane(desc, mem, plane, i1w, j0w, w, accesses);
        let t01 = self.fetch_texel_plane(desc, mem, plane, i0w, j1w, w, accesses);
        let t11 = self.fetch_texel_plane(desc, mem, plane, i1w, j1w, w, accesses);
        t00.lerp(t10, fu).lerp(t01.lerp(t11, fu), fv)
    }

    /// Fetches and converts a single texel of a 2D face, recording the
    /// memory access. This is also where texture *addresses* are computed
    /// — the function the timing model leans on for its cache lookups.
    ///
    /// The parameters are exactly the texel coordinates plus bookkeeping;
    /// there is no meaningful struct to bundle them into.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_texel(
        &self,
        desc: &TextureDesc,
        mem: &mut dyn TexelSource,
        i: u32,
        j: u32,
        level: u32,
        face: u32,
        accesses: &mut AccessList,
    ) -> Vec4 {
        self.fetch_texel_3d(desc, mem, i, j, 0, level, face, accesses)
    }

    /// [`fetch_texel`](Self::fetch_texel) with a 3D slice index.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_texel_3d(
        &self,
        desc: &TextureDesc,
        mem: &mut dyn TexelSource,
        i: u32,
        j: u32,
        slice: u32,
        level: u32,
        face: u32,
        accesses: &mut AccessList,
    ) -> Vec4 {
        let (w, h, d) = desc.level_dims(level);
        debug_assert!(i < w && j < h && slice < d);
        let face_base = plane_base(desc, level, face, slice);
        self.fetch_texel_plane(desc, mem, face_base, i, j, w, accesses)
    }

    /// Fetches one texel given the precomputed plane base address (see
    /// [`plane_base`]) — the per-tap remainder of
    /// [`fetch_texel_3d`](Self::fetch_texel_3d), shared with the bilinear
    /// path which resolves the plane once for its four taps.
    #[allow(clippy::too_many_arguments)]
    fn fetch_texel_plane(
        &self,
        desc: &TextureDesc,
        mem: &mut dyn TexelSource,
        face_base: u64,
        i: u32,
        j: u32,
        w: u32,
        accesses: &mut AccessList,
    ) -> Vec4 {
        if desc.format.is_compressed() {
            let bw = w.div_ceil(4);
            let block = (j / 4) as u64 * bw as u64 + (i / 4) as u64;
            let bb = desc.format.block_bytes() as u64;
            let addr = face_base + block * bb;
            let mut buf = [0u8; 16];
            let blk = &mut buf[..bb as usize];
            mem.read_bytes(addr, blk);
            accesses.push((addr, bb as u32));
            match desc.format {
                TexFormat::Dxt1 => decode_dxt1_texel(blk, i % 4, j % 4),
                TexFormat::Dxt3 => decode_dxt3_texel(blk, i % 4, j % 4),
                _ => unreachable!(),
            }
        } else {
            let bpt = desc.format.bytes_per_texel();
            // Tiled layout for access locality (the paper's rasterizer
            // tiling exists for the same reason); render targets keep the
            // framebuffer's 8×8 tiles.
            let addr = face_base
                + match desc.layout {
                    TexLayout::Tiled4 => tiled_offset(i, j, w, bpt),
                    TexLayout::FbTiled8 => fb_tiled_offset(i, j, w, bpt),
                };
            let mut buf = [0u8; 4];
            let texel = &mut buf[..bpt as usize];
            mem.read_bytes(addr, texel);
            accesses.push((addr, bpt));
            convert_texel(desc.format, texel)
        }
    }
}

/// Base address of one `(level, face, slice)` plane of a texture. The
/// `level_offset` walk is O(level) over the mip chain, so callers taking
/// several texels from the same plane (bilinear taps) should resolve this
/// once and go through `fetch_texel_plane`.
fn plane_base(desc: &TextureDesc, level: u32, face: u32, slice: u32) -> u64 {
    let (_, _, d) = desc.level_dims(level);
    let level_bytes = desc.level_bytes(level);
    desc.base_address
        + desc.level_offset(level)
        + face as u64 * level_bytes
        + slice as u64 * (level_bytes / d as u64)
}

/// Byte offset of texel `(i, j)` in a `tile`×`tile`, row-major-by-tile
/// layout (the general form behind both texture tiling levels).
pub fn tiled_offset_with(i: u32, j: u32, width: u32, bytes_per_texel: u32, tile: u32) -> u64 {
    let tiles_per_row = width.div_ceil(tile);
    let tile_index = (j / tile) as u64 * tiles_per_row as u64 + (i / tile) as u64;
    let intra = ((j % tile) * tile + (i % tile)) as u64;
    (tile_index * (tile * tile) as u64 + intra) * bytes_per_texel as u64
}

/// Byte offset of texel `(i, j)` in the framebuffer's 8×8-tile layout
/// (matches the ROP surface addressing, enabling render-to-texture).
pub fn fb_tiled_offset(i: u32, j: u32, width: u32, bytes_per_texel: u32) -> u64 {
    tiled_offset_with(i, j, width, bytes_per_texel, 8)
}

/// Byte offset of texel `(i, j)` in a 4×4-tiled, row-major-by-tile layout.
pub fn tiled_offset(i: u32, j: u32, width: u32, bytes_per_texel: u32) -> u64 {
    tiled_offset_with(i, j, width, bytes_per_texel, 4)
}

/// The 3D slice selected by `coord.z` at a level with `depth` slices.
fn slice_for(desc: &TextureDesc, coord: Vec4, depth: u32) -> u32 {
    if desc.target == TexTarget::Tex3D {
        let d = depth.max(1);
        desc.wrap_r.wrap((coord.z * d as f32).floor() as i64, d)
    } else {
        0
    }
}

fn magnify_filter(f: TexFilter) -> TexFilter {
    match f {
        TexFilter::Nearest => TexFilter::Nearest,
        _ => TexFilter::Bilinear,
    }
}

/// Converts raw texel bytes to normalized RGBA.
pub fn convert_texel(format: TexFormat, bytes: &[u8]) -> Vec4 {
    let n = |b: u8| b as f32 / 255.0;
    match format {
        TexFormat::Rgba8 => Vec4::new(n(bytes[0]), n(bytes[1]), n(bytes[2]), n(bytes[3])),
        TexFormat::Rgb8 => Vec4::new(n(bytes[0]), n(bytes[1]), n(bytes[2]), 1.0),
        TexFormat::L8 => Vec4::new(n(bytes[0]), n(bytes[0]), n(bytes[0]), 1.0),
        TexFormat::A8 => Vec4::new(0.0, 0.0, 0.0, n(bytes[0])),
        _ => panic!("convert_texel on compressed format"),
    }
}

/// Selects the cube face for a direction vector and returns the face index
/// (+x,-x,+y,-y,+z,-z) and the 2D face coordinates.
pub fn cube_face(dir: Vec4) -> (u32, Vec4) {
    let (ax, ay, az) = (dir.x.abs(), dir.y.abs(), dir.z.abs());
    let (face, sc, tc, ma) = if ax >= ay && ax >= az {
        if dir.x >= 0.0 {
            (0, -dir.z, -dir.y, ax)
        } else {
            (1, dir.z, -dir.y, ax)
        }
    } else if ay >= ax && ay >= az {
        if dir.y >= 0.0 {
            (2, dir.x, dir.z, ay)
        } else {
            (3, dir.x, -dir.z, ay)
        }
    } else if dir.z >= 0.0 {
        (4, dir.x, -dir.y, az)
    } else {
        (5, -dir.x, -dir.y, az)
    };
    let ma = if ma == 0.0 { 1.0 } else { ma };
    (face, Vec4::new((sc / ma + 1.0) * 0.5, (tc / ma + 1.0) * 0.5, 0.0, 1.0))
}

// ---------------------------------------------------------------------------
// DXT block compression (paper refs [24][25]: S3TC-style texture compression)
// ---------------------------------------------------------------------------

fn rgb565_to_vec(c: u16) -> Vec4 {
    Vec4::new(
        ((c >> 11) & 0x1f) as f32 / 31.0,
        ((c >> 5) & 0x3f) as f32 / 63.0,
        (c & 0x1f) as f32 / 31.0,
        1.0,
    )
}

/// Decodes one texel from a DXT1 block (`bx`, `by` in 0..4).
pub fn decode_dxt1_texel(block: &[u8], bx: u32, by: u32) -> Vec4 {
    let c0 = u16::from_le_bytes([block[0], block[1]]);
    let c1 = u16::from_le_bytes([block[2], block[3]]);
    let p0 = rgb565_to_vec(c0);
    let p1 = rgb565_to_vec(c1);
    let bits = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
    let code = (bits >> (2 * (by * 4 + bx))) & 0x3;
    if c0 > c1 {
        match code {
            0 => p0,
            1 => p1,
            2 => p0.lerp(p1, 1.0 / 3.0),
            _ => p0.lerp(p1, 2.0 / 3.0),
        }
    } else {
        match code {
            0 => p0,
            1 => p1,
            2 => p0.lerp(p1, 0.5),
            _ => Vec4::new(0.0, 0.0, 0.0, 0.0), // 1-bit transparent black
        }
    }
}

/// Decodes one texel from a DXT3 block (explicit 4-bit alpha + DXT1 colour).
pub fn decode_dxt3_texel(block: &[u8], bx: u32, by: u32) -> Vec4 {
    let texel = by * 4 + bx;
    let alpha_nibble = (block[(texel / 2) as usize] >> ((texel % 2) * 4)) & 0xf;
    let alpha = alpha_nibble as f32 / 15.0;
    // Colour half decodes like DXT1 in always-4-colour mode.
    let c0 = u16::from_le_bytes([block[8], block[9]]);
    let c1 = u16::from_le_bytes([block[10], block[11]]);
    let p0 = rgb565_to_vec(c0);
    let p1 = rgb565_to_vec(c1);
    let bits = u32::from_le_bytes([block[12], block[13], block[14], block[15]]);
    let code = (bits >> (2 * texel)) & 0x3;
    let mut rgb = match code {
        0 => p0,
        1 => p1,
        2 => p0.lerp(p1, 1.0 / 3.0),
        _ => p0.lerp(p1, 2.0 / 3.0),
    };
    rgb.w = alpha;
    rgb
}

fn vec_to_rgb565(v: Vec4) -> u16 {
    let r = (v.x.clamp(0.0, 1.0) * 31.0).round() as u16;
    let g = (v.y.clamp(0.0, 1.0) * 63.0).round() as u16;
    let b = (v.z.clamp(0.0, 1.0) * 31.0).round() as u16;
    (r << 11) | (g << 5) | b
}

/// Encodes a 4×4 texel block (row-major) as DXT1 using min/max endpoints.
/// A simple encoder, sufficient for generating test/workload content.
pub fn encode_dxt1_block(texels: &[Vec4; 16]) -> [u8; 8] {
    let mut lo = Vec4::ONE;
    let mut hi = Vec4::ZERO;
    for t in texels {
        lo = lo.min(*t);
        hi = hi.max(*t);
    }
    let mut c0 = vec_to_rgb565(hi);
    let mut c1 = vec_to_rgb565(lo);
    if c0 == c1 {
        // Degenerate block: all indices 0.
        if c0 == 0 {
            c0 = 1;
        } else {
            c1 = c0 - 1;
        }
    } else if c0 < c1 {
        std::mem::swap(&mut c0, &mut c1);
    }
    let p0 = rgb565_to_vec(c0);
    let p1 = rgb565_to_vec(c1);
    let palette = [p0, p1, p0.lerp(p1, 1.0 / 3.0), p0.lerp(p1, 2.0 / 3.0)];
    let mut bits = 0u32;
    for (i, t) in texels.iter().enumerate() {
        let mut best = 0;
        let mut best_d = f32::MAX;
        for (k, p) in palette.iter().enumerate() {
            let d = (*t - *p).dot3(*t - *p);
            if d < best_d {
                best_d = d;
                best = k as u32;
            }
        }
        bits |= best << (2 * i);
    }
    let mut out = [0u8; 8];
    out[..2].copy_from_slice(&c0.to_le_bytes());
    out[2..4].copy_from_slice(&c1.to_le_bytes());
    out[4..].copy_from_slice(&bits.to_le_bytes());
    out
}

/// Encodes a 4×4 texel block as DXT3 (explicit alpha + DXT1-style colour).
pub fn encode_dxt3_block(texels: &[Vec4; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    for i in 0..16 {
        let a = (texels[i].w.clamp(0.0, 1.0) * 15.0).round() as u8;
        out[i / 2] |= a << ((i % 2) * 4);
    }
    // Colour part: reuse the DXT1 encoder but force 4-colour mode by
    // ensuring c0 > c1 (encode_dxt1_block already does).
    let color = encode_dxt1_block(texels);
    out[8..].copy_from_slice(&color);
    out
}

/// Writes uncompressed pixel data (row-major RGBA) into the 4×4-tiled
/// layout expected by [`TextureEmulator`]; returns the bytes to upload.
pub fn encode_tiled(
    format: TexFormat,
    width: u32,
    height: u32,
    pixels: &[Vec4],
) -> Vec<u8> {
    assert_eq!(pixels.len(), (width * height) as usize);
    if format.is_compressed() {
        let bw = width.div_ceil(4);
        let bh = height.div_ceil(4);
        let bb = format.block_bytes() as usize;
        let mut out = vec![0u8; (bw * bh) as usize * bb];
        for by in 0..bh {
            for bx in 0..bw {
                let mut block = [Vec4::ZERO; 16];
                for ty in 0..4 {
                    for tx in 0..4 {
                        let x = (bx * 4 + tx).min(width - 1);
                        let y = (by * 4 + ty).min(height - 1);
                        block[(ty * 4 + tx) as usize] = pixels[(y * width + x) as usize];
                    }
                }
                let off = ((by * bw + bx) as usize) * bb;
                match format {
                    TexFormat::Dxt1 => out[off..off + 8].copy_from_slice(&encode_dxt1_block(&block)),
                    TexFormat::Dxt3 => out[off..off + 16].copy_from_slice(&encode_dxt3_block(&block)),
                    _ => unreachable!(),
                }
            }
        }
        out
    } else {
        let bpt = format.bytes_per_texel();
        let tiles_per_row = width.div_ceil(4);
        let rows_of_tiles = height.div_ceil(4);
        let mut out = vec![0u8; (tiles_per_row * rows_of_tiles * 16) as usize * bpt as usize];
        let q = |v: f32| (v.clamp(0.0, 1.0) * 255.0).round() as u8;
        for y in 0..height {
            for x in 0..width {
                let p = pixels[(y * width + x) as usize];
                let off = tiled_offset(x, y, width, bpt) as usize;
                match format {
                    TexFormat::Rgba8 => {
                        out[off] = q(p.x);
                        out[off + 1] = q(p.y);
                        out[off + 2] = q(p.z);
                        out[off + 3] = q(p.w);
                    }
                    TexFormat::Rgb8 => {
                        out[off] = q(p.x);
                        out[off + 1] = q(p.y);
                        out[off + 2] = q(p.z);
                    }
                    TexFormat::L8 => out[off] = q(p.x),
                    TexFormat::A8 => out[off] = q(p.w),
                    _ => unreachable!(),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkerboard(w: u32, h: u32) -> Vec<Vec4> {
        (0..w * h)
            .map(|i| {
                let (x, y) = (i % w, i / w);
                if (x / 2 + y / 2) % 2 == 0 {
                    Vec4::ONE
                } else {
                    Vec4::new(0.0, 0.0, 0.0, 1.0)
                }
            })
            .collect()
    }

    fn solid(w: u32, h: u32, c: Vec4) -> Vec<Vec4> {
        vec![c; (w * h) as usize]
    }

    #[test]
    fn wrap_modes() {
        assert_eq!(WrapMode::Repeat.wrap(-1, 4), 3);
        assert_eq!(WrapMode::Repeat.wrap(5, 4), 1);
        assert_eq!(WrapMode::Clamp.wrap(-3, 4), 0);
        assert_eq!(WrapMode::Clamp.wrap(9, 4), 3);
        assert_eq!(WrapMode::Mirror.wrap(4, 4), 3);
        assert_eq!(WrapMode::Mirror.wrap(-1, 4), 0);
        assert_eq!(WrapMode::Mirror.wrap(7, 4), 0);
    }

    #[test]
    fn mip_level_math() {
        assert_eq!(full_mip_levels(256, 256, 1), 9);
        assert_eq!(full_mip_levels(256, 64, 1), 9);
        assert_eq!(full_mip_levels(1, 1, 1), 1);
        let desc = TextureDesc::new_2d(8, 4, TexFormat::Rgba8, 0).with_full_mips();
        assert_eq!(desc.mip_levels, 4);
        assert_eq!(desc.level_dims(0), (8, 4, 1));
        assert_eq!(desc.level_dims(3), (1, 1, 1));
        assert_eq!(desc.level_bytes(0), 8 * 4 * 4);
        assert_eq!(desc.level_offset(1), 128);
    }

    #[test]
    fn point_sampling_reads_exact_texel() {
        let w = 8;
        let h = 8;
        let pixels: Vec<Vec4> = (0..w * h)
            .map(|i| Vec4::new((i % w) as f32 / 255.0, (i / w) as f32 / 255.0, 0.0, 1.0))
            .collect();
        let bytes = encode_tiled(TexFormat::Rgba8, w, h, &pixels);
        let mut desc = TextureDesc::new_2d(w, h, TexFormat::Rgba8, 0);
        desc.min_filter = TexFilter::Nearest;
        let emu = TextureEmulator::new();
        let mut src: &[u8] = &bytes;
        // Sample the center of texel (3, 5).
        let coord = Vec4::new((3.0 + 0.5) / 8.0, (5.0 + 0.5) / 8.0, 0.0, 1.0);
        let r = emu.sample_lod(&desc, &mut src, coord, 0.0, 1.0, (0.0, 0.0));
        assert!((r.value.x * 255.0 - 3.0).abs() < 0.5, "{:?}", r.value);
        assert!((r.value.y * 255.0 - 5.0).abs() < 0.5, "{:?}", r.value);
        assert_eq!(r.accesses.len(), 1);
    }

    #[test]
    fn bilinear_interpolates_midpoint() {
        let pixels = vec![
            Vec4::new(0.0, 0.0, 0.0, 1.0),
            Vec4::new(1.0, 1.0, 1.0, 1.0),
            Vec4::new(0.0, 0.0, 0.0, 1.0),
            Vec4::new(1.0, 1.0, 1.0, 1.0),
        ];
        let bytes = encode_tiled(TexFormat::Rgba8, 2, 2, &pixels);
        let desc = TextureDesc::new_2d(2, 2, TexFormat::Rgba8, 0);
        let emu = TextureEmulator::new();
        let mut src: &[u8] = &bytes;
        let r = emu.sample_lod(&desc, &mut src, Vec4::new(0.5, 0.5, 0.0, 1.0), 0.0, 1.0, (0.0, 0.0));
        assert!((r.value.x - 0.5).abs() < 0.01, "{:?}", r.value);
        assert_eq!(r.accesses.len(), 4, "bilinear reads 4 texels");
        assert_eq!(r.bilinear_ops, 1);
    }

    #[test]
    fn trilinear_blends_mip_levels() {
        // Level 0 white (4x4), level 1 black (2x2), level 2 black (1x1).
        let mut bytes = encode_tiled(TexFormat::Rgba8, 4, 4, &solid(4, 4, Vec4::ONE));
        bytes.extend(encode_tiled(
            TexFormat::Rgba8,
            2,
            2,
            &solid(2, 2, Vec4::new(0.0, 0.0, 0.0, 1.0)),
        ));
        bytes.extend(encode_tiled(
            TexFormat::Rgba8,
            1,
            1,
            &solid(1, 1, Vec4::new(0.0, 0.0, 0.0, 1.0)),
        ));
        let desc = TextureDesc::new_2d(4, 4, TexFormat::Rgba8, 0).with_full_mips();
        assert_eq!(desc.mip_levels, 3);
        let emu = TextureEmulator::new();
        let mut src: &[u8] = &bytes;
        let r = emu.sample_lod(&desc, &mut src, Vec4::new(0.5, 0.5, 0.0, 1.0), 0.5, 1.0, (0.0, 0.0));
        assert!((r.value.x - 0.5).abs() < 0.05, "lod 0.5 should blend to gray: {:?}", r.value);
        assert_eq!(r.bilinear_ops, 2, "trilinear costs two bilinear ops");
    }

    #[test]
    fn quad_lod_increases_with_minification() {
        let desc = TextureDesc::new_2d(256, 256, TexFormat::Rgba8, 0).with_full_mips();
        let emu = TextureEmulator::new();
        // One texel per pixel: lod 0.
        let step = 1.0 / 256.0;
        let quad = [
            Vec4::new(0.0, 0.0, 0.0, 1.0),
            Vec4::new(step, 0.0, 0.0, 1.0),
            Vec4::new(0.0, step, 0.0, 1.0),
            Vec4::new(step, step, 0.0, 1.0),
        ];
        let (lod, aniso, _) = emu.quad_lod(&desc, &quad);
        assert!(lod.abs() < 0.01, "lod {lod}");
        assert!((aniso - 1.0).abs() < 0.01);
        // Four texels per pixel: lod 2.
        let quad = [
            Vec4::new(0.0, 0.0, 0.0, 1.0),
            Vec4::new(4.0 * step, 0.0, 0.0, 1.0),
            Vec4::new(0.0, 4.0 * step, 0.0, 1.0),
            Vec4::new(4.0 * step, 4.0 * step, 0.0, 1.0),
        ];
        let (lod, _, _) = emu.quad_lod(&desc, &quad);
        assert!((lod - 2.0).abs() < 0.01, "lod {lod}");
    }

    #[test]
    fn anisotropic_detects_stretched_footprint() {
        let mut desc = TextureDesc::new_2d(256, 256, TexFormat::Rgba8, 0).with_full_mips();
        desc.max_aniso = 8;
        let emu = TextureEmulator::new();
        let step = 1.0 / 256.0;
        // 8:1 stretched footprint along x.
        let quad = [
            Vec4::new(0.0, 0.0, 0.0, 1.0),
            Vec4::new(8.0 * step, 0.0, 0.0, 1.0),
            Vec4::new(0.0, step, 0.0, 1.0),
            Vec4::new(8.0 * step, step, 0.0, 1.0),
        ];
        let (lod, aniso, _) = emu.quad_lod(&desc, &quad);
        assert!((aniso - 8.0).abs() < 0.01, "aniso {aniso}");
        assert!(lod.abs() < 0.01, "aniso keeps lod at minor axis: {lod}");
    }

    #[test]
    fn aniso_sampling_costs_more_bilinear_ops() {
        let mut desc = TextureDesc::new_2d(64, 64, TexFormat::Rgba8, 0);
        desc.max_aniso = 4;
        let bytes = encode_tiled(TexFormat::Rgba8, 64, 64, &checkerboard(64, 64));
        let emu = TextureEmulator::new();
        let mut src: &[u8] = &bytes;
        let r = emu.sample_lod(
            &desc,
            &mut src,
            Vec4::new(0.5, 0.5, 0.0, 1.0),
            0.0,
            4.0,
            (4.0 / 64.0, 0.0),
        );
        assert_eq!(r.bilinear_ops, 4);
        assert_eq!(r.accesses.len(), 16);
    }

    #[test]
    fn dxt1_round_trip_solid_block() {
        let block_px = [Vec4::new(1.0, 0.0, 0.0, 1.0); 16];
        let enc = encode_dxt1_block(&block_px);
        for by in 0..4 {
            for bx in 0..4 {
                let v = decode_dxt1_texel(&enc, bx, by);
                assert!((v.x - 1.0).abs() < 0.05 && v.y < 0.05 && v.z < 0.05, "{v:?}");
            }
        }
    }

    #[test]
    fn dxt1_two_color_block() {
        let mut px = [Vec4::new(0.0, 0.0, 0.0, 1.0); 16];
        for p in px.iter_mut().skip(8) {
            *p = Vec4::ONE;
        }
        let enc = encode_dxt1_block(&px);
        let dark = decode_dxt1_texel(&enc, 0, 0);
        let light = decode_dxt1_texel(&enc, 0, 3);
        assert!(dark.x < 0.1, "{dark:?}");
        assert!(light.x > 0.9, "{light:?}");
    }

    #[test]
    fn dxt3_preserves_alpha_exactly_at_4bit() {
        let mut px = [Vec4::new(0.5, 0.5, 0.5, 0.0); 16];
        for (i, p) in px.iter_mut().enumerate() {
            p.w = i as f32 / 15.0;
        }
        let enc = encode_dxt3_block(&px);
        for i in 0..16 {
            let v = decode_dxt3_texel(&enc, (i % 4) as u32, (i / 4) as u32);
            assert!((v.w - i as f32 / 15.0).abs() < 1e-6, "alpha {i}: {v:?}");
        }
    }

    #[test]
    fn compressed_texture_sampling() {
        let pixels = solid(8, 8, Vec4::new(0.0, 1.0, 0.0, 1.0));
        let bytes = encode_tiled(TexFormat::Dxt1, 8, 8, &pixels);
        assert_eq!(bytes.len(), 4 * 8, "8x8 dxt1 = 4 blocks");
        let desc = TextureDesc::new_2d(8, 8, TexFormat::Dxt1, 0);
        let emu = TextureEmulator::new();
        let mut src: &[u8] = &bytes;
        let r = emu.sample_lod(&desc, &mut src, Vec4::new(0.5, 0.5, 0.0, 1.0), 0.0, 1.0, (0.0, 0.0));
        assert!(r.value.y > 0.9, "{:?}", r.value);
        // All four bilinear texels are in compressed blocks.
        assert!(r.accesses.iter().all(|(_, len)| *len == 8));
    }

    #[test]
    fn cube_face_selection() {
        assert_eq!(cube_face(Vec4::new(1.0, 0.2, 0.2, 0.0)).0, 0);
        assert_eq!(cube_face(Vec4::new(-1.0, 0.2, 0.2, 0.0)).0, 1);
        assert_eq!(cube_face(Vec4::new(0.1, 1.0, 0.2, 0.0)).0, 2);
        assert_eq!(cube_face(Vec4::new(0.1, -1.0, 0.2, 0.0)).0, 3);
        assert_eq!(cube_face(Vec4::new(0.1, 0.2, 1.0, 0.0)).0, 4);
        assert_eq!(cube_face(Vec4::new(0.1, 0.2, -1.0, 0.0)).0, 5);
        // Face coords land in [0,1].
        let (_, c) = cube_face(Vec4::new(1.0, 0.5, -0.5, 0.0));
        assert!((0.0..=1.0).contains(&c.x) && (0.0..=1.0).contains(&c.y));
    }

    #[test]
    fn tiled_offset_is_dense_and_unique() {
        let w = 8;
        let h = 8;
        let mut seen = std::collections::HashSet::new();
        for y in 0..h {
            for x in 0..w {
                let off = tiled_offset(x, y, w, 4);
                assert!(off < (w * h * 4) as u64);
                assert!(seen.insert(off), "duplicate offset for ({x},{y})");
            }
        }
    }

    #[test]
    fn total_bytes_accounts_for_cube_faces() {
        let mut desc = TextureDesc::new_2d(4, 4, TexFormat::Rgba8, 0);
        desc.target = TexTarget::Cube;
        assert_eq!(desc.total_bytes(), 6 * 4 * 4 * 4);
    }

    #[test]
    fn volume_texture_slice_selection() {
        // 4x4x4 volume: each slice a different grey level.
        let mut bytes = Vec::new();
        for k in 0..4u32 {
            let v = (k * 60 + 20) as f32 / 255.0;
            bytes.extend(encode_tiled(
                TexFormat::Rgba8,
                4,
                4,
                &solid(4, 4, Vec4::new(v, v, v, 1.0)),
            ));
        }
        let mut desc = TextureDesc::new_2d(4, 4, TexFormat::Rgba8, 0);
        desc.target = TexTarget::Tex3D;
        desc.depth = 4;
        desc.min_filter = TexFilter::Bilinear;
        let emu = TextureEmulator::new();
        let mut src: &[u8] = &bytes;
        for k in 0..4u32 {
            let r = (k * 60 + 20) as f32 / 255.0;
            let coord = Vec4::new(0.5, 0.5, (k as f32 + 0.5) / 4.0, 1.0);
            let out = emu.sample_lod(&desc, &mut src, coord, 0.0, 1.0, (0.0, 0.0));
            assert!((out.value.x - r).abs() < 0.01, "slice {k}: {:?}", out.value);
        }
    }

    #[test]
    fn render_target_layout_addresses_fb_tiles() {
        // An FbTiled8 texture's texel (x, y) must live at the same offset
        // as the framebuffer pixel (x, y).
        let desc = TextureDesc::new_render_target(16, 16, 0);
        assert_eq!(desc.layout, TexLayout::FbTiled8);
        assert_eq!(desc.level_bytes(0), 2 * 2 * 64 * 4);
        assert_eq!(fb_tiled_offset(0, 0, 16, 4), 0);
        assert_eq!(fb_tiled_offset(8, 0, 16, 4), 256, "second 8x8 tile");
        assert_eq!(fb_tiled_offset(1, 1, 16, 4), (8 + 1) as u64 * 4);
    }

    #[test]
    fn small_mip_levels_are_tile_padded_consistently() {
        // Regression: level_bytes must match encode_tiled's 4x4-tile
        // padding or per-level offsets diverge for 2x2/1x1 mips.
        let mut bytes = encode_tiled(TexFormat::Rgba8, 8, 8, &solid(8, 8, Vec4::ONE));
        bytes.extend(encode_tiled(TexFormat::Rgba8, 4, 4, &solid(4, 4, Vec4::new(0.0, 1.0, 0.0, 1.0))));
        bytes.extend(encode_tiled(TexFormat::Rgba8, 2, 2, &solid(2, 2, Vec4::new(0.0, 0.0, 1.0, 1.0))));
        bytes.extend(encode_tiled(TexFormat::Rgba8, 1, 1, &solid(1, 1, Vec4::new(1.0, 0.0, 0.0, 1.0))));
        let desc = TextureDesc::new_2d(8, 8, TexFormat::Rgba8, 0).with_full_mips();
        assert_eq!(desc.total_bytes() as usize, bytes.len(), "layout must match the encoder");
        let emu = TextureEmulator::new();
        let mut src: &[u8] = &bytes;
        // Clamp at each level: lod 2 -> pure blue 2x2 level, lod 3 -> red.
        let at = |src: &mut &[u8], lod: f32| {
            emu.sample_lod(&desc, src, Vec4::new(0.5, 0.5, 0.0, 1.0), lod, 1.0, (0.0, 0.0)).value
        };
        let v2 = at(&mut src, 2.0);
        assert!(v2.z > 0.9 && v2.x < 0.1, "2x2 level must be blue: {v2:?}");
        let v3 = at(&mut src, 3.0);
        assert!(v3.x > 0.9 && v3.z < 0.1, "1x1 level must be red: {v3:?}");
    }

    #[test]
    fn mipmapped_3d_texture_slices_per_level() {
        // Regression: the slice index must come from the sampled level's
        // depth, not the base level's.
        let mut bytes = Vec::new();
        // Level 0: 4x4x4, slices alternating dark/bright.
        for k in 0..4u32 {
            let v = if k % 2 == 0 { 0.2 } else { 0.8 };
            bytes.extend(encode_tiled(TexFormat::Rgba8, 4, 4, &solid(4, 4, Vec4::new(v, v, v, 1.0))));
        }
        // Level 1: 2x2x2 mid-grey; level 2: 1x1x1 white.
        for _ in 0..2 {
            bytes.extend(encode_tiled(TexFormat::Rgba8, 2, 2, &solid(2, 2, Vec4::splat(0.5))));
        }
        bytes.extend(encode_tiled(TexFormat::Rgba8, 1, 1, &solid(1, 1, Vec4::ONE)));
        let mut desc = TextureDesc::new_2d(4, 4, TexFormat::Rgba8, 0);
        desc.target = TexTarget::Tex3D;
        desc.depth = 4;
        desc = desc.with_full_mips();
        let emu = TextureEmulator::new();
        let mut src: &[u8] = &bytes;
        // z = 0.9 selects base slice 3 but level-1 slice 1: must not read
        // out of bounds and must return the level's content.
        let out = emu.sample_lod(&desc, &mut src, Vec4::new(0.5, 0.5, 0.9, 1.0), 1.0, 1.0, (0.0, 0.0));
        assert!((out.value.x - 0.5).abs() < 0.05, "level-1 grey expected: {:?}", out.value);
        let out = emu.sample_lod(&desc, &mut src, Vec4::new(0.5, 0.5, 0.9, 1.0), 2.0, 1.0, (0.0, 0.0));
        assert!(out.value.x > 0.95, "level-2 white expected: {:?}", out.value);
    }
}
