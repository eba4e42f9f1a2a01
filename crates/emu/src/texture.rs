//! The texture emulator.
//!
//! Per the paper (§3), the `TextureEmulator` "calculates memory addresses
//! for texture accesses, calculates the number of samples for anisotropic
//! filtering, converts texel data into the internal format and filters the
//! sampled texel data. It also implements decompression functions for
//! compressed textures."
//!
//! Texture data lives in GPU memory; the emulator reads raw bytes through
//! the [`TexelSource`] trait, and that trait is also the sample's
//! **footprint channel**: every byte a sample reads arrives through one
//! `read_bytes(addr, buf)` call, so a source that records `addr` and
//! `buf.len()` has recorded what the sample touched. The *timing* model's
//! source (Texture Unit box) turns each read into texture-cache lines; the
//! *golden* model reads a byte slice and records nothing — both see
//! identical texel bytes, which is what makes the simulator
//! execution-driven. A read may be served once for several taps (the taps
//! of a bilinear footprint that share a DXT block share its read), so the
//! *set* of ranges is the footprint, not their count.
//!
//! Supported (paper §2.2): 1D/2D/3D/cube targets, mipmapping with LOD from
//! quad derivatives, point/bilinear/trilinear filtering (one bilinear
//! sample per cycle, a trilinear sample every two cycles in the timing
//! model), anisotropic filtering up to a configurable sample count, wrap
//! modes, and DXT1/DXT3-style block compression.
//!
//! Each [`TextureEmulator::sample_quad`] resolves, once, what every tap
//! shares — the mip levels its LOD selects with their sizes and plane base
//! addresses, the wrap of each axis (a mask for power-of-two `Repeat` and
//! `Mirror`), the texel decoder — and then spends a few loads per texel.
//! The results are bit-identical to resolving all of it per texel (DESIGN.md
//! §16.4).

use crate::isa::TexTarget;
use crate::vector::Vec4;

/// Source of raw texture bytes (GPU memory, optionally behind a cache),
/// and the record of what a sample read.
pub trait TexelSource {
    /// Copies `buf.len()` bytes starting at byte address `addr`. The
    /// sampler calls this for every distinct texel or DXT block it reads.
    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]);
}

/// A flat byte slice as a texel source (addresses index the slice).
impl TexelSource for &[u8] {
    #[inline]
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

/// The result of sampling: the filtered texel and what filtering it cost.
/// What the sample *read* went through the [`TexelSource`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleResult {
    /// Filtered texel, RGBA in `[0,1]`.
    pub value: Vec4,
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
    /// fragment pipeline), computing LOD from the quad derivatives. The
    /// four fragments share that LOD, so the sampler is resolved once for
    /// all of them.
    pub fn sample_quad<S: TexelSource + ?Sized>(
        &self,
        desc: &TextureDesc,
        mem: &mut S,
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
        let sampler = Sampler::new(desc, lod + lod_bias, aniso, major);
        pc.map(|c| sampler.sample(mem, c))
    }

    /// Samples at an explicit LOD (already biased). `aniso` ≥ 1 enables
    /// anisotropic sampling along `major`, the major-axis step in texture
    /// space.
    pub fn sample_lod<S: TexelSource + ?Sized>(
        &self,
        desc: &TextureDesc,
        mem: &mut S,
        coord: Vec4,
        lod: f32,
        aniso: f32,
        major: (f32, f32),
    ) -> SampleResult {
        Sampler::new(desc, lod, aniso, major).sample(mem, coord)
    }
}

/// How one LOD filters.
#[derive(Debug, Clone, Copy)]
enum Filter {
    /// The nearest texel of level 0.
    Point,
    /// One bilinear footprint in the first resolved level.
    Bilinear,
    /// A bilinear footprint in each resolved level, blended by the LOD's
    /// fraction.
    Trilinear(f32),
}

/// Everything the taps of one LOD share, resolved once per
/// [`TextureEmulator::sample_quad`] instead of once per texel: the filter
/// and the one or two mip levels it reads, the texel format, and the
/// anisotropic probe count.
#[derive(Debug)]
struct Sampler {
    target: TexTarget,
    format: TexFormat,
    /// Bytes per texel, or per 4×4 block of a compressed format.
    bytes: u64,
    /// log2 of the tile (or DXT block) edge: 4×4 or 8×8 texels.
    tile_shift: u32,
    filter: Filter,
    /// The level a point or bilinear filter reads; a trilinear filter
    /// reads both.
    levels: [Level; 2],
    /// Isotropic probes per sample (1: isotropic) and the major-axis step
    /// between them.
    probes: u32,
    major: (f32, f32),
}

/// One mip level's geometry: what locating a texel in it needs.
#[derive(Debug, Clone, Copy)]
struct Level {
    /// Wrap of `s`, `t` and `r` at this level's size.
    s: Axis,
    t: Axis,
    r: Axis,
    /// Width, height and depth as the coordinate scale.
    size: [f32; 3],
    /// Byte address of face 0, slice 0.
    base: u64,
    /// Bytes of one face (the level's `level_bytes`) and of one 3D slice.
    face_bytes: u64,
    slice_bytes: u64,
    /// Tiles (or DXT blocks) per row.
    row: u64,
}

/// One texture axis at one mip level: [`WrapMode::wrap`] with the size
/// and its power-of-two test resolved.
#[derive(Debug, Clone, Copy)]
struct Axis {
    mode: WrapMode,
    n: i64,
    pow2: bool,
}

impl Sampler {
    fn new(desc: &TextureDesc, lod: f32, aniso: f32, major: (f32, f32)) -> Self {
        let max_level = desc.mip_levels.saturating_sub(1) as f32;
        let min_filter =
            if lod <= 0.0 { magnify_filter(desc.min_filter) } else { desc.min_filter };
        let (filter, lo, hi) = match min_filter {
            TexFilter::Nearest => (Filter::Point, 0, 0),
            TexFilter::Bilinear => (Filter::Bilinear, 0, 0),
            TexFilter::BilinearMipNearest => {
                let level = lod.round().clamp(0.0, max_level) as u32;
                (Filter::Bilinear, level, level)
            }
            TexFilter::Trilinear => {
                let clamped = lod.clamp(0.0, max_level);
                let lo = clamped.floor() as u32;
                let hi = (lo + 1).min(desc.mip_levels - 1);
                let frac = clamped - lo as f32;
                if hi == lo || frac == 0.0 {
                    (Filter::Bilinear, lo, lo)
                } else {
                    (Filter::Trilinear(frac), lo, hi)
                }
            }
        };
        debug_assert!(hi == lo || hi == lo + 1);
        let compressed = desc.format.is_compressed();
        // DXT blocks and `Tiled4` tiles are 4×4 texels.
        let tile_shift = if !compressed && desc.layout == TexLayout::FbTiled8 { 3 } else { 2 };
        // One walk down the mip chain to the first level read.
        let base = desc.base_address + desc.level_offset(lo);
        let first = Level::new(desc, lo, base, tile_shift);
        let second = if hi == lo {
            first
        } else {
            Level::new(desc, hi, base + first.face_bytes * u64::from(desc.faces()), tile_shift)
        };
        Sampler {
            target: desc.target,
            format: desc.format,
            bytes: u64::from(if compressed {
                desc.format.block_bytes()
            } else {
                desc.format.bytes_per_texel()
            }),
            tile_shift,
            filter,
            levels: [first, second],
            probes: aniso.round().max(1.0) as u32,
            major,
        }
    }

    fn sample<S: TexelSource + ?Sized>(&self, mem: &mut S, coord: Vec4) -> SampleResult {
        let ops = if matches!(self.filter, Filter::Trilinear(_)) { 2 } else { 1 };
        if self.probes <= 1 {
            return SampleResult { value: self.isotropic(mem, coord), bilinear_ops: ops };
        }
        // Anisotropic: average several isotropic probes along the major
        // axis, as the paper's TextureEmulator "calculates the number of
        // samples for anisotropic filtering".
        let samples = self.probes as f32;
        let mut value = Vec4::ZERO;
        for i in 0..self.probes {
            let t = (i as f32 + 0.5) / samples - 0.5;
            let probe =
                Vec4::new(coord.x + self.major.0 * t, coord.y + self.major.1 * t, coord.z, coord.w);
            value = value + self.isotropic(mem, probe);
        }
        SampleResult { value: value / samples, bilinear_ops: ops * self.probes }
    }

    fn isotropic<S: TexelSource + ?Sized>(&self, mem: &mut S, coord: Vec4) -> Vec4 {
        // Cube maps: pick a face, then sample it as 2D. 3D textures:
        // pick the nearest slice (the paper supports 3D targets; full
        // inter-slice filtering is not modelled).
        let (face, coord) =
            if self.target == TexTarget::Cube { cube_face(coord) } else { (0, coord) };
        let [lo, hi] = &self.levels;
        match self.filter {
            Filter::Point => {
                let i = lo.s.wrap((coord.x * lo.size[0]).floor() as i64);
                let j = lo.t.wrap((coord.y * lo.size[1]).floor() as i64);
                let plane = lo.plane(face, self.slice(lo, coord));
                if self.format.is_compressed() {
                    self.block(mem, lo, plane, i, j).texel(i, j)
                } else {
                    self.texel(mem, lo, plane, i, j)
                }
            }
            Filter::Bilinear => self.bilinear(mem, lo, coord, face),
            Filter::Trilinear(frac) => {
                let a = self.bilinear(mem, lo, coord, face);
                let b = self.bilinear(mem, hi, coord, face);
                a.lerp(b, frac)
            }
        }
    }

    fn bilinear<S: TexelSource + ?Sized>(
        &self,
        mem: &mut S,
        level: &Level,
        coord: Vec4,
        face: u32,
    ) -> Vec4 {
        let u = coord.x * level.size[0] - 0.5;
        let v = coord.y * level.size[1] - 0.5;
        let i0 = u.floor() as i64;
        let j0 = v.floor() as i64;
        let fu = u - i0 as f32;
        let fv = v - j0 as f32;
        // A coordinate at or past 2^63 texels saturates `i0`: the
        // neighbour wraps around, as the release build always did.
        let i = [level.s.wrap(i0), level.s.wrap(i0.wrapping_add(1))];
        let j = [level.t.wrap(j0), level.t.wrap(j0.wrapping_add(1))];
        let plane = level.plane(face, self.slice(level, coord));
        let [t00, t10, t01, t11] = if self.format.is_compressed() {
            self.dxt_footprint(mem, level, plane, i, j)
        } else {
            [
                self.texel(mem, level, plane, i[0], j[0]),
                self.texel(mem, level, plane, i[1], j[0]),
                self.texel(mem, level, plane, i[0], j[1]),
                self.texel(mem, level, plane, i[1], j[1]),
            ]
        };
        t00.lerp(t10, fu).lerp(t01.lerp(t11, fu), fv)
    }

    /// The four taps of a DXT bilinear footprint. Each distinct block —
    /// one, two or four of them — is read and decoded once.
    fn dxt_footprint<S: TexelSource + ?Sized>(
        &self,
        mem: &mut S,
        level: &Level,
        plane: u64,
        i: [u32; 2],
        j: [u32; 2],
    ) -> [Vec4; 4] {
        let same_col = i[0] / 4 == i[1] / 4;
        let same_row = j[0] / 4 == j[1] / 4;
        let b00 = self.block(mem, level, plane, i[0], j[0]);
        let b10 = if same_col { b00 } else { self.block(mem, level, plane, i[1], j[0]) };
        let (b01, b11) = if same_row {
            (b00, b10)
        } else {
            let b01 = self.block(mem, level, plane, i[0], j[1]);
            (b01, if same_col { b01 } else { self.block(mem, level, plane, i[1], j[1]) })
        };
        [b00.texel(i[0], j[0]), b10.texel(i[1], j[0]), b01.texel(i[0], j[1]), b11.texel(i[1], j[1])]
    }

    /// The 3D slice `coord.z` selects in `level` (0 for other targets).
    #[inline]
    fn slice(&self, level: &Level, coord: Vec4) -> u32 {
        if self.target == TexTarget::Tex3D {
            level.r.wrap((coord.z * level.size[2]).floor() as i64)
        } else {
            0
        }
    }

    /// Reads and converts the uncompressed texel `(i, j)` of a plane. The
    /// tiled layouts (the paper's rasterizer tiling exists for the same
    /// locality reason; render targets keep the framebuffer's 8×8 tiles)
    /// are `tiled_offset_with` with the tile edge and row length resolved.
    fn texel<S: TexelSource + ?Sized>(
        &self,
        mem: &mut S,
        level: &Level,
        plane: u64,
        i: u32,
        j: u32,
    ) -> Vec4 {
        let shift = self.tile_shift;
        let edge = (1 << shift) - 1;
        let tile = u64::from(j >> shift) * level.row + u64::from(i >> shift);
        let intra = u64::from(((j & edge) << shift) | (i & edge));
        let at = plane + ((tile << (2 * shift)) + intra) * self.bytes;
        // One fixed-size read per format: a load, not a `memcpy` call.
        let mut buf = [0u8; 4];
        match self.format {
            TexFormat::Rgba8 => mem.read_bytes(at, &mut buf),
            TexFormat::Rgb8 => mem.read_bytes(at, &mut buf[..3]),
            _ => mem.read_bytes(at, &mut buf[..1]),
        }
        convert_texel(self.format, &buf)
    }

    /// Reads and decodes the DXT block holding texel `(i, j)` of a plane.
    fn block<S: TexelSource + ?Sized>(
        &self,
        mem: &mut S,
        level: &Level,
        plane: u64,
        i: u32,
        j: u32,
    ) -> DxtBlock {
        let at = plane + (u64::from(j / 4) * level.row + u64::from(i / 4)) * self.bytes;
        let mut buf = [0u8; 16];
        let bytes = if self.format == TexFormat::Dxt1 { &mut buf[..8] } else { &mut buf[..] };
        mem.read_bytes(at, bytes);
        DxtBlock::decode(self.format, &buf)
    }
}

impl Level {
    /// Level `level` of `desc`, whose face 0 starts at byte `base`, in
    /// tiles (or DXT blocks) `1 << tile_shift` texels wide.
    fn new(desc: &TextureDesc, level: u32, base: u64, tile_shift: u32) -> Self {
        let (w, h, d) = desc.level_dims(level);
        let face_bytes = desc.level_bytes(level);
        Level {
            s: Axis::new(desc.wrap_s, w),
            t: Axis::new(desc.wrap_t, h),
            r: Axis::new(desc.wrap_r, d),
            size: [w as f32, h as f32, d as f32],
            base,
            face_bytes,
            slice_bytes: face_bytes / u64::from(d),
            row: u64::from(w.div_ceil(1 << tile_shift)),
        }
    }

    /// Base address of one `(face, slice)` plane.
    #[inline]
    fn plane(&self, face: u32, slice: u32) -> u64 {
        self.base + u64::from(face) * self.face_bytes + u64::from(slice) * self.slice_bytes
    }
}

impl Axis {
    fn new(mode: WrapMode, size: u32) -> Self {
        Axis { mode, n: i64::from(size), pow2: size.is_power_of_two() }
    }

    /// [`WrapMode::wrap`] at this axis' size. On a power-of-two size `n`,
    /// `i & (n - 1)` equals `i.rem_euclid(n)` for every `i64` (two's
    /// complement), and so does the mask for the mirror's period `2n`.
    #[inline(always)]
    fn wrap(self, i: i64) -> u32 {
        let n = self.n;
        match self.mode {
            WrapMode::Clamp => i.clamp(0, n - 1) as u32,
            WrapMode::Repeat if self.pow2 => (i & (n - 1)) as u32,
            WrapMode::Repeat => i.rem_euclid(n) as u32,
            WrapMode::Mirror => {
                let period = 2 * n;
                let m = if self.pow2 { i & (period - 1) } else { i.rem_euclid(period) };
                (if m < n { m } else { period - 1 - m }) as u32
            }
        }
    }
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

fn magnify_filter(f: TexFilter) -> TexFilter {
    match f {
        TexFilter::Nearest => TexFilter::Nearest,
        _ => TexFilter::Bilinear,
    }
}

/// `b as f32 / 255.0` for every byte `b`, evaluated at compile time: the
/// same correctly rounded division, so the same bits, and a load instead
/// of a divide per channel.
const UNORM8: [f32; 256] = {
    let mut table = [0.0; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = b as f32 / 255.0;
        b += 1;
    }
    table
};

/// Converts raw texel bytes to normalized RGBA.
#[inline]
pub fn convert_texel(format: TexFormat, bytes: &[u8]) -> Vec4 {
    let n = |b: u8| UNORM8[usize::from(b)];
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

/// A DXT1/DXT3 block with its palette decoded: what every texel of the
/// block needs, so a bilinear footprint decodes each block once however
/// many of its taps land in it.
#[derive(Debug, Clone, Copy)]
struct DxtBlock {
    palette: [Vec4; 4],
    /// 2-bit palette index of texel `(x, y)` at bit `2 (4y + x)`.
    codes: u32,
    /// DXT3's 4-bit alpha of texel `(x, y)` at bit `4 (4y + x)`.
    alpha: Option<u64>,
}

impl DxtBlock {
    /// Decodes the block's palette; `block` holds at least the format's
    /// `block_bytes`.
    fn decode(format: TexFormat, block: &[u8]) -> Self {
        let le16 = |at: usize| u16::from_le_bytes([block[at], block[at + 1]]);
        let le32 = |at: usize| u32::from_le_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]);
        match format {
            TexFormat::Dxt1 => {
                DxtBlock { palette: dxt_palette(le16(0), le16(2), true), codes: le32(4), alpha: None }
            }
            TexFormat::Dxt3 => DxtBlock {
                // Colour half decodes like DXT1 in always-4-colour mode.
                palette: dxt_palette(le16(8), le16(10), false),
                codes: le32(12),
                alpha: Some(u64::from(le32(0)) | u64::from(le32(4)) << 32),
            },
            _ => panic!("{format:?} is not block compressed"),
        }
    }

    /// Texel `(i, j)` of the plane, which lies in this block.
    #[inline]
    fn texel(&self, i: u32, j: u32) -> Vec4 {
        let at = (j % 4) * 4 + i % 4;
        let mut v = self.palette[((self.codes >> (2 * at)) & 0x3) as usize];
        if let Some(alpha) = self.alpha {
            v.w = ((alpha >> (4 * at)) & 0xf) as f32 / 15.0;
        }
        v
    }
}

/// The four colours a DXT colour half indexes. A DXT1 block with `c0 <=
/// c1` (`punch_through`) has three and 1-bit transparent black.
fn dxt_palette(c0: u16, c1: u16, punch_through: bool) -> [Vec4; 4] {
    let p0 = rgb565_to_vec(c0);
    let p1 = rgb565_to_vec(c1);
    if punch_through && c0 <= c1 {
        [p0, p1, p0.lerp(p1, 0.5), Vec4::ZERO]
    } else {
        [p0, p1, p0.lerp(p1, 1.0 / 3.0), p0.lerp(p1, 2.0 / 3.0)]
    }
}

/// Decodes one texel from a DXT1 block (`bx`, `by` in 0..4).
pub fn decode_dxt1_texel(block: &[u8], bx: u32, by: u32) -> Vec4 {
    DxtBlock::decode(TexFormat::Dxt1, block).texel(bx, by)
}

/// Decodes one texel from a DXT3 block (explicit 4-bit alpha + DXT1 colour).
pub fn decode_dxt3_texel(block: &[u8], bx: u32, by: u32) -> Vec4 {
    DxtBlock::decode(TexFormat::Dxt3, block).texel(bx, by)
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

    /// A byte slice that records every read as `(addr, len)`: the
    /// footprint channel the Texture Unit's source listens on.
    struct Recording<'a> {
        bytes: &'a [u8],
        reads: Vec<(u64, usize)>,
    }

    impl<'a> Recording<'a> {
        fn new(bytes: &'a [u8]) -> Self {
            Recording { bytes, reads: Vec::new() }
        }
    }

    impl TexelSource for Recording<'_> {
        fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
            self.bytes.read_bytes(addr, buf);
            self.reads.push((addr, buf.len()));
        }
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
    fn resolved_axis_wraps_like_wrap_mode() {
        let sizes = [1, 2, 3, 4, 5, 7, 8, 12, 16, 64, 100, 128, 1 << 20];
        let edges = [i64::MIN, i64::MIN + 1, -(1 << 40), i64::MAX - 1, i64::MAX];
        for mode in [WrapMode::Repeat, WrapMode::Clamp, WrapMode::Mirror] {
            for size in sizes {
                let axis = Axis::new(mode, size);
                for i in (-300..300).chain(edges) {
                    assert_eq!(axis.wrap(i), mode.wrap(i, size), "{mode:?} size {size} at {i}");
                }
            }
        }
    }

    #[test]
    fn unorm8_table_is_the_division() {
        for b in 0..=255u8 {
            let divided = std::hint::black_box(b) as f32 / 255.0;
            assert_eq!(UNORM8[usize::from(b)].to_bits(), divided.to_bits(), "byte {b}");
        }
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
        let mut src = Recording::new(&bytes);
        // Sample the center of texel (3, 5).
        let coord = Vec4::new((3.0 + 0.5) / 8.0, (5.0 + 0.5) / 8.0, 0.0, 1.0);
        let r = emu.sample_lod(&desc, &mut src, coord, 0.0, 1.0, (0.0, 0.0));
        assert!((r.value.x * 255.0 - 3.0).abs() < 0.5, "{:?}", r.value);
        assert!((r.value.y * 255.0 - 5.0).abs() < 0.5, "{:?}", r.value);
        assert_eq!(src.reads, [(tiled_offset(3, 5, w, 4), 4)]);
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
        let mut src = Recording::new(&bytes);
        let r = emu.sample_lod(&desc, &mut src, Vec4::new(0.5, 0.5, 0.0, 1.0), 0.0, 1.0, (0.0, 0.0));
        assert!((r.value.x - 0.5).abs() < 0.01, "{:?}", r.value);
        let taps = [(0, 0), (1, 0), (0, 1), (1, 1)].map(|(i, j)| (tiled_offset(i, j, 2, 4), 4));
        assert_eq!(src.reads, taps, "bilinear reads 4 texels");
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
        let mut src = Recording::new(&bytes);
        let r = emu.sample_lod(
            &desc,
            &mut src,
            Vec4::new(0.5, 0.5, 0.0, 1.0),
            0.0,
            4.0,
            (4.0 / 64.0, 0.0),
        );
        assert_eq!(r.bilinear_ops, 4);
        assert_eq!(src.reads.len(), 16, "four probes of four texels");
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
        let mut src = Recording::new(&bytes);
        let r = emu.sample_lod(&desc, &mut src, Vec4::new(0.5, 0.5, 0.0, 1.0), 0.0, 1.0, (0.0, 0.0));
        assert!(r.value.y > 0.9, "{:?}", r.value);
        // The centre footprint straddles all four blocks: each is read
        // once, whole.
        assert_eq!(src.reads, [(0, 8), (8, 8), (16, 8), (24, 8)]);
        // Inside one block, its four taps share one read.
        let mut src = Recording::new(&bytes);
        emu.sample_lod(&desc, &mut src, Vec4::new(0.25, 0.25, 0.0, 1.0), 0.0, 1.0, (0.0, 0.0));
        assert_eq!(src.reads, [(0, 8)]);
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
