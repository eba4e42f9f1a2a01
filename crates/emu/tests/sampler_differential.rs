//! The resolved sampler against the per-texel one it replaced.
//!
//! `reference` below is the texture sampler this crate shipped before the
//! sampler was resolved once per quad: every tap re-derives its level's
//! size and plane base (an O(level) walk down the mip chain), wraps with
//! `rem_euclid`, converts bytes with a divide and decodes a DXT block per
//! texel. It is kept verbatim except for one line: `i0 + 1` is spelled
//! `i0.wrapping_add(1)`, which is what the release build always computed
//! and what the debug build panicked on for a coordinate past 2^63 texels.
//!
//! Over seeded random textures (every format and layout, every filter and
//! wrap mode, power-of-two and other sizes, 1D/2D/3D/cube targets, 1–8:1
//! anisotropy, projective coordinates with `w = 0`, LOD bias, NaN, ±inf and
//! huge coordinates) both must give the same `value` bits, the same
//! `bilinear_ops` and the same footprint: the set of `(addr, len)` ranges
//! read through the [`TexelSource`], which fixes the cache lines of every
//! line size. (A read may be shared by several taps in the resolved
//! sampler, so the set is compared, not the sequence.)

use std::collections::BTreeSet;

use attila_emu::isa::TexTarget;
use attila_emu::texture::{
    full_mip_levels, SampleResult, TexFilter, TexFormat, TexLayout, TexelSource, TextureDesc,
    TextureEmulator, WrapMode,
};
use attila_emu::vector::Vec4;
use attila_sim::TinyRng;

/// Texture memory that records the ranges a sample reads.
struct Recorder<'a> {
    bytes: &'a [u8],
    footprint: BTreeSet<(u64, usize)>,
    reads: usize,
}

impl<'a> Recorder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Recorder {
            bytes,
            footprint: BTreeSet::new(),
            reads: 0,
        }
    }
}

impl TexelSource for Recorder<'_> {
    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        self.bytes.read_bytes(addr, buf);
        self.footprint.insert((addr, buf.len()));
        self.reads += 1;
    }
}

/// The per-texel sampler, as it was.
mod reference {
    use attila_emu::isa::TexTarget;
    use attila_emu::texture::{
        cube_face, fb_tiled_offset, tiled_offset, SampleResult, TexFilter, TexFormat, TexLayout,
        TexelSource, TextureDesc,
    };
    use attila_emu::vector::Vec4;

    pub fn quad_lod(desc: &TextureDesc, coords: &[Vec4; 4]) -> (f32, f32, (f32, f32)) {
        let (w, h) = (desc.width as f32, desc.height as f32);
        let dx_u = (coords[1].x - coords[0].x) * w;
        let dx_v = (coords[1].y - coords[0].y) * h;
        let dy_u = (coords[2].x - coords[0].x) * w;
        let dy_v = (coords[2].y - coords[0].y) * h;
        let len_x = (dx_u * dx_u + dx_v * dx_v).sqrt();
        let len_y = (dy_u * dy_u + dy_v * dy_v).sqrt();
        let (major, minor) = if len_x >= len_y {
            (len_x, len_y)
        } else {
            (len_y, len_x)
        };
        let (major_du, major_dv) = if len_x >= len_y {
            (dx_u / w, dx_v / h)
        } else {
            (dy_u / w, dy_v / h)
        };
        let aniso = if minor > 1e-6 {
            (major / minor).min(desc.max_aniso as f32)
        } else {
            1.0
        };
        let rho = if desc.max_aniso > 1 {
            (major / aniso).max(minor)
        } else {
            major
        };
        let lod = if rho > 1e-6 { rho.log2() } else { 0.0 };
        (lod, aniso, (major_du, major_dv))
    }

    pub fn sample_quad(
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
        let (lod, aniso, major) = quad_lod(desc, &pc);
        let lod = lod + lod_bias;
        [
            sample_lod(desc, mem, pc[0], lod, aniso, major),
            sample_lod(desc, mem, pc[1], lod, aniso, major),
            sample_lod(desc, mem, pc[2], lod, aniso, major),
            sample_lod(desc, mem, pc[3], lod, aniso, major),
        ]
    }

    pub fn sample_lod(
        desc: &TextureDesc,
        mem: &mut dyn TexelSource,
        coord: Vec4,
        lod: f32,
        aniso: f32,
        major: (f32, f32),
    ) -> SampleResult {
        let samples = aniso.round().max(1.0) as u32;
        if samples <= 1 {
            return sample_isotropic(desc, mem, coord, lod);
        }
        let mut value = Vec4::ZERO;
        let mut ops = 0;
        for i in 0..samples {
            let t = (i as f32 + 0.5) / samples as f32 - 0.5;
            let probe = Vec4::new(
                coord.x + major.0 * t,
                coord.y + major.1 * t,
                coord.z,
                coord.w,
            );
            let r = sample_isotropic(desc, mem, probe, lod);
            value = value + r.value;
            ops += r.bilinear_ops;
        }
        SampleResult {
            value: value / samples as f32,
            bilinear_ops: ops,
        }
    }

    fn sample_isotropic(
        desc: &TextureDesc,
        mem: &mut dyn TexelSource,
        coord: Vec4,
        lod: f32,
    ) -> SampleResult {
        let (face, coord) = if desc.target == TexTarget::Cube {
            cube_face(coord)
        } else {
            (0, coord)
        };
        let max_level = desc.mip_levels.saturating_sub(1) as f32;
        let filter = if lod <= 0.0 {
            magnify_filter(desc.min_filter)
        } else {
            desc.min_filter
        };
        match filter {
            TexFilter::Nearest => {
                let v = point_sample(desc, mem, coord, 0, face);
                SampleResult {
                    value: v,
                    bilinear_ops: 1,
                }
            }
            TexFilter::Bilinear => {
                let v = bilinear_sample(desc, mem, coord, 0, face);
                SampleResult {
                    value: v,
                    bilinear_ops: 1,
                }
            }
            TexFilter::BilinearMipNearest => {
                let level = lod.round().clamp(0.0, max_level) as u32;
                let v = bilinear_sample(desc, mem, coord, level, face);
                SampleResult {
                    value: v,
                    bilinear_ops: 1,
                }
            }
            TexFilter::Trilinear => {
                let clamped = lod.clamp(0.0, max_level);
                let lo = clamped.floor() as u32;
                let hi = (lo + 1).min(desc.mip_levels - 1);
                let frac = clamped - lo as f32;
                let a = bilinear_sample(desc, mem, coord, lo, face);
                if hi == lo || frac == 0.0 {
                    return SampleResult {
                        value: a,
                        bilinear_ops: 1,
                    };
                }
                let b = bilinear_sample(desc, mem, coord, hi, face);
                SampleResult {
                    value: a.lerp(b, frac),
                    bilinear_ops: 2,
                }
            }
        }
    }

    fn point_sample(
        desc: &TextureDesc,
        mem: &mut dyn TexelSource,
        coord: Vec4,
        level: u32,
        face: u32,
    ) -> Vec4 {
        let (w, h, d) = desc.level_dims(level);
        let i = desc.wrap_s.wrap((coord.x * w as f32).floor() as i64, w);
        let j = desc.wrap_t.wrap((coord.y * h as f32).floor() as i64, h);
        let slice = slice_for(desc, coord, d);
        let plane = plane_base(desc, level, face, slice);
        fetch_texel_plane(desc, mem, plane, i, j, w)
    }

    fn bilinear_sample(
        desc: &TextureDesc,
        mem: &mut dyn TexelSource,
        coord: Vec4,
        level: u32,
        face: u32,
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
        let i1w = desc.wrap_s.wrap(i0.wrapping_add(1), w);
        let j0w = desc.wrap_t.wrap(j0, h);
        let j1w = desc.wrap_t.wrap(j0.wrapping_add(1), h);
        let plane = plane_base(desc, level, face, slice);
        let t00 = fetch_texel_plane(desc, mem, plane, i0w, j0w, w);
        let t10 = fetch_texel_plane(desc, mem, plane, i1w, j0w, w);
        let t01 = fetch_texel_plane(desc, mem, plane, i0w, j1w, w);
        let t11 = fetch_texel_plane(desc, mem, plane, i1w, j1w, w);
        t00.lerp(t10, fu).lerp(t01.lerp(t11, fu), fv)
    }

    fn fetch_texel_plane(
        desc: &TextureDesc,
        mem: &mut dyn TexelSource,
        face_base: u64,
        i: u32,
        j: u32,
        w: u32,
    ) -> Vec4 {
        if desc.format.is_compressed() {
            let bw = w.div_ceil(4);
            let block = (j / 4) as u64 * bw as u64 + (i / 4) as u64;
            let bb = desc.format.block_bytes() as u64;
            let addr = face_base + block * bb;
            let mut buf = [0u8; 16];
            let blk = &mut buf[..bb as usize];
            mem.read_bytes(addr, blk);
            match desc.format {
                TexFormat::Dxt1 => decode_dxt1_texel(blk, i % 4, j % 4),
                TexFormat::Dxt3 => decode_dxt3_texel(blk, i % 4, j % 4),
                _ => unreachable!(),
            }
        } else {
            let bpt = desc.format.bytes_per_texel();
            let addr = face_base
                + match desc.layout {
                    TexLayout::Tiled4 => tiled_offset(i, j, w, bpt),
                    TexLayout::FbTiled8 => fb_tiled_offset(i, j, w, bpt),
                };
            let mut buf = [0u8; 4];
            let texel = &mut buf[..bpt as usize];
            mem.read_bytes(addr, texel);
            convert_texel(desc.format, texel)
        }
    }

    fn plane_base(desc: &TextureDesc, level: u32, face: u32, slice: u32) -> u64 {
        let (_, _, d) = desc.level_dims(level);
        let level_bytes = desc.level_bytes(level);
        desc.base_address
            + desc.level_offset(level)
            + face as u64 * level_bytes
            + slice as u64 * (level_bytes / d as u64)
    }

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

    fn convert_texel(format: TexFormat, bytes: &[u8]) -> Vec4 {
        let n = |b: u8| b as f32 / 255.0;
        match format {
            TexFormat::Rgba8 => Vec4::new(n(bytes[0]), n(bytes[1]), n(bytes[2]), n(bytes[3])),
            TexFormat::Rgb8 => Vec4::new(n(bytes[0]), n(bytes[1]), n(bytes[2]), 1.0),
            TexFormat::L8 => Vec4::new(n(bytes[0]), n(bytes[0]), n(bytes[0]), 1.0),
            TexFormat::A8 => Vec4::new(0.0, 0.0, 0.0, n(bytes[0])),
            _ => panic!("convert_texel on compressed format"),
        }
    }

    fn rgb565_to_vec(c: u16) -> Vec4 {
        Vec4::new(
            ((c >> 11) & 0x1f) as f32 / 31.0,
            ((c >> 5) & 0x3f) as f32 / 63.0,
            (c & 0x1f) as f32 / 31.0,
            1.0,
        )
    }

    fn decode_dxt1_texel(block: &[u8], bx: u32, by: u32) -> Vec4 {
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
                _ => Vec4::new(0.0, 0.0, 0.0, 0.0),
            }
        }
    }

    fn decode_dxt3_texel(block: &[u8], bx: u32, by: u32) -> Vec4 {
        let texel = by * 4 + bx;
        let alpha_nibble = (block[(texel / 2) as usize] >> ((texel % 2) * 4)) & 0xf;
        let alpha = alpha_nibble as f32 / 15.0;
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
}

const FORMATS: [TexFormat; 6] = [
    TexFormat::Rgba8,
    TexFormat::Rgb8,
    TexFormat::L8,
    TexFormat::A8,
    TexFormat::Dxt1,
    TexFormat::Dxt3,
];
const FILTERS: [TexFilter; 4] = [
    TexFilter::Nearest,
    TexFilter::Bilinear,
    TexFilter::BilinearMipNearest,
    TexFilter::Trilinear,
];
const WRAPS: [WrapMode; 3] = [WrapMode::Repeat, WrapMode::Clamp, WrapMode::Mirror];
const TARGETS: [TexTarget; 4] = [
    TexTarget::Tex1D,
    TexTarget::Tex2D,
    TexTarget::Tex3D,
    TexTarget::Cube,
];
/// Coordinates no texture should see and every sampler must survive.
const WILD: [f32; 9] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e20,
    -1e20,
    3e38,
    -3e38,
    1e-40,
    -0.0,
];

fn pick<T: Copy>(rng: &mut TinyRng, from: &[T]) -> T {
    from[rng.range_u32(0, from.len() as u32) as usize]
}

/// A texel-axis size: a power of two or not, about half the time each.
fn size(rng: &mut TinyRng) -> u32 {
    if rng.coin() {
        1 << rng.range_u32(0, 7)
    } else {
        pick(rng, &[3, 5, 6, 7, 9, 12, 17, 20, 33, 48])
    }
}

/// A random texture and the memory holding it (random bytes, so DXT
/// blocks come in both colour modes).
fn texture(rng: &mut TinyRng) -> (TextureDesc, Vec<u8>) {
    let target = pick(rng, &TARGETS);
    let (width, height) = (
        size(rng),
        if target == TexTarget::Tex1D {
            1
        } else {
            size(rng)
        },
    );
    let mut desc = TextureDesc::new_2d(width, height, pick(rng, &FORMATS), rng.range_u64(0, 300));
    desc.target = target;
    desc.depth = if target == TexTarget::Tex3D {
        rng.range_u32(1, 9)
    } else {
        1
    };
    desc.layout = if rng.coin() {
        TexLayout::Tiled4
    } else {
        TexLayout::FbTiled8
    };
    desc.mip_levels = rng.range_u32(1, full_mip_levels(width, height, desc.depth) + 1);
    desc.wrap_s = pick(rng, &WRAPS);
    desc.wrap_t = pick(rng, &WRAPS);
    desc.wrap_r = pick(rng, &WRAPS);
    desc.min_filter = pick(rng, &FILTERS);
    desc.max_aniso = rng.range_u32(1, 9);
    let bytes = (0..desc.base_address + desc.total_bytes())
        .map(|_| rng.next_u64() as u8)
        .collect();
    (desc, bytes)
}

/// A coordinate component: mostly in and around the texture, sometimes
/// one of the values nothing should send.
fn component(rng: &mut TinyRng, lo: f32, hi: f32) -> f32 {
    if rng.chance(1, 40) {
        pick(rng, &WILD)
    } else {
        rng.range_f32(lo, hi)
    }
}

/// A quad's coordinates: a centre, two screen-space steps of random
/// length and direction (minified, magnified, stretched), projective `w`
/// (sometimes 0) and the occasional wild component.
fn quad(rng: &mut TinyRng, projective: bool) -> [Vec4; 4] {
    let cube = rng.coin();
    let (lo, hi) = if cube { (-1.5, 1.5) } else { (-1.5, 2.5) };
    let centre = Vec4::new(
        component(rng, lo, hi),
        component(rng, lo, hi),
        component(rng, lo, hi),
        1.0,
    );
    let scale = 2f32.powf(rng.range_f32(-12.0, 0.0));
    let dx = Vec4::new(
        rng.range_f32(-1.0, 1.0) * scale,
        rng.range_f32(-1.0, 1.0) * scale,
        0.0,
        0.0,
    );
    let stretch = 2f32.powf(rng.range_f32(-4.0, 4.0));
    let dy = Vec4::new(
        -dx.y * stretch,
        dx.x * stretch,
        rng.range_f32(-0.1, 0.1),
        0.0,
    );
    let mut quad = [centre, centre + dx, centre + dy, centre + dx + dy];
    for c in &mut quad {
        c.z = component(rng, c.z - 0.05, c.z + 0.05);
        if projective {
            c.w = if rng.chance(1, 8) {
                0.0
            } else {
                component(rng, 0.25, 4.0)
            };
        }
    }
    quad
}

/// Value bits, with every NaN as one value: which NaN payload survives an
/// operation depends on the operand order the compiler picks, and no
/// consumer of a texel reads it.
fn bits(v: Vec4) -> [u32; 4] {
    [v.x, v.y, v.z, v.w].map(|c| {
        if c.is_nan() {
            f32::NAN.to_bits()
        } else {
            c.to_bits()
        }
    })
}

/// Counts of the paths the cases reached, so the test fails if the
/// generator stops covering one.
#[derive(Default)]
struct Reached {
    formats: BTreeSet<String>,
    targets: BTreeSet<String>,
    trilinear_blends: u32,
    anisotropic: u32,
    nan_values: u32,
    shared_block_reads: u32,
}

fn compare(case: &str, fast: SampleResult, slow: SampleResult, reached: &mut Reached) {
    assert_eq!(
        bits(fast.value),
        bits(slow.value),
        "{case}: {:?} vs {:?}",
        fast.value,
        slow.value
    );
    assert_eq!(fast.bilinear_ops, slow.bilinear_ops, "{case}: bilinear ops");
    if fast.value.x.is_nan() || fast.value.w.is_nan() {
        reached.nan_values += 1;
    }
}

/// One case: a random texture sampled as a quad, then one fragment of it
/// at an explicit, possibly non-finite, LOD and anisotropy.
fn one_case(seed: u64, reached: &mut Reached) {
    let mut rng = TinyRng::new(0x5A3_D1FF ^ seed.wrapping_mul(0x9E37_79B9));
    let (desc, bytes) = texture(&mut rng);
    let emu = TextureEmulator::new();
    let projective = rng.coin();
    let coords = quad(&mut rng, projective);
    let bias = if rng.coin() {
        0.0
    } else {
        rng.range_f32(-3.0, 4.0)
    };
    let case =
        format!("seed {seed}: {desc:?}, coords {coords:?}, bias {bias}, projective {projective}");
    reached
        .formats
        .insert(format!("{:?}/{:?}", desc.format, desc.layout));
    reached.targets.insert(format!("{:?}", desc.target));

    let mut fast_mem = Recorder::new(&bytes);
    let mut slow_mem = Recorder::new(&bytes);
    let fast = emu.sample_quad(&desc, &mut fast_mem, &coords, bias, projective);
    let slow = reference::sample_quad(&desc, &mut slow_mem, &coords, bias, projective);
    for (f, s) in fast.iter().zip(&slow) {
        compare(&case, *f, *s, reached);
        if s.bilinear_ops > 2 {
            reached.anisotropic += 1;
        }
        if s.bilinear_ops == 2 && desc.min_filter == TexFilter::Trilinear {
            reached.trilinear_blends += 1;
        }
    }
    assert_eq!(fast_mem.footprint, slow_mem.footprint, "{case}: footprint");
    if fast_mem.reads < slow_mem.reads {
        reached.shared_block_reads += 1;
    }

    let lod = if rng.chance(1, 10) {
        pick(&mut rng, &WILD)
    } else {
        rng.range_f32(-2.0, 9.0)
    };
    // `quad_lod` caps the ratio at `max_aniso`; an infinite one would ask
    // for 2^32 probes of both samplers.
    let aniso = if rng.chance(1, 10) {
        pick(&mut rng, &[f32::NAN, f32::NEG_INFINITY, -1e20, -0.0])
    } else {
        rng.range_f32(0.0, 8.49)
    };
    let major = (rng.range_f32(-0.2, 0.2), rng.range_f32(-0.2, 0.2));
    let at = coords[rng.range_u32(0, 4) as usize];
    let case = format!(
        "seed {seed}: {desc:?}, sample_lod at {at:?}, lod {lod}, aniso {aniso}, major {major:?}"
    );
    let mut fast_mem = Recorder::new(&bytes);
    let mut slow_mem = Recorder::new(&bytes);
    let fast = emu.sample_lod(&desc, &mut fast_mem, at, lod, aniso, major);
    let slow = reference::sample_lod(&desc, &mut slow_mem, at, lod, aniso, major);
    compare(&case, fast, slow, reached);
    assert_eq!(fast_mem.footprint, slow_mem.footprint, "{case}: footprint");
}

#[test]
fn resolved_sampler_matches_the_per_texel_reference() {
    let mut reached = Reached::default();
    for seed in 0..2_500 {
        one_case(seed, &mut reached);
    }
    assert_eq!(
        reached.formats.len(),
        12,
        "every format in both layouts: {:?}",
        reached.formats
    );
    assert_eq!(
        reached.targets.len(),
        4,
        "every target: {:?}",
        reached.targets
    );
    assert!(
        reached.trilinear_blends > 100,
        "trilinear blends: {}",
        reached.trilinear_blends
    );
    assert!(
        reached.anisotropic > 100,
        "anisotropic samples: {}",
        reached.anisotropic
    );
    assert!(
        reached.nan_values > 20,
        "NaN results: {}",
        reached.nan_values
    );
    assert!(
        reached.shared_block_reads > 100,
        "shared DXT reads: {}",
        reached.shared_block_reads
    );
}
