//! Property tests for the functional emulators: assembler round-trip,
//! rasterizer coverage, interpolation, fragment ops and compression.
//! Driven by the framework's seeded [`TinyRng`] so runs are reproducible
//! offline.

use attila_emu::asm::{assemble, disassemble};
use attila_emu::fragops::{
    blend, compress_z_block, decompress_z_block, z_stencil_test, BlendEquation, BlendFactor,
    BlendState, CompareFunc, DepthState, StencilOp, StencilState, ZBLOCK_WORDS,
};
use attila_emu::raster::{
    covered_tiles, rasterize_reference, setup_triangle, TraversalAlgorithm, Viewport,
};
use attila_emu::vector::Vec4;
use attila_sim::TinyRng;

fn rand_vec4(rng: &mut TinyRng, range: f32) -> Vec4 {
    Vec4::new(
        rng.range_f32(-range, range),
        rng.range_f32(-range, range),
        rng.range_f32(-range, range),
        rng.range_f32(0.1, range),
    )
}

const COMPARES: [CompareFunc; 8] = [
    CompareFunc::Never,
    CompareFunc::Less,
    CompareFunc::Equal,
    CompareFunc::LEqual,
    CompareFunc::Greater,
    CompareFunc::NotEqual,
    CompareFunc::GEqual,
    CompareFunc::Always,
];

const STENCIL_OPS: [StencilOp; 8] = [
    StencilOp::Keep,
    StencilOp::Zero,
    StencilOp::Replace,
    StencilOp::Incr,
    StencilOp::IncrWrap,
    StencilOp::Decr,
    StencilOp::DecrWrap,
    StencilOp::Invert,
];

/// disassemble(assemble(x)) re-assembles to an identical program for
/// generated instruction streams.
#[test]
fn assembler_round_trip() {
    let palette = [
        "MOV", "ADD", "SUB", "MUL", "MAD", "DP3", "DP4", "MIN", "MAX", "SLT", "SGE", "FRC",
        "FLR", "ABS", "CMP", "LRP", "RCP", "RSQ",
    ];
    for seed in 0..48u64 {
        let mut rng = TinyRng::new(seed);
        let temps = rng.range_u32(1, 8) as u8;
        let count = rng.range_u32(1, 24);
        let mut src = String::from("!!ATTILAfp1.0\n");
        for i in 0..count {
            let m = palette[rng.range_u32(0, 18) as usize];
            let d = format!("r{}", i as u8 % temps);
            let s0 = format!("r{}", (i as u8 + 1) % temps);
            let line = match m {
                "MOV" | "FRC" | "FLR" | "ABS" => format!("{m} {d}, {s0};\n"),
                "RCP" | "RSQ" => format!("{m} {d}, {s0}.x;\n"),
                "MAD" | "CMP" | "LRP" => format!("{m} {d}, {s0}, c1, -c2.wzyx;\n"),
                _ => format!("{m} {d}, {s0}, c0;\n"),
            };
            src.push_str(&line);
        }
        src.push_str("MOV o0, r0;\nEND;\n");
        let p1 = assemble(&src).unwrap();
        let text = disassemble(&p1);
        let p2 = assemble(&text).unwrap();
        assert_eq!(p1, p2, "seed {seed}");
    }
}

/// The recursive and tile-scan traversals cover exactly the same tiles,
/// and every covered pixel lies in a visited tile.
#[test]
fn traversals_agree_and_cover() {
    for seed in 0..96u64 {
        let mut rng = TinyRng::new(seed);
        let verts =
            [rand_vec4(&mut rng, 1.5), rand_vec4(&mut rng, 1.5), rand_vec4(&mut rng, 1.5)];
        let vp = Viewport::new(64, 64);
        let Some(tri) = setup_triangle(&verts, vp) else { continue };
        let mut scan = covered_tiles(&tri, 8, TraversalAlgorithm::TileScan);
        let mut rec = covered_tiles(&tri, 8, TraversalAlgorithm::Recursive);
        scan.sort_unstable();
        rec.sort_unstable();
        assert_eq!(&scan, &rec, "seed {seed}");
        let tiles: std::collections::BTreeSet<_> = scan.into_iter().collect();
        for f in rasterize_reference(&tri, vp) {
            assert!(tiles.contains(&(f.x / 8 * 8, f.y / 8 * 8)), "seed {seed}");
        }
    }
}

/// Perspective-correct interpolation stays within the convex hull of the
/// vertex attribute values for interior pixels (w > 0 vertices).
#[test]
fn interpolation_within_hull() {
    for seed in 0..96u64 {
        let mut rng = TinyRng::new(seed);
        let verts =
            [rand_vec4(&mut rng, 1.0), rand_vec4(&mut rng, 1.0), rand_vec4(&mut rng, 1.0)];
        let a0 = rng.range_f32(-10.0, 10.0);
        let a1 = rng.range_f32(-10.0, 10.0);
        let a2 = rng.range_f32(-10.0, 10.0);
        let vp = Viewport::new(32, 32);
        let Some(tri) = setup_triangle(&verts, vp) else { continue };
        let attrs = [Vec4::splat(a0), Vec4::splat(a1), Vec4::splat(a2)];
        let lo = a0.min(a1).min(a2) - 1e-3;
        let hi = a0.max(a1).max(a2) + 1e-3;
        for f in rasterize_reference(&tri, vp).iter().take(64) {
            let v = tri.interpolate(f.edges, &attrs);
            assert!(v.x >= lo && v.x <= hi, "{} outside [{lo}, {hi}], seed {seed}", v.x);
        }
    }
}

/// Z-block compression is lossless at every achievable level.
#[test]
fn z_compression_lossless() {
    for seed in 0..64u64 {
        let mut rng = TinyRng::new(seed);
        let base = rng.range_u32(0, 0xffff00);
        let stencil = rng.range_u32(0, 255);
        let mut words = [0u32; ZBLOCK_WORDS];
        for w in words.iter_mut() {
            let delta = rng.range_u32(0, 0x1_0000);
            *w = (stencil << 24) | ((base + delta) & 0x00ff_ffff);
        }
        let c = compress_z_block(&words);
        assert_eq!(decompress_z_block(&c), words, "seed {seed}");
    }
}

/// Blending output is always within [0, 1] and respects the colour mask
/// exactly.
#[test]
fn blend_is_clamped_and_masked() {
    let factors = [
        BlendFactor::Zero,
        BlendFactor::One,
        BlendFactor::SrcColor,
        BlendFactor::OneMinusSrcColor,
        BlendFactor::DstColor,
        BlendFactor::OneMinusDstColor,
        BlendFactor::SrcAlpha,
        BlendFactor::OneMinusSrcAlpha,
        BlendFactor::DstAlpha,
        BlendFactor::OneMinusDstAlpha,
        BlendFactor::ConstColor,
        BlendFactor::OneMinusConstColor,
        BlendFactor::SrcAlphaSaturate,
    ];
    let eqs = [
        BlendEquation::Add,
        BlendEquation::Subtract,
        BlendEquation::ReverseSubtract,
        BlendEquation::Min,
        BlendEquation::Max,
    ];
    for seed in 0..256u64 {
        let mut rng = TinyRng::new(seed);
        let src = rand_vec4(&mut rng, 2.0);
        let dst = rand_vec4(&mut rng, 1.0).saturate();
        let mask = [rng.coin(), rng.coin(), rng.coin(), rng.coin()];
        let state = BlendState {
            enabled: true,
            src_factor: factors[rng.range_u32(0, 13) as usize],
            dst_factor: factors[rng.range_u32(0, 13) as usize],
            equation: eqs[rng.range_u32(0, 5) as usize],
            constant: Vec4::splat(0.5),
            color_mask: mask,
        };
        let out = blend(&state, src, dst);
        for i in 0..4 {
            assert!((0.0..=1.0).contains(&out[i]), "channel {i} = {}, seed {seed}", out[i]);
            if !mask[i] {
                assert_eq!(out[i], dst[i], "masked channel must keep dst, seed {seed}");
            }
        }
    }
}

/// The Z/stencil unit's combined test agrees with a straightforward
/// reference reimplementation for arbitrary states.
#[test]
fn z_stencil_matches_reference() {
    for seed in 0..512u64 {
        let mut rng = TinyRng::new(seed);
        let frag_z = rng.range_u32(0, 0x0100_0000);
        let stored_z = rng.range_u32(0, 0x0100_0000);
        let stored_s = rng.range_u32(0, 256) as u8;
        let depth_on = rng.coin();
        let depth_write = rng.coin();
        let stencil_on = rng.coin();
        let dfunc = COMPARES[rng.range_u32(0, 8) as usize];
        let sfunc = COMPARES[rng.range_u32(0, 8) as usize];
        let reference = rng.range_u32(0, 256) as u8;
        let sfail = STENCIL_OPS[rng.range_u32(0, 8) as usize];
        let dpfail = STENCIL_OPS[rng.range_u32(0, 8) as usize];
        let dppass = STENCIL_OPS[rng.range_u32(0, 8) as usize];

        let depth = DepthState { enabled: depth_on, func: dfunc, write: depth_write };
        let stencil = StencilState {
            enabled: stencil_on,
            func: sfunc,
            reference,
            read_mask: 0xff,
            write_mask: 0xff,
            sfail,
            dpfail,
            dppass,
        };
        let stored = ((stored_s as u32) << 24) | stored_z;
        let r = z_stencil_test(depth, stencil, frag_z, stored);

        // Reference semantics.
        let s_pass = !stencil_on || sfunc.test(reference as u32, stored_s as u32);
        let d_pass = !depth_on || dfunc.test(frag_z, stored_z);
        assert_eq!(r.pass, s_pass && d_pass, "seed {seed}");
        let expect_s = if stencil_on {
            let op = if !s_pass {
                sfail
            } else if !d_pass {
                dpfail
            } else {
                dppass
            };
            op.apply(stored_s, reference)
        } else {
            stored_s
        };
        let expect_z =
            if s_pass && d_pass && depth_on && depth_write { frag_z } else { stored_z };
        assert_eq!(r.new_word, ((expect_s as u32) << 24) | expect_z, "seed {seed}");
        assert_eq!(r.written, r.new_word != stored, "seed {seed}");
    }
}
