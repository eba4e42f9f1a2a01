//! The six workloads: which generator, at what size, and why.

use attila_gl::api::GlTexFormat;
use attila_gl::workloads::{self, WorkloadParams};
use attila_gl::{GlCall, GlTrace};
use attila_sim::TinyRng;

/// What one timed pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The trace on one fresh baseline `Gpu`.
    Single,
    /// `attila_bench::standard_grid()` over the trace at 2 sweep workers.
    Sweep,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// One line, repeated in `BENCHMARK.json`.
    pub why: &'static str,
    /// Calls the generator in `attila_gl::workloads`, at the benchmark's
    /// size when `full`, else at the 48×48 one `--check` uses. Full sizes
    /// make one timed pass take 0.4–0.5 s on the reference host: what
    /// steadies a median on this host is the number of passes in a run,
    /// not their length (see calib.rs).
    pub generate: fn(full: bool) -> GlTrace,
}

/// The scene every seed shares. A seed-dependent scene moves the cycle
/// count of `ut2004_like` by ±20 % and of `doom3_like` by ±5 %, which no
/// bound survives, so geometry is pinned and `--seed` drives the texel
/// payloads instead (see [`reseed_texels`]).
const SCENE_SEED: u64 = 0x00A7_711A;

fn sized(width: u32, height: u32, frames: u32, texture_size: u32, detail: u32) -> WorkloadParams {
    WorkloadParams {
        width,
        height,
        frames,
        texture_size,
        detail,
        seed: SCENE_SEED,
        ..Default::default()
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "doom3_shadow",
        kind: Kind::Single,
        why: "multi-pass stencil shadows keep every box and wire live: clock loop and signal transport dominate",
        generate: |full| {
            workloads::doom3_like(if full { sized(160, 120, 1, 256, 1) } else { sized(48, 48, 1, 64, 1) })
        },
    },
    Workload {
        name: "ut2004_multitex",
        kind: Kind::Single,
        why: "one pass, two lookups per fragment: shader and texture emulators, texture cache and DRAM reads dominate",
        generate: |full| {
            workloads::ut2004_like(if full { sized(320, 240, 3, 256, 1) } else { sized(48, 48, 2, 64, 1) })
        },
    },
    Workload {
        name: "fillrate_layers",
        kind: Kind::Single,
        why: "16 screen-sized triangles: idle geometry front-end, busy fragment back-end and DRAM writes",
        generate: |full| {
            let (width, height) = if full { (240, 180) } else { (48, 48) };
            workloads::fillrate(width, height, 8, true)
        },
    },
    Workload {
        name: "ut2004_geometry",
        kind: Kind::Single,
        why: "26 k vertices for 3 k fragments per frame: Streamer, vertex shading, PA, Clipper, Setup; idle back-end",
        generate: |full| {
            workloads::ut2004_like(if full { sized(48, 48, 2, 64, 8) } else { sized(48, 48, 1, 64, 2) })
        },
    },
    Workload {
        name: "texture_stream",
        kind: Kind::Single,
        why: "97 % of cycles skipped: horizon polling and skip_to, not clock(); the only real set-up time and RSS",
        // 40 frames of 512² RGBA8 are 40 MiB of the baseline's 64 MiB GPU
        // memory; 48 frames end in OutOfMemory.
        generate: |full| {
            workloads::texture_stream(if full { sized(96, 96, 40, 512, 1) } else { sized(48, 48, 2, 64, 1) })
        },
    },
    Workload {
        name: "sweep_grid8",
        kind: Kind::Sweep,
        why: "the paper's design-space sweep: 8 configs as two concurrent Gpu instances sharing allocator and caches",
        generate: |full| {
            workloads::doom3_like(if full { sized(64, 64, 1, 64, 1) } else { sized(48, 48, 1, 64, 1) })
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input size: the benchmark's, or the small one `--check` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Check,
}

/// Makes the trace's texel payloads a function of `seed`: every RGB byte
/// of every image moves by a seeded amount in −8..=7. Alpha is kept, so
/// alpha tests and `KIL`s decide as before and the simulated work stays
/// the scene's.
///
/// Lookup tables — unmipmapped luminance textures, i.e. `doom3_like`'s
/// light falloff — are kept as generated: the shader reads them at
/// coordinates it computes, and with a noisy table the timing model and
/// the golden renderer disagree on ~40 pixels of a 320×240 frame (an
/// open correctness item, see README.md).
pub fn reseed_texels(trace: &mut GlTrace, seed: u64) {
    for call in &mut trace.calls {
        if let GlCall::TexImage2D {
            id,
            pixels,
            format,
            mipmapped,
            ..
        } = call
        {
            if *format == GlTexFormat::L8 && !*mipmapped {
                continue;
            }
            let mut rng = TinyRng::new(seed ^ (u64::from(*id) << 32));
            for texel in pixels.chunks_exact_mut(4) {
                let r = rng.next_u64();
                for (c, byte) in texel[..3].iter_mut().enumerate() {
                    let delta = ((r >> (8 * c)) & 0xF) as i16 - 8;
                    *byte = (i16::from(*byte) + delta).clamp(0, 255) as u8;
                }
            }
        }
    }
}

/// Bytes of buffer and texel payload the trace carries.
pub fn payload_bytes(trace: &GlTrace) -> usize {
    trace
        .calls
        .iter()
        .map(|c| match c {
            GlCall::BufferData { data, .. } => data.len(),
            GlCall::TexImage2D { pixels, .. } => pixels.len(),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_decides_the_texels_and_nothing_else() {
        let w = find("fillrate_layers").unwrap();
        let base = (w.generate)(false);
        let (mut a, mut a2, mut b) = (base.clone(), base.clone(), base.clone());
        reseed_texels(&mut a, 1);
        reseed_texels(&mut a2, 1);
        reseed_texels(&mut b, 2);
        assert_eq!(a, a2, "same seed, same input");
        assert_ne!(a, b, "another seed, another input");
        assert_eq!(a.calls.len(), base.calls.len());
        assert_eq!(payload_bytes(&a), payload_bytes(&base));
    }

    #[test]
    fn every_workload_has_a_generator_at_both_scales() {
        for w in WORKLOADS {
            for full in [true, false] {
                assert!((w.generate)(full).frame_count() >= 1, "{}", w.name);
            }
        }
    }
}
