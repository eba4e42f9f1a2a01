//! Figure-10 methodology at test scale: every synthetic workload rendered
//! by the cycle-level simulator must match the golden-model renderer
//! pixel for pixel, across schedulers and pipeline variants. A mismatch
//! means the timing model reordered, dropped or corrupted work.

use attila::core::config::{GpuConfig, ShaderScheduling};
use attila::core::golden::GoldenRenderer;
use attila::core::gpu::Gpu;
use attila::gl::workloads::{self, WorkloadParams};
use attila::gl::{compile, diff_frames};

const MEM_BYTES: usize = 64 * 1024 * 1024;

fn tiny_params() -> WorkloadParams {
    WorkloadParams { width: 64, height: 64, frames: 1, texture_size: 32, ..Default::default() }
}

fn run_and_compare(config: GpuConfig, trace: &attila::gl::GlTrace) {
    let commands = compile(trace.width, trace.height, &trace.calls).expect("trace compiles");
    let mut config = config;
    config.display.width = trace.width;
    config.display.height = trace.height;
    config.stats.window_cycles = 10_000;
    let max_aniso = config.texture.max_aniso;
    let mut gpu = Gpu::new(config);
    gpu.max_cycles = 80_000_000;
    let result = gpu.run_trace(&commands).expect("simulation drains");
    let mut golden = GoldenRenderer::new(MEM_BYTES).with_max_aniso(max_aniso);
    let golden_frames = golden.run_trace(&commands);
    assert_eq!(result.framebuffers.len(), golden_frames.len(), "frame counts differ");
    for (i, (sim, gold)) in result.framebuffers.iter().zip(&golden_frames).enumerate() {
        let diff = diff_frames(sim, gold);
        assert!(
            diff.identical(),
            "frame {i} differs from the golden model: {diff}"
        );
    }
}

#[test]
fn quickstart_matches_golden() {
    let trace = workloads::quickstart_trace(64, 64);
    run_and_compare(GpuConfig::baseline(), &trace);
}

#[test]
fn doom3_like_matches_golden_baseline() {
    let trace = workloads::doom3_like(tiny_params());
    run_and_compare(GpuConfig::baseline(), &trace);
}

#[test]
fn ut2004_like_matches_golden_baseline() {
    let trace = workloads::ut2004_like(tiny_params());
    run_and_compare(GpuConfig::baseline(), &trace);
}

#[test]
fn doom3_like_matches_golden_case_study_window() {
    let trace = workloads::doom3_like(tiny_params());
    run_and_compare(GpuConfig::case_study(3, ShaderScheduling::ThreadWindow), &trace);
}

#[test]
fn doom3_like_matches_golden_case_study_queue() {
    let trace = workloads::doom3_like(tiny_params());
    run_and_compare(GpuConfig::case_study(1, ShaderScheduling::InOrderQueue), &trace);
}

#[test]
fn ut2004_like_matches_golden_non_unified() {
    let trace = workloads::ut2004_like(tiny_params());
    run_and_compare(GpuConfig::non_unified_baseline(), &trace);
}

#[test]
fn embedded_scene_matches_golden_embedded_gpu() {
    let mut params = tiny_params();
    params.width = 48;
    params.height = 48;
    let trace = workloads::embedded_scene(params);
    run_and_compare(GpuConfig::embedded(), &trace);
}

// The embedded GPU's texture units do no anisotropic filtering
// (`max_aniso` 1): the golden renderer must clamp as they do. Before it
// took the limit, these differed on 333 (ut2004) and 2222 (doom3) of 4096
// pixels.
#[test]
fn ut2004_like_matches_golden_embedded_gpu() {
    let trace = workloads::ut2004_like(tiny_params());
    run_and_compare(GpuConfig::embedded(), &trace);
}

#[test]
fn doom3_like_matches_golden_embedded_gpu() {
    let trace = workloads::doom3_like(tiny_params());
    run_and_compare(GpuConfig::embedded(), &trace);
}

#[test]
fn hz_disabled_renders_identically() {
    let trace = workloads::doom3_like(tiny_params());
    let mut config = GpuConfig::baseline();
    config.hz.enabled = false;
    run_and_compare(config, &trace);
}

#[test]
fn tile_scan_traversal_renders_identically() {
    let trace = workloads::ut2004_like(tiny_params());
    let mut config = GpuConfig::baseline();
    config.fraggen.traversal = attila::core::config::Traversal::TileScan;
    run_and_compare(config, &trace);
}

#[test]
fn z_compression_disabled_renders_identically() {
    let trace = workloads::doom3_like(tiny_params());
    let mut config = GpuConfig::baseline();
    config.zstencil.compression = false;
    run_and_compare(config, &trace);
}

#[test]
fn fillrate_blended_layers_match_golden() {
    let trace = workloads::fillrate(64, 64, 4, true);
    run_and_compare(GpuConfig::baseline(), &trace);
}

#[test]
fn two_sided_stencil_matches_golden_and_two_pass_volumes() {
    // The paper lists double-sided stencil as future work; we implement
    // it. The one-pass volumes must render the same image as two-pass.
    let mut params = tiny_params();
    let two_pass = workloads::doom3_like(params);
    params.two_sided_stencil = true;
    let one_pass = workloads::doom3_like(params);
    let draws = |t: &attila::gl::GlTrace| {
        t.calls
            .iter()
            .filter(|c| matches!(c, attila::gl::GlCall::DrawElements { .. }))
            .count()
    };
    assert!(draws(&one_pass) < draws(&two_pass), "one-pass volumes issue fewer draws");
    run_and_compare(GpuConfig::baseline(), &one_pass);

    // Same final image either way (same stencil semantics).
    let run = |trace: &attila::gl::GlTrace| {
        let commands = compile(trace.width, trace.height, &trace.calls).unwrap();
        let mut config = GpuConfig::baseline();
        config.display.width = trace.width;
        config.display.height = trace.height;
        let mut gpu = Gpu::new(config);
        gpu.max_cycles = 80_000_000;
        gpu.run_trace(&commands).unwrap().framebuffers
    };
    let a = run(&two_pass);
    let b = run(&one_pass);
    let diff = diff_frames(&a[0], &b[0]);
    assert!(diff.identical(), "volume pass styles diverge: {diff}");
}

#[test]
fn color_compression_matches_golden() {
    let trace = workloads::ut2004_like(tiny_params());
    let mut config = GpuConfig::baseline();
    config.colorwrite.compression = true;
    run_and_compare(config, &trace);
}

/// `TXB` takes its LOD bias from `w`, which may differ across the four
/// fragments of a quad; a quad samples with one bias, the first unfinished
/// fragment's, in the timing model and the golden renderer alike. Here `w`
/// ramps 0 → 6 across the frame over a trilinear mip chain of noise, so
/// every quad's four fragments carry four different biases. Before both
/// paths read the bias from the same place, the Fragment FIFO took the
/// last fragment's and this frame differed on 1 704 of 4 096 pixels.
#[test]
fn txb_bias_per_quad_matches_golden() {
    use attila::gl::api::{GlCall, GlPrimitive, GlTexFilter, GlTexFormat, GlWrap};

    const SIZE: u32 = 64;
    let mut rng = attila::sim::TinyRng::new(0x7B);
    let pixels: Vec<u8> = (0..SIZE * SIZE * 4).map(|_| rng.range_u32(0, 256) as u8).collect();
    // A screen-filling quad: position (x, y, z), then (u, v, 0, bias) with
    // the texture repeated 4× across the frame (LOD ≈ 2 before the bias).
    let corners = [
        ([-1.0f32, -1.0], [0.0f32, 0.0, 0.0, 0.0]),
        ([1.0, -1.0], [4.0, 0.0, 0.0, 6.0]),
        ([1.0, 1.0], [4.0, 4.0, 0.0, 6.0]),
        ([-1.0, 1.0], [0.0, 4.0, 0.0, 0.0]),
    ];
    let mut vertices = Vec::new();
    for i in [0, 1, 2, 0, 2, 3] {
        let ([x, y], attr) = corners[i];
        for v in [x, y, 0.5].iter().chain(&attr) {
            vertices.extend_from_slice(&v.to_le_bytes());
        }
    }
    let calls = vec![
        GlCall::TexImage2D {
            id: 1,
            width: SIZE,
            height: SIZE,
            format: GlTexFormat::Rgba8,
            mipmapped: true,
            pixels,
        },
        GlCall::TexFilter { id: 1, min: GlTexFilter::Trilinear },
        GlCall::TexWrap { id: 1, s: GlWrap::Repeat, t: GlWrap::Repeat },
        GlCall::BindTexture { unit: 0, id: 1 },
        GlCall::ProgramString {
            id: 2,
            source: "!!ATTILAvp1.0\nMOV o0, i0;\nMOV o1, i1;\nEND;".into(),
        },
        GlCall::ProgramString {
            id: 3,
            source: "!!ATTILAfp1.0\nTXB r0, i0, texture[0], 2D;\nMOV o0, r0;\nEND;".into(),
        },
        GlCall::BindProgram { target_vertex: true, id: 2 },
        GlCall::BindProgram { target_vertex: false, id: 3 },
        GlCall::BufferData { id: 4, data: vertices },
        GlCall::VertexAttribPointer { attr: 0, buffer: 4, components: 3, stride: 28, offset: 0 },
        GlCall::VertexAttribPointer { attr: 1, buffer: 4, components: 4, stride: 28, offset: 12 },
        GlCall::Clear { mask: attila::gl::api::clear_mask::COLOR },
        GlCall::DrawArrays { primitive: GlPrimitive::Triangles, count: 6 },
        GlCall::SwapBuffers,
    ];
    let trace = attila::gl::GlTrace { width: 64, height: 64, calls };
    run_and_compare(GpuConfig::baseline(), &trace);
}
