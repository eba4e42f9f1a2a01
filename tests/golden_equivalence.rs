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
