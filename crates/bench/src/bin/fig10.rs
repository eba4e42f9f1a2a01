//! Figure 10: rendered-frame validation. The paper compares the
//! simulator's DAC dump against a GeForce 5900 frame and found three
//! rendering bugs that way; our reference is the golden-model renderer.
//! Dumps both images as PPM files and reports the pixel diff; exits 1 when
//! any frame differs.

use std::process::ExitCode;

use attila_bench::{harness_params, is_full_run};
use attila_core::config::{GpuConfig, ShaderScheduling};
use attila_core::gpu::Gpu;
use attila_gl::{compile, diff_frames, golden_frames, verify, workloads};

fn main() -> ExitCode {
    let full = is_full_run();
    let params = harness_params(full);
    println!("== Figure 10: frame validation against the golden model ==");

    let traces = [
        ("doom3_like", workloads::doom3_like(params)),
        ("ut2004_like", workloads::ut2004_like(params)),
    ];
    let out_dir = std::path::Path::new("target/fig10");
    std::fs::create_dir_all(out_dir).expect("create output dir");

    let mut all_identical = true;
    for (name, trace) in &traces {
        let commands = compile(trace.width, trace.height, &trace.calls).expect("compiles");
        let mut config = GpuConfig::case_study(3, ShaderScheduling::ThreadWindow);
        config.display.width = trace.width;
        config.display.height = trace.height;
        let mut gpu = Gpu::new(config);
        gpu.max_cycles = 2_000_000_000;
        let result = gpu.run_trace(&commands).expect("drains");
        let golden = golden_frames(&commands, 64 * 1024 * 1024);
        for (i, (sim, gold)) in result.framebuffers.iter().zip(&golden).enumerate() {
            let diff = diff_frames(sim, gold);
            let sim_path = out_dir.join(format!("{name}_frame{i}_sim.ppm"));
            let gold_path = out_dir.join(format!("{name}_frame{i}_ref.ppm"));
            verify::write_ppm(sim, &sim_path).expect("write sim ppm");
            verify::write_ppm(gold, &gold_path).expect("write ref ppm");
            println!(
                "{name} frame {i}: {} -> {} / {}",
                diff,
                sim_path.display(),
                gold_path.display()
            );
            all_identical &= diff.identical();
        }
    }
    println!();
    if all_identical {
        println!("every frame is bit-identical to the reference renderer.");
        ExitCode::SUCCESS
    } else {
        println!("MISMATCH: the timing model corrupted at least one frame (a bug, as in the paper's Figure 10 findings).");
        ExitCode::FAILURE
    }
}
