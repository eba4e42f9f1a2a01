//! Figure 7: performance degradation and frame rate when sweeping the
//! texture-unit count from 3 to 1, for the thread-window and in-order
//! input-queue shader schedulers, on Doom3-like and UT2004-like traces.
//!
//! Paper expectation: the thread-window configuration takes a small hit
//! (5–10%) going 3→2 TUs and a relatively large hit 3→1; the input-queue
//! configuration is too small to hide texture latency, so the TU count
//! barely affects (already-poor) performance.

use attila_bench::{case_study_config, harness_params, is_full_run, run_workload};
use attila_core::config::ShaderScheduling;
use attila_gl::workloads;

fn main() {
    let full = is_full_run();
    let params = harness_params(full);
    println!("== Figure 7: shader ALUs vs texture units ==");
    println!(
        "case-study GPU: 3 unified shaders, 1 ROP, 2 DDR channels, 96-thread window / 384-input queue, 1536 temp registers"
    );
    println!(
        "workloads at {}x{} x{} frames (paper: 1024x768, 40 frames){}",
        params.width,
        params.height,
        params.frames,
        if full { " [--full]" } else { " (pass --full for a larger run)" }
    );
    println!();

    let traces = [
        ("DOOM3-like", workloads::doom3_like(params)),
        ("UT2004-like", workloads::ut2004_like(params)),
    ];

    println!(
        "{:<12} {:<14} {:>4} {:>12} {:>10} {:>10}",
        "trace", "scheduler", "TUs", "cycles", "rel perf", "fps@600MHz"
    );
    for (name, trace) in &traces {
        for sched in [ShaderScheduling::ThreadWindow, ShaderScheduling::InOrderQueue] {
            let mut base_cycles = None;
            for tus in [3usize, 2, 1] {
                let m = run_workload(case_study_config(tus, sched, 10_000), trace);
                let base = *base_cycles.get_or_insert(m.cycles);
                let rel = base as f64 / m.cycles as f64;
                println!(
                    "{:<12} {:<14} {:>4} {:>12} {:>9.1}% {:>10.2}",
                    name,
                    format!("{sched:?}"),
                    tus,
                    m.cycles,
                    rel * 100.0,
                    m.fps
                );
            }
            println!();
        }
    }
    println!("paper shape: window 3->2 small hit, 3->1 large; queue flat and slow.");
}
