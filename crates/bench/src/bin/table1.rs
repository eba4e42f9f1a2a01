//! Table 1: bandwidths, queue sizes and latencies of the baseline ATTILA
//! architecture — the configured values, plus measured steady-state
//! throughput of the key units under a fill-rate microworkload to show
//! the pipeline actually sustains its configured rates. A queue is the
//! capacity `Gpu::new` gives the unit's input wire, or `-` if no key does.

use attila_bench::{is_full_run, run_workload};
use attila_core::config::GpuConfig;
use attila_core::ffifo::GROUP_LANES;
use attila_gl::workloads;

fn main() {
    let c = GpuConfig::baseline();
    println!("== Table 1: baseline ATTILA unit configuration ==");
    println!(
        "{:<22} {:>18} {:>18} {:>12} {:>10}",
        "unit", "input bw", "output bw", "queue", "latency"
    );
    let row = |unit: &str, ibw: &str, obw: &str, q: Option<usize>, lat: String| {
        let q = q.map_or("-".to_string(), |q| q.to_string());
        println!("{unit:<22} {ibw:>18} {obw:>18} {q:>12} {lat:>10}");
    };
    row("Streamer", "1 index/cyc", "1 vertex/cyc", None, "Mem".into());
    row(
        "Primitive Assembly",
        "1 vertex/cyc",
        "1 triangle/cyc",
        Some(c.primitive_assembly.input_queue),
        c.primitive_assembly.latency.to_string(),
    );
    row(
        "Clipping",
        "1 triangle/cyc",
        "1 triangle/cyc",
        Some(c.clipper.input_queue),
        c.clipper.latency.to_string(),
    );
    row(
        "Triangle Setup",
        "1 triangle/cyc",
        "1 triangle/cyc",
        Some(c.setup.input_queue),
        c.setup.latency.to_string(),
    );
    row(
        "Fragment Generation",
        "1 triangle/cyc",
        &format!("{}x64 frag/cyc", c.fraggen.tiles_per_cycle),
        Some(c.fraggen.input_queue),
        c.fraggen.latency.to_string(),
    );
    row(
        "Hierarchical Z",
        &format!("{}x64 frag/cyc", c.hz.tiles_per_cycle),
        &format!("{}x64 frag/cyc", c.hz.tiles_per_cycle),
        Some(c.hz.input_queue),
        c.hz.latency.to_string(),
    );
    row(
        "Z Test",
        &format!("{} frag/cyc", c.zstencil.frags_per_cycle),
        &format!("{} frag/cyc", c.zstencil.frags_per_cycle),
        Some(c.zstencil.input_queue * 4),
        format!("{}+Mem", c.zstencil.latency),
    );
    row(
        "Interpolator",
        &format!("{} frag/cyc", c.interpolator.frags_per_cycle),
        &format!("{} frag/cyc", c.interpolator.frags_per_cycle),
        None,
        format!(
            "{} to {}",
            c.interpolator.base_latency,
            c.interpolator.base_latency + 6 * c.interpolator.latency_per_attribute
        ),
    );
    row(
        "Color Write",
        &format!("{} frag/cyc", c.colorwrite.frags_per_cycle),
        "-",
        Some(c.colorwrite.input_queue * 4),
        "Mem".into(),
    );
    row(
        "Vertex Shader",
        "1 vertex/cyc",
        "1 vertex/cyc",
        Some(c.shader.vertex_threads),
        "variable".into(),
    );
    row(
        "Fragment Shader",
        &format!("{GROUP_LANES} frag/cyc"),
        &format!("{GROUP_LANES} frag/cyc"),
        Some(c.shader.max_inputs / c.shader.fragment_units),
        "variable".into(),
    );
    println!();
    println!(
        "memory: {} channels x {} B/cyc, {} B system bus x2; shader pool: {} units, {} inputs, {} registers",
        c.memory.channels,
        attila_mem::MAX_TRANSACTION as u64 / c.memory.transfer_cycles,
        c.memory.system_bus_bytes_per_cycle,
        c.shader.fragment_units,
        c.shader.max_inputs,
        c.shader.temp_registers
    );

    // Measured: sustained fragment throughput on an untextured fill-rate
    // workload (ROP-bound: 2 units x 4 frag/cyc = 8 frag/cyc peak).
    let full = is_full_run();
    let (w, h, layers) = if full { (320, 240, 16) } else { (160, 120, 8) };
    let trace = workloads::fillrate(w, h, layers, false);
    let m = run_workload(GpuConfig::baseline(), &trace);
    let frags = (w * h * layers) as f64;
    println!();
    println!("== measured: fill-rate microworkload ({w}x{h}, {layers} layers) ==");
    println!("cycles: {}", m.cycles);
    println!(
        "fragments/cycle sustained: {:.2} (peak {} with {} color-write units x {} frag/cyc)",
        frags / m.cycles as f64,
        c.colorwrite.units as u32 * c.colorwrite.frags_per_cycle,
        c.colorwrite.units,
        c.colorwrite.frags_per_cycle
    );
}
