//! Whole-machine allocation budget.
//!
//! The paper's framework gives the objects that travel through signals a
//! pooled allocator so that creating, passing and destroying them is
//! nearly free. This port has no pool; it keeps the object path cheap by
//! construction instead — thin wire slots, one box per fragment quad, one
//! input buffer per quad, fixed arrays and reused scratch inside the boxes
//! (DESIGN.md §16.1). This test holds that line for the machine as a
//! whole: heap allocations inside `Gpu::run_trace` must stay within a few
//! per simulated object, and a machine that has already rendered the frame
//! once (queues, rings, slabs and scratch grown to their peak) must render
//! it again within the per-object terms alone. As measured when the
//! budget was set: 5 025 and 17 513 allocations on the first runs of the
//! two traces below against budgets of 6 384 and 32 190; the object path
//! this replaced made 31 278 on the first, 4.9 × its budget, so the
//! budget cannot erode back unnoticed. The vertex term was later cut from
//! 4 to 1.5 allocations a vertex, once Primitive Assembly stopped building
//! a `Vec` per assembled triangle: the second trace's warm run makes
//! 13 857 against a budget of 14 655, and made 16 195 with that `Vec`.
//!
//! This file deliberately holds a single `#[test]`: the default harness
//! runs the tests of one binary concurrently, and a neighbour's
//! allocations would race the counter. (Integration tests are separate
//! crates; the counting allocator, which only forwards to the system
//! allocator, is the one place `unsafe` is warranted.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use attila::core::config::GpuConfig;
use attila::core::gpu::Gpu;
use attila::gl::workloads::{self, WorkloadParams};
use attila::gl::{compile, GlTrace};

/// Forwards to the system allocator, counting allocations and
/// reallocations (frees are not counted: the budget is on new memory).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations per fragment quad leaving Hierarchical Z: the quad's box,
/// its interpolated-input buffer, and one for everything amortised over
/// quads (the tile's fragment list, texture-cache fills, map nodes).
const PER_QUAD: u64 = 3;
/// Allocations per two vertices the Streamer issues (1.5 a vertex): their
/// input attributes and shaded outputs, which a post-shading cache hit
/// skips, and commit-reorder map nodes. Assembled triangles allocate
/// nothing of their own.
const PER_TWO_VERTICES: u64 = 3;
/// First-frame allowance: queues, rings, slabs, emulators and scratch
/// buffers growing to their peak (about 300 allocations on these traces).
const WARM_UP: u64 = 1_000;

/// Runs `trace` twice on one baseline machine and returns, per run, the
/// allocations inside `run_trace` and the per-object budget for the work
/// that run did.
fn measure(trace: &GlTrace) -> [(u64, u64); 2] {
    let commands = compile(trace.width, trace.height, &trace.calls).expect("trace compiles");
    let mut config = GpuConfig::baseline();
    config.display.width = trace.width;
    config.display.height = trace.height;
    let mut gpu = Gpu::new(config);
    gpu.keep_frames = false;
    let mut runs = [(0, 0); 2];
    let (mut quads_seen, mut vertices_seen) = (0, 0);
    for run in &mut runs {
        let before = ALLOCS.load(Ordering::Relaxed);
        gpu.run_trace(&commands).expect("trace runs");
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let total = |name| gpu.stats().total(name).expect("statistic is registered") as u64;
        let quads = total("HZ.quads_out");
        let vertices = total("Streamer.vertices");
        *run = (
            allocs,
            PER_QUAD * (quads - quads_seen) + PER_TWO_VERTICES * (vertices - vertices_seen) / 2,
        );
        (quads_seen, vertices_seen) = (quads, vertices);
    }
    assert!(quads_seen > 0 && vertices_seen > 0, "the trace drew nothing");
    runs
}

#[test]
fn run_trace_allocates_within_a_per_object_budget() {
    let traces = [
        ("fillrate 64x64, two layers", workloads::fillrate(64, 64, 2, true)),
        (
            "ut2004_like 64x64, detail 4",
            workloads::ut2004_like(WorkloadParams {
                width: 64,
                height: 64,
                frames: 1,
                texture_size: 64,
                detail: 4,
                ..Default::default()
            }),
        ),
    ];
    for (name, trace) in &traces {
        let [(cold, cold_budget), (warm, warm_budget)] = measure(trace);
        assert!(
            cold <= cold_budget + WARM_UP,
            "{name}: first run made {cold} allocations, budget {cold_budget} + {WARM_UP} warm-up"
        );
        assert!(
            warm <= warm_budget,
            "{name}: second run on the warmed machine made {warm} allocations, budget \
             {warm_budget} ({PER_QUAD} per quad + {PER_TWO_VERTICES} per two vertices)"
        );
    }
}
