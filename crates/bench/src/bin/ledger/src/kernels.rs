//! Isolated kernels: one layer's `pub` entry points driven in a loop
//! with nothing else running. Each returns the work it did and the raw
//! seconds it took; the caller calibrates.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use attila_core::sweep::run_sweep;
use attila_emu::asm::assemble;
use attila_emu::raster::{
    covered_tiles, gen_fragment, setup_triangle, TraversalAlgorithm, Viewport,
};
use attila_emu::shader::ShaderEmulator;
use attila_emu::texture::{TexFilter, TexFormat, TextureDesc, TextureEmulator};
use attila_emu::Vec4;
use attila_gl::workloads::{doom3_like, WorkloadParams};
use attila_gl::{compile, GlCall, GlTrace};
use attila_mem::controller::{Client, MemControllerConfig, MemOp, MemRequest, MemoryController};
use attila_sim::{Signal, TinyRng};

use crate::sim::{baseline_for, grid_over, SWEEP_WORKERS};

/// Work done (operations, requests, instructions …) and the raw seconds
/// it took.
#[derive(Debug, Clone, Copy)]
pub struct KernelRun {
    pub work: f64,
    pub raw_s: f64,
}

fn timed(f: impl FnOnce() -> f64) -> KernelRun {
    let t = Instant::now();
    let work = f();
    KernelRun {
        work,
        raw_s: t.elapsed().as_secs_f64(),
    }
}

/// `Signal::with_name` + `write` + `read` at full bandwidth for `cycles`
/// cycles; work = writes + reads.
pub fn signal(latency: u64, bandwidth: usize, cycles: u64) -> KernelRun {
    let (mut tx, mut rx) = Signal::<u64>::with_name("ledger.kernel", bandwidth, latency);
    timed(|| {
        let mut ops = 0u64;
        let mut sum = 0u64;
        for cycle in 0..cycles {
            for lane in 0..bandwidth {
                tx.write(cycle, cycle + lane as u64)
                    .expect("within bandwidth");
                ops += 1;
            }
            while let Some(v) = rx.read(cycle) {
                sum = sum.wrapping_add(v);
                ops += 1;
            }
        }
        black_box(sum);
        ops as f64
    })
}

/// The request mix of a memory-controller kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemStream {
    /// Texture-unit line fills, as `ut2004_multitex` issues.
    Read,
    /// Colour-cache evictions, as `fillrate_layers` issues.
    Write,
    /// Both, interleaved: every other request turns the bus around.
    Mixed,
}

/// `requests` 64-byte transactions through `MemoryController::submit` /
/// `clock` / `pop_reply`, one submit per client per cycle as the boxes
/// do; work = requests completed.
pub fn memory(stream: MemStream, requests: u64) -> KernelRun {
    const MEM_BYTES: u64 = 1 << 20;
    let mut ctl = MemoryController::new(MemControllerConfig::default(), MEM_BYTES as usize);
    let reader = Client::Texture(0);
    let writer = Client::ColorWrite(0);
    timed(|| {
        let (mut issued, mut done, mut cycle) = (0u64, 0u64, 0u64);
        while done < requests {
            if issued < requests {
                let write = match stream {
                    MemStream::Read => false,
                    MemStream::Write => true,
                    MemStream::Mixed => issued % 2 == 1,
                };
                // Writes stream through the upper half so a mixed run
                // also alternates rows.
                let addr = (issued * 64) % (MEM_BYTES / 2) + if write { MEM_BYTES / 2 } else { 0 };
                let (client, op) = if write {
                    (writer, MemOp::TimingWrite { size: 64 })
                } else {
                    (reader, MemOp::TimingRead { size: 64 })
                };
                if ctl.can_accept(client, addr) {
                    ctl.submit(MemRequest {
                        id: issued,
                        client,
                        addr,
                        op,
                    })
                    .expect("queue has room");
                    issued += 1;
                }
            }
            ctl.clock(cycle);
            for client in [reader, writer] {
                while let Some(reply) = ctl.pop_reply(client) {
                    black_box(reply.id);
                    done += 1;
                }
            }
            cycle += 1;
        }
        done as f64
    })
}

/// The trace's own shader programs (its `ProgramString` calls), each run
/// for an equal share of `threads` through `ShaderEmulator::spawn` /
/// `run_to_end` with a stub sampler; work = instructions (program length
/// × threads).
pub fn shader(trace: &GlTrace, threads: u64) -> KernelRun {
    let programs: Vec<_> = trace
        .calls
        .iter()
        .filter_map(|c| match c {
            GlCall::ProgramString { source, .. } => {
                Some(Arc::new(assemble(source).expect("trace program assembles")))
            }
            _ => None,
        })
        .collect();
    let inputs: Vec<Vec4> = (0..8)
        .map(|i| Vec4::new(0.3, 0.5, 0.7, 1.0) * (1.0 + i as f32 * 0.125))
        .collect();
    let per_program = threads / programs.len().max(1) as u64;
    timed(|| {
        let mut instructions = 0u64;
        for program in &programs {
            let mut emu = ShaderEmulator::new(Arc::clone(program));
            for _ in 0..per_program {
                let thread = emu.spawn(&inputs);
                let (outputs, _) = emu.run_to_end(thread, |_| Vec4::new(0.5, 0.5, 0.5, 1.0));
                black_box(outputs[0]);
                emu.retire(thread);
            }
            instructions += program.len() as u64 * per_program;
        }
        instructions as f64
    })
}

/// `TextureEmulator::sample_quad` on a 256² RGBA8 mip chain held in a
/// byte slice, at about 1.3 texels per pixel; work = texels fetched
/// (4 per bilinear operation).
pub fn texture(filter: TexFilter, quads: u64) -> KernelRun {
    let mut desc = TextureDesc::new_2d(256, 256, TexFormat::Rgba8, 0).with_full_mips();
    desc.min_filter = filter;
    let mut rng = TinyRng::new(0x7E8);
    let texels: Vec<u8> = (0..desc.total_bytes())
        .map(|_| rng.next_u64() as u8)
        .collect();
    let emu = TextureEmulator::new();
    let step = 2.5 / 256.0;
    timed(|| {
        let mut fetched = 0u64;
        let mut source: &[u8] = &texels;
        for _ in 0..quads {
            let (u, v) = (rng.unit_f32() * 4.0, rng.unit_f32() * 4.0);
            let coords = [
                Vec4::new(u, v, 0.0, 1.0),
                Vec4::new(u + step, v, 0.0, 1.0),
                Vec4::new(u, v + step, 0.0, 1.0),
                Vec4::new(u + step, v + step, 0.0, 1.0),
            ];
            for sample in emu.sample_quad(&desc, &mut source, &coords, 0.0, false) {
                fetched += u64::from(sample.bilinear_ops) * 4;
                black_box(sample.value);
            }
        }
        fetched as f64
    })
}

/// `setup_triangle` + `covered_tiles` + `gen_fragment` over random
/// triangles in a 256² viewport; work = fragments generated.
pub fn raster(triangles: u64) -> KernelRun {
    const TILE: u32 = 8;
    let viewport = Viewport::new(256, 256);
    let mut rng = TinyRng::new(0x7A5);
    timed(|| {
        let mut fragments = 0u64;
        let mut depth = 0.0f32;
        for _ in 0..triangles {
            let mut corner =
                || Vec4::new(rng.range_f32(-1.0, 1.0), rng.range_f32(-1.0, 1.0), 0.5, 1.0);
            let clip = [corner(), corner(), corner()];
            let Some(tri) = setup_triangle(&clip, viewport) else {
                continue;
            };
            for (tx, ty) in covered_tiles(&tri, TILE, TraversalAlgorithm::Recursive) {
                for y in ty..(ty + TILE).min(viewport.height) {
                    for x in tx..(tx + TILE).min(viewport.width) {
                        depth += gen_fragment(&tri, x, y).depth;
                        fragments += 1;
                    }
                }
            }
        }
        black_box(depth);
        fragments as f64
    })
}

/// Every `stride`-th config of `attila_bench::standard_grid()` over a 64²
/// doom3-like frame, through `run_sweep` at 1 worker and at
/// [`SWEEP_WORKERS`]; work = configs.
pub fn sweep(stride: usize) -> (KernelRun, KernelRun) {
    let trace = doom3_like(WorkloadParams {
        width: 64,
        height: 64,
        frames: 1,
        texture_size: 64,
        ..Default::default()
    });
    let commands =
        Arc::new(compile(trace.width, trace.height, &trace.calls).expect("trace compiles"));
    let jobs = grid_over(
        &baseline_for(&trace),
        attila_bench::standard_grid()
            .into_iter()
            .step_by(stride)
            .collect(),
    );
    let run = |workers: usize| {
        let (jobs, commands) = (jobs.clone(), Arc::clone(&commands));
        timed(move || {
            let outcomes = run_sweep(jobs, commands, workers);
            assert!(
                outcomes.iter().all(|o| o.error.is_none()),
                "sweep kernel cell failed"
            );
            outcomes.len() as f64
        })
    };
    (run(1), run(SWEEP_WORKERS))
}
