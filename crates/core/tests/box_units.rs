//! Box-level unit tests driving individual pipeline units through
//! hand-made ports — the granularity the paper's box/signal interfaces
//! are designed for ("a box can be replaced by another box ... registering
//! the same signals and supporting the same input and output objects").

#![allow(clippy::field_reassign_with_default)]
use std::sync::Arc;

use attila_core::address::{pixel_address, surface_bytes, tile_address};
use attila_core::colorwrite::ColorWriteUnit;
use attila_core::commands::{DrawCall, GpuCommand, Primitive};
use attila_core::command_processor::{CommandProcessor, CpAction};
use attila_core::config::GpuConfig;
use attila_core::hz::HzUpdate;
use attila_core::port::{unbound_port, PortSender};
use attila_core::state::RenderState;
use attila_core::types::{Batch, FragQuad, QuadFrag, TriangleData};
use attila_core::unit::Unit;
use attila_core::zstencil::ZStencilUnit;
use attila_emu::fragops::{
    compress_z_block, pack_depth_stencil, BlendFactor, BlendState, CompareFunc, DepthState,
};
use attila_emu::isa::limits;
use attila_emu::raster::{setup_triangle, Viewport};
use attila_emu::vector::Vec4;
use attila_mem::{MemControllerConfig, MemoryController};
use attila_sim::StatsRegistry;

fn make_state() -> RenderState {
    let mut st = RenderState::default();
    st.viewport = Viewport::new(64, 64);
    st.target_width = 64;
    st.target_height = 64;
    st.color_buffer = 0x10000;
    st.z_buffer = 0x20000;
    st.depth = DepthState { enabled: true, func: CompareFunc::Less, write: true };
    st
}

fn make_quad(state: RenderState, x: u32, y: u32, depth: f32) -> FragQuad {
    let batch = Arc::new(Batch {
        id: 0,
        state: Arc::new(state),
        draw: DrawCall { primitive: Primitive::Triangles, vertex_count: 3, index_buffer: None },
    });
    let setup = setup_triangle(
        &[
            Vec4::new(-1.0, -1.0, 0.0, 1.0),
            Vec4::new(3.0, -1.0, 0.0, 1.0),
            Vec4::new(-1.0, 3.0, 0.0, 1.0),
        ],
        Viewport::new(64, 64),
    )
    .unwrap();
    let tri = Arc::new(TriangleData {
        batch,
        setup,
        outputs: [
            Arc::new([Vec4::ZERO; limits::OUTPUTS]),
            Arc::new([Vec4::ZERO; limits::OUTPUTS]),
            Arc::new([Vec4::ZERO; limits::OUTPUTS]),
        ],
    });
    let frag = |alive| QuadFrag {
        alive,
        edges: [1.0, 1.0, 1.0],
        depth,
        color: Vec4::ONE,
    };
    FragQuad::new(
        attila_sim::DynamicObject::new(1),
        tri,
        x,
        y,
        [frag(true), frag(true), frag(true), frag(true)],
    )
}

/// Drives one ZStencil unit: quads against a cleared buffer must pass,
/// a second quad behind them must fail, and cleared-block fills must cost
/// no memory traffic.
#[test]
fn zstencil_unit_tests_and_culls() {
    let mut stats = StatsRegistry::new(0);
    let config = GpuConfig::baseline().zstencil;
    let (mut early_tx, early_rx) = unbound_port::<FragQuad>("hz->zst", 2, 1, 16);
    let (_late_tx, late_rx) = unbound_port::<FragQuad>("ff->zst", 1, 1, 16);
    let (out_early_tx, mut out_early_rx) = unbound_port::<FragQuad>("zst->interp", 1, 1, 16);
    let (out_late_tx, _out_late_rx) = unbound_port::<FragQuad>("zst->cw", 1, 1, 16);
    let (hz_tx, mut hz_rx) = unbound_port::<HzUpdate>("zst->hz", 4, 1, 32);
    let mut zst = ZStencilUnit::new(
        0,
        config,
        early_rx,
        late_rx,
        out_early_tx,
        out_late_tx,
        hz_tx,
        &mut stats,
    );
    let mut mem = MemoryController::new(MemControllerConfig::default(), 1 << 22);

    // Fast clear to the far plane.
    let st = make_state();
    let len = attila_core::address::surface_bytes(64, 64);
    zst.fast_clear(&mut mem, st.z_buffer, len, pack_depth_stencil(0x00ff_ffff, 0));
    let base_reads = mem.bytes_read();

    // A near quad passes.
    early_tx.update(0);
    early_tx.send(0, make_quad(make_state(), 8, 8, 0.25));
    let mut passed = None;
    for cycle in 0..200 {
        early_tx.update(cycle);
        zst.clock(cycle, &mut mem).expect("no faults");
        mem.clock(cycle);
        out_early_rx.update(cycle);
        hz_rx.update(cycle);
        while hz_rx.pop(cycle).is_some() {}
        if let Some(q) = out_early_rx.pop(cycle) {
            passed = Some((cycle, q));
            break;
        }
    }
    let (c1, q) = passed.expect("near quad must pass");
    assert_eq!(q.live_count(), 4);
    assert_eq!(
        mem.bytes_read(),
        base_reads,
        "cleared-block fill must cost no memory reads"
    );

    // A farther quad at the same pixels now fails entirely (removed).
    early_tx.update(c1 + 1);
    early_tx.send(c1 + 1, make_quad(make_state(), 8, 8, 0.75));
    for cycle in c1 + 1..c1 + 200 {
        early_tx.update(cycle);
        zst.clock(cycle, &mut mem).expect("no faults");
        mem.clock(cycle);
        out_early_rx.update(cycle);
        hz_rx.update(cycle);
        while hz_rx.pop(cycle).is_some() {}
        assert!(out_early_rx.pop(cycle).is_none(), "occluded quad must be culled");
        if !zst.busy() && cycle > c1 + 50 {
            break;
        }
    }
    assert_eq!(zst.fragments_tested(), 8);
    assert_eq!(zst.fragments_passed(), 4);
}

/// A `make_quad` whose four fragments carry `color`.
fn make_color_quad(state: RenderState, x: u32, y: u32, color: Vec4) -> FragQuad {
    let mut quad = make_quad(state, x, y, 0.5);
    for frag in &mut quad.frags {
        frag.color = color;
    }
    quad
}

/// A Colour Write unit on hand-made ports, with the memory controller it
/// submits to.
struct ColorWriteRig {
    early_tx: PortSender<FragQuad>,
    late_tx: PortSender<FragQuad>,
    cw: ColorWriteUnit,
    mem: MemoryController,
    cycle: u64,
}

impl ColorWriteRig {
    fn new(mem_config: MemControllerConfig) -> Self {
        let mut stats = StatsRegistry::new(0);
        let (early_tx, early_rx) = unbound_port::<FragQuad>("ff->cw", 1, 1, 16);
        let (late_tx, late_rx) = unbound_port::<FragQuad>("zst->cw", 1, 1, 16);
        let config = GpuConfig::baseline().colorwrite;
        ColorWriteRig {
            early_tx,
            late_tx,
            cw: ColorWriteUnit::new(0, config, early_rx, late_rx, &mut stats),
            mem: MemoryController::new(mem_config, 1 << 22),
            cycle: 0,
        }
    }

    /// One cycle: an optional quad into each input, then the unit and the
    /// controller clock.
    fn step(&mut self, early: Option<FragQuad>, late: Option<FragQuad>) {
        self.early_tx.update(self.cycle);
        self.late_tx.update(self.cycle);
        if let Some(quad) = early {
            self.early_tx.send(self.cycle, quad);
        }
        if let Some(quad) = late {
            self.late_tx.send(self.cycle, quad);
        }
        self.cw.clock(self.cycle, &mut self.mem).expect("no faults");
        self.mem.clock(self.cycle);
        self.cycle += 1;
    }

    /// Steps until neither the unit nor the controller holds work.
    fn drain(&mut self) {
        let limit = self.cycle + 5_000;
        self.step(None, None);
        while self.cw.busy() || self.mem.busy() {
            assert!(self.cycle < limit, "the unit never drained");
            self.step(None, None);
        }
    }
}

/// The Colour Write twin of `zstencil_unit_tests_and_culls`: an opaque and
/// a blended quad against a fast-cleared buffer land as pixel bytes in the
/// image, and cleared-block fills cost no memory traffic.
#[test]
fn colorwrite_unit_blends_and_writes() {
    let mut rig = ColorWriteRig::new(MemControllerConfig::default());
    let st = make_state();
    let blue = u32::from_le_bytes([0, 0, 255, 255]);
    rig.cw.fast_clear(&mut rig.mem, st.color_buffer, surface_bytes(64, 64), blue);
    let base_reads = rig.mem.bytes_read();

    let mut blended = make_state();
    blended.blend = BlendState {
        enabled: true,
        src_factor: BlendFactor::SrcAlpha,
        dst_factor: BlendFactor::OneMinusSrcAlpha,
        ..BlendState::default()
    };
    rig.step(Some(make_color_quad(make_state(), 8, 8, Vec4::new(1.0, 0.5, 0.0, 1.0))), None);
    rig.step(Some(make_color_quad(blended, 16, 8, Vec4::new(1.0, 1.0, 1.0, 0.5))), None);
    rig.drain();

    let pixel = |x, y| {
        let mut px = [0u8; 4];
        rig.mem.gpu_mem().read(pixel_address(st.color_buffer, 64, x, y), &mut px);
        px
    };
    assert_eq!(pixel(8, 8), [255, 128, 0, 255], "opaque: the source overwrites");
    assert_eq!(pixel(9, 9), [255, 128, 0, 255], "all four fragments of the quad");
    assert_eq!(pixel(16, 8), [128, 128, 255, 191], "blended: half white over blue");
    assert_eq!(pixel(10, 8), [0, 0, 255, 255], "untouched pixels keep the clear colour");
    assert_eq!(rig.cw.fragments_written(), 8);
    assert_eq!(rig.mem.bytes_read(), base_reads, "cleared-block fill must cost no memory reads");
    assert_eq!(rig.mem.bytes_written(), 0, "dirty lines stay in the cache until flushed");
}

/// The shared engine, through the Colour Write unit: a flush the
/// controller has no room for queues what it cannot submit and later
/// `clock()`s drain it — every dirty line's bytes reach memory.
#[test]
fn rop_flush_against_a_full_controller_loses_nothing() {
    // One channel with room for two lines' transactions: a twelve-line
    // flush overflows it.
    let tight = MemControllerConfig { channels: 1, queue_capacity: 8, ..Default::default() };
    let mut rig = ColorWriteRig::new(tight);
    let st = make_state();
    rig.cw.fast_clear(&mut rig.mem, st.color_buffer, surface_bytes(64, 64), 0);
    const DIRTY_LINES: u32 = 12;
    for i in 0..DIRTY_LINES {
        // One quad in each of twelve different tiles.
        let quad = make_color_quad(make_state(), (i % 8) * 8, (i / 8) * 8, Vec4::ONE);
        rig.step(Some(quad), None);
    }
    rig.drain();
    assert_eq!(rig.cw.fragments_written(), u64::from(4 * DIRTY_LINES));
    assert_eq!(rig.mem.bytes_written(), 0);

    rig.cw.flush(&mut rig.mem);
    let refused = (DIRTY_LINES as usize - 2) * 4;
    assert_eq!(rig.cw.queued(), refused, "what the full queue refused waits in the unit");
    assert!(rig.cw.busy(), "queued writebacks are work in flight");
    rig.drain();
    assert_eq!(rig.cw.queued(), 0);
    assert_eq!(rig.mem.bytes_written(), u64::from(DIRTY_LINES) * 256, "every dirty line, whole");
}

/// The shared engine, through the Colour Write unit: a quad for another
/// render target waits while a fill of the bound surface is in flight,
/// then the old surface's dirty line is written back before the rebind.
#[test]
fn rop_render_target_switch_waits_for_fills_then_writes_back() {
    let mut rig = ColorWriteRig::new(MemControllerConfig::default());
    let first = make_state();
    let mut second = make_state();
    second.color_buffer = 0x30000;
    // Neither surface is cleared: every fill is a real 256-byte read.
    let early = make_color_quad(first, 8, 8, Vec4::ONE);
    let late = make_color_quad(second.clone(), 8, 8, Vec4::ONE);
    rig.step(Some(early), Some(late));
    while rig.cw.fragments_written() == 0 {
        let bound = rig.cw.cache().map(|c| c.base());
        assert_ne!(bound, Some(second.color_buffer), "rebound with a fill in flight");
        assert!(rig.cycle < 1_000, "the first surface's fill never landed");
        rig.step(None, None);
    }
    assert_eq!(rig.mem.bytes_written(), 0, "nothing is written back before the switch");
    rig.drain();
    assert_eq!(rig.cw.cache().map(|c| c.base()), Some(second.color_buffer));
    assert_eq!(rig.cw.fragments_written(), 8, "both quads land");
    assert_eq!(rig.mem.bytes_written(), 256, "the first surface's one dirty line");
    assert_eq!(rig.mem.bytes_read(), 512, "one line filled on each surface");
}

/// The shared engine, through the Z/stencil unit: an eviction under
/// compression charges the compressed size of the line's actual words and
/// hands Hierarchical Z the block's reference.
#[test]
fn rop_eviction_under_compression_charges_the_compressed_size() {
    let mut stats = StatsRegistry::new(0);
    let config = GpuConfig::baseline().zstencil;
    assert!(config.compression);
    let (mut early_tx, early_rx) = unbound_port::<FragQuad>("hz->zst", 2, 1, 16);
    let (_late_tx, late_rx) = unbound_port::<FragQuad>("ff->zst", 1, 1, 16);
    let (out_early_tx, mut out_early_rx) = unbound_port::<FragQuad>("zst->interp", 1, 1, 16);
    let (out_late_tx, _out_late_rx) = unbound_port::<FragQuad>("zst->cw", 1, 1, 16);
    let (hz_tx, mut hz_rx) = unbound_port::<HzUpdate>("zst->hz", 4, 1, 32);
    let mut zst =
        ZStencilUnit::new(0, config, early_rx, late_rx, out_early_tx, out_late_tx, hz_tx, &mut stats);
    let mut mem = MemoryController::new(MemControllerConfig::default(), 1 << 22);
    let st = make_state();
    zst.fast_clear(&mut mem, st.z_buffer, surface_bytes(64, 64), pack_depth_stencil(0x00ff_ffff, 0));

    // Sixteen quads cover one 8x8 tile with one depth: 64 equal words.
    let mut updates = Vec::new();
    let mut step = |zst: &mut ZStencilUnit, mem: &mut MemoryController, cycle: u64| {
        early_tx.update(cycle);
        if let Some(i) = u32::try_from(cycle).ok().filter(|&i| i < 16) {
            early_tx.send(cycle, make_quad(make_state(), 8 + (i % 4) * 2, 8 + (i / 4) * 2, 0.25));
        }
        zst.clock(cycle, mem).expect("no faults");
        mem.clock(cycle);
        out_early_rx.update(cycle);
        while out_early_rx.pop(cycle).is_some() {}
        hz_rx.update(cycle);
        updates.extend(std::iter::from_fn(|| hz_rx.pop(cycle)));
    };
    for cycle in 0..200 {
        step(&mut zst, &mut mem, cycle);
    }
    assert_eq!(zst.fragments_passed(), 64);
    assert_eq!(mem.bytes_written(), 0);

    let line = tile_address(st.z_buffer, 64, 8, 8);
    let mut words = [0u32; 64];
    for (i, w) in words.iter_mut().enumerate() {
        *w = mem.gpu_mem().read_u32(line + i as u64 * 4);
    }
    let compressed = compress_z_block(&words).level.bytes() as u64;
    assert!(compressed < 256, "a uniform block must compress");
    zst.flush(&mut mem);
    for cycle in 200..400 {
        step(&mut zst, &mut mem, cycle);
    }
    assert!(!zst.busy());
    assert_eq!(mem.bytes_written(), compressed, "the write-back moves the compressed size");
    let reference = updates.last().expect("the eviction feeds Hierarchical Z");
    assert_eq!(reference.block, 9, "tile (1, 1) of an 8-tile row");
    assert!((reference.max_depth - 0.25).abs() < 1e-6, "{reference:?}");
}

/// The Command Processor: draws wait for outstanding uploads; clears wait
/// for pipeline idle; state changes cost cycles.
#[test]
fn command_processor_ordering_rules() {
    let mut stats = StatsRegistry::new(0);
    let (draw_tx, mut draw_rx) = unbound_port::<Arc<Batch>>("cp->streamer", 1, 1, 2);
    let mut cp = CommandProcessor::new(draw_tx, &mut stats);
    let mut mem = MemoryController::new(MemControllerConfig::default(), 1 << 22);

    cp.enqueue([
        GpuCommand::SetState(Box::new(make_state())),
        GpuCommand::WriteBuffer { address: 0x40000, data: Arc::new(vec![7u8; 512]) },
        GpuCommand::Draw(DrawCall {
            primitive: Primitive::Triangles,
            vertex_count: 3,
            index_buffer: None,
        }),
        GpuCommand::FastClearColor(0),
    ]);

    let mut draw_seen_at = None;
    let mut clear_seen_at = None;
    for cycle in 0..2000 {
        // Pretend the pipeline is busy until cycle 600 (after the draw).
        let idle = cycle > 600;
        cp.clock(cycle, &mut mem, idle).expect("no faults");
        for a in cp.actions.drain(..) {
            if matches!(a, CpAction::ClearColor { .. }) {
                clear_seen_at = Some(cycle);
            }
        }
        mem.clock(cycle);
        draw_rx.update(cycle);
        if draw_rx.pop(cycle).is_some() && draw_seen_at.is_none() {
            draw_seen_at = Some(cycle);
        }
    }
    let draw_at = draw_seen_at.expect("draw issued");
    let clear_at = clear_seen_at.expect("clear issued");
    // The 512-byte upload takes >= system_bus_latency (100) cycles; the
    // draw must not be issued before it lands.
    assert!(draw_at > 100, "draw must wait for the upload: {draw_at}");
    assert!(clear_at > 600, "clear must wait for pipeline idle: {clear_at}");
    assert!(cp.done());
    assert_eq!(cp.draws_issued(), 1);
}

/// State changes carry a cost but pipeline ahead of the draw that uses
/// them (snapshots travel with batches).
#[test]
fn state_snapshots_travel_with_batches() {
    let mut stats = StatsRegistry::new(0);
    let (draw_tx, mut draw_rx) = unbound_port::<Arc<Batch>>("cp->streamer", 1, 1, 2);
    let mut cp = CommandProcessor::new(draw_tx, &mut stats);
    let mut mem = MemoryController::new(MemControllerConfig::default(), 1 << 22);
    let mut state_a = make_state();
    state_a.depth.enabled = false;
    let mut state_b = make_state();
    state_b.depth.enabled = true;
    cp.enqueue([
        GpuCommand::SetState(Box::new(state_a)),
        GpuCommand::Draw(DrawCall {
            primitive: Primitive::Triangles,
            vertex_count: 3,
            index_buffer: None,
        }),
        GpuCommand::SetState(Box::new(state_b)),
        GpuCommand::Draw(DrawCall {
            primitive: Primitive::Triangles,
            vertex_count: 6,
            index_buffer: None,
        }),
    ]);
    let mut batches = Vec::new();
    for cycle in 0..200 {
        cp.clock(cycle, &mut mem, false).expect("no faults");
        mem.clock(cycle);
        draw_rx.update(cycle);
        while let Some(b) = draw_rx.pop(cycle) {
            batches.push(b);
        }
    }
    assert_eq!(batches.len(), 2);
    assert!(!batches[0].state.depth.enabled);
    assert!(batches[1].state.depth.enabled);
    assert_eq!(batches[1].draw.vertex_count, 6);
}

/// The GPU watchdog reports instead of hanging.
#[test]
fn watchdog_fires_on_tiny_budget() {
    let mut config = GpuConfig::baseline();
    config.display.width = 64;
    config.display.height = 64;
    let mut gpu = attila_core::gpu::Gpu::new(config);
    gpu.max_cycles = 10; // absurdly small
    let commands = vec![
        GpuCommand::SetState(Box::new(make_state())),
        GpuCommand::WriteBuffer { address: 0x40000, data: Arc::new(vec![0u8; 4096]) },
        GpuCommand::Swap,
    ];
    let err = gpu.run_trace(&commands).unwrap_err();
    assert!(matches!(err, attila_core::gpu::GpuError::Watchdog { .. }));
}

/// Batch pipelining: rendering two batches back to back costs much less
/// than twice one batch (geometry/fragment phases overlap).
#[test]
fn consecutive_batches_overlap() {
    let run = |draws: usize| {
        let mut config = GpuConfig::baseline();
        config.display.width = 64;
        config.display.height = 64;
        let mut gpu = attila_core::gpu::Gpu::new(config);
        gpu.max_cycles = 50_000_000;
        let mut cmds = vec![
            GpuCommand::SetState(Box::new(make_state())),
            GpuCommand::WriteBuffer {
                address: 0x40000,
                data: Arc::new(
                    [
                        [-0.9f32, -0.9, 0.5, 1.0],
                        [0.9, -0.9, 0.5, 1.0],
                        [0.0, 0.9, 0.5, 1.0],
                    ]
                    .iter()
                    .flat_map(|v| v.iter().flat_map(|f| f.to_le_bytes()))
                    .collect(),
                ),
            },
            GpuCommand::FastClearColor(0),
            GpuCommand::FastClearZStencil(0x00ff_ffff),
        ];
        let mut st = make_state();
        let mut attrs = vec![None; 16];
        attrs[0] = Some(attila_core::state::AttributeBinding {
            address: 0x40000,
            stride: 16,
            components: 4,
            default_w: 1.0,
        });
        st.attributes = Arc::new(attrs);
        cmds[0] = GpuCommand::SetState(Box::new(st));
        for _ in 0..draws {
            cmds.push(GpuCommand::Draw(DrawCall {
                primitive: Primitive::Triangles,
                vertex_count: 3,
                index_buffer: None,
            }));
        }
        cmds.push(GpuCommand::Swap);
        gpu.run_trace(&cmds).expect("drains").cycles
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four < 3 * one,
        "4 batches must overlap substantially: {four} vs 4x{one}"
    );
}
