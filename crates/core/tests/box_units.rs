//! Box-level unit tests driving individual pipeline units through
//! hand-made ports — the granularity the paper's box/signal interfaces
//! are designed for ("a box can be replaced by another box ... registering
//! the same signals and supporting the same input and output objects").

#![allow(clippy::field_reassign_with_default)]
use std::sync::Arc;

use attila_core::address::{pixel_address, surface_bytes, tile_address};
use attila_core::clipper::Clipper;
use attila_core::colorwrite::ColorWriteUnit;
use attila_core::dac::Dac;
use attila_core::ffifo::FragmentFifo;
use attila_core::fraggen::FragmentGenerator;
use attila_core::hz::HierarchicalZ;
use attila_core::interpolator::Interpolator;
use attila_core::commands::{DrawCall, GpuCommand, Primitive};
use attila_core::command_processor::{CommandProcessor, CpAction};
use attila_core::config::{GpuConfig, ShaderScheduling};
use attila_core::hz::HzUpdate;
use attila_core::port::{unbound_port, PortReceiver, PortSender};
use attila_core::primitive_assembly::PrimitiveAssembly;
use attila_core::setup::TriangleSetup;
use attila_core::state::{AttributeBinding, RenderState};
use attila_core::streamer::Streamer;
use attila_core::texunit::TextureUnit;
use attila_core::types::{
    Batch, FragQuad, FragTile, QuadFrag, QuadTexReply, QuadTexRequest, SetupTriWork, ShadedVertex,
    TriangleData, TriangleWork, VertexOutputs, VertexWork,
};
use attila_core::unit::Unit;
use attila_core::zstencil::ZStencilUnit;
use attila_emu::fragops::{
    compress_z_block, pack_depth_stencil, BlendFactor, BlendState, CompareFunc, DepthState,
};
use attila_emu::isa::limits;
use attila_emu::raster::{setup_triangle, RasterFragment, Viewport};
use attila_emu::texture::{encode_tiled, TexFormat, TextureDesc};
use attila_emu::vector::Vec4;
use attila_mem::{MemControllerConfig, MemoryController};
use attila_sim::{DynamicObject, Horizon, StatsRegistry};

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

/// A triangle covering the whole 64×64 viewport.
fn make_tri(state: RenderState) -> Arc<TriangleData> {
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
    Arc::new(TriangleData {
        batch,
        setup,
        outputs: [
            Arc::new([Vec4::ZERO; limits::OUTPUTS]),
            Arc::new([Vec4::ZERO; limits::OUTPUTS]),
            Arc::new([Vec4::ZERO; limits::OUTPUTS]),
        ],
    })
}

fn make_quad(state: RenderState, x: u32, y: u32, depth: f32) -> FragQuad {
    let tri = make_tri(state);
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

// A unit whose output is out of credits is stalled, not busy: its horizon
// must not say `Busy` (or the per-box gate keeps clocking it), and the
// clock the gate then skips must be a no-op. Each test below keeps one
// unit's input queue full, never drains its output, and checks the unit
// once nothing can move.

/// Asserts that `unit`, last clocked on `cycle - 1`, is stalled: its
/// horizon is not `Busy`, and clocking it on `cycle` changes no statistic
/// and nothing `observe` sees — the unit's queues and credits and, read
/// from the test's ends, each wire's objects and returned credits.
fn assert_stalled<U: Unit>(
    unit: &mut U,
    stats: &StatsRegistry,
    cycle: u64,
    clock: impl FnOnce(&mut U, u64),
    mut observe: impl FnMut(&U, u64) -> Vec<usize>,
) {
    let horizon = unit.work_horizon();
    assert!(!horizon.is_busy(), "{} is stalled, not busy: {horizon:?}", unit.name());
    let before = (observe(unit, cycle), stats.totals_csv());
    clock(unit, cycle);
    let after = (observe(unit, cycle + 1), stats.totals_csv());
    assert_eq!(before, after, "{}'s clock while stalled changed state", unit.name());
}

/// A state whose quads pass Z/stencil untested and take the early-Z path.
fn untested_state() -> RenderState {
    let mut st = make_state();
    st.depth.enabled = false;
    st
}

#[test]
fn fraggen_without_output_credits_sleeps_and_clocks_as_a_no_op() {
    let mut stats = StatsRegistry::new(0);
    let (mut tri_tx, tri_rx) = unbound_port::<SetupTriWork>("setup->fg", 4, 1, 2);
    let (tile_tx, mut tile_rx) = unbound_port::<FragTile>("fg->hz", 2, 1, 1);
    let mut fg =
        FragmentGenerator::new(GpuConfig::baseline().fraggen, tri_rx, tile_tx, &mut stats);
    let tri = make_tri(untested_state());
    let work = || SetupTriWork {
        obj: DynamicObject::new(0),
        data: Arc::clone(&tri),
        end_of_batch: true,
    };
    for cycle in 0..8 {
        tri_tx.update(cycle);
        while tri_tx.can_send(cycle) {
            tri_tx.send(cycle, work());
        }
        fg.clock(cycle).expect("no faults");
        tile_rx.update(cycle);
    }
    assert_eq!(fg.in_tris.len(), 2, "the input queue is full");
    assert_eq!(fg.out_tiles.credits(), 0);
    assert_stalled(&mut fg, &stats, 8, |fg, c| fg.clock(c).expect("no faults"), |fg, c| {
        tri_tx.update(c);
        tile_rx.update(c);
        vec![
            fg.queued(),
            fg.out_tiles.credits(),
            fg.out_tiles.total_sent() as usize,
            tri_tx.credits(),
            tile_rx.len() + tile_rx.in_flight(),
        ]
    });
}

#[test]
fn hz_without_output_credits_sleeps_and_clocks_as_a_no_op() {
    let mut stats = StatsRegistry::new(0);
    let (mut tile_tx, tile_rx) = unbound_port::<FragTile>("fg->hz", 2, 1, 4);
    let (_update_tx, update_rx) = unbound_port::<HzUpdate>("zst->hz", 4, 1, 8);
    let (early_tx, mut early_rx) = unbound_port::<FragQuad>("hz->zst", 2, 1, 1);
    let (late_tx, mut late_rx) = unbound_port::<FragQuad>("hz->interp", 2, 1, 1);
    let mut hz = HierarchicalZ::new(
        GpuConfig::baseline().hz,
        64,
        64,
        tile_rx,
        vec![update_rx],
        vec![early_tx],
        late_tx,
        &mut stats,
    );
    let tri = make_tri(untested_state());
    // A fully covered 8×8 tile: sixteen quads, all for the one early unit.
    let tile = || FragTile {
        obj: DynamicObject::new(0),
        tri: Arc::clone(&tri),
        x: 0,
        y: 0,
        frags: (0..64)
            .map(|i| RasterFragment {
                x: i % 8,
                y: i / 8,
                edges: [1.0; 3],
                depth: 0.5,
                culled: false,
            })
            .collect(),
        min_depth: 0.5,
    };
    for cycle in 0..16 {
        tile_tx.update(cycle);
        while tile_tx.can_send(cycle) {
            tile_tx.send(cycle, tile());
        }
        hz.clock(cycle).expect("no faults");
        early_rx.update(cycle);
        late_rx.update(cycle);
    }
    assert_eq!(hz.in_tiles.len(), 4, "the input queue is full");
    assert_eq!(hz.out_early[0].credits(), 0);
    assert_stalled(&mut hz, &stats, 16, |hz, c| hz.clock(c).expect("no faults"), |hz, c| {
        tile_tx.update(c);
        early_rx.update(c);
        late_rx.update(c);
        vec![
            hz.queued(),
            hz.out_early[0].credits(),
            hz.out_early[0].total_sent() as usize,
            hz.out_late.total_sent() as usize,
            tile_tx.credits(),
            early_rx.len() + early_rx.in_flight(),
            late_rx.len() + late_rx.in_flight(),
        ]
    });
}

#[test]
fn zstencil_without_output_credits_sleeps_and_clocks_as_a_no_op() {
    let mut stats = StatsRegistry::new(0);
    let (mut early_tx, early_rx) = unbound_port::<FragQuad>("hz->zst", 2, 1, 4);
    let (mut late_tx, late_rx) = unbound_port::<FragQuad>("ff->zst", 1, 1, 4);
    let (out_early_tx, mut out_early_rx) = unbound_port::<FragQuad>("zst->interp", 1, 1, 1);
    let (out_late_tx, mut out_late_rx) = unbound_port::<FragQuad>("zst->cw", 1, 1, 1);
    let (hz_tx, mut hz_rx) = unbound_port::<HzUpdate>("zst->hz", 4, 1, 32);
    let mut zst = ZStencilUnit::new(
        0,
        GpuConfig::baseline().zstencil,
        early_rx,
        late_rx,
        out_early_tx,
        out_late_tx,
        hz_tx,
        &mut stats,
    );
    let mut mem = MemoryController::new(MemControllerConfig::default(), 1 << 22);
    // Both inputs full, both outputs out of credits.
    for cycle in 0..8 {
        for tx in [&mut early_tx, &mut late_tx] {
            tx.update(cycle);
            while tx.can_send(cycle) {
                tx.send(cycle, make_quad(untested_state(), 8, 8, 0.5));
            }
        }
        zst.clock(cycle, &mut mem).expect("no faults");
        out_early_rx.update(cycle);
        out_late_rx.update(cycle);
        hz_rx.update(cycle);
    }
    assert_eq!((zst.in_early.len(), zst.in_late.len()), (4, 4), "the input queues are full");
    assert_eq!((zst.out_early.credits(), zst.out_late.credits()), (0, 0));
    let clock = |zst: &mut ZStencilUnit, c| zst.clock(c, &mut mem).expect("no faults");
    assert_stalled(&mut zst, &stats, 8, clock, |zst, c| {
        early_tx.update(c);
        late_tx.update(c);
        out_early_rx.update(c);
        out_late_rx.update(c);
        hz_rx.update(c);
        vec![
            zst.queued(),
            zst.out_early.credits(),
            zst.out_late.credits(),
            zst.out_hz.total_sent() as usize,
            early_tx.credits(),
            late_tx.credits(),
            out_early_rx.len() + out_early_rx.in_flight(),
            out_late_rx.len() + out_late_rx.in_flight(),
        ]
    });
}

#[test]
fn interpolator_without_output_credits_sleeps_and_clocks_as_a_no_op() {
    let mut stats = StatsRegistry::new(0);
    let (mut early_tx, early_rx) = unbound_port::<FragQuad>("zst->interp", 2, 1, 8);
    let (mut late_tx, late_rx) = unbound_port::<FragQuad>("hz->interp", 2, 1, 8);
    let (out_tx, mut out_rx) = unbound_port::<FragQuad>("interp->ff", 2, 1, 1);
    let mut interp = Interpolator::new(
        GpuConfig::baseline().interpolator,
        vec![early_rx],
        late_rx,
        out_tx,
        &mut stats,
    );
    // Long enough to fill the delay pipe behind the one spent credit.
    for cycle in 0..64 {
        for tx in [&mut early_tx, &mut late_tx] {
            tx.update(cycle);
            while tx.can_send(cycle) {
                tx.send(cycle, make_quad(untested_state(), 8, 8, 0.5));
            }
        }
        interp.clock(cycle).expect("no faults");
        out_rx.update(cycle);
    }
    let queued = (interp.in_early[0].len(), interp.in_late.len());
    assert_eq!(queued, (8, 8), "the input queues are full");
    assert_eq!(interp.out_quads.credits(), 0);
    assert_stalled(&mut interp, &stats, 64, |i, c| i.clock(c).expect("no faults"), |interp, c| {
        early_tx.update(c);
        late_tx.update(c);
        out_rx.update(c);
        vec![
            interp.queued(),
            interp.out_quads.credits(),
            interp.out_quads.total_sent() as usize,
            early_tx.credits(),
            late_tx.credits(),
            out_rx.len() + out_rx.in_flight(),
        ]
    });
}

// The same proof for the units that mostly wait: the geometry front end
// behind a full output or its own memory fetches, a texture unit behind
// its fills, its filter or a reply credit, the Fragment FIFO behind full
// texture ports and a full shader pool, and the DAC between frames.

/// A batch of `vertex_count` vertices drawn with `state`.
fn make_batch(state: RenderState, vertex_count: u32) -> Arc<Batch> {
    Arc::new(Batch {
        id: 0,
        state: Arc::new(state),
        draw: DrawCall { primitive: Primitive::Triangles, vertex_count, index_buffer: None },
    })
}

/// What a test sees of a flow-controlled output it never drains: the
/// sender's credits and sends, and what sits on the receiver's side.
fn output_view<T: std::fmt::Debug>(
    tx: &PortSender<T>,
    rx: &mut PortReceiver<T>,
    c: u64,
) -> [usize; 3] {
    rx.update(c);
    [tx.credits(), tx.total_sent() as usize, rx.len() + rx.in_flight()]
}

/// The full-screen triangle of [`make_tri`], assembled.
fn triangle_work() -> TriangleWork {
    let tri = make_tri(untested_state());
    let vertex = |x: f32, y: f32| {
        let mut outputs: VertexOutputs = [Vec4::ZERO; limits::OUTPUTS];
        outputs[0] = Vec4::new(x, y, 0.0, 1.0);
        Arc::new(outputs)
    };
    TriangleWork {
        obj: DynamicObject::new(0),
        batch: Arc::clone(&tri.batch),
        verts: [vertex(-1.0, -1.0), vertex(3.0, -1.0), vertex(-1.0, 3.0)],
        end_of_batch: false,
    }
}

#[test]
fn clipper_without_output_credits_sleeps_and_clocks_as_a_no_op() {
    let mut stats = StatsRegistry::new(0);
    let (mut in_tx, in_rx) = unbound_port::<TriangleWork>("pa->clip", 1, 1, 2);
    let (out_tx, mut out_rx) = unbound_port::<TriangleWork>("clip->setup", 1, 1, 1);
    let mut clipper = Clipper::new(in_rx, out_tx, &mut stats);
    for cycle in 0..8 {
        in_tx.update(cycle);
        while in_tx.can_send(cycle) {
            in_tx.send(cycle, triangle_work());
        }
        clipper.clock(cycle).expect("no faults");
        out_rx.update(cycle);
    }
    assert_eq!(clipper.in_tris.len(), 2, "the input queue is full");
    assert_eq!(clipper.out_tris.credits(), 0);
    assert_stalled(&mut clipper, &stats, 8, |c, cy| c.clock(cy).expect("no faults"), |c, cy| {
        in_tx.update(cy);
        let mut view = vec![c.queued(), in_tx.credits()];
        view.extend(output_view(&c.out_tris, &mut out_rx, cy));
        view
    });
}

#[test]
fn setup_without_output_credits_sleeps_and_clocks_as_a_no_op() {
    let mut stats = StatsRegistry::new(0);
    let (mut in_tx, in_rx) = unbound_port::<TriangleWork>("clip->setup", 1, 1, 2);
    let (out_tx, mut out_rx) = unbound_port::<SetupTriWork>("setup->fg", 1, 1, 1);
    let mut setup = TriangleSetup::new(in_rx, out_tx, &mut stats);
    for cycle in 0..8 {
        in_tx.update(cycle);
        while in_tx.can_send(cycle) {
            in_tx.send(cycle, triangle_work());
        }
        setup.clock(cycle).expect("no faults");
        out_rx.update(cycle);
    }
    assert_eq!(setup.in_tris.len(), 2, "the input queue is full");
    assert_eq!(setup.out_tris.credits(), 0);
    assert_stalled(&mut setup, &stats, 8, |s, c| s.clock(c).expect("no faults"), |s, c| {
        in_tx.update(c);
        let mut view = vec![s.queued(), in_tx.credits()];
        view.extend(output_view(&s.out_tris, &mut out_rx, c));
        view
    });
}

#[test]
fn primitive_assembly_with_triangles_staged_and_no_credit_sleeps_and_clocks_as_a_no_op() {
    let mut stats = StatsRegistry::new(0);
    let (mut in_tx, in_rx) = unbound_port::<ShadedVertex>("st->pa", 1, 1, 4);
    let (out_tx, mut out_rx) = unbound_port::<TriangleWork>("pa->clip", 1, 1, 1);
    let mut pa = PrimitiveAssembly::new(in_rx, out_tx, &mut stats);
    let batch = make_batch(untested_state(), 300);
    let mut seq = 0;
    for cycle in 0..32 {
        in_tx.update(cycle);
        while in_tx.can_send(cycle) {
            let (obj, batch) = (DynamicObject::new(0), Arc::clone(&batch));
            let outputs = Arc::new([Vec4::ZERO; limits::OUTPUTS]);
            in_tx.send(cycle, ShadedVertex { obj, batch, seq, index: seq, outputs });
            seq += 1;
        }
        pa.clock(cycle).expect("no faults");
        out_rx.update(cycle);
    }
    assert_eq!(pa.in_verts.len(), 4, "the input queue is full");
    assert_eq!(pa.queued(), 4 + 4, "four triangles staged behind the one sent");
    assert_eq!(pa.out_tris.credits(), 0);
    assert_stalled(&mut pa, &stats, 32, |pa, c| pa.clock(c).expect("no faults"), |pa, c| {
        in_tx.update(c);
        let mut view = vec![pa.queued(), in_tx.credits()];
        view.extend(output_view(&pa.out_tris, &mut out_rx, c));
        view
    });
}

/// The Streamer with `max_memory_requests` fetches outstanding (the
/// controller is never clocked, so none returns) is stalled until a reply
/// — or a shaded vertex that turns the stalled vertex into a post-shading
/// cache hit — arrives.
#[test]
fn streamer_with_fetches_at_the_limit_sleeps_and_clocks_as_a_no_op() {
    let mut stats = StatsRegistry::new(0);
    let mut config = GpuConfig::baseline().streamer;
    config.max_memory_requests = 2;
    let (mut draw_tx, draw_rx) = unbound_port::<Arc<Batch>>("cp->st", 1, 1, 2);
    let (work_tx, mut work_rx) = unbound_port::<VertexWork>("st->ff", 1, 1, 16);
    let (mut shaded_tx, shaded_rx) = unbound_port::<ShadedVertex>("ff->st", 4, 1, 16);
    let (assembled_tx, mut assembled_rx) = unbound_port::<ShadedVertex>("st->pa", 1, 1, 8);
    let mut streamer =
        Streamer::new(config, draw_rx, work_tx, shaded_rx, assembled_tx, &mut stats);
    let mut mem = MemoryController::new(MemControllerConfig::default(), 1 << 22);
    let mut state = untested_state();
    let mut attributes = vec![None; limits::INPUTS];
    attributes[0] =
        Some(AttributeBinding { address: 0x40000, stride: 16, components: 4, default_w: 1.0 });
    state.attributes = Arc::new(attributes);
    let batch = make_batch(state, 64);
    draw_tx.update(0);
    draw_tx.send(0, Arc::clone(&batch));
    for cycle in 0..8 {
        draw_tx.update(cycle);
        streamer.clock(cycle, &mut mem).expect("no faults");
        work_rx.update(cycle);
        assembled_rx.update(cycle);
    }
    assert_eq!(stats.total("Streamer.vertices"), Some(2.0), "two fetches outstanding");
    let mut view = |s: &Streamer, c| {
        draw_tx.update(c);
        let mut view = vec![s.queued(), draw_tx.credits()];
        view.extend(output_view(&s.out_work, &mut work_rx, c));
        view.extend(output_view(&s.out_assembled, &mut assembled_rx, c));
        view
    };
    let clock = |s: &mut Streamer, c| s.clock(c, &mut mem).expect("no faults");
    assert_stalled(&mut streamer, &stats, 8, clock, &mut view);

    // Vertex 2's outputs come back from a shader: the clock that takes
    // them must not sleep, the one after starts vertex 2 from the
    // post-shading cache, and the next stalls on vertex 3's fetch again.
    let (obj, outputs) = (DynamicObject::new(0), Arc::new([Vec4::ZERO; limits::OUTPUTS]));
    shaded_tx.update(9);
    shaded_tx.send(9, ShadedVertex { obj, batch, seq: 2, index: 2, outputs });
    streamer.clock(9, &mut mem).expect("no faults");
    streamer.clock(10, &mut mem).expect("no faults");
    assert!(streamer.work_horizon().is_busy(), "the shaded vertex may end the stall");
    streamer.clock(11, &mut mem).expect("no faults");
    assert_eq!(stats.total("Streamer.vertex_cache_hits"), Some(1.0));
    assert_eq!(stats.total("Streamer.vertices"), Some(3.0));
    streamer.clock(12, &mut mem).expect("no faults");
    let clock = |s: &mut Streamer, c| s.clock(c, &mut mem).expect("no faults");
    assert_stalled(&mut streamer, &stats, 13, clock, view);
}

/// One texture unit through its three waits: fills in flight (the
/// controller is not clocked), a resolved request before its filter's
/// `ready_at`, and a finished request with no reply credit.
#[test]
fn texture_unit_waiting_on_fills_filter_or_credit_sleeps_and_clocks_as_a_no_op() {
    let mut stats = StatsRegistry::new(0);
    let (mut req_tx, req_rx) = unbound_port::<QuadTexRequest>("ff->tu", 1, 1, 8);
    let (rep_tx, mut rep_rx) = unbound_port::<QuadTexReply>("tu->ff", 1, 1, 2);
    let mut tu = TextureUnit::new(0, GpuConfig::baseline().texture, req_rx, rep_tx, &mut stats);
    let mut mem = MemoryController::new(MemControllerConfig::default(), 1 << 22);
    let texels = encode_tiled(TexFormat::Rgba8, 16, 16, &[Vec4::ONE; 256]);
    mem.gpu_mem_mut().write(0x1000, &texels);
    let mut state = untested_state();
    let mut textures = vec![None; limits::SAMPLERS];
    textures[0] = Some(TextureDesc::new_2d(16, 16, TexFormat::Rgba8, 0x1000));
    state.textures = Arc::new(textures);
    let batch = make_batch(state, 3);
    let request = |id| QuadTexRequest {
        id,
        shader_unit: 0,
        sampler: 0,
        coords: [Vec4::new(0.5, 0.5, 0.0, 1.0); 4],
        lod_bias: 0.0,
        projective: false,
        batch: Arc::clone(&batch),
        group: 0,
    };
    fn view(
        tu: &TextureUnit,
        req_tx: &mut PortSender<QuadTexRequest>,
        rep_rx: &mut PortReceiver<QuadTexReply>,
        c: u64,
    ) -> Vec<usize> {
        req_tx.update(c);
        let mut view = vec![tu.queued(), req_tx.credits()];
        view.extend(output_view(&tu.out_replies, rep_rx, c));
        view
    }
    // One cycle of the unit and the controller, with the test's ends of
    // both ports serviced (replies are never taken).
    fn step(
        tu: &mut TextureUnit,
        mem: &mut MemoryController,
        (req_tx, rep_rx): (&mut PortSender<QuadTexRequest>, &mut PortReceiver<QuadTexReply>),
        c: u64,
        send: Option<QuadTexRequest>,
    ) {
        req_tx.update(c);
        if let Some(request) = send {
            req_tx.send(c, request);
        }
        tu.clock(c, mem).expect("no faults");
        mem.clock(c);
        rep_rx.update(c);
    }

    // Fills in flight: the controller is not clocked.
    step(&mut tu, &mut mem, (&mut req_tx, &mut rep_rx), 0, Some(request(0)));
    tu.clock(1, &mut mem).expect("no faults");
    assert!(mem.busy(), "the request's line is being filled");
    let clock = |tu: &mut TextureUnit, c| tu.clock(c, &mut mem).expect("no faults");
    assert_stalled(&mut tu, &stats, 2, clock, |tu, c| view(tu, &mut req_tx, &mut rep_rx, c));
    let mut cycle = 3;
    while tu.out_replies.total_sent() < 1 {
        step(&mut tu, &mut mem, (&mut req_tx, &mut rep_rx), cycle, None);
        cycle += 1;
        assert!(cycle < 1_000, "the fill never landed");
    }

    // A cache hit: resolved at once, then the filter's four bilinears.
    step(&mut tu, &mut mem, (&mut req_tx, &mut rep_rx), cycle, Some(request(1)));
    step(&mut tu, &mut mem, (&mut req_tx, &mut rep_rx), cycle + 1, None);
    let horizon = tu.work_horizon();
    assert!(
        matches!(horizon, Horizon::IdleUntil(at) if at > cycle + 2),
        "filtering until ready_at: {horizon:?}"
    );
    let clock = |tu: &mut TextureUnit, c| tu.clock(c, &mut mem).expect("no faults");
    assert_stalled(&mut tu, &stats, cycle + 2, clock, |tu, c| {
        view(tu, &mut req_tx, &mut rep_rx, c)
    });
    cycle += 4;
    while tu.out_replies.total_sent() < 2 {
        step(&mut tu, &mut mem, (&mut req_tx, &mut rep_rx), cycle, None);
        cycle += 1;
        assert!(cycle < 1_000, "the filter never finished");
    }

    // Both credits spent: the next hit filters, then waits for a credit.
    step(&mut tu, &mut mem, (&mut req_tx, &mut rep_rx), cycle, Some(request(2)));
    for c in cycle + 1..cycle + 16 {
        step(&mut tu, &mut mem, (&mut req_tx, &mut rep_rx), c, None);
    }
    assert_eq!(tu.out_replies.credits(), 0);
    assert_eq!(tu.requests_serviced(), 3);
    let clock = |tu: &mut TextureUnit, c| tu.clock(c, &mut mem).expect("no faults");
    assert_stalled(&mut tu, &stats, cycle + 16, clock, |tu, c| {
        view(tu, &mut req_tx, &mut rep_rx, c)
    });
}

/// The Fragment FIFO in thread-window mode with every group blocked on a
/// texture request that cannot leave (the one texture port is out of
/// credits) and the shader pool full, so no queued quad is admitted.
#[test]
fn ffifo_with_full_texture_ports_and_pool_sleeps_and_clocks_as_a_no_op() {
    let mut stats = StatsRegistry::new(0);
    let config = GpuConfig::baseline().shader;
    assert_eq!(config.scheduling, ShaderScheduling::ThreadWindow);
    let (_vertex_tx, vertex_rx) = unbound_port::<VertexWork>("st->ff", 1, 1, 16);
    let (mut quad_tx, quad_rx) = unbound_port::<FragQuad>("interp->ff", 1, 1, 4);
    let (shaded_tx, _shaded_rx) = unbound_port::<ShadedVertex>("ff->st", 4, 1, 16);
    let (color_tx, mut color_rx) = unbound_port::<FragQuad>("ff->cw", 1, 1, 4);
    let (zst_tx, mut zst_rx) = unbound_port::<FragQuad>("ff->zst", 1, 1, 4);
    let (tex_tx, mut tex_rx) = unbound_port::<QuadTexRequest>("ff->tu", 1, 1, 1);
    let (_reply_tx, reply_rx) = unbound_port::<QuadTexReply>("tu->ff", 1, 1, 16);
    let mut ffifo = FragmentFifo::new(
        config.clone(),
        vertex_rx,
        quad_rx,
        shaded_tx,
        vec![color_tx],
        vec![zst_tx],
        vec![tex_tx],
        vec![reply_rx],
        &mut stats,
    );
    let mut state = untested_state();
    state.fragment_program = Arc::new(
        attila_emu::asm::assemble("!!ATTILAfp1.0\nTEX r0, i0, texture[0], 2D;\nMOV o0, r0;\nEND;")
            .expect("assembles"),
    );
    let tri = make_tri(state);
    let quad = || {
        let frag = QuadFrag { alive: true, edges: [1.0; 3], depth: 0.5, color: Vec4::ONE };
        FragQuad::new(DynamicObject::new(0), Arc::clone(&tri), 8, 8, [frag; 4])
    };
    let end = 4 * config.max_inputs as u64;
    for cycle in 0..end {
        quad_tx.update(cycle);
        while quad_tx.can_send(cycle) {
            quad_tx.send(cycle, quad());
        }
        ffifo.clock(cycle).expect("no faults");
        tex_rx.update(cycle);
    }
    assert_eq!(ffifo.in_quads.len(), 4, "the quad queue is full: the pool is");
    assert_eq!(ffifo.tex_requests[0].credits(), 0);
    assert_eq!(stats.total("FFIFO.texture_requests"), Some((config.max_inputs / 4) as f64));
    let clock = |f: &mut FragmentFifo, c| f.clock(c).expect("no faults");
    assert_stalled(&mut ffifo, &stats, end, clock, |f, c| {
        quad_tx.update(c);
        let mut view = vec![f.queued(), quad_tx.credits()];
        view.extend(output_view(&f.tex_requests[0], &mut tex_rx, c));
        view.extend(output_view(&f.out_color[0], &mut color_rx, c));
        view.extend(output_view(&f.out_zstencil[0], &mut zst_rx, c));
        view
    });
}

/// The DAC between frames, and once a frame's refresh reads are all
/// submitted while their replies are in flight: a memory reply is what
/// wakes it, not its own horizon.
#[test]
fn dac_without_pending_reads_sleeps_and_clocks_as_a_no_op() {
    let mut stats = StatsRegistry::new(0);
    let mut dac = Dac::new(&mut stats);
    let mut mem = MemoryController::new(MemControllerConfig::default(), 1 << 22);
    let view = |dac: &Dac, _| vec![dac.queued(), usize::from(dac.busy())];
    assert_stalled(&mut dac, &stats, 0, |d, _| d.clock(&mut mem), view);
    // One 8×8 frame: four 64-byte reads, all taken at once.
    dac.refresh(0x10000, 8, 8);
    assert!(dac.work_horizon().is_busy(), "queued reads must be submitted");
    dac.clock(&mut mem);
    assert_eq!(stats.total("DAC.bytes_read"), Some(256.0));
    assert_stalled(&mut dac, &stats, 1, |d, _| d.clock(&mut mem), view);
    assert!(mem.busy(), "the reads are still in flight");
}
