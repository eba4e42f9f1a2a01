//! Box-level tests for the Streamer's post-shading vertex cache and the
//! Texture Unit's cache/throughput behaviour.

#![allow(clippy::field_reassign_with_default)]
use std::sync::Arc;

use attila_core::commands::{DrawCall, GpuCommand, Primitive};
use attila_core::config::GpuConfig;
use attila_core::gpu::Gpu;
use attila_core::port::unbound_port;
use attila_core::state::{AttributeBinding, RenderState};
use attila_core::texunit::TextureUnit;
use attila_core::types::{Batch, QuadTexReply, QuadTexRequest};
use attila_emu::raster::Viewport;
use attila_emu::texture::{encode_tiled, TexFormat, TextureDesc};
use attila_emu::vector::Vec4;
use attila_mem::{MemControllerConfig, MemoryController};
use attila_sim::StatsRegistry;

/// An indexed grid reuses vertices across triangles: the post-shading
/// vertex cache must cut shader work substantially.
#[test]
fn vertex_cache_reuses_shaded_vertices() {
    const W: u32 = 64;
    let n = 8u32; // (n+1)^2 = 81 vertices, n*n*2 = 128 triangles
    let mut vertex_bytes = Vec::new();
    for j in 0..=n {
        for i in 0..=n {
            let x = -0.9 + 1.8 * i as f32 / n as f32;
            let y = -0.9 + 1.8 * j as f32 / n as f32;
            for f in [x, y, 0.5f32, 1.0] {
                vertex_bytes.extend_from_slice(&f.to_le_bytes());
            }
        }
    }
    let mut index_bytes: Vec<u8> = Vec::new();
    let mut index_count = 0u32;
    for j in 0..n {
        for i in 0..n {
            let v = |a: u32, b: u32| b * (n + 1) + a;
            for idx in
                [v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j), v(i + 1, j + 1), v(i, j + 1)]
            {
                index_bytes.extend_from_slice(&idx.to_le_bytes());
                index_count += 1;
            }
        }
    }

    let mut st = RenderState::default();
    st.viewport = Viewport::new(W, W);
    st.target_width = W;
    st.target_height = W;
    st.color_buffer = 0x10000;
    st.z_buffer = 0x20000;
    let mut attrs = vec![None; 16];
    attrs[0] =
        Some(AttributeBinding { address: 0x40000, stride: 16, components: 4, default_w: 1.0 });
    st.attributes = Arc::new(attrs);

    let cmds = vec![
        GpuCommand::SetState(Box::new(st)),
        GpuCommand::WriteBuffer { address: 0x40000, data: Arc::new(vertex_bytes) },
        GpuCommand::WriteBuffer { address: 0x80000, data: Arc::new(index_bytes) },
        GpuCommand::FastClearColor(0),
        GpuCommand::Draw(DrawCall {
            primitive: Primitive::Triangles,
            vertex_count: index_count,
            index_buffer: Some(0x80000),
        }),
        GpuCommand::Swap,
    ];

    let mut config = GpuConfig::baseline();
    config.display.width = W;
    config.display.height = W;
    let mut gpu = Gpu::new(config);
    gpu.max_cycles = 50_000_000;
    gpu.run_trace(&cmds).expect("drains");
    let issued = gpu.stats().total("Streamer.vertices").unwrap();
    let hits = gpu.stats().total("Streamer.vertex_cache_hits").unwrap();
    let shaded = gpu.stats().total("Streamer.shaded_received").unwrap();
    assert_eq!(issued, index_count as f64);
    assert!(
        hits > issued * 0.4,
        "adjacent-triangle reuse should hit the vertex cache a lot: {hits}/{issued}"
    );
    assert!(
        shaded < issued * 0.6,
        "most vertices must skip re-shading: shaded {shaded} of {issued}"
    );
}

fn tiny_batch(texture: TextureDesc) -> Arc<Batch> {
    let mut st = RenderState::default();
    let mut textures = vec![None; 16];
    textures[0] = Some(texture);
    st.textures = Arc::new(textures);
    Arc::new(Batch {
        id: 0,
        state: Arc::new(st),
        draw: DrawCall { primitive: Primitive::Triangles, vertex_count: 3, index_buffer: None },
    })
}

/// Drives one Texture Unit directly: first access misses and fetches the
/// line, a repeat access hits and replies faster; throughput charges one
/// bilinear per cycle.
#[test]
fn texture_unit_cache_and_throughput() {
    let mut stats = StatsRegistry::new(0);
    let config = GpuConfig::baseline().texture;
    let (mut req_tx, req_rx) = unbound_port::<QuadTexRequest>("ff->tu", 1, 1, 8);
    let (rep_tx, mut rep_rx) = unbound_port::<QuadTexReply>("tu->ff", 1, 1, 8);
    let mut tu = TextureUnit::new(0, config, req_rx, rep_tx, &mut stats);
    let mut mem = MemoryController::new(MemControllerConfig::default(), 1 << 22);

    // A 16x16 solid texture at address 0x1000.
    let pixels = vec![Vec4::new(0.0, 1.0, 0.0, 1.0); 256];
    let bytes = encode_tiled(TexFormat::Rgba8, 16, 16, &pixels);
    mem.gpu_mem_mut().write(0x1000, &bytes);
    let desc = TextureDesc::new_2d(16, 16, TexFormat::Rgba8, 0x1000);
    let batch = tiny_batch(desc);

    let quad = |id: u64| QuadTexRequest {
        id,
        shader_unit: 0,
        sampler: 0,
        coords: [
            Vec4::new(0.50, 0.50, 0.0, 1.0),
            Vec4::new(0.53, 0.50, 0.0, 1.0),
            Vec4::new(0.50, 0.53, 0.0, 1.0),
            Vec4::new(0.53, 0.53, 0.0, 1.0),
        ],
        lod_bias: 0.0,
        projective: false,
        batch: Arc::clone(&batch),
        group: 0,
    };

    let mut latencies = Vec::new();
    let mut cycle = 0u64;
    for id in 0..2 {
        req_tx.update(cycle);
        req_tx.send(cycle, quad(id));
        let sent_at = cycle;
        loop {
            cycle += 1;
            req_tx.update(cycle);
            tu.clock(cycle, &mut mem).expect("no faults");
            mem.clock(cycle);
            rep_rx.update(cycle);
            if let Some(rep) = rep_rx.pop(cycle) {
                assert_eq!(rep.id, id);
                assert!(rep.texels[0].y > 0.9, "green texel: {:?}", rep.texels[0]);
                latencies.push(cycle - sent_at);
                break;
            }
            assert!(cycle < 10_000, "texture unit wedged");
        }
    }
    assert!(
        latencies[1] < latencies[0],
        "second (cached) request must be faster: {latencies:?}"
    );
    // 4 bilinear samples at 1/cycle => at least 4 cycles even when hot.
    assert!(latencies[1] >= 4, "throughput floor: {latencies:?}");
    assert_eq!(tu.requests_serviced(), 2);
    assert!(tu.cache().hits() > 0);
    assert!(tu.bytes_read() >= 256, "one line fill");
}

/// An unbound sampler replies opaque black without touching memory.
#[test]
fn texture_unit_unbound_sampler_is_black() {
    let mut stats = StatsRegistry::new(0);
    let config = GpuConfig::baseline().texture;
    let (mut req_tx, req_rx) = unbound_port::<QuadTexRequest>("ff->tu", 1, 1, 8);
    let (rep_tx, mut rep_rx) = unbound_port::<QuadTexReply>("tu->ff", 1, 1, 8);
    let mut tu = TextureUnit::new(0, config, req_rx, rep_tx, &mut stats);
    let mut mem = MemoryController::new(MemControllerConfig::default(), 1 << 20);
    let batch = Arc::new(Batch {
        id: 0,
        state: Arc::new(RenderState::default()),
        draw: DrawCall { primitive: Primitive::Triangles, vertex_count: 3, index_buffer: None },
    });
    req_tx.update(0);
    req_tx.send(
        0,
        QuadTexRequest {
            id: 9,
            shader_unit: 0,
            sampler: 5,
            coords: [Vec4::ZERO; 4],
            lod_bias: 0.0,
            projective: false,
            batch,
            group: 0,
        },
    );
    for cycle in 0..100 {
        req_tx.update(cycle);
        tu.clock(cycle, &mut mem).expect("no faults");
        mem.clock(cycle);
        rep_rx.update(cycle);
        if let Some(rep) = rep_rx.pop(cycle) {
            assert_eq!(rep.texels[0], Vec4::new(0.0, 0.0, 0.0, 1.0));
            assert_eq!(tu.bytes_read(), 0);
            return;
        }
    }
    panic!("no reply");
}
