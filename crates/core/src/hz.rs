//! The Hierarchical Z box.
//!
//! "The generated fragment tiles are tested against a Hierarchical Z
//! buffer to remove non visible fragment quads from the pipeline at a very
//! fast rate (up to two 8x8 fragment tiles per cycle in the baseline
//! configuration). The HZ buffer, a single HZ level, is stored as on chip
//! memory to save bandwidth. [...] The Z reference values for the HZ
//! buffer are calculated when lines are evicted from the Z cache and
//! compressed. Fragments marked as culled by the fragment generator and
//! outside the scissor window are removed at this stage." (§2.2)
//!
//! After HZ, tiles are divided into 2×2 **quads**, the basic fragment
//! work unit, and routed to the early-Z test units or (when Z must run
//! after shading) directly to the Interpolator.

use std::collections::VecDeque;
use std::sync::Arc;

use attila_emu::fragops::CompareFunc;
use attila_json::{array, field, field_with, FromJson, HexJson, Json, JsonError, JsonState, ToJson};
use attila_sim::{Counter, Cycle, DynamicObject, Horizon, ObjectIdGen, SimError};

use crate::address::{block_count, block_index, FB_TILE};
use crate::config::HzConfig;
use crate::port::{PortReceiver, PortSender};
use crate::types::{FragQuad, FragTile, QuadFrag};
use crate::unit::Unit;

/// An HZ reference update computed when a line is evicted from a Z cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HzUpdate {
    /// 8×8 block index in the depth buffer.
    pub block: usize,
    /// New maximum depth of the block.
    pub max_depth: f32,
}

const _: () = assert!(std::mem::size_of::<HzUpdate>() <= 112);

/// Quads the box stages between splitting tiles and routing them; a full
/// buffer stops it taking tiles (back-pressure towards the generator).
const PENDING_QUADS: usize = 64;

/// Depth precision of an on-chip HZ entry in bits (the paper's: 256 KB for
/// 4096×4096).
pub const DEPTH_BITS: u32 = 8;

/// Conservative (round-up) quantization to [`DEPTH_BITS`].
fn quantize_up(depth: f32) -> f32 {
    const LEVELS: f32 = ((1 << DEPTH_BITS) - 1) as f32;
    if !depth.is_finite() {
        return f32::INFINITY;
    }
    (depth.clamp(0.0, 1.0) * LEVELS).ceil() / LEVELS
}

/// The on-chip Hierarchical Z buffer: one max-depth entry per 8×8 block,
/// quantized to [`DEPTH_BITS`].
#[derive(Debug)]
pub struct HzBuffer {
    entries: Vec<f32>,
}

impl HzBuffer {
    /// Creates a buffer for a `width`×`height` target, all entries at the
    /// conservative maximum (no rejection possible until cleared).
    pub fn new(width: u32, height: u32) -> Self {
        HzBuffer {
            entries: vec![f32::INFINITY; block_count(width, height)],
        }
    }

    /// Resets every entry to `depth` (fast Z clear).
    pub fn clear(&mut self, depth: f32) {
        let q = quantize_up(depth);
        for e in &mut self.entries {
            *e = q;
        }
    }

    /// Loosens every reference to the no-rejection state. Used when a
    /// batch runs a depth function that can *raise* stored depths
    /// (`Greater`, `Always`, …): its writes invalidate the stored maxima
    /// faster than eviction updates can follow, so culling must pause
    /// until the next fast clear re-establishes the references.
    pub fn poison(&mut self) {
        for e in &mut self.entries {
            *e = f32::INFINITY;
        }
    }

    /// Sets a block's reference to the (round-up quantized) max depth
    /// reported by a Z-cache eviction — the true content of the block at
    /// that moment. References can move in both directions: depth
    /// functions like `Greater` legitimately raise a block's maximum, and
    /// the Z unit additionally sends a conservative full-raise whenever a
    /// write increases a stored depth, so a stale low reference can never
    /// cause a false rejection.
    pub fn update(&mut self, block: usize, max_depth: f32) {
        if block < self.entries.len() {
            self.entries[block] = quantize_up(max_depth);
        }
    }

    /// Whether a tile with minimum depth `min_depth` in `block` is
    /// certainly invisible under a less-than style depth test.
    pub fn rejects(&self, block: usize, min_depth: f32) -> bool {
        block < self.entries.len() && min_depth > self.entries[block]
    }

    /// The stored reference for a block (for tests/visualization).
    pub fn reference(&self, block: usize) -> f32 {
        self.entries[block]
    }
}

/// The Hierarchical Z / tile-to-quad box.
#[derive(Debug)]
pub struct HierarchicalZ {
    config: HzConfig,
    /// Fragment tiles from the Fragment Generator.
    pub in_tiles: PortReceiver<FragTile>,
    /// HZ reference updates from the Z-cache(s).
    pub in_updates: Vec<PortReceiver<HzUpdate>>,
    /// Quads to each early Z/stencil unit.
    pub out_early: Vec<PortSender<FragQuad>>,
    /// Quads to the Interpolator (late-Z datapath).
    pub out_late: PortSender<FragQuad>,
    buffer: HzBuffer,
    target_width: u32,
    /// The depth buffer the HZ references describe (base, width, height);
    /// switching render targets invalidates them.
    bound_z: Option<(u64, u32, u32)>,
    pending: VecDeque<FragQuad>,
    ids: ObjectIdGen,
    stat_tiles: Counter,
    stat_tiles_rejected: Counter,
    stat_quads_out: Counter,
    stat_frags_culled: Counter,
}

impl HierarchicalZ {
    /// The name the box's signals are registered under.
    pub const NAME: &'static str = "HierarchicalZ";

    /// Builds the box around its ports for a given render-target size.
    ///
    /// The parameter list mirrors the box's physical port list (Figure 5);
    /// bundling ports into a struct would only move the names around.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config: HzConfig,
        width: u32,
        height: u32,
        in_tiles: PortReceiver<FragTile>,
        in_updates: Vec<PortReceiver<HzUpdate>>,
        out_early: Vec<PortSender<FragQuad>>,
        out_late: PortSender<FragQuad>,
        stats: &mut attila_sim::StatsRegistry,
    ) -> Self {
        let buffer = HzBuffer::new(width, height);
        HierarchicalZ {
            config,
            in_tiles,
            in_updates,
            out_early,
            out_late,
            buffer,
            target_width: width,
            bound_z: None,
            ids: ObjectIdGen::new(),
            pending: VecDeque::new(),
            stat_tiles: stats.counter("HZ.tiles"),
            stat_tiles_rejected: stats.counter("HZ.tiles_rejected"),
            stat_quads_out: stats.counter("HZ.quads_out"),
            stat_frags_culled: stats.counter("HZ.fragments_culled"),
        }
    }

    /// Fast-clears the HZ buffer (driven by the Command Processor's fast
    /// Z clear of the depth buffer at `base`, sized `width`×`height`).
    pub fn fast_clear_for(&mut self, base: u64, width: u32, height: u32, depth: f32) {
        if self.bound_z != Some((base, width, height)) {
            self.bound_z = Some((base, width, height));
            self.target_width = width;
            self.buffer = HzBuffer::new(width, height);
        }
        self.buffer.clear(depth);
    }

    /// Fast-clears the HZ buffer for the currently bound depth buffer.
    pub fn fast_clear(&mut self, depth: f32) {
        self.buffer.clear(depth);
    }

    /// Read access to the HZ buffer (tests/tools).
    pub fn buffer(&self) -> &HzBuffer {
        &self.buffer
    }

    /// Advances the box one cycle.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the box's signals.
    pub fn clock(&mut self, cycle: Cycle) -> Result<(), SimError> {
        self.in_tiles.try_update(cycle)?;
        for p in &mut self.in_updates {
            p.try_update(cycle)?;
        }
        for p in &mut self.out_early {
            p.try_update(cycle)?;
        }
        self.out_late.try_update(cycle)?;

        // Apply Z-cache eviction references.
        for p in &mut self.in_updates {
            while let Some(u) = p.try_pop(cycle)? {
                self.buffer.update(u.block, u.max_depth);
            }
        }

        // Test up to `tiles_per_cycle` tiles and split survivors into
        // quads (bounded staging keeps back-pressure intact).
        for _ in 0..self.config.tiles_per_cycle {
            if self.pending.len() >= PENDING_QUADS {
                break;
            }
            let Some(tile) = self.in_tiles.try_pop(cycle)? else { break };
            self.stat_tiles.inc();
            let state = &tile.tri.batch.state;
            // Rebinding the depth buffer (render-to-texture) invalidates
            // every stored reference: reset conservatively.
            let key = (state.z_buffer, state.target_width, state.target_height);
            if self.bound_z != Some(key) {
                self.bound_z = Some(key);
                self.target_width = state.target_width;
                self.buffer = HzBuffer::new(state.target_width, state.target_height);
            }
            // A batch whose depth function can raise stored values makes
            // the conservative maxima stale: stop culling until the next
            // clear (real designs disable HZ on compare-direction flips).
            if state.depth.enabled
                && state.depth.write
                && !matches!(state.depth.func, CompareFunc::Less | CompareFunc::LEqual)
            {
                self.buffer.poison();
            }
            let hz_applicable = self.config.enabled
                && state.depth.enabled
                && matches!(state.depth.func, CompareFunc::Less | CompareFunc::LEqual);
            if hz_applicable {
                let block = block_index(self.target_width, tile.x, tile.y);
                if self.buffer.rejects(block, tile.min_depth) {
                    self.stat_tiles_rejected.inc();
                    continue;
                }
            }
            // Divide into 2×2 quads; drop fully-culled quads here (the
            // fragment-generator/scissor cull point of the paper).
            let size = FB_TILE;
            for qy in (0..size).step_by(2) {
                for qx in (0..size).step_by(2) {
                    let mut frags = [QuadFrag::dead(); 4];
                    let mut any = false;
                    for (slot, (dx, dy)) in
                        [(0u32, 0u32), (1, 0), (0, 1), (1, 1)].iter().enumerate()
                    {
                        let f = &tile.frags[((qy + dy) * size + qx + dx) as usize];
                        frags[slot] = QuadFrag {
                            alive: !f.culled,
                            edges: f.edges,
                            depth: f.depth,
                            color: attila_emu::Vec4::ZERO,
                        };
                        if !f.culled {
                            any = true;
                        } else {
                            self.stat_frags_culled.inc();
                        }
                    }
                    if !any {
                        continue;
                    }
                    // The quad's one allocation: from here to the ROPs
                    // it travels as a pointer.
                    self.pending.push_back(FragQuad::new(
                        DynamicObject::child_of(self.ids.next_id(), &tile.obj),
                        Arc::clone(&tile.tri),
                        tile.x + qx,
                        tile.y + qy,
                        frags,
                    ));
                }
            }
        }

        // Route staged quads downstream.
        while let Some(quad) = self.pending.front() {
            let port = match self.early_unit(quad) {
                Some(unit) => &mut self.out_early[unit],
                None => &mut self.out_late,
            };
            if !port.can_send(cycle) {
                break;
            }
            let quad = self.pending.pop_front().expect("front exists");
            port.try_send(cycle, quad)?;
            self.stat_quads_out.inc();
        }
        Ok(())
    }

    /// The early-Z unit a staged quad leaves for, or `None` when Z runs
    /// after shading and it goes to the Interpolator.
    fn early_unit(&self, quad: &FragQuad) -> Option<usize> {
        quad.tri.batch.state.early_z().then(|| route_rop(quad.x, quad.y, self.out_early.len()))
    }

    /// Tiles rejected by the HZ test so far.
    pub fn tiles_rejected(&self) -> u64 {
        self.stat_tiles_rejected.value()
    }
}

impl Unit for HierarchicalZ {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn busy(&self) -> bool {
        !self.pending.is_empty() || !self.in_tiles.idle()
    }

    /// The box's event horizon: busy while a clock could make progress —
    /// a queued tile with room in the staging buffer, or a staged head
    /// quad whose output has a credit — otherwise idle. The Z-cache update
    /// queues need no term: every clock applies all of them. A full
    /// staging buffer behind a head without credits is stalled, not busy:
    /// `clock()` pops no tile and routes nothing, and the returning credit
    /// wakes the box (see [`Horizon`]).
    fn work_horizon(&self) -> Horizon {
        let can_stage = self.pending.len() < PENDING_QUADS && !self.in_tiles.is_empty();
        let can_route = self.pending.front().is_some_and(|quad| {
            let port = match self.early_unit(quad) {
                Some(unit) => &self.out_early[unit],
                None => &self.out_late,
            };
            port.credits() > 0
        });
        if can_stage || can_route {
            return Horizon::Busy;
        }
        Horizon::Idle
    }

    /// Objects waiting in the box's input queues and staging buffer.
    fn queued(&self) -> usize {
        self.pending.len()
            + self.in_tiles.len()
            + self.in_updates.iter().map(crate::port::PortReceiver::len).sum::<usize>()
    }
}

/// The HZ buffer and registers; valid at a quiescent point (no staged
/// quads, drained wires). Entries travel as `f32::to_bits` words — the
/// no-rejection poison entry is `f32::INFINITY`, which no decimal
/// rendering round-trips — and become the buffer as the file carries
/// them: the surface `bound_z` names (or, unbound, the one elaboration
/// built) is held to their count, never allocated from.
impl JsonState for HierarchicalZ {
    fn save_state(&self) -> Json {
        let Self {
            buffer,
            target_width,
            bound_z,
            ids,
            // In-flight quads, drained at the quiescent boundary.
            pending: _,
            // Wiring.
            config: _,
            in_tiles: _,
            in_updates: _,
            out_early: _,
            out_late: _,
            stat_tiles: _,
            stat_tiles_rejected: _,
            stat_quads_out: _,
            stat_frags_culled: _,
        } = self;
        let bound_z = bound_z.map_or(Json::Null, |(base, width, height)| {
            Json::Arr(vec![base.to_hex(), width.to_json(), height.to_json()])
        });
        let entry_bits = buffer.entries.iter().map(|e| e.to_bits().to_json());
        Json::obj([
            ("entry_bits", Json::Arr(entry_bits.collect())),
            ("target_width", target_width.to_json()),
            ("bound_z", bound_z),
            ("ids_issued", ids.save_state()),
        ])
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        let Self {
            buffer,
            target_width,
            bound_z,
            ids,
            pending: _,
            config: _,
            in_tiles: _,
            in_updates: _,
            out_early: _,
            out_late: _,
            stat_tiles: _,
            stat_tiles_rejected: _,
            stat_quads_out: _,
            stat_frags_culled: _,
        } = self;
        let entry_bits: Vec<u32> = field(v, "entry_bits")?;
        let surface = field_with(v, "bound_z", |b| match b {
            Json::Null => Ok(None),
            b => match array(b)? {
                [base, width, height] => Ok(Some((
                    u64::from_hex(base)?,
                    u32::from_json(width)?,
                    u32::from_json(height)?,
                ))),
                _ => Err(JsonError::msg(format!("bad surface: {}", b.render()))),
            },
        })?;
        let (width, blocks) = match surface {
            Some((_, width, height)) => (width, block_count(width, height)),
            None => (*target_width, buffer.entries.len()),
        };
        if entry_bits.len() != blocks {
            return Err(JsonError::msg(format!(
                "entry_bits: {} entries, but bound_z covers {blocks} blocks",
                entry_bits.len()
            )));
        }
        // Block indexing derives from the bound surface's width.
        if field::<u32>(v, "target_width")? != width {
            return Err(JsonError::msg(format!("target_width: bound_z is {width} pixels wide")));
        }
        buffer.entries = entry_bits.into_iter().map(f32::from_bits).collect();
        *target_width = width;
        *bound_z = surface;
        field_with(v, "ids_issued", |saved| ids.load_state(saved))
    }
}

/// Which ROP unit a quad belongs to: 8×8 tiles interleave across units in
/// a checkerboard, so neighbouring tiles land on different units while a
/// tile's quads share one unit's cache.
pub fn route_rop(x: u32, y: u32, units: usize) -> usize {
    if units <= 1 {
        return 0;
    }
    ((x / FB_TILE + y / FB_TILE) % units as u32) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hz_buffer_starts_permissive() {
        let b = HzBuffer::new(64, 64);
        assert!(!b.rejects(0, 0.999), "uninitialized HZ must not reject");
    }

    #[test]
    fn clear_then_reject_behind() {
        let mut b = HzBuffer::new(64, 64);
        b.clear(0.5);
        assert!(b.rejects(3, 0.6), "tile behind the cleared depth");
        assert!(!b.rejects(3, 0.4), "tile in front survives");
    }

    #[test]
    fn quantization_is_conservative() {
        let mut b = HzBuffer::new(64, 64);
        b.clear(0.5);
        // 0.5001 quantizes up to ~0.5019; a tile at 0.501 must NOT be
        // rejected even though it is behind 0.5, because 8-bit HZ cannot
        // tell.
        assert!(!b.rejects(0, 0.5001));
    }

    #[test]
    fn update_tracks_evicted_truth_in_both_directions() {
        let mut b = HzBuffer::new(64, 64);
        b.clear(0.8);
        b.update(2, 0.3);
        assert!(b.rejects(2, 0.4));
        // A raise (Greater-style depth writes) must loosen the reference
        // again, or visible tiles would be falsely rejected.
        b.update(2, 0.9);
        assert!(!b.rejects(2, 0.4));
    }

    #[test]
    fn route_rop_checkerboards() {
        assert_eq!(route_rop(0, 0, 2), 0);
        assert_eq!(route_rop(8, 0, 2), 1);
        assert_eq!(route_rop(0, 8, 2), 1);
        assert_eq!(route_rop(8, 8, 2), 0);
        // Quads within one tile share a unit.
        assert_eq!(route_rop(2, 4, 2), route_rop(6, 6, 2));
        assert_eq!(route_rop(100, 50, 1), 0);
    }
}
