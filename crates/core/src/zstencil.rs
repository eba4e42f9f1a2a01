//! The Z & Stencil test unit (ROPz).
//!
//! "The Z and Stencil unit tests the received fragment quads against the
//! stencil and a depth buffer which stores 8 bits for stencil and 24 bits
//! for depth per element. Quads with all the fragments marked as culled
//! are removed from the pipeline [...] while partial quads continue to
//! flow down. A Z cache is implemented to exploit access locality [...]
//! The Z cache implements a lossless compression algorithm with 1:2 and
//! 1:4 ratios [...] Fast Z and Stencil clear [...] is also implemented."
//! (§2.2)
//!
//! The unit serves both datapaths (paper Figure 5): the **early** input
//! receives quads from Hierarchical Z before shading; the **late** input
//! receives shaded quads from the Fragment FIFO when the batch state
//! forbids early Z. HZ reference updates are produced here, "calculated
//! when lines are evicted from the Z cache and compressed".
//!
//! "The architecture of the Color Write unit is very similar to that of
//! the Z and Stencil test unit" (§2.2): the cache machine is the
//! `RopEngine` of `rop.rs`, which both hold. This unit's own are the test,
//! the pass-through and culling of quads, its ports and the HZ feedback.

use std::collections::VecDeque;

use attila_emu::fragops::{
    quantize_depth, unpack_depth_stencil, z_stencil_test, DEPTH_MAX, ZBLOCK_WORDS,
};
use attila_json::{field, Json, JsonError, JsonState, ToJson};
use attila_mem::{Client, MemoryController, RopCache};
use attila_sim::{Counter, Cycle, Horizon, SimError};

use crate::address::{pixel_address, surface_bytes, tile_address, FB_TILE_BYTES};
use crate::config::RopConfig;
use crate::hz::HzUpdate;
use crate::port::{PortReceiver, PortSender};
use crate::rop::{self, RopEngine};
use crate::types::FragQuad;
use crate::unit::Unit;

/// The Z & stencil test box (one instance per configured unit).
#[derive(Debug)]
pub struct ZStencilUnit {
    name: String,
    config: RopConfig,
    /// Quads from Hierarchical Z (early-Z datapath).
    pub in_early: PortReceiver<FragQuad>,
    /// Shaded quads from the Fragment FIFO (late-Z datapath).
    pub in_late: PortReceiver<FragQuad>,
    /// Surviving early quads to the Interpolator.
    pub out_early: PortSender<FragQuad>,
    /// Surviving late quads to the paired Colour Write unit.
    pub out_late: PortSender<FragQuad>,
    /// HZ reference updates.
    pub out_hz: PortSender<HzUpdate>,

    /// The Z cache and its fill/write-back machinery (the `cache` and
    /// `next_req_id` keys of the unit's state).
    rop: RopEngine,
    target_width: u32,
    /// HZ updates awaiting the wire.
    hz_queue: VecDeque<HzUpdate>,
    prefer_late: bool,

    stat_quads: Counter,
    stat_frags_tested: Counter,
    stat_frags_passed: Counter,
    stat_busy_cycles: Counter,
}

/// The HZ reference of an evicted block: the largest depth among its
/// words, "calculated when lines are evicted from the Z cache".
fn hz_reference(block: usize, words: &[u32; ZBLOCK_WORDS]) -> HzUpdate {
    let max_depth_q = words.iter().map(|&w| unpack_depth_stencil(w).0).max().unwrap_or(0);
    HzUpdate { block, max_depth: max_depth_q as f32 / DEPTH_MAX as f32 }
}

impl ZStencilUnit {
    /// The name unit `unit`'s signals and statistics are registered under.
    pub fn name_of(unit: usize) -> String {
        format!("ZStencil{unit}")
    }

    /// Builds one Z/stencil unit.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        unit: u8,
        config: RopConfig,
        in_early: PortReceiver<FragQuad>,
        in_late: PortReceiver<FragQuad>,
        out_early: PortSender<FragQuad>,
        out_late: PortSender<FragQuad>,
        out_hz: PortSender<HzUpdate>,
        stats: &mut attila_sim::StatsRegistry,
    ) -> Self {
        let name = Self::name_of(unit.into());
        ZStencilUnit {
            rop: RopEngine::new(Client::ZStencil(unit), "Z", &config),
            config,
            in_early,
            in_late,
            out_early,
            out_late,
            out_hz,
            target_width: 0,
            hz_queue: VecDeque::new(),
            prefer_late: false,
            stat_quads: stats.counter(&format!("{name}.quads")),
            stat_frags_tested: stats.counter(&format!("{name}.fragments_tested")),
            stat_frags_passed: stats.counter(&format!("{name}.fragments_passed")),
            stat_busy_cycles: stats.counter(&format!("{name}.busy_cycles")),
            name,
        }
    }

    /// (Re)binds the cache to a depth buffer and fast-clears it.
    pub fn fast_clear(&mut self, mem: &mut MemoryController, base: u64, len: u64, word: u32) {
        let hz = &mut self.hz_queue;
        self.rop.fast_clear(mem, base, len, word, &mut |b, w| hz.push_back(hz_reference(b, w)));
    }

    /// Advances the unit one cycle.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the box's signals.
    pub fn clock(&mut self, cycle: Cycle, mem: &mut MemoryController) -> Result<(), SimError> {
        self.in_early.try_update(cycle)?;
        self.in_late.try_update(cycle)?;
        self.out_early.try_update(cycle)?;
        self.out_late.try_update(cycle)?;
        self.out_hz.try_update(cycle)?;

        self.rop.collect_replies(mem);

        // Drain queued HZ updates.
        while let Some(u) = self.hz_queue.front() {
            if self.out_hz.can_send(cycle) {
                let u = *u;
                self.hz_queue.pop_front();
                self.out_hz.try_send(cycle, u)?;
            } else {
                break;
            }
        }

        self.rop.drain_writebacks(mem);

        let quads_per_cycle = (self.config.frags_per_cycle / 4).max(1);
        let mut did_work = false;
        for _ in 0..quads_per_cycle {
            // Alternate between the early and late inputs for fairness.
            let turn =
                rop::arbitrate(self.prefer_late, |late| self.try_process_head(cycle, mem, late))?;
            let Some(late) = turn else { break };
            self.prefer_late = !late;
            did_work = true;
        }
        if did_work {
            self.stat_busy_cycles.inc();
        }
        Ok(())
    }

    /// Attempts to process the head quad of one input; returns `Ok(true)`
    /// on progress.
    fn try_process_head(
        &mut self,
        cycle: Cycle,
        mem: &mut MemoryController,
        late: bool,
    ) -> Result<bool, SimError> {
        let (state, qx, qy) = {
            let input = if late { &self.in_late } else { &self.in_early };
            let Some(quad) = input.peek() else { return Ok(false) };
            (std::sync::Arc::clone(&quad.tri.batch.state), quad.x, quad.y)
        };
        // Output availability first: never pop a quad we cannot forward.
        let out_ok = if late {
            self.out_late.can_send(cycle)
        } else {
            self.out_early.can_send(cycle)
        };
        if !out_ok {
            return Ok(false);
        }

        // Pass-through when neither test is enabled: no buffer access.
        if !state.depth.enabled && !state.stencil.enabled {
            let input = if late { &mut self.in_late } else { &mut self.in_early };
            let quad = input.try_pop(cycle)?.expect("peeked");
            self.stat_quads.inc();
            self.stat_frags_tested.add(quad.live_count() as u64);
            self.stat_frags_passed.add(quad.live_count() as u64);
            self.forward(cycle, quad, late)?;
            return Ok(true);
        }

        let z_base = state.z_buffer;
        let len = surface_bytes(state.target_width, state.target_height);
        // Every line the engine writes back yields the block's HZ reference.
        let hz = &mut self.hz_queue;
        let mut on_evict = |b, w: &[u32; ZBLOCK_WORDS]| hz.push_back(hz_reference(b, w));
        if !self.rop.bind(mem, z_base, len, &mut on_evict) {
            return Ok(false); // old surface still draining
        }
        self.target_width = state.target_width;
        let line = tile_address(z_base, state.target_width, qx, qy);
        if !self.rop.resident(cycle, mem, line, &mut on_evict) {
            return Ok(false); // blocked, or the fill is on its way
        }

        // Resident: test the quad's live fragments. Back-facing
        // triangles may use the separate stencil state (double-sided
        // stencil for one-pass shadow volumes).
        let input = if late { &mut self.in_late } else { &mut self.in_early };
        let mut quad = input.try_pop(cycle)?.expect("peeked");
        let stencil = if quad.tri.setup.front_facing {
            state.stencil
        } else {
            state.stencil_back.unwrap_or(state.stencil)
        };
        self.stat_quads.inc();
        let mut wrote = false;
        let mut raised = false;
        for i in 0..4 {
            if !quad.frags[i].alive {
                continue;
            }
            self.stat_frags_tested.inc();
            let (x, y) = quad.frag_coords(i);
            let addr = pixel_address(z_base, state.target_width, x, y);
            let stored = mem.gpu_mem().read_u32(addr);
            let frag_depth = quantize_depth(quad.frags[i].depth);
            let r = z_stencil_test(state.depth, stencil, frag_depth, stored);
            if r.written {
                if unpack_depth_stencil(r.new_word).0 > unpack_depth_stencil(stored).0 {
                    raised = true;
                }
                mem.gpu_mem_mut().write_u32(addr, r.new_word);
                wrote = true;
            }
            if r.pass {
                self.stat_frags_passed.inc();
            } else {
                quad.frags[i].alive = false;
            }
        }
        if wrote {
            self.rop.mark_dirty(line);
        }
        if raised {
            // A depth write moved a value *up* (Greater-style compare):
            // the HZ reference for this block may now be stale-low, which
            // would cause false rejections. Loosen it fully; the next
            // eviction restores the exact maximum.
            let block = ((line - z_base) / FB_TILE_BYTES as u64) as usize;
            self.hz_queue.push_back(HzUpdate { block, max_depth: 1.0 });
        }
        self.forward(cycle, quad, late)?;
        Ok(true)
    }

    fn forward(&mut self, cycle: Cycle, quad: FragQuad, late: bool) -> Result<(), SimError> {
        // "Quads with all the fragments marked as culled are removed from
        // the pipeline" at this point (§2.2).
        if !quad.any_alive() {
            return Ok(());
        }
        if late {
            self.out_late.try_send(cycle, quad)
        } else {
            self.out_early.try_send(cycle, quad)
        }
    }

    /// Flushes the Z cache at end of frame, charging writeback traffic
    /// and queueing the HZ reference of every line written back.
    pub fn flush(&mut self, mem: &mut MemoryController) {
        let hz = &mut self.hz_queue;
        self.rop.flush(mem, &mut |b, w| hz.push_back(hz_reference(b, w)));
    }

    /// The Z cache, if bound.
    pub fn cache(&self) -> Option<&RopCache> {
        self.rop.cache()
    }

    /// Fragments that passed Z/stencil so far.
    pub fn fragments_passed(&self) -> u64 {
        self.stat_frags_passed.value()
    }

    /// Fragments tested so far.
    pub fn fragments_tested(&self) -> u64 {
        self.stat_frags_tested.value()
    }
}

impl Unit for ZStencilUnit {
    fn name(&self) -> &str {
        &self.name
    }

    fn client(&self) -> Option<Client> {
        Some(self.rop.client())
    }

    /// Whether work is in flight.
    fn busy(&self) -> bool {
        !self.in_early.idle()
            || !self.in_late.idle()
            || self.rop.outstanding()
            || !self.hz_queue.is_empty()
    }

    /// Busy while fills, writebacks or HZ updates are outstanding or an
    /// input's head quad has a credit on its output, otherwise idle. A
    /// head quad without a credit is stalled, not busy: `try_process_head` returns on
    /// `out_ok` before `bind` or `resident` can touch the cache, and the
    /// returning credit wakes the unit.
    fn work_horizon(&self) -> Horizon {
        if self.rop.outstanding() || !self.hz_queue.is_empty() {
            return Horizon::Busy;
        }
        if (!self.in_early.is_empty() && self.out_early.credits() > 0)
            || (!self.in_late.is_empty() && self.out_late.credits() > 0)
        {
            return Horizon::Busy;
        }
        Horizon::Idle
    }

    fn queued(&self) -> usize {
        self.in_early.len() + self.in_late.len() + self.hz_queue.len() + self.rop.queued()
    }
}

/// Valid at a quiescent point (no fills, writebacks or HZ updates in
/// flight); the engine's two keys keep their places in the object.
impl JsonState for ZStencilUnit {
    fn save_state(&self) -> Json {
        let Self {
            rop,
            target_width,
            prefer_late,
            // Drained at the quiescent checkpoint boundary.
            hz_queue: _,
            // The name is built from the unit index; the rest is wiring.
            name: _,
            config: _,
            in_early: _,
            in_late: _,
            out_early: _,
            out_late: _,
            out_hz: _,
            stat_quads: _,
            stat_frags_tested: _,
            stat_frags_passed: _,
            stat_busy_cycles: _,
        } = self;
        let [cache, next_req_id] = rop.save_state();
        Json::obj([
            cache,
            ("target_width", target_width.to_json()),
            ("prefer_late", prefer_late.to_json()),
            next_req_id,
        ])
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        let Self {
            rop,
            target_width,
            prefer_late,
            hz_queue: _,
            name: _,
            config: _,
            in_early: _,
            in_late: _,
            out_early: _,
            out_late: _,
            out_hz: _,
            stat_quads: _,
            stat_frags_tested: _,
            stat_frags_passed: _,
            stat_busy_cycles: _,
        } = self;
        rop.load_state(v)?;
        *target_width = field(v, "target_width")?;
        *prefer_late = field(v, "prefer_late")?;
        Ok(())
    }
}
