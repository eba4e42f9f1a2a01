//! The Colour Write unit (ROPc).
//!
//! "Shaded fragment quads are stored and sent to the Color Write unit
//! where the framebuffer is updated. We implement all the update functions
//! defined in the OpenGL API. The architecture of the Color Write unit is
//! very similar to that of the Z and Stencil test unit with the Color
//! Cache supporting fast color clear of the whole color buffer." (§2.2)
//!
//! The similar part — the cache with its fills, write-backs, rebinds,
//! flush and fast clear — is the `RopEngine` of `rop.rs`, which both units
//! hold. This unit's own are the blend and framebuffer update and its two
//! input ports; it forwards nothing and feeds nothing back to
//! Hierarchical Z.

use attila_emu::fragops::{blend, pack_rgba8, unpack_rgba8};
use attila_json::{field, Json, JsonError, JsonState, ToJson};
use attila_mem::{Client, MemoryController, RopCache};
use attila_sim::{Counter, Cycle, Horizon, SimError};

use crate::address::{pixel_address, surface_bytes, tile_address};
use crate::config::RopConfig;
use crate::port::PortReceiver;
use crate::rop::{self, RopEngine};
use crate::types::FragQuad;
use crate::unit::Unit;

/// One Colour Write unit.
#[derive(Debug)]
pub struct ColorWriteUnit {
    name: String,
    config: RopConfig,
    /// Shaded quads from the Fragment FIFO (early-Z) path.
    pub in_early: PortReceiver<FragQuad>,
    /// Shaded, Z-tested quads from the Z/stencil units (late-Z path).
    pub in_late: PortReceiver<FragQuad>,
    /// The colour cache and its fill/write-back machinery (the `cache`
    /// and `next_req_id` keys of the unit's state).
    rop: RopEngine,
    prefer_late: bool,
    stat_quads: Counter,
    stat_frags_written: Counter,
    stat_blended: Counter,
    stat_busy_cycles: Counter,
}

impl ColorWriteUnit {
    /// The name unit `unit`'s signals and statistics are registered under.
    pub fn name_of(unit: usize) -> String {
        format!("ColorWrite{unit}")
    }

    /// Builds one colour write unit.
    pub fn new(
        unit: u8,
        config: RopConfig,
        in_early: PortReceiver<FragQuad>,
        in_late: PortReceiver<FragQuad>,
        stats: &mut attila_sim::StatsRegistry,
    ) -> Self {
        let name = Self::name_of(unit.into());
        ColorWriteUnit {
            rop: RopEngine::new(Client::ColorWrite(unit), "Color", &config),
            config,
            in_early,
            in_late,
            prefer_late: false,
            stat_quads: stats.counter(&format!("{name}.quads")),
            stat_frags_written: stats.counter(&format!("{name}.fragments_written")),
            stat_blended: stats.counter(&format!("{name}.fragments_blended")),
            stat_busy_cycles: stats.counter(&format!("{name}.busy_cycles")),
            name,
        }
    }

    /// (Re)binds the cache to a colour buffer and fast-clears it.
    pub fn fast_clear(&mut self, mem: &mut MemoryController, base: u64, len: u64, word: u32) {
        self.rop.fast_clear(mem, base, len, word, &mut |_, _| {});
    }

    /// Advances the unit one cycle.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the box's signals.
    pub fn clock(&mut self, cycle: Cycle, mem: &mut MemoryController) -> Result<(), SimError> {
        self.in_early.try_update(cycle)?;
        self.in_late.try_update(cycle)?;

        self.rop.collect_replies(mem);
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
        let base = state.color_buffer;
        let len = surface_bytes(state.target_width, state.target_height);
        if !self.rop.bind(mem, base, len, &mut |_, _| {}) {
            return Ok(false); // old surface still draining
        }
        let line = tile_address(base, state.target_width, qx, qy);
        if !self.rop.resident(cycle, mem, line, &mut |_, _| {}) {
            return Ok(false); // blocked, or the fill is on its way
        }

        let input = if late { &mut self.in_late } else { &mut self.in_early };
        let quad = input.try_pop(cycle)?.expect("peeked");
        self.stat_quads.inc();
        let mut wrote = false;
        for i in 0..4 {
            if !quad.frags[i].alive {
                continue;
            }
            let (x, y) = quad.frag_coords(i);
            let addr = pixel_address(base, state.target_width, x, y);
            let mut stored = [0u8; 4];
            mem.gpu_mem().read(addr, &mut stored);
            let dst = unpack_rgba8(stored);
            let out = blend(&state.blend, quad.frags[i].color, dst);
            let packed = pack_rgba8(out);
            if packed != stored {
                mem.gpu_mem_mut().write(addr, &packed);
                wrote = true;
            }
            self.stat_frags_written.inc();
            if state.blend.enabled {
                self.stat_blended.inc();
            }
        }
        if wrote {
            self.rop.mark_dirty(line);
        }
        Ok(true)
    }

    /// Flushes the colour cache (end of frame), charging writebacks
    /// (compressed when the ablation enables colour compression, matching
    /// the steady-state eviction path).
    pub fn flush(&mut self, mem: &mut MemoryController) {
        self.rop.flush(mem, &mut |_, _| {});
    }

    /// The colour cache, if bound.
    pub fn cache(&self) -> Option<&RopCache> {
        self.rop.cache()
    }

    /// Fragments written so far.
    pub fn fragments_written(&self) -> u64 {
        self.stat_frags_written.value()
    }
}

impl Unit for ColorWriteUnit {
    fn name(&self) -> &str {
        &self.name
    }

    fn client(&self) -> Option<Client> {
        Some(self.rop.client())
    }

    /// Whether work is in flight.
    fn busy(&self) -> bool {
        !self.in_early.idle() || !self.in_late.idle() || self.rop.outstanding()
    }

    /// Busy while cache fills or writebacks are outstanding or a quad is
    /// queued on either input, otherwise idle.
    fn work_horizon(&self) -> Horizon {
        if self.rop.outstanding() || !self.in_early.is_empty() || !self.in_late.is_empty() {
            return Horizon::Busy;
        }
        Horizon::Idle
    }

    fn queued(&self) -> usize {
        self.in_early.len() + self.in_late.len() + self.rop.queued()
    }
}

/// Valid at a quiescent point (no fills or writebacks in flight); the
/// engine's two keys keep their places in the object.
impl JsonState for ColorWriteUnit {
    fn save_state(&self) -> Json {
        // The name is built from the unit index; the rest is wiring.
        let Self {
            rop,
            prefer_late,
            name: _,
            config: _,
            in_early: _,
            in_late: _,
            stat_quads: _,
            stat_frags_written: _,
            stat_blended: _,
            stat_busy_cycles: _,
        } = self;
        let [cache, next_req_id] = rop.save_state();
        Json::obj([cache, ("prefer_late", prefer_late.to_json()), next_req_id])
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        let Self {
            rop,
            prefer_late,
            name: _,
            config: _,
            in_early: _,
            in_late: _,
            stat_quads: _,
            stat_frags_written: _,
            stat_blended: _,
            stat_busy_cycles: _,
        } = self;
        rop.load_state(v)?;
        *prefer_late = field(v, "prefer_late")?;
        Ok(())
    }
}
