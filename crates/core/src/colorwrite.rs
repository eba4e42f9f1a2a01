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

use crate::address::{surface_bytes, tile_address};
use crate::config::ColorWriteConfig;
use crate::port::PortReceiver;
use crate::rop::{self, Access, RopEngine, Round};
use crate::types::FragQuad;
use crate::unit::Unit;

/// One Colour Write unit.
#[derive(Debug)]
pub struct ColorWriteUnit {
    name: String,
    quads_per_cycle: u32,
    /// Shaded quads from the Fragment FIFO (early-Z) path.
    pub in_early: PortReceiver<FragQuad>,
    /// Shaded, Z-tested quads from the Z/stencil units (late-Z path).
    pub in_late: PortReceiver<FragQuad>,
    /// The colour cache and its fill/write-back machinery (the `cache`
    /// and `next_req_id` keys of the unit's state).
    rop: RopEngine,
    prefer_late: bool,
    /// The last clock's final round left every queued head quad waiting on
    /// a memory reply: the unit sleeps until one arrives.
    waiting: bool,
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
        config: ColorWriteConfig,
        in_early: PortReceiver<FragQuad>,
        in_late: PortReceiver<FragQuad>,
        stats: &mut attila_sim::StatsRegistry,
    ) -> Self {
        let name = Self::name_of(unit.into());
        ColorWriteUnit {
            rop: RopEngine::new(
                Client::ColorWrite(unit),
                "Color",
                config.cache,
                config.compression,
            ),
            quads_per_cycle: (config.frags_per_cycle / 4).max(1),
            in_early,
            in_late,
            prefer_late: false,
            waiting: false,
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

        let mut did_work = false;
        self.waiting = false;
        for _ in 0..self.quads_per_cycle {
            // Alternate between the early and late inputs for fairness.
            let round =
                rop::arbitrate(self.prefer_late, |late| self.try_process_head(cycle, mem, late))?;
            match round {
                Round::Took(late) => {
                    self.prefer_late = !late;
                    did_work = true;
                }
                Round::Stalled { waiting } => {
                    self.waiting = waiting;
                    break;
                }
            }
        }
        if did_work {
            self.stat_busy_cycles.inc();
        }
        Ok(())
    }

    /// Attempts to write the head quad of one input: `Ready` once it was
    /// consumed, else what it waits for (an empty input waits for an
    /// arrival).
    fn try_process_head(
        &mut self,
        cycle: Cycle,
        mem: &mut MemoryController,
        late: bool,
    ) -> Result<Access, SimError> {
        let input = if late { &self.in_late } else { &self.in_early };
        let Some(quad) = input.peek() else { return Ok(Access::Waiting) };
        let state = &quad.tri.batch.state;
        let base = state.color_buffer;
        let len = surface_bytes(state.target_width, state.target_height);
        let line = tile_address(base, state.target_width, quad.x, quad.y);
        let access = self.rop.bind(mem, base, len, &mut |_, _| {});
        if access != Access::Ready {
            return Ok(access); // old surface still draining
        }
        let access = self.rop.resident(cycle, mem, line, &mut |_, _| {});
        if access != Access::Ready {
            return Ok(access); // blocked, or the fill is on its way
        }

        let input = if late { &mut self.in_late } else { &mut self.in_early };
        let quad = input.try_pop(cycle)?.expect("peeked");
        let state = &quad.tri.batch.state;
        self.stat_quads.inc();
        let mut wrote = false;
        let (at, pixels) = rop::quad_pixels(mem, &quad, base, state.target_width);
        for i in 0..4 {
            if !quad.frags[i].alive {
                continue;
            }
            let pixel = &mut pixels[at[i]..at[i] + 4];
            let stored = [pixel[0], pixel[1], pixel[2], pixel[3]];
            let dst = unpack_rgba8(stored);
            let out = blend(&state.blend, quad.frags[i].color, dst);
            let packed = pack_rgba8(out);
            if packed != stored {
                pixel.copy_from_slice(&packed);
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
        Ok(Access::Ready)
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

    /// Busy while writebacks wait for controller space or a quad is queued
    /// that the last clock did not leave waiting on a memory reply,
    /// otherwise idle. Fills in flight alone are no reason to clock the
    /// unit: their replies wake it.
    fn work_horizon(&self) -> Horizon {
        let queued = !self.in_early.is_empty() || !self.in_late.is_empty();
        if self.rop.queued() > 0 || (queued && !self.waiting) {
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
            // Recomputed by every clock; no quad is queued at the
            // quiescent checkpoint boundary.
            waiting: _,
            name: _,
            quads_per_cycle: _,
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
            waiting: _,
            name: _,
            quads_per_cycle: _,
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
