//! The Colour Write unit (ROPc).
//!
//! "Shaded fragment quads are stored and sent to the Color Write unit
//! where the framebuffer is updated. We implement all the update functions
//! defined in the OpenGL API. The architecture of the Color Write unit is
//! very similar to that of the Z and Stencil test unit with the Color
//! Cache supporting fast color clear of the whole color buffer." (§2.2)

use std::collections::BTreeMap;

use attila_emu::fragops::{blend, compress_z_block, pack_rgba8, unpack_rgba8, ZBLOCK_WORDS};
use attila_json::{field, field_with, HexJson, Json, JsonError, JsonState, ToJson};
use attila_mem::controller::split_transactions;
use attila_mem::{Client, MemOp, MemRequest, MemoryController, RopCache};
use attila_sim::{Counter, Cycle, SimError};

use crate::address::{pixel_address, surface_bytes, tile_address};
use crate::config::RopConfig;
use crate::port::PortReceiver;
use crate::types::FragQuad;

/// One Colour Write unit.
#[derive(Debug)]
pub struct ColorWriteUnit {
    unit: u8, // state: derived — unit index fixed at construction
    config: RopConfig,
    /// Shaded quads from the Fragment FIFO (early-Z) path.
    pub in_early: PortReceiver<FragQuad>,
    /// Shaded, Z-tested quads from the Z/stencil units (late-Z path).
    pub in_late: PortReceiver<FragQuad>,
    cache: Option<RopCache>,
    // state: transient — in-flight fill/writeback bookkeeping, drained at
    // the quiescent checkpoint boundary
    fills: BTreeMap<u64, usize>,
    reply_to_line: BTreeMap<u64, u64>,
    /// Writeback transactions awaiting controller queue space.
    pending_writebacks: std::collections::VecDeque<(u64, u32)>,
    // state: checkpointed
    prefer_late: bool,
    next_req_id: u64,
    stat_quads: Counter,
    stat_frags_written: Counter,
    stat_blended: Counter,
    stat_busy_cycles: Counter,
}

impl ColorWriteUnit {
    /// Builds one colour write unit.
    pub fn new(
        unit: u8,
        config: RopConfig,
        in_early: PortReceiver<FragQuad>,
        in_late: PortReceiver<FragQuad>,
        stats: &mut attila_sim::StatsRegistry,
    ) -> Self {
        let prefix = format!("ColorWrite{unit}");
        ColorWriteUnit {
            unit,
            config,
            in_early,
            in_late,
            cache: None,
            fills: BTreeMap::new(),
            reply_to_line: BTreeMap::new(),
            pending_writebacks: std::collections::VecDeque::new(),
            prefer_late: false,
            next_req_id: 0,
            stat_quads: stats.counter(&format!("{prefix}.quads")),
            stat_frags_written: stats.counter(&format!("{prefix}.fragments_written")),
            stat_blended: stats.counter(&format!("{prefix}.fragments_blended")),
            stat_busy_cycles: stats.counter(&format!("{prefix}.busy_cycles")),
        }
    }

    /// The memory-controller client id of this unit.
    pub fn client(&self) -> Client {
        Client::ColorWrite(self.unit)
    }

    /// (Re)binds the cache to a colour buffer and fast-clears it.
    pub fn fast_clear(&mut self, mem: &mut MemoryController, base: u64, len: u64, word: u32) {
        // The Command Processor only clears with the pipeline drained, so
        // the rebind never has to wait here.
        let ready = self.rebind_cache(mem, base, len);
        assert!(ready, "fast clear issued with fills in flight");
        self.cache.as_mut().expect("bound").fast_clear(mem.gpu_mem_mut(), word);
    }

    /// Returns `true` when the cache is bound to `(base, len)` and ready.
    /// Rebinding (render-target switch) waits for in-flight fills and
    /// writes the old surface's dirty lines back first.
    fn rebind_cache(&mut self, mem: &mut MemoryController, base: u64, len: u64) -> bool {
        if let Some(c) = &self.cache {
            if c.base() == base && c.len() == len {
                return true;
            }
        }
        if !self.fills.is_empty() {
            return false; // drain outstanding fills of the old surface
        }
        self.flush(mem);
        self.cache = Some(RopCache::new(self.config.cache.into(), "Color", base, len));
        true
    }

    /// Advances the unit one cycle.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the box's signals.
    pub fn clock(&mut self, cycle: Cycle, mem: &mut MemoryController) -> Result<(), SimError> {
        self.in_early.try_update(cycle)?;
        self.in_late.try_update(cycle)?;

        while let Some(reply) = mem.pop_reply(self.client()) {
            if let Some(line) = self.reply_to_line.remove(&reply.id) {
                let left = self.fills.get_mut(&line).expect("fill bookkeeping"); // lint:allow(clock-unwrap) reply ids only map to lines with live fill entries
                *left -= 1;
                if *left == 0 {
                    self.fills.remove(&line);
                    if let Some(cache) = &mut self.cache {
                        cache.fill_done(line);
                    }
                }
            }
        }

        // Drain queued writebacks as controller space frees up.
        while let Some(&(addr, size)) = self.pending_writebacks.front() {
            if !mem.can_accept(self.client(), addr) {
                break;
            }
            self.pending_writebacks.pop_front();
            let id = self.next_req_id;
            self.next_req_id += 1;
            mem.submit(MemRequest {
                id,
                client: self.client(),
                addr,
                op: MemOp::TimingWrite { size },
            })
            .expect("can_accept checked"); // lint:allow(clock-unwrap) submit follows the can_accept check above
        }

        let quads_per_cycle = (self.config.frags_per_cycle / 4).max(1);
        let mut did_work = false;
        for _ in 0..quads_per_cycle {
            let first_late = self.prefer_late;
            let mut progressed = false;
            for attempt in 0..2 {
                let late = first_late ^ (attempt == 1);
                if self.try_process_head(cycle, mem, late)? {
                    self.prefer_late = !late;
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                break;
            }
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
        if !self.rebind_cache(mem, base, len) {
            return Ok(false); // old surface still draining
        }
        let line = tile_address(base, state.target_width, qx, qy);

        let cache = self.cache.as_mut().expect("ensured"); // lint:allow(clock-unwrap) rebind_cache returned ready
        match cache.lookup(cycle, line, false) {
            attila_mem::Lookup::Hit => {}
            attila_mem::Lookup::Blocked => return Ok(false),
            attila_mem::Lookup::Miss => {
                self.start_fill(mem, line);
                return Ok(false);
            }
        }

        let input = if late { &mut self.in_late } else { &mut self.in_early };
        let quad = input.try_pop(cycle)?.expect("peeked"); // lint:allow(clock-unwrap) head existence checked via peek above
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
            self.cache.as_mut().expect("ensured").mark_dirty(line); // lint:allow(clock-unwrap) rebind_cache returned ready
        }
        Ok(true)
    }

    fn start_fill(&mut self, mem: &mut MemoryController, line: u64) {
        if self.fills.contains_key(&line) {
            return;
        }
        if mem.free_slots(self.client(), line) < 8 {
            return;
        }
        let client = self.client();
        let compression = self.config.compression;
        let mut next_id = self.next_req_id;
        let mut fill_ids = Vec::new();
        let Some(cache) = self.cache.as_mut() else { return };
        let Ok((fill_bytes, eviction)) = cache.allocate(line) else { return };
        if let Some(ev) = eviction {
            // Colour compression is future work in the paper; when the
            // ablation enables it, the same lossless delta scheme as the
            // Z cache runs over the line's actual RGBA words.
            let compressed = if compression {
                let mut words = [0u32; ZBLOCK_WORDS];
                for (i, w) in words.iter_mut().enumerate() {
                    *w = mem.gpu_mem().read_u32(ev.line_addr + i as u64 * 4);
                }
                Some(compress_z_block(&words).level.bytes() as u32)
            } else {
                None
            };
            let bytes = cache.evict_dirty(ev.line_addr, compressed);
            for (addr, size) in split_transactions(ev.line_addr, bytes as u64) {
                let id = next_id;
                next_id += 1;
                mem.submit(MemRequest { id, client, addr, op: MemOp::TimingWrite { size } })
                    .expect("slots reserved");
            }
        }
        if fill_bytes == 0 {
            cache.fill_done(line);
        } else {
            let mut count = 0;
            for (addr, size) in split_transactions(line, fill_bytes as u64) {
                let id = next_id;
                next_id += 1;
                mem.submit(MemRequest { id, client, addr, op: MemOp::TimingRead { size } })
                    .expect("slots reserved");
                fill_ids.push(id);
                count += 1;
            }
            for id in fill_ids {
                self.reply_to_line.insert(id, line);
            }
            self.fills.insert(line, count);
        }
        self.next_req_id = next_id;
    }

    /// Flushes the colour cache (end of frame), charging writebacks
    /// (compressed when the ablation enables colour compression, matching
    /// the steady-state eviction path).
    pub fn flush(&mut self, mem: &mut MemoryController) {
        let client = self.client();
        let compression = self.config.compression;
        let mut pending: Vec<(u64, u32)> = Vec::new();
        if let Some(cache) = self.cache.as_mut() {
            for ev in cache.flush() {
                let compressed = if compression {
                    let mut words = [0u32; ZBLOCK_WORDS];
                    for (i, w) in words.iter_mut().enumerate() {
                        *w = mem.gpu_mem().read_u32(ev.line_addr + i as u64 * 4);
                    }
                    Some(compress_z_block(&words).level.bytes() as u32)
                } else {
                    None
                };
                let bytes = cache.evict_dirty(ev.line_addr, compressed);
                let mut id = self.next_req_id;
                for (addr, size) in split_transactions(ev.line_addr, bytes as u64) {
                    if mem.can_accept(client, addr)
                        && mem
                            .submit(MemRequest { id, client, addr, op: MemOp::TimingWrite { size } })
                            .is_ok()
                    {
                        id += 1;
                    } else {
                        // Controller full: drained from clock() later so
                        // no writeback traffic is ever dropped.
                        pending.push((addr, size));
                    }
                }
                self.next_req_id = id;
            }
        }
        self.pending_writebacks.extend(pending);
    }

    /// The colour cache, if bound.
    pub fn cache(&self) -> Option<&RopCache> {
        self.cache.as_ref()
    }

    /// Whether work is in flight.
    pub fn busy(&self) -> bool {
        !self.in_early.idle()
            || !self.in_late.idle()
            || !self.fills.is_empty()
            || !self.pending_writebacks.is_empty()
    }

    /// The box's event horizon: busy while cache fills or writebacks are
    /// outstanding, otherwise the earliest arrival across both quad wires
    /// (see [`attila_sim::Horizon`]).
    pub fn work_horizon(&self) -> attila_sim::Horizon {
        if !self.fills.is_empty() || !self.pending_writebacks.is_empty() {
            return attila_sim::Horizon::Busy;
        }
        self.in_early.work_horizon().meet(self.in_late.work_horizon())
    }

    /// The box's declared interface for the architecture verifier.
    pub fn declared_ports(&self) -> Vec<attila_sim::PortDecl> {
        vec![self.in_early.decl(), self.in_late.decl()]
    }

    /// Objects waiting in the box's input queues.
    pub fn queued(&self) -> usize {
        self.in_early.len() + self.in_late.len() + self.pending_writebacks.len()
    }

    /// Fragments written so far.
    pub fn fragments_written(&self) -> u64 {
        self.stat_frags_written.value()
    }
}

/// Valid at a quiescent point (no fills or writebacks in flight). A bound
/// colour cache is rebuilt on the surface the file names before its lines
/// load (see [`RopCache::load_state`]).
impl JsonState for ColorWriteUnit {
    fn save_state(&self) -> Json {
        Json::obj([
            ("cache", self.cache.as_ref().map_or(Json::Null, RopCache::save_state)),
            ("prefer_late", self.prefer_late.to_json()),
            ("next_req_id", self.next_req_id.to_hex()),
        ])
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        self.cache = field_with(v, "cache", |c| match c {
            Json::Null => Ok(None),
            c => RopCache::load_state(self.config.cache.into(), "Color", c).map(Some),
        })?;
        self.prefer_late = field(v, "prefer_late")?;
        self.next_req_id = field_with(v, "next_req_id", u64::from_hex)?;
        Ok(())
    }
}
