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

use std::collections::{BTreeMap, VecDeque};

use attila_emu::fragops::{
    compress_z_block, quantize_depth, unpack_depth_stencil, z_stencil_test, DEPTH_MAX,
    ZBLOCK_WORDS,
};
use attila_json::{field, field_with, HexJson, Json, JsonError, JsonState, ToJson};
use attila_mem::controller::split_transactions;
use attila_mem::{Client, MemOp, MemRequest, MemoryController, RopCache};
use attila_sim::{Counter, Cycle, SimError};

use crate::address::{pixel_address, surface_bytes, tile_address, FB_TILE_BYTES};
use crate::config::RopConfig;
use crate::hz::HzUpdate;
use crate::port::{PortReceiver, PortSender};
use crate::types::FragQuad;

/// The Z & stencil test box (one instance per configured unit).
#[derive(Debug)]
pub struct ZStencilUnit {
    unit: u8, // state: derived — unit index fixed at construction
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

    cache: Option<RopCache>,
    target_width: u32,
    // state: transient — in-flight fill/writeback/HZ-update bookkeeping,
    // drained at the quiescent checkpoint boundary
    /// Outstanding fill transactions per line.
    fills: BTreeMap<u64, usize>,
    reply_to_line: BTreeMap<u64, u64>,
    /// Writeback transactions awaiting controller queue space.
    pending_writebacks: std::collections::VecDeque<(u64, u32)>,
    hz_queue: VecDeque<HzUpdate>,
    // state: checkpointed
    prefer_late: bool,
    next_req_id: u64,

    stat_quads: Counter,
    stat_frags_tested: Counter,
    stat_frags_passed: Counter,
    stat_busy_cycles: Counter,
}

impl ZStencilUnit {
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
        let prefix = format!("ZStencil{unit}");
        ZStencilUnit {
            unit,
            config,
            in_early,
            in_late,
            out_early,
            out_late,
            out_hz,
            cache: None,
            target_width: 0,
            fills: BTreeMap::new(),
            reply_to_line: BTreeMap::new(),
            pending_writebacks: std::collections::VecDeque::new(),
            hz_queue: VecDeque::new(),
            prefer_late: false,
            next_req_id: 0,
            stat_quads: stats.counter(&format!("{prefix}.quads")),
            stat_frags_tested: stats.counter(&format!("{prefix}.fragments_tested")),
            stat_frags_passed: stats.counter(&format!("{prefix}.fragments_passed")),
            stat_busy_cycles: stats.counter(&format!("{prefix}.busy_cycles")),
        }
    }

    /// The memory-controller client id of this unit.
    pub fn client(&self) -> Client {
        Client::ZStencil(self.unit)
    }

    /// (Re)binds the cache to a depth buffer and fast-clears it.
    pub fn fast_clear(&mut self, mem: &mut MemoryController, base: u64, len: u64, word: u32) {
        // The Command Processor only clears with the pipeline drained, so
        // the rebind never has to wait here.
        let ready = self.rebind_cache(mem, base, len);
        assert!(ready, "fast clear issued with fills in flight");
        self.cache.as_mut().expect("bound").fast_clear(mem.gpu_mem_mut(), word);
    }

    /// Returns `true` when the cache is bound to `(base, len)` and ready.
    /// Rebinding (render-target switch) waits for in-flight fills and
    /// flushes the old surface (writebacks + HZ references) first.
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
        self.cache = Some(RopCache::new(self.config.cache.into(), "Z", base, len));
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
        self.out_early.try_update(cycle)?;
        self.out_late.try_update(cycle)?;
        self.out_hz.try_update(cycle)?;

        // Complete fills.
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
            // Alternate between the early and late inputs for fairness.
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
            let quad = input.try_pop(cycle)?.expect("peeked"); // lint:allow(clock-unwrap) head existence checked via peek above
            self.stat_quads.inc();
            self.stat_frags_tested.add(quad.live_count() as u64);
            self.stat_frags_passed.add(quad.live_count() as u64);
            self.forward(cycle, quad, late)?;
            return Ok(true);
        }

        let z_base = state.z_buffer;
        let len = surface_bytes(state.target_width, state.target_height);
        if !self.rebind_cache(mem, z_base, len) {
            return Ok(false); // old surface still draining
        }
        self.target_width = state.target_width;
        let line = tile_address(z_base, state.target_width, qx, qy);

        // Line must be resident.
        let cache = self.cache.as_mut().expect("ensured"); // lint:allow(clock-unwrap) rebind_cache returned ready
        match cache.lookup(cycle, line, false) {
            attila_mem::Lookup::Hit => {}
            attila_mem::Lookup::Blocked => return Ok(false),
            attila_mem::Lookup::Miss => {
                self.start_fill(cycle, mem, line);
                return Ok(false);
            }
        }

        // Resident: test the quad's live fragments. Back-facing
        // triangles may use the separate stencil state (double-sided
        // stencil for one-pass shadow volumes).
        let input = if late { &mut self.in_late } else { &mut self.in_early };
        let mut quad = input.try_pop(cycle)?.expect("peeked"); // lint:allow(clock-unwrap) head existence checked via peek above
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
            self.cache.as_mut().expect("ensured").mark_dirty(line); // lint:allow(clock-unwrap) rebind_cache returned ready
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

    /// Starts filling `line`, performing any needed dirty eviction with
    /// compression and HZ reference extraction.
    fn start_fill(&mut self, _cycle: Cycle, mem: &mut MemoryController, line: u64) {
        if self.fills.contains_key(&line) {
            return; // already in flight
        }
        // Reserve controller slots for the worst case: 4 evict + 4 fill.
        if mem.free_slots(self.client(), line) < 8 {
            return;
        }
        let client = self.client();
        let mut next_id = self.next_req_id;
        let compression = self.config.compression;
        let mut hz_update: Option<HzUpdate> = None;
        let mut fill_ids = Vec::new();
        let Some(cache) = self.cache.as_mut() else { return };
        let Ok((fill_bytes, eviction)) = cache.allocate(line) else { return };

        if let Some(ev) = eviction {
            // Read the actual line words (execution-driven) to compress
            // and to compute the HZ reference.
            let mut words = [0u32; ZBLOCK_WORDS];
            let mut max_depth_q = 0u32;
            for (i, w) in words.iter_mut().enumerate() {
                *w = mem.gpu_mem().read_u32(ev.line_addr + i as u64 * 4);
                let (d, _) = unpack_depth_stencil(*w);
                max_depth_q = max_depth_q.max(d);
            }
            let compressed = if compression {
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
            // HZ reference from the evicted block (block index == line
            // index in a tiled surface).
            let block = ((ev.line_addr - cache.base()) / FB_TILE_BYTES as u64) as usize;
            hz_update = Some(HzUpdate {
                block,
                max_depth: max_depth_q as f32 / DEPTH_MAX as f32,
            });
        }

        if fill_bytes == 0 {
            // Cleared block: no memory traffic; the functional image
            // already holds the clear value.
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
        if let Some(u) = hz_update {
            self.hz_queue.push_back(u);
        }
    }

    /// Flushes the Z cache at end of frame, charging writeback traffic.
    pub fn flush(&mut self, mem: &mut MemoryController) {
        let client = self.client();
        let compression = self.config.compression;
        let mut hz_updates = Vec::new();
        let mut pending: Vec<(u64, u32)> = Vec::new();
        if let Some(cache) = self.cache.as_mut() {
            let base = cache.base();
            for ev in cache.flush() {
                let mut words = [0u32; ZBLOCK_WORDS];
                let mut max_q = 0u32;
                for (i, w) in words.iter_mut().enumerate() {
                    *w = mem.gpu_mem().read_u32(ev.line_addr + i as u64 * 4);
                    max_q = max_q.max(unpack_depth_stencil(*w).0);
                }
                let compressed = if compression {
                    Some(compress_z_block(&words).level.bytes() as u32)
                } else {
                    None
                };
                let bytes = cache.evict_dirty(ev.line_addr, compressed);
                let mut id_src = self.next_req_id;
                for (addr, size) in split_transactions(ev.line_addr, bytes as u64) {
                    if mem.can_accept(client, addr)
                        && mem
                            .submit(MemRequest {
                                id: id_src,
                                client,
                                addr,
                                op: MemOp::TimingWrite { size },
                            })
                            .is_ok()
                    {
                        id_src += 1;
                    } else {
                        // Controller full: drained from clock() later so
                        // no writeback traffic is ever dropped.
                        pending.push((addr, size));
                    }
                }
                self.next_req_id = id_src;
                hz_updates.push(HzUpdate {
                    block: ((ev.line_addr - base) / FB_TILE_BYTES as u64) as usize,
                    max_depth: max_q as f32 / DEPTH_MAX as f32,
                });
            }
        }
        self.hz_queue.extend(hz_updates);
        self.pending_writebacks.extend(pending);
    }

    /// The Z cache, if bound.
    pub fn cache(&self) -> Option<&RopCache> {
        self.cache.as_ref()
    }

    /// Whether work is in flight.
    pub fn busy(&self) -> bool {
        !self.in_early.idle()
            || !self.in_late.idle()
            || !self.fills.is_empty()
            || !self.pending_writebacks.is_empty()
            || !self.hz_queue.is_empty()
    }

    /// The box's event horizon: busy while fills, writebacks or HZ
    /// updates are outstanding, otherwise the earliest arrival across
    /// both quad wires (see [`attila_sim::Horizon`]).
    pub fn work_horizon(&self) -> attila_sim::Horizon {
        if !self.fills.is_empty()
            || !self.pending_writebacks.is_empty()
            || !self.hz_queue.is_empty()
        {
            return attila_sim::Horizon::Busy;
        }
        self.in_early.work_horizon().meet(self.in_late.work_horizon())
    }

    /// The box's declared interface for the architecture verifier.
    pub fn declared_ports(&self) -> Vec<attila_sim::PortDecl> {
        vec![
            self.in_early.decl(),
            self.in_late.decl(),
            self.out_early.decl(),
            self.out_late.decl(),
            self.out_hz.decl(),
        ]
    }

    /// Objects waiting in the box's input queues.
    pub fn queued(&self) -> usize {
        self.in_early.len()
            + self.in_late.len()
            + self.hz_queue.len()
            + self.pending_writebacks.len()
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

/// Valid at a quiescent point (no fills, writebacks or HZ updates in
/// flight). A bound Z cache is rebuilt on the surface the file names
/// before its lines load (see [`RopCache::load_state`]).
impl JsonState for ZStencilUnit {
    fn save_state(&self) -> Json {
        Json::obj([
            ("cache", self.cache.as_ref().map_or(Json::Null, RopCache::save_state)),
            ("target_width", self.target_width.to_json()),
            ("prefer_late", self.prefer_late.to_json()),
            ("next_req_id", self.next_req_id.to_hex()),
        ])
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        self.cache = field_with(v, "cache", |c| match c {
            Json::Null => Ok(None),
            c => RopCache::load_state(self.config.cache.into(), "Z", c).map(Some),
        })?;
        self.target_width = field(v, "target_width")?;
        self.prefer_late = field(v, "prefer_late")?;
        self.next_req_id = field_with(v, "next_req_id", u64::from_hex)?;
        Ok(())
    }
}
