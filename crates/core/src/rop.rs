//! The ROP cache engine: the cache machine the Z & Stencil test unit and
//! the Colour Write unit share.
//!
//! "The architecture of the Color Write unit is very similar to that of
//! the Z and Stencil test unit" (§2.2): both keep a [`RopCache`] over the
//! bound surface, fill missing lines, write dirty lines back (compressed
//! when enabled) on eviction, render-target switch and end of frame, and
//! fast-clear without touching memory. The two boxes keep what differs:
//! the per-fragment operation, their ports, and the HZ feedback, which
//! watches evictions through [`OnEvict`].
//!
//! The order of controller submissions *is* the timing: an eviction's
//! writes take request ids before the fill's reads, and a fill starts only
//! with room for the worst case of both.

use std::collections::{BTreeMap, VecDeque};

use attila_emu::fragops::{compress_z_block, ZBLOCK_WORDS};
use attila_json::{field_with, HexJson, Json, JsonError};
use attila_mem::controller::split_transactions;
use attila_mem::{CacheConfig, Client, Lookup, MemOp, MemRequest, MemoryController, RopCache};
use attila_sim::{Cycle, SimError};

use crate::address::FB_TILE_BYTES;
use crate::config::RopConfig;

/// Called for each dirty line written back, with the line's block index
/// within the surface and its words as memory holds them.
pub(crate) type OnEvict<'a> = &'a mut dyn FnMut(usize, &[u32; ZBLOCK_WORDS]);

/// One ROP unit's cache with its fill, write-back and rebind machinery.
#[derive(Debug)]
pub(crate) struct RopEngine {
    client: Client,
    /// The cache's statistic name, `"Z"` or `"Color"`.
    label: &'static str,
    geometry: CacheConfig,
    compression: bool,
    cache: Option<RopCache>,
    /// Outstanding fill transactions per line.
    fills: BTreeMap<u64, usize>,
    reply_to_line: BTreeMap<u64, u64>,
    /// Writeback transactions awaiting controller queue space.
    pending_writebacks: VecDeque<(u64, u32)>,
    next_req_id: u64,
}

impl RopEngine {
    /// An unbound engine submitting as `client`.
    pub(crate) fn new(client: Client, label: &'static str, config: &RopConfig) -> Self {
        RopEngine {
            client,
            label,
            geometry: config.cache.into(),
            compression: config.compression,
            cache: None,
            fills: BTreeMap::new(),
            reply_to_line: BTreeMap::new(),
            pending_writebacks: VecDeque::new(),
            next_req_id: 0,
        }
    }

    /// The memory-controller client the engine submits as.
    pub(crate) fn client(&self) -> Client {
        self.client
    }

    /// The cache, if bound.
    pub(crate) fn cache(&self) -> Option<&RopCache> {
        self.cache.as_ref()
    }

    /// (Re)binds the cache to a surface and fast-clears it.
    pub(crate) fn fast_clear(
        &mut self,
        mem: &mut MemoryController,
        base: u64,
        len: u64,
        word: u32,
        on_evict: OnEvict<'_>,
    ) {
        // The Command Processor only clears with the pipeline drained, so
        // the rebind never has to wait here.
        let ready = self.bind(mem, base, len, on_evict);
        assert!(ready, "fast clear issued with fills in flight");
        self.cache.as_mut().expect("bound").fast_clear(mem.gpu_mem_mut(), word);
    }

    /// Returns `true` when the cache is bound to `(base, len)` and ready.
    /// Rebinding (render-target switch) waits for in-flight fills and
    /// writes the old surface's dirty lines back first.
    pub(crate) fn bind(
        &mut self,
        mem: &mut MemoryController,
        base: u64,
        len: u64,
        on_evict: OnEvict<'_>,
    ) -> bool {
        if self.cache.as_ref().is_some_and(|c| c.base() == base && c.len() == len) {
            return true;
        }
        if !self.fills.is_empty() {
            return false; // drain outstanding fills of the old surface
        }
        self.flush(mem, on_evict);
        self.cache = Some(RopCache::new(self.geometry, self.label, base, len));
        true
    }

    /// Completes the fills whose replies the controller holds.
    pub(crate) fn collect_replies(&mut self, mem: &mut MemoryController) {
        while let Some(reply) = mem.pop_reply(self.client) {
            if let Some(line) = self.reply_to_line.remove(&reply.id) {
                // Reply ids only map to lines with live fill entries.
                let left = self.fills.get_mut(&line).expect("fill bookkeeping");
                *left -= 1;
                if *left == 0 {
                    self.fills.remove(&line);
                    if let Some(cache) = &mut self.cache {
                        cache.fill_done(line);
                    }
                }
            }
        }
    }

    /// Submits queued writebacks as controller space frees up.
    pub(crate) fn drain_writebacks(&mut self, mem: &mut MemoryController) {
        while let Some(&(addr, size)) = self.pending_writebacks.front() {
            if self.submit(mem, addr, MemOp::TimingWrite { size }).is_none() {
                break;
            }
            self.pending_writebacks.pop_front();
        }
    }

    /// Whether `line` of the bound surface is resident; a miss starts its
    /// fill and reports `false` until the data lands.
    pub(crate) fn resident(
        &mut self,
        cycle: Cycle,
        mem: &mut MemoryController,
        line: u64,
        on_evict: OnEvict<'_>,
    ) -> bool {
        let cache = self.cache.as_mut().expect("bind() returned ready");
        match cache.lookup(cycle, line, false) {
            Lookup::Hit => true,
            Lookup::Blocked => false,
            Lookup::Miss => {
                self.start_fill(mem, line, on_evict);
                false
            }
        }
    }

    /// Marks a resident line dirty.
    pub(crate) fn mark_dirty(&mut self, line: u64) {
        self.cache.as_mut().expect("bind() returned ready").mark_dirty(line);
    }

    /// Starts filling `line`, writing back the dirty line it displaces.
    fn start_fill(&mut self, mem: &mut MemoryController, line: u64, on_evict: OnEvict<'_>) {
        if self.fills.contains_key(&line) {
            return; // already in flight
        }
        // Reserve controller slots for the worst case: 4 evict + 4 fill.
        if mem.free_slots(self.client, line) < 8 {
            return;
        }
        let Some(cache) = self.cache.as_mut() else { return };
        let Ok((fill_bytes, eviction)) = cache.allocate(line) else { return };
        if let Some(ev) = eviction {
            self.write_back(mem, ev.line_addr, on_evict);
        }
        if fill_bytes == 0 {
            // Cleared block: no memory traffic; the functional image
            // already holds the clear value.
            self.cache.as_mut().expect("allocated above").fill_done(line);
            return;
        }
        let mut count = 0;
        for (addr, size) in split_transactions(line, fill_bytes as u64) {
            let id = self.submit(mem, addr, MemOp::TimingRead { size }).expect("slots reserved");
            self.reply_to_line.insert(id, line);
            count += 1;
        }
        self.fills.insert(line, count);
    }

    /// Writes every dirty line back (end of frame, render-target switch).
    pub(crate) fn flush(&mut self, mem: &mut MemoryController, on_evict: OnEvict<'_>) {
        let Some(cache) = self.cache.as_mut() else { return };
        for ev in cache.flush() {
            self.write_back(mem, ev.line_addr, on_evict);
        }
    }

    /// The one eviction sequence: reads the line's actual words
    /// (execution-driven), compresses them when enabled — colour
    /// compression is future work in the paper; the ablation runs the Z
    /// cache's lossless delta scheme over the RGBA words — and submits the
    /// write-back.
    fn write_back(&mut self, mem: &mut MemoryController, line_addr: u64, on_evict: OnEvict<'_>) {
        let mut words = [0u32; ZBLOCK_WORDS];
        for (i, w) in words.iter_mut().enumerate() {
            *w = mem.gpu_mem().read_u32(line_addr + i as u64 * 4);
        }
        let compressed = self.compression.then(|| compress_z_block(&words).level.bytes() as u32);
        let cache = self.cache.as_mut().expect("only a bound cache evicts");
        let bytes = cache.evict_dirty(line_addr, compressed);
        // Block index == line index in a tiled surface.
        let block = ((line_addr - cache.base()) / FB_TILE_BYTES as u64) as usize;
        for (addr, size) in split_transactions(line_addr, bytes as u64) {
            if self.submit(mem, addr, MemOp::TimingWrite { size }).is_none() {
                // Controller full: drained from clock() later so no
                // writeback traffic is ever dropped.
                self.pending_writebacks.push_back((addr, size));
            }
        }
        on_evict(block, &words);
    }

    /// Submits one transaction and returns its request id, or `None` when
    /// the controller's queue is full; ids advance on accepted ones only.
    fn submit(&mut self, mem: &mut MemoryController, addr: u64, op: MemOp) -> Option<u64> {
        let id = self.next_req_id;
        mem.submit(MemRequest { id, client: self.client, addr, op }).ok()?;
        self.next_req_id += 1;
        Some(id)
    }

    /// Whether fills or writebacks are outstanding.
    pub(crate) fn outstanding(&self) -> bool {
        !self.fills.is_empty() || !self.pending_writebacks.is_empty()
    }

    /// Writeback transactions waiting for controller space.
    pub(crate) fn queued(&self) -> usize {
        self.pending_writebacks.len()
    }

    /// The engine's entries of the owning unit's state object, which the
    /// unit places among its own keys. Valid at a quiescent point.
    pub(crate) fn save_state(&self) -> [(&'static str, Json); 2] {
        let Self {
            cache,
            next_req_id,
            // Fixed at construction from the unit index and configuration.
            client: _,
            label: _,
            geometry: _,
            compression: _,
            // In-flight fill/writeback bookkeeping, drained at the
            // quiescent checkpoint boundary.
            fills: _,
            reply_to_line: _,
            pending_writebacks: _,
        } = self;
        [
            ("cache", cache.as_ref().map_or(Json::Null, RopCache::save_state)),
            ("next_req_id", next_req_id.to_hex()),
        ]
    }

    /// Loads [`save_state`](Self::save_state)'s keys from the unit's
    /// object. A bound cache is rebuilt on the surface the file names
    /// before its lines load (see [`RopCache::load_state`]).
    pub(crate) fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        let Self {
            cache,
            next_req_id,
            label,
            geometry,
            client: _,
            compression: _,
            fills: _,
            reply_to_line: _,
            pending_writebacks: _,
        } = self;
        *cache = field_with(v, "cache", |c| match c {
            Json::Null => Ok(None),
            c => RopCache::load_state(*geometry, label, c).map(Some),
        })?;
        *next_req_id = field_with(v, "next_req_id", u64::from_hex)?;
        Ok(())
    }
}

/// One arbitration round between a unit's early and late inputs: the
/// preferred input gets the first try, the other the second. Returns which
/// input (`late`?) made progress, for the caller to prefer the other next.
pub(crate) fn arbitrate(
    prefer_late: bool,
    mut try_head: impl FnMut(bool) -> Result<bool, SimError>,
) -> Result<Option<bool>, SimError> {
    for late in [prefer_late, !prefer_late] {
        if try_head(late)? {
            return Ok(Some(late));
        }
    }
    Ok(None)
}
