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

use crate::address::{pixel_address, FB_BYTES_PER_PIXEL, FB_TILE_BYTES};
use crate::types::FragQuad;

/// Called for each dirty line written back, with the line's block index
/// within the surface and its words as memory holds them.
pub(crate) type OnEvict<'a> = &'a mut dyn FnMut(usize, &[u32; ZBLOCK_WORDS]);

/// Whether a head quad's surface is bound and its line resident, and if
/// not, whether the next cycle can change that by itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// The quad may proceed.
    Ready,
    /// Only an event that wakes the unit can change the answer
    /// (DESIGN.md §14). The engine's is a memory reply: the line's own
    /// fill is in flight, every way of its set is pending, or a rebind
    /// waits for the old surface's fills. A unit's head quad also waits on
    /// an output credit, and an empty input on an arrival.
    Waiting,
    /// Asking again next cycle may succeed: the lookup found the cache's
    /// ports taken and no fill of the line in flight, the miss found the
    /// controller without room for the fill, or it hit a cleared block,
    /// which is resident from the next lookup on.
    Retry,
}

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
    pub(crate) fn new(
        client: Client,
        label: &'static str,
        geometry: CacheConfig,
        compression: bool,
    ) -> Self {
        RopEngine {
            client,
            label,
            geometry,
            compression,
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
        let access = self.bind(mem, base, len, on_evict);
        assert_eq!(access, Access::Ready, "fast clear issued with fills in flight");
        self.cache.as_mut().expect("bound").fast_clear(mem.gpu_mem_mut(), word);
    }

    /// Whether the cache is bound to `(base, len)`. Rebinding
    /// (render-target switch) waits for in-flight fills and writes the old
    /// surface's dirty lines back first.
    pub(crate) fn bind(
        &mut self,
        mem: &mut MemoryController,
        base: u64,
        len: u64,
        on_evict: OnEvict<'_>,
    ) -> Access {
        if self.cache.as_ref().is_some_and(|c| c.base() == base && c.len() == len) {
            return Access::Ready;
        }
        if !self.fills.is_empty() {
            return Access::Waiting; // drain outstanding fills of the old surface
        }
        self.flush(mem, on_evict);
        self.cache = Some(RopCache::new(self.geometry, self.label, base, len));
        Access::Ready
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
    /// fill, and the line is not ready until the data lands.
    pub(crate) fn resident(
        &mut self,
        cycle: Cycle,
        mem: &mut MemoryController,
        line: u64,
        on_evict: OnEvict<'_>,
    ) -> Access {
        let cache = self.cache.as_mut().expect("bind() returned ready");
        match cache.lookup(cycle, line, false) {
            Lookup::Hit => Access::Ready,
            // A line is pending exactly while its fill is in flight.
            Lookup::Blocked if self.fills.contains_key(&line) => Access::Waiting,
            Lookup::Blocked => Access::Retry,
            Lookup::Miss => self.start_fill(mem, line, on_evict),
        }
    }

    /// Marks a resident line dirty.
    pub(crate) fn mark_dirty(&mut self, line: u64) {
        self.cache.as_mut().expect("bind() returned ready").mark_dirty(line);
    }

    /// Starts filling `line`, writing back the dirty line it displaces,
    /// and answers what the line waits for.
    fn start_fill(
        &mut self,
        mem: &mut MemoryController,
        line: u64,
        on_evict: OnEvict<'_>,
    ) -> Access {
        if self.fills.contains_key(&line) {
            return Access::Waiting; // already in flight
        }
        // Reserve controller slots for the worst case: 4 evict + 4 fill.
        if mem.free_slots(self.client, line) < 8 {
            return Access::Retry;
        }
        let cache = self.cache.as_mut().expect("bind() returned ready");
        let Ok((fill_bytes, eviction)) = cache.allocate(line) else {
            return Access::Waiting; // every way of the set is pending
        };
        if let Some(ev) = eviction {
            self.write_back(mem, ev.line_addr, on_evict);
        }
        if fill_bytes == 0 {
            // Cleared block: no memory traffic; the functional image
            // already holds the clear value.
            self.cache.as_mut().expect("allocated above").fill_done(line);
            return Access::Retry;
        }
        let mut count = 0;
        for (addr, size) in split_transactions(line, fill_bytes as u64) {
            let id = self.submit(mem, addr, MemOp::TimingRead { size }).expect("slots reserved");
            self.reply_to_line.insert(id, line);
            count += 1;
        }
        self.fills.insert(line, count);
        Access::Waiting
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
        let mut bytes = [0u8; ZBLOCK_WORDS * 4];
        mem.gpu_mem().read(line_addr, &mut bytes);
        let mut words = [0u32; ZBLOCK_WORDS];
        for (w, b) in words.iter_mut().zip(bytes.chunks_exact(4)) {
            *w = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
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

    /// Writeback transactions waiting for controller space: work no
    /// wake-up event announces, so the unit stays `Busy` while any wait.
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

/// What one arbitration round between a unit's inputs came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Round {
    /// The head quad of this input (`late`?) was consumed.
    Took(bool),
    /// Neither head moved; `waiting` when each input answered
    /// [`Access::Waiting`]: only an event that wakes the unit can change
    /// that.
    Stalled {
        /// Whether both inputs wait on a wake-up event.
        waiting: bool,
    },
}

/// The surface bytes under `quad`'s four pixels, for both units'
/// per-fragment read-modify-write: each pixel's byte offset into the
/// span, and the span, which the memory image resolves with one page
/// lookup instead of one per access.
pub(crate) fn quad_pixels<'m>(
    mem: &'m mut MemoryController,
    quad: &FragQuad,
    base: u64,
    width: u32,
) -> ([usize; 4], &'m mut [u8]) {
    let addrs = [0, 1, 2, 3].map(|i| {
        let (x, y) = quad.frag_coords(i);
        pixel_address(base, width, x, y)
    });
    let lo = addrs.into_iter().min().expect("four pixels");
    let end = addrs.into_iter().max().expect("four pixels") + u64::from(FB_BYTES_PER_PIXEL);
    let span = mem.gpu_mem_mut().bytes_mut(lo, (end - lo) as usize);
    (addrs.map(|a| (a - lo) as usize), span)
}

/// One arbitration round between a unit's early and late inputs: the
/// preferred input gets the first try, the other the second. `try_head`
/// answers `Ready` once it consumed the input's head quad. On progress the
/// round names the input, for the caller to prefer the other next.
pub(crate) fn arbitrate(
    prefer_late: bool,
    mut try_head: impl FnMut(bool) -> Result<Access, SimError>,
) -> Result<Round, SimError> {
    let mut waiting = true;
    for late in [prefer_late, !prefer_late] {
        match try_head(late)? {
            Access::Ready => return Ok(Round::Took(late)),
            Access::Waiting => {}
            Access::Retry => waiting = false,
        }
    }
    Ok(Round::Stalled { waiting })
}
