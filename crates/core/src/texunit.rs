//! The Texture Unit.
//!
//! "The Texture Unit attached to each Fragment (or Unified) Shader
//! processes texture requests for a whole fragment quad. A small Texture
//! Cache exploits the high data locality of mipmapping and bilinear
//! filtering to reduce bandwidth usage. The implemented throughput is one
//! bilinear sample per cycle and one trilinear sample every two cycles."
//! (§2.2)
//!
//! The Section 5 case study detaches the units into a pool whose size is
//! swept from 3 down to 1; requests are distributed round-robin by the
//! Fragment FIFO, which (as the paper notes about its own "not properly
//! optimized" distribution) makes neighbouring quads land on different
//! units and replicates texture lines across their caches.

use attila_emu::texture::{TexelSource, TextureEmulator};
use attila_emu::vector::Vec4;
use attila_json::impl_json_state;
use attila_mem::controller::split_transactions;
use attila_mem::{Cache, Client, Lookup, MemOp, MemRequest, MemoryController, MemoryImage};
use attila_sim::{Counter, Cycle, Horizon, RunningCounter, SimError};

use crate::config::TextureConfig;
use crate::port::{PortReceiver, PortSender};
use crate::types::{QuadTexRequest, QuadTexReply};
use crate::unit::Unit;

/// The GPU memory image as a texel source that records the request's
/// footprint: the cache lines holding the first and last byte of every
/// read go into `lines`, which stays in ascending order without
/// duplicates so fills are issued deterministically — cache allocation
/// (and therefore cycle counts) must not vary run to run.
///
/// It keeps the two image pages its latest reads resolved: the taps of
/// one quad nearly always fall in one page, or in two when a trilinear
/// sample reads two mip levels, so they pay one page-table lookup per
/// page and then a slice load each.
struct FootprintSource<'a> {
    image: &'a MemoryImage,
    /// The pages resolved, most recent first: first address and bytes.
    pages: [(u64, &'a [u8]); 2],
    cache: &'a Cache,
    lines: &'a mut Vec<u64>,
}

impl<'a> FootprintSource<'a> {
    fn new(image: &'a MemoryImage, cache: &'a Cache, lines: &'a mut Vec<u64>) -> Self {
        FootprintSource { image, pages: [(0, &[]); 2], cache, lines }
    }

    fn note(&mut self, line: u64) {
        if let Err(at) = self.lines.binary_search(&line) {
            self.lines.insert(at, line);
        }
    }

    /// Copies `buf.len()` bytes at `addr` out of `page` if it holds them
    /// all.
    #[inline(always)]
    fn copy_from((base, bytes): (u64, &[u8]), addr: u64, buf: &mut [u8]) -> bool {
        let offset = addr.wrapping_sub(base) as usize;
        let hit = offset < bytes.len() && buf.len() <= bytes.len() - offset;
        if hit {
            buf.copy_from_slice(&bytes[offset..offset + buf.len()]);
        }
        hit
    }

    /// A read the most recent page does not hold: the other kept page,
    /// else a page-table lookup that replaces it. A read that straddles
    /// two pages goes to the image whole.
    #[inline(never)]
    fn read_other_page(&mut self, addr: u64, buf: &mut [u8]) {
        self.pages.swap(0, 1);
        if !Self::copy_from(self.pages[0], addr, buf) {
            self.pages[0] = self.image.page_at(addr);
            if !Self::copy_from(self.pages[0], addr, buf) {
                self.image.read(addr, buf);
            }
        }
    }
}

impl TexelSource for FootprintSource<'_> {
    // Inlined into the sampler: as a call, the copy below became a
    // `memcpy` call of its own.
    #[inline(always)]
    fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) {
        if !Self::copy_from(self.pages[0], addr, buf) {
            self.read_other_page(addr, buf);
        }
        let first = self.cache.line_addr(addr);
        let last = self.cache.line_addr(addr + buf.len() as u64 - 1);
        self.note(first);
        if last != first {
            self.note(last);
        }
    }
}

/// A request being serviced. Its cache-line bookkeeping lives in the
/// unit's `lines_todo` / `lines_pending`, whose buffers outlive requests.
#[derive(Debug)]
struct CurrentRequest {
    reply: QuadTexReply,
    /// Earliest cycle the filtering pipeline can deliver (throughput).
    ready_at: Cycle,
}

/// Removes the first entry of `list` matching `pred` (order is not kept:
/// these lists are keyed sets of a handful of entries) and returns it.
fn take_where<T>(list: &mut Vec<T>, pred: impl Fn(&T) -> bool) -> Option<T> {
    let at = list.iter().position(pred)?;
    Some(list.swap_remove(at))
}

/// One texture unit of the pool.
#[derive(Debug)]
pub struct TextureUnit {
    unit: u8,
    name: String,
    config: TextureConfig,
    /// Quad requests from the Fragment FIFO.
    pub in_requests: PortReceiver<QuadTexRequest>,
    /// Filtered quad replies back to the Fragment FIFO.
    pub out_replies: PortSender<QuadTexReply>,
    cache: Cache,
    emulator: TextureEmulator,
    current: Option<CurrentRequest>,
    /// Cache lines of the current request still to be looked up, in
    /// ascending address order.
    lines_todo: Vec<u64>,
    /// Lines of the current request with fills in flight.
    lines_pending: Vec<u64>,
    /// Outstanding fill transactions as `(request id, line)`.
    fills: Vec<(u64, u64)>,
    /// Transactions still outstanding per line being filled, as
    /// `(line, count)`.
    fills_per_line: Vec<(u64, usize)>,
    next_req_id: u64,
    stat_requests: Counter,
    stat_bilinear_ops: Counter,
    /// Cycles with a request in service, from the cycle it is accepted to
    /// the cycle its reply leaves — counted while the unit sleeps.
    stat_busy_cycles: RunningCounter,
    stat_bytes_read: Counter,
}

impl TextureUnit {
    /// The name unit `unit`'s signals and statistics are registered under.
    pub fn name_of(unit: usize) -> String {
        format!("Texture{unit}")
    }

    /// Builds one texture unit.
    pub fn new(
        unit: u8,
        config: TextureConfig,
        in_requests: PortReceiver<QuadTexRequest>,
        out_replies: PortSender<QuadTexReply>,
        stats: &mut attila_sim::StatsRegistry,
    ) -> Self {
        let name = Self::name_of(unit.into());
        TextureUnit {
            unit,
            cache: Cache::new(config.cache, "Texture"),
            config,
            in_requests,
            out_replies,
            emulator: TextureEmulator::new(),
            current: None,
            lines_todo: Vec::new(),
            lines_pending: Vec::new(),
            fills: Vec::new(),
            fills_per_line: Vec::new(),
            next_req_id: 0,
            stat_requests: stats.counter(&format!("{name}.requests")),
            stat_bilinear_ops: stats.counter(&format!("{name}.bilinear_samples")),
            stat_busy_cycles: stats.running_counter(&format!("{name}.busy_cycles")),
            stat_bytes_read: stats.counter(&format!("{name}.bytes_read")),
            name,
        }
    }

    /// The texture cache (hit-rate statistics for Figure 8).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Advances the unit one cycle.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the box's signals.
    pub fn clock(&mut self, cycle: Cycle, mem: &mut MemoryController) -> Result<(), SimError> {
        self.in_requests.try_update(cycle)?;
        self.out_replies.try_update(cycle)?;

        // Fill completions.
        while let Some(reply) = mem.pop_reply(Client::Texture(self.unit)) {
            if let Some((_, line)) = take_where(&mut self.fills, |(id, _)| *id == reply.id) {
                let at = self
                    .fills_per_line
                    .iter()
                    .position(|(l, _)| *l == line)
                    .expect("bookkeeping"); // reply ids only map to lines with live fill entries
                self.fills_per_line[at].1 -= 1;
                if self.fills_per_line[at].1 == 0 {
                    self.fills_per_line.swap_remove(at);
                    self.cache.fill_done(line);
                    take_where(&mut self.lines_pending, |l| *l == line);
                }
            }
        }

        // Accept a new request.
        if self.current.is_none() {
            if let Some(req) = self.in_requests.try_pop(cycle)? {
                self.stat_requests.inc();
                self.stat_busy_cycles.start(cycle);
                self.current = Some(self.start_request(cycle, mem, req));
            }
        }

        // Progress the current request: resolve outstanding cache lines.
        let mut done = false;
        if let Some(cur) = &mut self.current {
            // Resolve outstanding lines in place: `retain` keeps the
            // still-blocked ones without building a fresh vector every
            // cycle the request waits.
            let cache = &mut self.cache;
            let fills = &mut self.fills;
            let fills_per_line = &mut self.fills_per_line;
            let next_req_id = &mut self.next_req_id;
            let stat_bytes_read = &self.stat_bytes_read;
            let unit = self.unit;
            let lines_pending = &mut self.lines_pending;
            self.lines_todo.retain(|&line| {
                match cache.lookup(cycle, line, false) {
                    Lookup::Hit => false,
                    Lookup::Blocked => true,
                    Lookup::Miss => {
                        let line_bytes = cache.config().line_bytes;
                        // Reserve controller slots before allocating the
                        // frame so a full queue never leaves a pending
                        // line without a fill in flight.
                        if mem.free_slots(Client::Texture(unit), line)
                            < line_bytes.div_ceil(64) as usize
                        {
                            return true;
                        }
                        match cache.allocate(line) {
                            Ok(_evict) => {
                                // Texture lines are never dirty;
                                // evictions are silent. Issue the fill.
                                let mut count = 0;
                                for (addr, size) in
                                    split_transactions(line, line_bytes as u64)
                                {
                                    let id = *next_req_id;
                                    *next_req_id += 1;
                                    fills.push((id, line));
                                    mem.submit(MemRequest {
                                        id,
                                        client: Client::Texture(unit),
                                        addr,
                                        op: MemOp::TimingRead { size },
                                    })
                                    .expect("slots reserved");
                                    count += 1;
                                }
                                fills_per_line.push((line, count));
                                stat_bytes_read.add(line_bytes as u64);
                                lines_pending.push(line);
                                false
                            }
                            Err(()) => true,
                        }
                    }
                }
            });
            if self.lines_todo.is_empty()
                && self.lines_pending.is_empty()
                && cycle >= cur.ready_at
                && self.out_replies.can_send(cycle)
            {
                done = true;
            }
        }
        if done {
            // `done` is only set while a request is current.
            let cur = self.current.take().expect("checked");
            self.stat_busy_cycles.stop(cycle);
            self.out_replies.try_send(cycle, cur.reply)?;
        }
        Ok(())
    }

    /// Functionally samples the quad and computes its timing footprint.
    fn start_request(
        &mut self,
        cycle: Cycle,
        mem: &MemoryController,
        req: QuadTexRequest,
    ) -> CurrentRequest {
        debug_assert!(self.lines_todo.is_empty() && self.lines_pending.is_empty());
        let Some(desc) = req.batch.state.sampler_desc(req.sampler, self.config.max_aniso) else {
            // Unbound sampler: sample as opaque black, zero cost.
            return CurrentRequest {
                reply: QuadTexReply {
                    id: req.id,
                    shader_unit: req.shader_unit,
                    texels: [Vec4::new(0.0, 0.0, 0.0, 1.0); 4],
                    group: req.group,
                },
                ready_at: cycle + 1,
            };
        };
        let mut source = FootprintSource::new(mem.gpu_mem(), &self.cache, &mut self.lines_todo);
        let results =
            self.emulator.sample_quad(&desc, &mut source, &req.coords, req.lod_bias, req.projective);
        let texels = results.map(|r| r.value);
        let ops: u32 = results.iter().map(|r| r.bilinear_ops).sum();
        self.stat_bilinear_ops.add(ops as u64);
        let cost = (ops / self.config.bilinears_per_cycle.max(1)).max(1) as u64;
        CurrentRequest {
            reply: QuadTexReply {
                id: req.id,
                shader_unit: req.shader_unit,
                texels,
                group: req.group,
            },
            ready_at: cycle + cost,
        }
    }

    /// Quad requests serviced so far.
    pub fn requests_serviced(&self) -> u64 {
        self.stat_requests.value()
    }

    /// Cycles this unit was occupied (Figure 9's TU utilization).
    pub fn busy_cycles(&self) -> u64 {
        self.stat_busy_cycles.value()
    }

    /// Bytes fetched from memory for texture fills (Figure 8's texture
    /// bandwidth).
    pub fn bytes_read(&self) -> u64 {
        self.stat_bytes_read.value()
    }
}

impl Unit for TextureUnit {
    fn name(&self) -> &str {
        &self.name
    }

    fn client(&self) -> Option<Client> {
        Some(Client::Texture(self.unit))
    }

    fn busy(&self) -> bool {
        self.current.is_some() || !self.in_requests.idle() || !self.fills.is_empty()
    }

    /// The box's event horizon (see [`Horizon`]). Without a request in
    /// service: `Busy` while one is queued. With one, a clock can only
    /// progress while lines wait to be looked up (`Busy`), or once every
    /// line has resolved and a reply credit is held (`IdleUntil` the
    /// filter's `ready_at`); otherwise it waits for a fill — a memory reply
    /// wakes it — or for the credit, whose wire wakes it.
    fn work_horizon(&self) -> Horizon {
        match &self.current {
            None if !self.in_requests.is_empty() => Horizon::Busy,
            None => Horizon::Idle,
            Some(_) if !self.lines_todo.is_empty() => Horizon::Busy,
            Some(cur) if self.lines_pending.is_empty() && self.out_replies.credits() > 0 => {
                Horizon::IdleUntil(cur.ready_at)
            }
            Some(_) => Horizon::Idle,
        }
    }

    fn queued(&self) -> usize {
        self.in_requests.len() + usize::from(self.current.is_some())
    }
}

// Valid at a quiescent point (no request in service, no outstanding
// fills); a file whose cache geometry differs is refused.
impl_json_state!(TextureUnit { cache: state, next_req_id: hex } skip {
    "wiring: rebuilt at elaboration": config, in_requests, out_replies, stat_requests,
        stat_bilinear_ops, stat_busy_cycles, stat_bytes_read;
    "derived: the unit index fixed at construction, and the name built from it": unit, name;
    "derived: rebuilt from the trace at elaboration": emulator;
    "transient: in-flight request and fill bookkeeping, drained at the quiescent boundary":
        current, lines_todo, lines_pending, fills, fills_per_line;
});
