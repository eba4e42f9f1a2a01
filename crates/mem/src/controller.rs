//! The Memory Controller: channels, crossbar queues and the system bus.
//!
//! Per the paper (§2.2), the Memory Controller "is the unit that interfaces
//! with GPU memory and system memory (AGP or PCI Express)"; four channels
//! provide up to 64 bytes per cycle, interleaved on a 256-byte basis, and
//! "a number of queues and dedicated buses of configurable width conform a
//! complex crossbar that services the memory requests for the different
//! GPU units". The system bus resembles PCIe x16: two channels, one for
//! reads and one for writes.
//!
//! Arbitration is round-robin over clients with *row-hit priority*
//! (FR-FCFS-lite): when a channel's data bus frees, the first queued
//! request — scanning client slots from the rotation pointer — whose DRAM
//! row is already open issues first; absent any hit the plain rotation
//! order stands. The winner advances the pointer either way, so no client
//! starves: a stream of hits from one client moves the pointer past it,
//! handing the next free slot to its neighbours.

use std::collections::VecDeque;
use std::sync::Arc;

use attila_json::{
    array, field, field_with, impl_json_struct, FromJson, HexJson, Json, JsonError, JsonState,
    ToJson,
};
use attila_sim::{Cycle, SignalName, TraceEvent, TraceSink};

use crate::gddr::{Direction, GddrChannel, IssueReport};
use crate::memory::MemoryImage;

/// The GPU units that issue memory transactions (crossbar clients).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Client {
    /// Command Processor (buffer uploads, register state).
    CommandProcessor,
    /// Streamer (vertex/index fetch).
    Streamer,
    /// Z & Stencil test unit `n` (Z cache fills/evictions).
    ZStencil(u8),
    /// Colour write unit `n` (colour cache fills/evictions).
    ColorWrite(u8),
    /// Texture unit `n` (texture cache fills).
    Texture(u8),
    /// The DAC (screen refresh / frame dump reads).
    Dac,
}

impl Client {
    /// Dense slot index for per-client reply queues. Unit-numbered
    /// variants interleave (`3 + 3u`, `4 + 3u`, `5 + 3u`), so the index
    /// stays compact for any unit count without a per-type bound.
    const fn index(self) -> usize {
        match self {
            Client::CommandProcessor => 0,
            Client::Streamer => 1,
            Client::Dac => 2,
            Client::ZStencil(u) => 3 + 3 * u as usize,
            Client::ColorWrite(u) => 4 + 3 * u as usize,
            Client::Texture(u) => 5 + 3 * u as usize,
        }
    }

    /// One past the largest [`index`](Self::index): the most queue slots a
    /// channel can ever grow.
    const SLOTS: usize = Client::Texture(u8::MAX).index() + 1;

    /// Every client, in the order of `Ord` (checkpoint files list
    /// per-client byte counts in this order).
    fn all() -> impl Iterator<Item = Client> {
        let units = |unit: fn(u8) -> Client| (0..=u8::MAX).map(unit);
        [Client::CommandProcessor, Client::Streamer]
            .into_iter()
            .chain(units(Client::ZStencil))
            .chain(units(Client::ColorWrite))
            .chain(units(Client::Texture))
            .chain([Client::Dac])
    }

    /// Stable numeric code identifying this client across processes —
    /// the serialized form used by checkpoints (unlike the private
    /// `index`, which is an internal slot layout free to change).
    pub fn code(self) -> u32 {
        match self {
            Client::CommandProcessor => 0,
            Client::Streamer => 1,
            Client::Dac => 2,
            Client::ZStencil(u) => 0x100 + u as u32,
            Client::ColorWrite(u) => 0x200 + u as u32,
            Client::Texture(u) => 0x300 + u as u32,
        }
    }

    /// Decodes a [`code`](Self::code) back into a client.
    pub fn from_code(code: u32) -> Option<Client> {
        match code {
            0 => Some(Client::CommandProcessor),
            1 => Some(Client::Streamer),
            2 => Some(Client::Dac),
            c @ 0x100..=0x1ff => Some(Client::ZStencil((c - 0x100) as u8)),
            c @ 0x200..=0x2ff => Some(Client::ColorWrite((c - 0x200) as u8)),
            c @ 0x300..=0x3ff => Some(Client::Texture((c - 0x300) as u8)),
            _ => None,
        }
    }
}

/// Maximum bytes per memory transaction (one GDDR burst).
pub const MAX_TRANSACTION: u32 = 64;

/// A memory operation.
///
/// The `Timing*` variants charge DRAM/bus timing and bandwidth without
/// touching the functional image. They exist because the ROP and texture
/// caches are *timing-only* models over a write-through functional image:
/// a compressed Z-line eviction, for instance, moves 64 bytes on the
/// simulated bus while the uncompressed truth already lives in the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemOp {
    /// Read `size` bytes (reply carries the data).
    Read {
        /// Bytes to read (≤ [`MAX_TRANSACTION`]).
        size: u32,
    },
    /// Write the payload.
    Write {
        /// Bytes to write (≤ [`MAX_TRANSACTION`]).
        data: Vec<u8>,
    },
    /// Charge read timing for `size` bytes; reply carries no data.
    TimingRead {
        /// Bytes to charge (≤ [`MAX_TRANSACTION`]).
        size: u32,
    },
    /// Charge write timing for `size` bytes; the image is untouched.
    TimingWrite {
        /// Bytes to charge (≤ [`MAX_TRANSACTION`]).
        size: u32,
    },
}

impl MemOp {
    /// The transaction size in bytes.
    pub fn size(&self) -> u32 {
        match self {
            MemOp::Read { size } | MemOp::TimingRead { size } | MemOp::TimingWrite { size } => {
                *size
            }
            MemOp::Write { data } => data.len() as u32,
        }
    }

    /// Whether the DRAM sees this as a read.
    pub fn is_read(&self) -> bool {
        matches!(self, MemOp::Read { .. } | MemOp::TimingRead { .. })
    }
}

/// A request submitted to the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRequest {
    /// Caller-chosen id, echoed in the reply.
    pub id: u64,
    /// The issuing unit.
    pub client: Client,
    /// GPU byte address.
    pub addr: u64,
    /// Operation.
    pub op: MemOp,
}

/// A completed transaction returned to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemReply {
    /// The request's id.
    pub id: u64,
    /// The issuing unit.
    pub client: Client,
    /// GPU byte address.
    pub addr: u64,
    /// Read data (empty for writes).
    pub data: Vec<u8>,
}

/// Error returned when a client's request queue is full — the client must
/// apply back-pressure and retry next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemQueueFull;

impl std::fmt::Display for MemQueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory request queue is full")
    }
}

impl std::error::Error for MemQueueFull {}

/// Memory-system configuration: the crossbar, the system bus, GPU memory
/// size and the per-channel DRAM timing the [`GddrChannel`] and its
/// [`Bank`](crate::bank::Bank)s read. It is also the `memory` section of
/// the GPU config file, in this key order.
///
/// All cycle values are core-clock cycles (the paper scales GDDR3
/// datasheet timings to the GPU core clock). A row miss costs `t_rcd`, a
/// row conflict `t_rp + t_rcd`, both further bounded by `t_rc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemControllerConfig {
    /// Number of GDDR channels (baseline: 4; case study: 2).
    pub channels: usize,
    /// Channel interleave granularity in bytes (paper: 256); a multiple of
    /// [`MAX_TRANSACTION`], so no transaction straddles two channels.
    pub interleave_bytes: u64,
    /// Cycles to transfer one 64-byte transaction (4 for a 64-bit DDR
    /// channel at core clock: 16 bytes per cycle).
    pub transfer_cycles: Cycle,
    /// tRCD — cycles from ACTIVATE (row open) until a column command may
    /// issue. A row *miss* (bank idle) pays exactly this.
    pub t_rcd: Cycle,
    /// tRP — cycles from PRECHARGE (row close) until the bank can accept
    /// a new ACTIVATE. A row *conflict* pays `t_rp + t_rcd`.
    pub t_rp: Cycle,
    /// tRC — minimum cycles between two ACTIVATEs to the same bank;
    /// bounds row thrashing even when `t_rp + t_rcd` would allow faster
    /// reopening.
    pub t_rc: Cycle,
    /// Penalty when a read follows a write (bus turnaround, overlapped
    /// with any row opening the access also needs).
    pub write_to_read_penalty: Cycle,
    /// Penalty when a write follows a read.
    pub read_to_write_penalty: Cycle,
    /// DRAM page (row) size in bytes.
    pub page_bytes: u64,
    /// Banks per channel; consecutive pages map to consecutive banks.
    pub banks: usize,
    /// Extra pipeline latency from command issue to first data (CAS-like),
    /// applied to read replies only.
    pub access_latency: Cycle,
    /// Per-client request queue capacity.
    pub queue_capacity: usize,
    /// Crossbar/bus latency added to every reply.
    pub bus_latency: Cycle,
    /// System→GPU bus bandwidth in bytes/cycle per direction (paper: 8).
    pub system_bus_bytes_per_cycle: u64,
    /// Base latency of a system-bus transfer.
    pub system_bus_latency: Cycle,
    /// GPU memory size in megabytes.
    pub gpu_memory_mb: u32,
}

impl Default for MemControllerConfig {
    /// The paper's baseline (Table 1): four 64-bit DDR channels
    /// interleaved on 256 bytes, and one 8-byte-per-cycle system bus.
    fn default() -> Self {
        MemControllerConfig {
            channels: 4,
            interleave_bytes: 256,
            transfer_cycles: 4,
            t_rcd: 6,
            t_rp: 6,
            t_rc: 16,
            write_to_read_penalty: 6,
            read_to_write_penalty: 4,
            page_bytes: 4096,
            banks: 8,
            access_latency: 8,
            queue_capacity: 16,
            bus_latency: 2,
            system_bus_bytes_per_cycle: 8,
            system_bus_latency: 100,
            gpu_memory_mb: 64,
        }
    }
}

impl MemControllerConfig {
    /// GPU memory size in bytes.
    pub fn gpu_memory_bytes(&self) -> usize {
        self.gpu_memory_mb as usize * 1024 * 1024
    }

    /// The channel serving `addr` (the first half of
    /// [`interleave`](crate::gddr::interleave)).
    #[inline]
    pub fn channel_of(&self, addr: u64) -> usize {
        ((addr / self.interleave_bytes) % self.channels as u64) as usize
    }

    /// Where `addr` lands: [`interleave`](crate::gddr::interleave) to a
    /// channel and a channel-local address, then [`GddrChannel::decode`] to
    /// a bank and a row, in one pass that shares the interleave block
    /// between the two halves.
    pub fn route(&self, addr: u64) -> Route {
        let (granularity, channels) = (self.interleave_bytes, self.channels as u64);
        let block = addr / granularity;
        let local = block / channels * granularity + (addr - block * granularity);
        let row = local / self.page_bytes;
        Route {
            channel: (block % channels) as usize,
            local,
            bank: (row % self.banks as u64) as usize,
            row,
        }
    }
}

/// A GPU address resolved to the DRAM coordinates the controller
/// arbitrates and issues on ([`MemControllerConfig::route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The channel serving the address.
    pub channel: usize,
    /// The address within that channel.
    pub local: u64,
    /// The bank within the channel.
    pub bank: usize,
    /// The row: the page number within the channel, which also picks
    /// the bank.
    pub row: u64,
}

impl_json_struct!(MemControllerConfig {
    channels,
    interleave_bytes,
    transfer_cycles,
    t_rcd,
    t_rp,
    t_rc,
    write_to_read_penalty,
    read_to_write_penalty,
    page_bytes,
    banks,
    access_latency,
    queue_capacity,
    bus_latency,
    system_bus_bytes_per_cycle,
    system_bus_latency,
    gpu_memory_mb,
});

/// A request waiting in a channel queue, with the bank and row
/// [`submit`](MemoryController::submit) decoded for it: arbitration probes
/// and issues on them without dividing again.
struct Queued {
    req: MemRequest,
    bank: usize,
    row: u64,
}

struct ChannelState {
    dram: GddrChannel,
    /// Per-client request queues, dense by [`Client::index`]. Slots for
    /// clients that never submitted stay empty; the vector grows on first
    /// submit, never in the clock loop. Replaces the previous
    /// `BTreeMap<Client, VecDeque<_>>` so arbitration walks an array
    /// instead of rebuilding a key list every issue.
    queues: Vec<VecDeque<Queued>>,
    /// Requests queued across all slots of this channel.
    queued: usize,
    /// Round-robin pointer over queue slots.
    next_client: usize,
    /// Pre-interned `mem.ch{c}.bank{b}` signal names, one per bank,
    /// populated by [`MemoryController::attach_trace`]. Empty when the
    /// signal trace is off, which is the only state the hot path checks.
    bank_signals: Vec<SignalName>,
}

/// An in-flight system-bus transfer (buffer upload from system memory).
#[derive(Debug)]
struct SystemCopy {
    id: u64,
    dst: u64,
    /// Shared with the command that asked for it. At completion the
    /// image adopts every page the payload covers whole by reference and
    /// copies only the ragged ends, so the payload is not copied at all
    /// until something writes over it.
    data: Arc<Vec<u8>>,
    done_at: Cycle,
}

/// The memory controller: GPU memory image + timing model + crossbar.
pub struct MemoryController {
    config: MemControllerConfig,
    gpu_mem: MemoryImage,
    channels: Vec<ChannelState>,
    /// Replies scheduled for delivery as `(due cycle, reply)`, ordered by
    /// due cycle and, within one cycle, by issue order. A deque kept
    /// sorted on insert: a few dozen entries at most, nearly always
    /// appended at the back, and no allocation once it has reached its
    /// peak length.
    pending_replies: VecDeque<(Cycle, MemReply)>,
    /// Delivered replies awaiting pickup, indexed by [`Client::index`] —
    /// a dense slot per client so the per-cycle `pop_reply` polls every
    /// box performs are an array index, not a tree lookup.
    ready_replies: Vec<VecDeque<MemReply>>,
    /// Total replies awaiting pickup across all clients.
    ready_count: usize,
    /// In-flight system-bus uploads, in completion order.
    system_copies: VecDeque<SystemCopy>,
    /// Cycle at which the system write bus frees.
    system_bus_free_at: Cycle,
    /// Completed upload ids awaiting pickup.
    finished_uploads: VecDeque<u64>,
    queued_requests: usize,
    bytes_read: u64,
    bytes_written: u64,
    /// Bytes moved for each client, indexed by [`Client::index`].
    per_client_bytes: Box<[u64]>,
    /// Signal-trace sink for per-bank DRAM issue events, when attached.
    trace: Option<TraceSink>,
}

impl MemoryController {
    /// Creates a controller managing `gpu_mem_bytes` of GPU memory.
    pub fn new(config: MemControllerConfig, gpu_mem_bytes: usize) -> Self {
        assert!(config.channels > 0);
        let channels = (0..config.channels)
            .map(|_| ChannelState {
                dram: GddrChannel::new(&config),
                queues: Vec::new(),
                queued: 0,
                next_client: 0,
                bank_signals: Vec::new(),
            })
            .collect();
        MemoryController {
            config,
            gpu_mem: MemoryImage::new(gpu_mem_bytes),
            channels,
            pending_replies: VecDeque::new(),
            ready_replies: Vec::new(),
            ready_count: 0,
            system_copies: VecDeque::new(),
            system_bus_free_at: 0,
            finished_uploads: VecDeque::new(),
            queued_requests: 0,
            bytes_read: 0,
            bytes_written: 0,
            per_client_bytes: vec![0; Client::SLOTS].into_boxed_slice(),
            trace: None,
        }
    }

    /// Attaches a signal-trace sink: every DRAM issue is then recorded as
    /// a `mem.ch{c}.bank{b}` event carrying the row-buffer outcome and
    /// the transaction's `start..done` window (the raw material for the
    /// `attila viz` bank lanes). Signal names are interned here, once,
    /// so the per-issue cost while tracing is a refcount bump plus the
    /// event's info string.
    pub fn attach_trace(&mut self, sink: TraceSink) {
        for (ch_idx, ch) in self.channels.iter_mut().enumerate() {
            ch.bank_signals = (0..ch.dram.bank_count())
                .map(|b| {
                    SignalName::interned(
                        format!("mem.ch{ch_idx}.bank{b}"),
                        SignalName::UNREGISTERED,
                    )
                })
                .collect();
        }
        self.trace = Some(sink);
    }

    /// The controller configuration.
    pub fn config(&self) -> &MemControllerConfig {
        &self.config
    }

    /// Read-only view of GPU memory (golden-model sampling, DAC dumps).
    pub fn gpu_mem(&self) -> &MemoryImage {
        &self.gpu_mem
    }

    /// Mutable GPU memory — used by *functional* writers (fast clear block
    /// updates, test setup). Timing-relevant traffic must go through
    /// [`submit`](Self::submit).
    pub fn gpu_mem_mut(&mut self) -> &mut MemoryImage {
        &mut self.gpu_mem
    }

    /// Free request-queue slots for `client` on the channel serving
    /// `addr` — lets callers reserve room for multi-transaction bursts.
    pub fn free_slots(&self, client: Client, addr: u64) -> usize {
        let ch = self.config.channel_of(addr);
        self.config.queue_capacity
            - self.channels[ch].queues.get(client.index()).map(|q| q.len()).unwrap_or(0)
    }

    /// Whether `client` can enqueue another request this cycle.
    pub fn can_accept(&self, client: Client, addr: u64) -> bool {
        self.can_accept_on(client, self.config.channel_of(addr))
    }

    /// [`can_accept`](Self::can_accept) for a request already known to
    /// land on `channel` (see [`MemControllerConfig::channel_of`]).
    #[inline]
    pub fn can_accept_on(&self, client: Client, channel: usize) -> bool {
        self.channels[channel]
            .queues
            .get(client.index())
            .map(|q| q.len() < self.config.queue_capacity)
            .unwrap_or(true)
    }

    /// Submits a transaction.
    ///
    /// # Errors
    ///
    /// Returns [`MemQueueFull`] when the client's queue for the target
    /// channel is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if the transaction exceeds [`MAX_TRANSACTION`] bytes or
    /// crosses a channel-interleave boundary (callers split requests;
    /// 64-byte-aligned 64-byte transactions never cross the 256-byte
    /// interleave).
    pub fn submit(&mut self, req: MemRequest) -> Result<(), MemQueueFull> {
        let size = req.op.size();
        assert!(size > 0 && size <= MAX_TRANSACTION, "transaction size {size} out of range");
        let route = self.config.route(req.addr);
        assert_eq!(
            route.channel,
            self.config.channel_of(req.addr + size as u64 - 1),
            "transaction crosses a channel boundary"
        );
        let ch = &mut self.channels[route.channel];
        let slot = req.client.index();
        if slot >= ch.queues.len() {
            ch.queues.resize_with(slot + 1, VecDeque::new);
        }
        if ch.queues[slot].len() >= self.config.queue_capacity {
            return Err(MemQueueFull);
        }
        ch.queues[slot].push_back(Queued { req, bank: route.bank, row: route.row });
        ch.queued += 1;
        self.queued_requests += 1;
        Ok(())
    }

    /// Starts a buffer upload over the system bus (Command Processor
    /// "write buffer" command). Completion is reported via
    /// [`pop_finished_upload`](Self::pop_finished_upload).
    pub fn submit_system_upload(&mut self, cycle: Cycle, id: u64, dst: u64, data: Arc<Vec<u8>>) {
        let transfer =
            (data.len() as u64).div_ceil(self.config.system_bus_bytes_per_cycle.max(1));
        let start = cycle.max(self.system_bus_free_at);
        let done = start + self.config.system_bus_latency + transfer;
        self.system_bus_free_at = done;
        self.system_copies.push_back(SystemCopy { id, dst, data, done_at: done });
    }

    /// Pops the id of a completed system upload, if any.
    pub fn pop_finished_upload(&mut self) -> Option<u64> {
        self.finished_uploads.pop_front()
    }

    /// Retrieves the next completed transaction for `client`.
    pub fn pop_reply(&mut self, client: Client) -> Option<MemReply> {
        let reply = self.ready_replies.get_mut(client.index())?.pop_front();
        if reply.is_some() {
            self.ready_count -= 1;
        }
        reply
    }

    /// Whether a delivered reply awaits pickup by `client` — O(1). A box
    /// that is otherwise idle must still be clocked while this holds:
    /// unpopped replies (write-back acknowledgements included) keep the
    /// controller's own horizon `Busy`.
    #[inline]
    pub fn has_reply(&self, client: Client) -> bool {
        self.ready_replies.get(client.index()).is_some_and(|q| !q.is_empty())
    }

    /// Advances the controller one cycle: issues queued requests to idle
    /// channels, applies functional effects, and delivers due replies.
    pub fn clock(&mut self, cycle: Cycle) {
        if !self.busy() {
            return;
        }
        // Complete system-bus uploads.
        while let Some(copy) = self.system_copies.front() {
            if copy.done_at <= cycle {
                let copy = self.system_copies.pop_front().expect("front exists");
                self.gpu_mem.write_shared(copy.dst, &copy.data);
                self.bytes_written += copy.data.len() as u64;
                self.finished_uploads.push_back(copy.id);
            } else {
                break;
            }
        }

        // Issue to each channel that is free this cycle.
        for ch_idx in 0..self.channels.len() {
            loop {
                let ch = &mut self.channels[ch_idx];
                if ch.dram.busy_until() > cycle || ch.queued == 0 {
                    break;
                }
                // Round-robin over client slots, row hits first: starting
                // at the rotation pointer, the first queued request whose
                // DRAM row is already open wins; with no hit in sight the
                // plain rotation order stands. Deterministic — the scan
                // order and the bank probe depend only on simulator state.
                // The pointer is below `n` unless a checkpoint said
                // otherwise; the ring it starts is the same either way.
                let n = ch.queues.len();
                let mut slot = if ch.next_client < n { ch.next_client } else { ch.next_client % n };
                let mut fallback = None;
                let mut picked = None;
                for _ in 0..n {
                    if let Some(front) = ch.queues[slot].front() {
                        if fallback.is_none() {
                            fallback = Some(slot);
                        }
                        if ch.dram.would_hit(front.bank, front.row) {
                            picked = Some(slot);
                            break;
                        }
                    }
                    slot += 1;
                    if slot == n {
                        slot = 0;
                    }
                }
                let Some(slot) = picked.or(fallback) else { break };
                ch.next_client = if slot + 1 == n { 0 } else { slot + 1 };
                let Queued { req, bank, row } =
                    ch.queues[slot].pop_front().expect("slot checked non-empty");
                ch.queued -= 1;
                self.queued_requests -= 1;
                let size = req.op.size();
                let dir = if req.op.is_read() { Direction::Read } else { Direction::Write };
                let report = ch.dram.issue_row(cycle, bank, row, dir);
                let done = report.done;
                if self.trace.is_some() {
                    self.trace_issue(ch_idx, report, dir);
                }
                // Functional effect, in channel issue order.
                let reply = match req.op {
                    MemOp::Read { size } => {
                        let data = self.gpu_mem.read_vec(req.addr, size as usize);
                        self.bytes_read += size as u64;
                        MemReply { id: req.id, client: req.client, addr: req.addr, data }
                    }
                    MemOp::Write { data } => {
                        self.gpu_mem.write(req.addr, &data);
                        self.bytes_written += data.len() as u64;
                        MemReply { id: req.id, client: req.client, addr: req.addr, data: Vec::new() }
                    }
                    MemOp::TimingRead { size } => {
                        self.bytes_read += size as u64;
                        MemReply { id: req.id, client: req.client, addr: req.addr, data: Vec::new() }
                    }
                    MemOp::TimingWrite { size } => {
                        self.bytes_written += size as u64;
                        MemReply { id: req.id, client: req.client, addr: req.addr, data: Vec::new() }
                    }
                };
                self.per_client_bytes[req.client.index()] += u64::from(size);
                let latency_extra = if dir == Direction::Read {
                    self.channels[ch_idx].dram.read_latency()
                } else {
                    0
                };
                let due = done + latency_extra + self.config.bus_latency;
                let at = self.pending_replies.partition_point(|(d, _)| *d <= due);
                self.pending_replies.insert(at, (due, reply));
            }
        }

        // Deliver replies due now or earlier.
        while self.pending_replies.front().is_some_and(|(due, _)| *due <= cycle) {
            let (_, reply) = self.pending_replies.pop_front().expect("front exists");
            let slot = reply.client.index();
            if slot >= self.ready_replies.len() {
                self.ready_replies.resize_with(slot + 1, VecDeque::new);
            }
            self.ready_replies[slot].push_back(reply);
            self.ready_count += 1;
        }
    }

    /// Records one DRAM issue on the channel/bank's interned signal.
    ///
    /// Out of line and cold: tracing is a debug mode that accepts
    /// formatting costs. The hot path pays only the `is_some` check.
    #[cold]
    fn trace_issue(&self, ch_idx: usize, report: IssueReport, dir: Direction) {
        let Some(sink) = &self.trace else { return };
        let Some(signal) = self.channels[ch_idx].bank_signals.get(report.bank) else { return };
        let dir_ch = match dir {
            Direction::Read => 'R',
            Direction::Write => 'W',
        };
        let info = format!(
            "{} {} row={} {}..{}",
            report.outcome.label(),
            dir_ch,
            report.row,
            report.start,
            report.done
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "the trace sink is a write-only observer, not a channel to another box"
        )]
        sink.borrow_mut().push(TraceEvent { cycle: report.done, signal: signal.clone(), info });
    }

    /// Whether any work is queued or in flight (delivered-but-unpopped
    /// replies don't count: that's the client's business).
    pub fn busy(&self) -> bool {
        self.queued_requests > 0
            || !self.pending_replies.is_empty()
            || !self.system_copies.is_empty()
    }

    /// Whether the controller is *fully* quiescent: nothing queued or in
    /// flight **and** nothing delivered-but-unpopped. This is the
    /// condition a checkpoint requires — [`busy`](Self::busy) deliberately
    /// ignores delivered replies and finished uploads, but those carry
    /// state that a snapshot taken between delivery and pickup would lose.
    pub fn fully_drained(&self) -> bool {
        !self.busy() && self.ready_count == 0 && self.finished_uploads.is_empty()
    }

    /// The controller's event horizon (see
    /// [`Horizon`](attila_sim::Horizon) for the contract): the earliest
    /// cycle at which an in-flight reply becomes deliverable, a system-bus
    /// upload lands or, on a channel holding a queued request, the data
    /// bus frees.
    ///
    /// Exact, not merely safe: the issue loop of [`clock`](Self::clock)
    /// starts only on a channel whose `busy_until` has passed and that
    /// holds a request, and bank state changes only at an issue, so a
    /// clock before every such cycle and every completion is a no-op.
    /// `Busy` while a delivered reply or a finished upload awaits pickup
    /// (what keeps a row that collects it from sleeping past it).
    pub fn work_horizon(&self) -> attila_sim::Horizon {
        if self.ready_count > 0 || !self.finished_uploads.is_empty() {
            return attila_sim::Horizon::Busy;
        }
        let reply = self.pending_replies.front().map(|(due, _)| *due);
        // Uploads serialize on the system bus, so the front is earliest.
        let upload = self.system_copies.front().map(|c| c.done_at);
        let issue = self.channels.iter().filter(|c| c.queued > 0).map(|c| c.dram.busy_until());
        attila_sim::Horizon::from_event(issue.chain(reply).chain(upload).min())
    }

    /// Total bytes read from GPU memory.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Total bytes written to GPU memory (including system uploads).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Bytes transferred on behalf of one client.
    pub fn client_bytes(&self, client: Client) -> u64 {
        self.per_client_bytes[client.index()]
    }

    /// Aggregate DRAM busy cycles across channels (for bandwidth
    /// utilization statistics).
    pub fn channel_busy_cycles(&self) -> u64 {
        self.channels.iter().map(|c| c.dram.total_busy_cycles()).sum()
    }

    /// Number of GDDR channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// One channel's DRAM model, for per-bank statistics and the
    /// timeline visualizer's occupancy counters.
    pub fn channel(&self, idx: usize) -> &GddrChannel {
        &self.channels[idx].dram
    }

    /// Row-buffer hits across all channels and banks.
    pub fn row_hits(&self) -> u64 {
        self.channels.iter().map(|c| c.dram.row_hits()).sum()
    }

    /// Row-buffer misses (bank idle, one ACTIVATE) across all channels.
    pub fn row_misses(&self) -> u64 {
        self.channels.iter().map(|c| c.dram.row_misses()).sum()
    }

    /// Row-buffer conflicts (PRECHARGE + ACTIVATE) across all channels.
    pub fn row_conflicts(&self) -> u64 {
        self.channels.iter().map(|c| c.dram.row_conflicts()).sum()
    }

    /// Read↔write bus turnarounds across all channels.
    pub fn turnarounds(&self) -> u64 {
        self.channels.iter().map(|c| c.dram.turnarounds()).sum()
    }
}

/// Per-channel DRAM state, arbitration pointers and queue-slot counts (as
/// three parallel arrays in channel order), bus occupancy and byte
/// accounting. The functional memory image travels separately (via
/// [`gpu_mem`](MemoryController::gpu_mem)); request queues and reply
/// pipelines are empty by the [`fully_drained`](MemoryController::fully_drained)
/// precondition. Loads into a freshly built controller of the same
/// configuration; a file from another channel count is refused.
impl JsonState for MemoryController {
    fn save_state(&self) -> Json {
        let Self {
            channels,
            system_bus_free_at,
            bytes_read,
            bytes_written,
            per_client_bytes,
            // Configuration, and the image `CheckpointBody::memory` carries.
            config: _,
            gpu_mem: _,
            // Empty, or zero, by the `fully_drained` precondition.
            pending_replies: _,
            ready_replies: _,
            ready_count: _,
            system_copies: _,
            finished_uploads: _,
            queued_requests: _,
            // Re-attached per run.
            trace: _,
        } = self;
        let per_channel = |state: &dyn Fn(&ChannelState) -> Json| {
            Json::Arr(channels.iter().map(state).collect())
        };
        // Only the clients that moved bytes.
        let bytes = Client::all().filter_map(|c| {
            let b = per_client_bytes[c.index()];
            (b > 0).then(|| Json::Arr(vec![c.code().to_json(), b.to_hex()]))
        });
        Json::obj([
            ("channels", per_channel(&|c| c.dram.save_state())),
            ("next_clients", per_channel(&|c| c.next_client.to_json())),
            ("queue_slots", per_channel(&|c| c.queues.len().to_json())),
            ("system_bus_free_at", system_bus_free_at.to_hex()),
            ("bytes_read", bytes_read.to_hex()),
            ("bytes_written", bytes_written.to_hex()),
            ("per_client_bytes", Json::Arr(bytes.collect())),
        ])
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        let Self {
            channels,
            system_bus_free_at,
            bytes_read,
            bytes_written,
            per_client_bytes,
            config: _,
            gpu_mem: _,
            pending_replies: _,
            ready_replies: _,
            ready_count: _,
            system_copies: _,
            finished_uploads: _,
            queued_requests: _,
            trace: _,
        } = self;
        let drams = field_with(v, "channels", array)?;
        let next_clients: Vec<usize> = field(v, "next_clients")?;
        let queue_slots: Vec<usize> = field(v, "queue_slots")?;
        let carried = [drams.len(), next_clients.len(), queue_slots.len()];
        if carried != [channels.len(); 3] {
            return Err(JsonError::msg(format!(
                "controller has {} channels, the file's channels, next_clients and queue_slots \
                 carry {carried:?}",
                channels.len()
            )));
        }
        for (i, ch) in channels.iter_mut().enumerate() {
            ch.dram
                .load_state(&drams[i])
                .map_err(|e| e.in_context(&format!("channels: [{i}]")))?;
            ch.next_client = next_clients[i];
            // The dense queue vector's length is arbitration state: the
            // rotation pointer wraps modulo the slot count, so a resumed
            // run must scan the same ring as the uninterrupted one even
            // though every queue is empty at a checkpoint. It only ever
            // grows, one slot per client that has submitted.
            let slots = queue_slots[i];
            if slots > Client::SLOTS {
                return Err(JsonError::msg(format!(
                    "queue_slots: [{i}]: {slots} slots, a machine has at most {} clients",
                    Client::SLOTS
                )));
            }
            if ch.queues.len() < slots {
                ch.queues.resize_with(slots, VecDeque::new);
            }
        }
        *system_bus_free_at = field_with(v, "system_bus_free_at", u64::from_hex)?;
        *bytes_read = field_with(v, "bytes_read", u64::from_hex)?;
        *bytes_written = field_with(v, "bytes_written", u64::from_hex)?;
        let per_client: Vec<(Client, u64)> = field_with(v, "per_client_bytes", |entries| {
            let entry = |e: &Json| match array(e)? {
                [code, bytes] => {
                    let code = u32::from_json(code)?;
                    let client = Client::from_code(code)
                        .ok_or_else(|| JsonError::msg(format!("unknown client code {code}")))?;
                    Ok((client, u64::from_hex(bytes)?))
                }
                _ => Err(JsonError::msg("entry is not a [client, bytes] pair")),
            };
            array(entries)?.iter().map(entry).collect()
        })?;
        per_client_bytes.fill(0);
        for (client, bytes) in per_client {
            per_client_bytes[client.index()] = bytes;
        }
        Ok(())
    }
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("channels", &self.channels.len())
            .field("queued", &self.queued_requests)
            .field("bytes_read", &self.bytes_read)
            .field("bytes_written", &self.bytes_written)
            .finish()
    }
}

/// Splits an arbitrary `(addr, len)` range into [`MAX_TRANSACTION`]-sized,
/// boundary-aligned pieces suitable for [`MemoryController::submit`],
/// yielded in address order (callers run once per cache line or vertex
/// attribute, so nothing is collected).
pub fn split_transactions(addr: u64, len: u64) -> impl Iterator<Item = (u64, u32)> {
    let mut cur = addr;
    let end = addr + len;
    std::iter::from_fn(move || {
        if cur >= end {
            return None;
        }
        let boundary = (cur / MAX_TRANSACTION as u64 + 1) * MAX_TRANSACTION as u64;
        let piece_end = boundary.min(end);
        let piece = (cur, (piece_end - cur) as u32);
        cur = piece_end;
        Some(piece)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> MemoryController {
        MemoryController::new(MemControllerConfig::default(), 1 << 20)
    }

    fn run_until_reply(
        ctl: &mut MemoryController,
        client: Client,
        start: Cycle,
        max: Cycle,
    ) -> (Cycle, MemReply) {
        for cycle in start..start + max {
            ctl.clock(cycle);
            if let Some(r) = ctl.pop_reply(client) {
                return (cycle, r);
            }
        }
        panic!("no reply within {max} cycles");
    }

    /// `route`, which `submit` queues with each request, against the two
    /// steps it fuses: `interleave`, then the channel's `decode`. Random
    /// addresses, small and large, over random geometries that
    /// `GpuConfig::validate` accepts: at least one channel, bank and page
    /// byte, and an interleave that is a non-zero multiple of 64 bytes.
    #[test]
    fn route_matches_interleave_then_decode() {
        use crate::gddr::interleave;
        let mut rng = attila_sim::TinyRng::new(0x0_2007E);
        let mut pick = |small: &[u64], hi: u64| {
            if rng.range_u32(0, 2) == 0 {
                small[rng.range_u32(0, small.len() as u32) as usize]
            } else {
                rng.range_u64(1, hi)
            }
        };
        let mut configs = Vec::new();
        for _ in 0..400 {
            let channels = pick(&[1, 2, 3, 4, 8], 64) as usize;
            let interleave_bytes = 64 * pick(&[1, 2, 3, 4, 64], 256);
            let banks = pick(&[1, 2, 4, 8, 16], 64) as usize;
            let page_bytes = pick(&[4096, 2048, 1, 1000], 1 << 17);
            configs.push(MemControllerConfig {
                channels,
                interleave_bytes,
                banks,
                page_bytes,
                ..MemControllerConfig::default()
            });
        }
        let mut rng = attila_sim::TinyRng::new(0xADD7);
        for config in configs {
            let channel = GddrChannel::new(&config);
            for _ in 0..250 {
                let addr = rng.next_u64() >> rng.range_u32(0, 64);
                let (ch, local) = interleave(addr, config.channels, config.interleave_bytes);
                let (bank, row) = channel.decode(local);
                let expect = Route { channel: ch, local, bank, row };
                assert_eq!(config.route(addr), expect, "{addr:#x} under {config:?}");
                assert_eq!(config.channel_of(addr), ch, "{addr:#x} under {config:?}");
            }
        }
    }

    #[test]
    fn read_returns_written_data() {
        let mut c = ctl();
        c.gpu_mem_mut().write(128, &[9u8; 64]);
        c.submit(MemRequest {
            id: 1,
            client: Client::Streamer,
            addr: 128,
            op: MemOp::Read { size: 64 },
        })
        .unwrap();
        let (_, reply) = run_until_reply(&mut c, Client::Streamer, 0, 200);
        assert_eq!(reply.id, 1);
        assert_eq!(reply.data, vec![9u8; 64]);
    }

    #[test]
    fn has_reply_is_per_client_and_cleared_by_pickup() {
        let mut c = ctl();
        assert!(!c.has_reply(Client::Texture(3)), "unseen client slots read as empty");
        c.submit(MemRequest {
            id: 7,
            client: Client::ZStencil(1),
            addr: 64,
            op: MemOp::TimingWrite { size: 64 },
        })
        .unwrap();
        let mut cycle = 0;
        while !c.has_reply(Client::ZStencil(1)) {
            c.clock(cycle);
            cycle += 1;
            assert!(cycle < 200, "write-back acknowledgement never delivered");
        }
        assert!(!c.has_reply(Client::ColorWrite(1)) && !c.has_reply(Client::Streamer));
        assert!(c.work_horizon().is_busy(), "an unpopped reply pins the controller Busy");
        assert_eq!(c.pop_reply(Client::ZStencil(1)).map(|r| r.id), Some(7));
        assert!(!c.has_reply(Client::ZStencil(1)));
    }

    #[test]
    fn a_request_behind_a_busy_channel_sleeps_until_the_bus_frees() {
        // Two reads on channel 0: the first issues on cycle 0, the second
        // queues behind it.
        let read = |id, client| MemRequest { id, client, addr: 1024 * id, op: MemOp::Read { size: 64 } };
        let mut c = ctl();
        c.submit(read(1, Client::Streamer)).unwrap();
        c.clock(0);
        c.submit(read(2, Client::Texture(0))).unwrap();
        let free_at = c.channel(0).busy_until();
        assert!(free_at > 1, "the first read holds the bus past cycle 1");
        assert_eq!(c.work_horizon(), attila_sim::Horizon::IdleUntil(free_at));
        // Every clock before then is a no-op.
        let observe = |c: &MemoryController| {
            let slots = c.free_slots(Client::Texture(0), 2048);
            let rows = (c.row_hits(), c.row_misses(), c.row_conflicts(), c.turnarounds());
            let replies = (c.has_reply(Client::Streamer), c.has_reply(Client::Texture(0)));
            (slots, c.bytes_read(), rows, replies, c.work_horizon())
        };
        let before = observe(&c);
        for cycle in 1..free_at {
            c.clock(cycle);
            assert_eq!(observe(&c), before, "cycle {cycle} of a horizon to {free_at}");
        }
        c.clock(free_at);
        assert_eq!(c.bytes_read(), 128, "the queued read issues as the bus frees");
    }

    #[test]
    fn a_submit_to_a_free_channel_is_due_at_once() {
        let mut c = ctl();
        for cycle in 0..50 {
            c.clock(cycle);
        }
        c.submit(MemRequest {
            id: 1,
            client: Client::Streamer,
            addr: 0,
            op: MemOp::Read { size: 64 },
        })
        .unwrap();
        let h = c.work_horizon();
        assert!(matches!(h, attila_sim::Horizon::IdleUntil(t) if t <= 50), "{h:?}");
        c.clock(50);
        assert_eq!(c.bytes_read(), 64, "issued on the cycle it was submitted for");
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut c = ctl();
        c.submit(MemRequest {
            id: 1,
            client: Client::ColorWrite(0),
            addr: 256,
            op: MemOp::Write { data: vec![0xabu8; 64] },
        })
        .unwrap();
        let (cycle, _) = run_until_reply(&mut c, Client::ColorWrite(0), 0, 200);
        c.submit(MemRequest {
            id: 2,
            client: Client::Texture(0),
            addr: 256,
            op: MemOp::Read { size: 64 },
        })
        .unwrap();
        let (_, reply) = run_until_reply(&mut c, Client::Texture(0), cycle + 1, 200);
        assert_eq!(reply.data, vec![0xabu8; 64]);
    }

    #[test]
    fn read_latency_exceeds_write_latency() {
        let mut c = ctl();
        c.submit(MemRequest {
            id: 1,
            client: Client::Streamer,
            addr: 0,
            op: MemOp::Read { size: 64 },
        })
        .unwrap();
        let (read_done, _) = run_until_reply(&mut c, Client::Streamer, 0, 200);
        let mut c = ctl();
        c.submit(MemRequest {
            id: 1,
            client: Client::Streamer,
            addr: 0,
            op: MemOp::Write { data: vec![0; 64] },
        })
        .unwrap();
        let (write_done, _) = run_until_reply(&mut c, Client::Streamer, 0, 200);
        assert!(read_done > write_done, "reads see CAS latency: {read_done} vs {write_done}");
    }

    #[test]
    fn parallel_channels_overlap() {
        // Two reads to different channels complete sooner than two to one.
        let mut c = ctl();
        for (id, addr) in [(1, 0u64), (2, 256)] {
            c.submit(MemRequest {
                id,
                client: Client::Streamer,
                addr,
                op: MemOp::Read { size: 64 },
            })
            .unwrap();
        }
        let mut both_parallel = None;
        for cycle in 0..300 {
            c.clock(cycle);
            while c.pop_reply(Client::Streamer).is_some() {}
            if !c.busy() {
                both_parallel = Some(cycle);
                break;
            }
        }
        let mut c = ctl();
        for (id, addr) in [(1, 0u64), (2, 1024)] {
            // both map to channel 0
            c.submit(MemRequest {
                id,
                client: Client::Streamer,
                addr,
                op: MemOp::Read { size: 64 },
            })
            .unwrap();
        }
        let mut both_serial = None;
        for cycle in 0..300 {
            c.clock(cycle);
            while c.pop_reply(Client::Streamer).is_some() {}
            if !c.busy() {
                both_serial = Some(cycle);
                break;
            }
        }
        assert!(both_parallel.unwrap() < both_serial.unwrap());
    }

    #[test]
    fn queue_capacity_backpressure() {
        let cfg = MemControllerConfig { queue_capacity: 2, ..Default::default() };
        let mut c = MemoryController::new(cfg, 1 << 20);
        let req = |id| MemRequest {
            id,
            client: Client::Texture(0),
            addr: 0,
            op: MemOp::Read { size: 64 },
        };
        assert!(c.submit(req(1)).is_ok());
        assert!(c.submit(req(2)).is_ok());
        assert_eq!(c.submit(req(3)), Err(MemQueueFull));
        assert!(!c.can_accept(Client::Texture(0), 0));
        assert!(c.can_accept(Client::Texture(0), 256), "other channels still accept");
    }

    #[test]
    fn round_robin_arbitration_interleaves_clients() {
        let mut c = ctl();
        for id in 0..4 {
            c.submit(MemRequest {
                id,
                client: Client::Texture(0),
                addr: id * 64, // hmm, these map to different channels
                op: MemOp::Read { size: 64 },
            })
            .unwrap();
        }
        // All to channel 0, two clients.
        let mut c = ctl();
        for id in 0..2 {
            c.submit(MemRequest {
                id,
                client: Client::Texture(0),
                addr: 1024 * id,
                op: MemOp::Read { size: 64 },
            })
            .unwrap();
            c.submit(MemRequest {
                id: 10 + id,
                client: Client::ZStencil(0),
                addr: 1024 * id + 64,
                op: MemOp::Read { size: 64 },
            })
            .unwrap();
        }
        let mut tex_done = None;
        let mut z_done = None;
        for cycle in 0..500 {
            c.clock(cycle);
            if c.pop_reply(Client::Texture(0)).is_some() && tex_done.is_none() {
                tex_done = Some(cycle);
            }
            if c.pop_reply(Client::ZStencil(0)).is_some() && z_done.is_none() {
                z_done = Some(cycle);
            }
            if tex_done.is_some() && z_done.is_some() {
                break;
            }
        }
        let (t, z) = (tex_done.unwrap(), z_done.unwrap());
        assert!((t as i64 - z as i64).abs() < 30, "fair service: {t} vs {z}");
    }

    #[test]
    fn row_hit_priority_preempts_rotation() {
        let mut c = ctl();
        // Warm channel 0 / bank 0 / row 0 via Texture(0).
        c.submit(MemRequest {
            id: 1,
            client: Client::Texture(0),
            addr: 0,
            op: MemOp::Read { size: 64 },
        })
        .unwrap();
        let (cycle, _) = run_until_reply(&mut c, Client::Texture(0), 0, 200);
        // Two contenders on channel 0: ZStencil first in rotation order
        // with a row *conflict* (local 0x8000 = row 8, bank 0), Texture
        // behind it in rotation with a row *hit* (local 64 = row 0).
        c.submit(MemRequest {
            id: 2,
            client: Client::ZStencil(0),
            addr: 131072, // global block 512 -> channel 0, local 32768
            op: MemOp::Read { size: 64 },
        })
        .unwrap();
        c.submit(MemRequest {
            id: 3,
            client: Client::Texture(0),
            addr: 64, // channel 0, local 64: same row as the warm access
            op: MemOp::Read { size: 64 },
        })
        .unwrap();
        let (tex_at, tex) = run_until_reply(&mut c, Client::Texture(0), cycle + 1, 300);
        let (z_at, _) = run_until_reply(&mut c, Client::ZStencil(0), cycle + 1, 300);
        assert_eq!(tex.id, 3);
        assert!(tex_at < z_at, "row hit issues first: tex {tex_at} vs z {z_at}");
        assert_eq!(c.row_hits(), 1, "the preempting access hit the open row");
    }

    #[test]
    fn attached_trace_records_bank_events() {
        use attila_sim::SignalTrace;
        let mut c = ctl();
        c.attach_trace(SignalTrace::new_sink(0));
        c.submit(MemRequest {
            id: 1,
            client: Client::Streamer,
            addr: 0,
            op: MemOp::Read { size: 64 },
        })
        .unwrap();
        run_until_reply(&mut c, Client::Streamer, 0, 200);
        let sink = c.trace.clone().expect("sink attached");
        #[expect(clippy::disallowed_methods, reason = "the test reads what the sink recorded")]
        let trace = sink.borrow();
        assert_eq!(trace.len(), 1);
        let ev = &trace.events()[0];
        assert_eq!(ev.signal, "mem.ch0.bank0");
        assert!(ev.info.starts_with("miss R row=0 "), "got: {}", ev.info);
    }

    #[test]
    fn system_upload_writes_memory_after_latency() {
        let mut c = ctl();
        c.submit_system_upload(0, 77, 512, Arc::new(vec![5u8; 256]));
        let mut finished_at = None;
        for cycle in 0..500 {
            c.clock(cycle);
            if let Some(id) = c.pop_finished_upload() {
                assert_eq!(id, 77);
                finished_at = Some(cycle);
                break;
            }
        }
        let done = finished_at.expect("upload completes");
        // 100 latency + 256/8 = 32 transfer.
        assert!(done >= 132, "done at {done}");
        assert_eq!(c.gpu_mem().read_vec(512, 4), vec![5u8; 4]);
    }

    #[test]
    fn an_upload_is_never_written_through() {
        use crate::memory::PAGE_BYTES;
        // Three pages from mid-page 0: page 1 and 2 are covered whole and
        // land by reference, the ragged ends of pages 0 and 3 are copied.
        let mut c = ctl();
        let upload: Arc<Vec<u8>> = Arc::new((0..3 * PAGE_BYTES).map(|i| i as u8 | 1).collect());
        let dst = PAGE_BYTES as u64 / 2;
        c.submit_system_upload(0, 9, dst, Arc::clone(&upload));
        let mut cycle = 0;
        while c.pop_finished_upload().is_none() {
            c.clock(cycle);
            cycle += 1;
            assert!(cycle < 1_000_000, "the upload lands");
        }
        assert_eq!(c.gpu_mem().read_vec(dst, upload.len()), *upload);
        assert_eq!(c.gpu_mem().shared_pages(), 2);
        let shared = 2 * PAGE_BYTES as u64 + 12;
        c.gpu_mem_mut().write_u32(shared, 0xfeed_f00d);
        assert_eq!(c.gpu_mem().read_u32(shared), 0xfeed_f00d);
        assert_eq!(c.gpu_mem().shared_pages(), 1, "the written page was copied");
        assert!(upload.iter().enumerate().all(|(i, &b)| b == i as u8 | 1), "the upload moved");
        let mut expect = upload.to_vec();
        let at = (shared - dst) as usize;
        expect[at..at + 4].copy_from_slice(&0xfeed_f00du32.to_le_bytes());
        assert_eq!(c.gpu_mem().read_vec(dst, upload.len()), expect);
    }

    #[test]
    fn uploads_serialize_on_the_system_bus() {
        let mut c = ctl();
        c.submit_system_upload(0, 1, 0, Arc::new(vec![1u8; 800]));
        c.submit_system_upload(0, 2, 4096, Arc::new(vec![2u8; 800]));
        let mut done = Vec::new();
        for cycle in 0..1000 {
            c.clock(cycle);
            while let Some(id) = c.pop_finished_upload() {
                done.push((id, cycle));
            }
            if done.len() == 2 {
                break;
            }
        }
        assert_eq!(done[0].0, 1);
        assert_eq!(done[1].0, 2);
        assert!(done[1].1 >= done[0].1 + 100, "second pays its own transfer");
    }

    #[test]
    fn split_transactions_respects_boundaries() {
        let split = |addr, len| split_transactions(addr, len).collect::<Vec<_>>();
        assert_eq!(split(0, 64), vec![(0, 64)]);
        assert_eq!(split(0, 128), vec![(0, 64), (64, 64)]);
        assert_eq!(split(60, 8), vec![(60, 4), (64, 4)]);
        assert_eq!(split(100, 0), vec![]);
        let pieces = split(3, 200);
        assert_eq!(pieces.iter().map(|(_, l)| *l as u64).sum::<u64>(), 200);
        for (a, l) in pieces {
            assert!(a / 64 == (a + l as u64 - 1) / 64, "piece ({a},{l}) crosses 64B");
        }
    }

    #[test]
    fn busy_reflects_outstanding_work() {
        let mut c = ctl();
        assert!(!c.busy());
        c.submit(MemRequest {
            id: 1,
            client: Client::Dac,
            addr: 0,
            op: MemOp::Read { size: 32 },
        })
        .unwrap();
        assert!(c.busy());
        for cycle in 0..200 {
            c.clock(cycle);
        }
        c.pop_reply(Client::Dac).expect("reply ready");
        assert!(!c.busy());
    }

    #[test]
    fn every_client_is_listed_once_in_ord_order() {
        let all: Vec<Client> = Client::all().collect();
        assert!(all.windows(2).all(|w| w[0] < w[1]), "sorted by Ord, no repeats");
        let mut slots: Vec<usize> = all.iter().map(|c| c.index()).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), all.len(), "one slot per client");
        assert_eq!(slots.last().map(|s| s + 1), Some(Client::SLOTS));
    }

    #[test]
    fn per_client_bytes_save_in_client_order() {
        let mut c = ctl();
        for (id, client) in [(1, Client::Dac), (2, Client::Texture(1)), (3, Client::Streamer)] {
            c.submit(MemRequest { id, client, addr: 0, op: MemOp::TimingRead { size: 64 } })
                .unwrap();
        }
        for cycle in 0..200 {
            c.clock(cycle);
        }
        let saved = c.save_state();
        let pairs: Vec<(u32, u64)> = array(saved.get("per_client_bytes").unwrap())
            .unwrap()
            .iter()
            .map(|e| {
                let e = array(e).unwrap();
                (u32::from_json(&e[0]).unwrap(), u64::from_hex(&e[1]).unwrap())
            })
            .collect();
        assert_eq!(pairs, [(1, 64), (0x301, 64), (2, 64)], "Streamer, Texture(1), DAC");
        let mut loaded = ctl();
        loaded.load_state(&saved).unwrap();
        assert_eq!(loaded.client_bytes(Client::Texture(1)), 64);
        assert_eq!(loaded.client_bytes(Client::ZStencil(0)), 0);
        assert_eq!(loaded.save_state(), saved);
    }

    #[test]
    fn per_client_byte_accounting() {
        let mut c = ctl();
        c.submit(MemRequest {
            id: 1,
            client: Client::Texture(1),
            addr: 0,
            op: MemOp::Read { size: 64 },
        })
        .unwrap();
        for cycle in 0..100 {
            c.clock(cycle);
        }
        assert_eq!(c.client_bytes(Client::Texture(1)), 64);
        assert_eq!(c.client_bytes(Client::Texture(0)), 0);
        assert_eq!(c.bytes_read(), 64);
    }
}
