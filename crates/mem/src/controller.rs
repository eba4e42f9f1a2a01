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

use std::collections::{BTreeMap, VecDeque};

use attila_json::{array, field, field_with, FromJson, HexJson, Json, JsonError, JsonState, ToJson};
use attila_sim::fault::MemFaultHandle;
use attila_sim::{Cycle, SignalName, TraceEvent, TraceSink};

use crate::gddr::{interleave, Direction, GddrChannel, GddrTiming, IssueReport};
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

/// Memory controller configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MemControllerConfig {
    /// Number of GDDR channels (baseline: 4; case study: 2).
    pub channels: usize,
    /// Channel interleave granularity in bytes (paper: 256).
    pub interleave_bytes: u64,
    /// Per-channel DRAM timing.
    pub timing: GddrTiming,
    /// Per-client request queue capacity.
    pub queue_capacity: usize,
    /// Crossbar/bus latency added to every reply.
    pub bus_latency: Cycle,
    /// System→GPU bus bandwidth in bytes/cycle per direction (paper: 8).
    pub system_bus_bytes_per_cycle: u64,
    /// Base latency of a system-bus transfer.
    pub system_bus_latency: Cycle,
}

impl Default for MemControllerConfig {
    fn default() -> Self {
        MemControllerConfig {
            channels: 4,
            interleave_bytes: 256,
            timing: GddrTiming::default(),
            queue_capacity: 16,
            bus_latency: 2,
            system_bus_bytes_per_cycle: 8,
            system_bus_latency: 100,
        }
    }
}

struct ChannelState {
    dram: GddrChannel,
    /// Per-client request queues, dense by [`Client::index`]. Slots for
    /// clients that never submitted stay empty; the vector grows on first
    /// submit, never in the clock loop. Replaces the previous
    /// `BTreeMap<Client, VecDeque<_>>` so arbitration walks an array
    /// instead of rebuilding a key list every issue.
    queues: Vec<VecDeque<MemRequest>>,
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
    data: Vec<u8>,
    done_at: Cycle,
}

/// The memory controller: GPU memory image + timing model + crossbar.
pub struct MemoryController {
    config: MemControllerConfig,
    gpu_mem: MemoryImage, // state: external — snapshotted by CheckpointBody::memory, not by save_state
    channels: Vec<ChannelState>,
    // state: transient — reply/upload pipelines below are empty by the
    // fully_drained checkpoint precondition
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
    // state: checkpointed
    /// Cycle at which the system write bus frees.
    system_bus_free_at: Cycle,
    /// Completed upload ids awaiting pickup.
    finished_uploads: VecDeque<u64>, // state: transient — empty once uploads drain
    queued_requests: usize, // state: transient — zero once request queues drain
    bytes_read: u64,
    bytes_written: u64,
    per_client_bytes: BTreeMap<Client, u64>,
    /// Injected fault schedule (stalls, reply bit flips), when armed.
    faults: Option<MemFaultHandle>, // state: transient — fault schedules are re-armed per run, never checkpointed
    /// Signal-trace sink for per-bank DRAM issue events, when attached.
    trace: Option<TraceSink>,
}

impl MemoryController {
    /// Creates a controller managing `gpu_mem_bytes` of GPU memory.
    pub fn new(config: MemControllerConfig, gpu_mem_bytes: usize) -> Self {
        assert!(config.channels > 0);
        let channels = (0..config.channels)
            .map(|_| ChannelState {
                dram: GddrChannel::new(config.timing),
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
            per_client_bytes: BTreeMap::new(),
            faults: None,
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

    /// Arms an injected fault schedule (see
    /// [`FaultInjector`](attila_sim::FaultInjector)): the controller
    /// freezes during scheduled stall windows and flips scheduled bits in
    /// read replies.
    pub fn inject_faults(&mut self, hook: MemFaultHandle) {
        self.faults = Some(hook);
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
        let (ch, _) = interleave(addr, self.config.channels, self.config.interleave_bytes);
        self.config.queue_capacity
            - self.channels[ch].queues.get(client.index()).map(|q| q.len()).unwrap_or(0)
    }

    /// Whether `client` can enqueue another request this cycle.
    pub fn can_accept(&self, client: Client, addr: u64) -> bool {
        let (ch, _) = interleave(addr, self.config.channels, self.config.interleave_bytes);
        self.channels[ch]
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
        let (ch_a, _) = interleave(req.addr, self.config.channels, self.config.interleave_bytes);
        let (ch_b, _) = interleave(
            req.addr + size as u64 - 1,
            self.config.channels,
            self.config.interleave_bytes,
        );
        assert_eq!(ch_a, ch_b, "transaction crosses a channel boundary");
        let ch = &mut self.channels[ch_a];
        let slot = req.client.index();
        if slot >= ch.queues.len() {
            ch.queues.resize_with(slot + 1, VecDeque::new);
        }
        if ch.queues[slot].len() >= self.config.queue_capacity {
            return Err(MemQueueFull);
        }
        ch.queues[slot].push_back(req);
        ch.queued += 1;
        self.queued_requests += 1;
        Ok(())
    }

    /// Starts a buffer upload over the system bus (Command Processor
    /// "write buffer" command). Completion is reported via
    /// [`pop_finished_upload`](Self::pop_finished_upload).
    pub fn submit_system_upload(&mut self, cycle: Cycle, id: u64, dst: u64, data: Vec<u8>) {
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
        // An injected stall freezes the whole controller: nothing is
        // issued, completed or delivered while the window is open.
        if let Some(f) = &self.faults {
            // lint:allow(shared-mut) shared with the fault injector that owns the schedule, not with another box
            if f.borrow_mut().stalled(cycle) {
                return;
            }
        }
        // Complete system-bus uploads.
        while let Some(copy) = self.system_copies.front() {
            if copy.done_at <= cycle {
                let copy = self.system_copies.pop_front().expect("front exists");
                self.gpu_mem.write(copy.dst, &copy.data);
                self.bytes_written += copy.data.len() as u64;
                self.finished_uploads.push_back(copy.id);
            } else {
                break;
            }
        }

        // Issue to each channel that is free this cycle.
        let (n_channels, granularity) = (self.config.channels, self.config.interleave_bytes);
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
                let n = ch.queues.len();
                let mut fallback = None;
                let mut picked = None;
                for off in 0..n {
                    let slot = (ch.next_client + off) % n;
                    let Some(req) = ch.queues[slot].front() else { continue };
                    if fallback.is_none() {
                        fallback = Some(slot);
                    }
                    let (_, local) = interleave(req.addr, n_channels, granularity);
                    if ch.dram.would_hit(local) {
                        picked = Some(slot);
                        break;
                    }
                }
                let Some(slot) = picked.or(fallback) else { break };
                ch.next_client = (slot + 1) % n;
                let req = ch.queues[slot].pop_front().expect("slot checked non-empty");
                ch.queued -= 1;
                self.queued_requests -= 1;
                let (_, local) = interleave(req.addr, n_channels, granularity);
                let size = req.op.size();
                let dir = if req.op.is_read() { Direction::Read } else { Direction::Write };
                let report = ch.dram.issue(cycle, local, dir);
                let done = report.done;
                if self.trace.is_some() {
                    self.trace_issue(ch_idx, report, dir);
                }
                // Functional effect, in channel issue order.
                let mut reply = match req.op {
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
                if dir == Direction::Read {
                    if let Some(f) = &self.faults {
                        // A scheduled single-bit error: the DRAM cell itself
                        // is flipped, so the corruption reaches both this
                        // reply and every later functional read.
                        // lint:allow(shared-mut) shared with the fault injector that owns the schedule, not with another box
                        if let Some(bit) = f.borrow_mut().next_read_flip() {
                            let mask = 1u8 << bit;
                            let mut byte = [0u8; 1];
                            self.gpu_mem.read(reply.addr, &mut byte);
                            self.gpu_mem.write(reply.addr, &[byte[0] ^ mask]);
                            if let Some(first) = reply.data.first_mut() {
                                *first ^= mask;
                            }
                        }
                    }
                }
                *self.per_client_bytes.entry(req.client).or_default() += size as u64;
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
    /// formatting costs, exactly like the fault hooks above. The hot path
    /// pays only the `is_some` check.
    #[cold]
    fn trace_issue(&self, ch_idx: usize, report: IssueReport, dir: Direction) {
        let Some(sink) = &self.trace else { return };
        let Some(signal) = self.channels[ch_idx].bank_signals.get(report.bank) else { return };
        let dir_ch = match dir {
            Direction::Read => 'R',
            Direction::Write => 'W',
        };
        // lint:allow(hot-alloc) tracing only; disabled in measured runs
        let info = format!(
            "{} {} row={} {}..{}",
            report.outcome.label(),
            dir_ch,
            report.row,
            report.start,
            report.done
        );
        // lint:allow(shared-mut) the trace sink is a write-only observer, not a channel to another box
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

    /// The controller's next completion cycle: the earliest cycle at which
    /// an in-flight reply becomes deliverable or a system-bus upload
    /// lands, if anything is in flight at all.
    pub fn next_completion_cycle(&self) -> Option<Cycle> {
        let reply = self.pending_replies.front().map(|(due, _)| *due);
        // Uploads serialize on the system bus, so the front is earliest.
        let upload = self.system_copies.front().map(|c| c.done_at);
        match (reply, upload) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The controller's event horizon (see
    /// [`Horizon`](attila_sim::Horizon) for the contract).
    ///
    /// Conservative on purpose: queued-but-unissued requests depend on
    /// per-channel DRAM state, delivered replies and finished uploads are
    /// popped by clients on their next clock, and an armed fault schedule
    /// may open a stall window at any cycle — all of those force `Busy`.
    /// Only a controller whose remaining work is purely waiting (scheduled
    /// reply deliveries, a system-bus transfer in flight) reports
    /// [`Horizon::IdleUntil`](attila_sim::Horizon::IdleUntil) its
    /// [`next_completion_cycle`](Self::next_completion_cycle).
    pub fn work_horizon(&self) -> attila_sim::Horizon {
        if self.queued_requests > 0
            || self.faults.is_some()
            || self.ready_count > 0
            || !self.finished_uploads.is_empty()
        {
            return attila_sim::Horizon::Busy;
        }
        attila_sim::Horizon::from_event(self.next_completion_cycle())
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
        self.per_client_bytes.get(&client).copied().unwrap_or(0)
    }

    /// Aggregate DRAM busy cycles across channels (for bandwidth
    /// utilization statistics).
    pub fn channel_busy_cycles(&self) -> u64 {
        self.channels.iter().map(|c| c.dram.total_busy_cycles()).sum()
    }

    /// Total DRAM transactions across channels.
    pub fn channel_transactions(&self) -> u64 {
        self.channels.iter().map(|c| c.dram.total_transactions()).sum()
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
        let per_channel = |state: &dyn Fn(&ChannelState) -> Json| {
            Json::Arr(self.channels.iter().map(state).collect())
        };
        let bytes = |(c, b): (&Client, &u64)| Json::Arr(vec![c.code().to_json(), b.to_hex()]);
        Json::obj([
            ("channels", per_channel(&|c| c.dram.save_state())),
            ("next_clients", per_channel(&|c| c.next_client.to_json())),
            ("queue_slots", per_channel(&|c| c.queues.len().to_json())),
            ("system_bus_free_at", self.system_bus_free_at.to_hex()),
            ("bytes_read", self.bytes_read.to_hex()),
            ("bytes_written", self.bytes_written.to_hex()),
            ("per_client_bytes", Json::Arr(self.per_client_bytes.iter().map(bytes).collect())),
        ])
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        let drams = field_with(v, "channels", array)?;
        let next_clients: Vec<usize> = field(v, "next_clients")?;
        let queue_slots: Vec<usize> = field(v, "queue_slots")?;
        let carried = [drams.len(), next_clients.len(), queue_slots.len()];
        if carried != [self.channels.len(); 3] {
            return Err(JsonError::msg(format!(
                "controller has {} channels, the file's channels, next_clients and queue_slots \
                 carry {carried:?}",
                self.channels.len()
            )));
        }
        for (i, ch) in self.channels.iter_mut().enumerate() {
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
        self.system_bus_free_at = field_with(v, "system_bus_free_at", u64::from_hex)?;
        self.bytes_read = field_with(v, "bytes_read", u64::from_hex)?;
        self.bytes_written = field_with(v, "bytes_written", u64::from_hex)?;
        self.per_client_bytes = field_with(v, "per_client_bytes", |entries| {
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
        c.attach_trace(SignalTrace::new_sink());
        c.submit(MemRequest {
            id: 1,
            client: Client::Streamer,
            addr: 0,
            op: MemOp::Read { size: 64 },
        })
        .unwrap();
        run_until_reply(&mut c, Client::Streamer, 0, 200);
        let sink = c.trace.clone().expect("sink attached");
        let trace = sink.borrow();
        assert_eq!(trace.len(), 1);
        let ev = &trace.events()[0];
        assert_eq!(ev.signal, "mem.ch0.bank0");
        assert!(ev.info.starts_with("miss R row=0 "), "got: {}", ev.info);
    }

    #[test]
    fn system_upload_writes_memory_after_latency() {
        let mut c = ctl();
        c.submit_system_upload(0, 77, 512, vec![5u8; 256]);
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
    fn uploads_serialize_on_the_system_bus() {
        let mut c = ctl();
        c.submit_system_upload(0, 1, 0, vec![1u8; 800]);
        c.submit_system_upload(0, 2, 4096, vec![2u8; 800]);
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
