//! The Fragment FIFO: shader-input crossbar and scheduler, plus the
//! shader units it feeds.
//!
//! Per the paper (§3): "The Fragment FIFO box (a legacy name) corresponds
//! to a crossbar and scheduler that receives input vertices and fragments
//! from producing boxes [...], feeds those inputs into the unified shader
//! boxes, receives the shaded outputs [...] and sends the outputs to the
//! consuming boxes (Streamer Commit for vertices, Z Stencil Test or Color
//! Write for fragments). The FragmentFIFO box also implements the two
//! datapaths required to perform the Z and Stencil test before and after
//! fragment shading."
//!
//! The shader model (§2.3): multithreaded in-order units working on
//! **groups of four inputs** (one fragment quad, or four vertices) as a
//! single thread; a texture access blocks the thread until the Texture
//! Unit answers; thread availability is limited by the physical register
//! file and the thread-window/input-queue size. The Section 5 case study
//! compares two schedulers:
//!
//! * **thread window** — any ready thread may issue (out-of-order among
//!   threads), hiding texture latency;
//! * **in-order input queue** — each unit runs one thread to completion
//!   before starting the next, so texture latency stalls the unit.

use std::collections::VecDeque;
use std::sync::Arc;

use attila_emu::isa::{limits, Opcode, Program, ShaderTarget};
use attila_emu::shader::{ShaderEmulator, ThreadId};
use attila_emu::vector::Vec4;
use attila_json::impl_json_state;
use attila_sim::{Counter, Cycle, DynamicObject, Horizon, ObjectIdGen, SimError};

use crate::config::{ShaderConfig, ShaderScheduling};
use crate::hz::route_rop;
use crate::port::{PortReceiver, PortSender};
use crate::types::{
    FragQuad, QuadTexReply, QuadTexRequest, ShadedVertex, VertexOutputs, VertexWork,
};
use crate::unit::Unit;

/// Execution state of a thread group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupState {
    /// May issue an instruction.
    Ready,
    /// Waiting for a texture reply.
    TexBlocked,
    /// All threads reached END; output awaits delivery.
    Finished,
}

/// Threads per group: one fragment quad or up to four vertices.
pub const GROUP_LANES: usize = 4;

/// Cycles a partial vertex group waits for the rest of its vertices
/// before it is launched underfilled.
const STAGING_PATIENCE: Cycle = 8;

/// What a group computes.
#[derive(Debug)]
enum GroupPayload {
    /// Up to four vertices of one batch.
    Vertices(Vec<VertexWork>),
    /// One fragment quad.
    Quad(FragQuad),
}

/// A shader thread group (1 thread = 1 fragment quad or 4 vertices).
#[derive(Debug)]
struct Group {
    id: u64,
    /// Global age for oldest-first policies.
    order: u64,
    unit: usize,
    batch_id: u64,
    target: ShaderTarget,
    program: Arc<Program>,
    payload: GroupPayload,
    /// Lanes in use: 4 for a quad, 1 to 4 for vertices. Unused lanes read
    /// as finished.
    lanes: usize,
    /// The lanes' emulator threads; `None` while a queued group waits for
    /// a unit.
    threads: Option<[ThreadId; GROUP_LANES]>,
    finished: [bool; GROUP_LANES],
    killed: [bool; GROUP_LANES],
    state: GroupState,
    /// Mirror of the (lockstep) program counter for dependency checks.
    pc: usize,
    /// Cycle at which each temp register's last producer completes.
    reg_ready: [Cycle; limits::TEMPS],
    /// First cycle the instruction at `pc` may issue: the latest
    /// `reg_ready` over the temporaries it reads or writes. Refreshed
    /// whenever `pc` advances.
    ready_at: Cycle,
    inputs_reserved: usize,
    regs_reserved: usize,
    /// Pending texture request id (while `TexBlocked`).
    tex_id: Option<u64>,
}

impl Group {
    /// A fresh group of `lanes` threads; `alloc_group` fills in `id` and
    /// `order`.
    fn new(
        unit: usize,
        batch_id: u64,
        target: ShaderTarget,
        program: Arc<Program>,
        payload: GroupPayload,
        lanes: usize,
        threads: Option<[ThreadId; GROUP_LANES]>,
    ) -> Self {
        let temps = program.temps_used().max(1);
        Group {
            id: 0,
            order: 0,
            unit,
            batch_id,
            target,
            program,
            payload,
            lanes,
            threads,
            finished: std::array::from_fn(|lane| lane >= lanes),
            killed: [false; GROUP_LANES],
            state: GroupState::Ready,
            pc: 0,
            reg_ready: [0; limits::TEMPS],
            ready_at: 0,
            inputs_reserved: lanes,
            regs_reserved: lanes * temps,
            tex_id: None,
        }
    }

    /// The spawned threads of the lanes in use.
    fn live_threads(&self) -> &[ThreadId] {
        match &self.threads {
            Some(threads) => &threads[..self.lanes],
            None => &[],
        }
    }

    /// Moves to the next instruction and recomputes when it may issue.
    fn advance(&mut self) {
        self.pc += 1;
        let temps = self.program.temp_operands(self.pc);
        self.ready_at = temps.iter().map(|&r| self.reg_ready[r as usize]).max().unwrap_or(0);
    }

    /// Spawns one emulator thread per lane in use, on `emu`.
    fn spawn_threads(payload: &GroupPayload, emu: &mut ShaderEmulator) -> [ThreadId; GROUP_LANES] {
        let mut threads = [ThreadId(0); GROUP_LANES];
        match payload {
            GroupPayload::Vertices(vs) => {
                for (t, v) in threads.iter_mut().zip(vs) {
                    *t = emu.spawn(&v.inputs);
                }
            }
            // All four fragments run — dead ones as helper pixels.
            GroupPayload::Quad(q) => {
                for (lane, t) in threads.iter_mut().enumerate() {
                    *t = emu.spawn(q.frag_inputs(lane));
                }
            }
        }
        threads
    }
}

/// Per-shader-unit state.
struct UnitState {
    /// Dedicated vertex unit (non-unified mode)?
    vertex_unit: bool,
    /// Groups resident on this unit.
    resident: Vec<u64>,
    /// The single running group (in-order queue mode).
    current: Option<u64>,
    /// Thread-window mode: no resident group can issue before this cycle
    /// (a lower bound on their `ready_at`s), so earlier cycles skip the
    /// walk. Set by a walk that finds nothing, lowered when a group
    /// attaches or a texture reply makes one ready.
    wake: Cycle,
    /// One functional emulator per (batch, target) with constants loaded.
    /// A unit rarely hosts more than a couple of pairs, so a linear scan
    /// over a `Vec` beats a map on the per-issue lookup path.
    emulators: Vec<((u64, ShaderTarget), ShaderEmulator)>,
    stat_busy: Counter,
    stat_instructions: Counter,
}

impl UnitState {
    fn emu(&self, batch_id: u64, target: ShaderTarget) -> Option<&ShaderEmulator> {
        self.emulators.iter().find(|(k, _)| *k == (batch_id, target)).map(|(_, e)| e)
    }

    fn emu_mut(&mut self, batch_id: u64, target: ShaderTarget) -> Option<&mut ShaderEmulator> {
        self.emulators.iter_mut().find(|(k, _)| *k == (batch_id, target)).map(|(_, e)| e)
    }
}

/// The Fragment FIFO box (crossbar + scheduler + shader pool).
pub struct FragmentFifo {
    config: ShaderConfig,
    /// Unshaded vertices from the Streamer.
    pub in_vertices: PortReceiver<VertexWork>,
    /// Interpolated quads from the Interpolator.
    pub in_quads: PortReceiver<FragQuad>,
    /// Shaded vertices to Streamer Commit.
    pub out_shaded: PortSender<ShadedVertex>,
    /// Shaded quads to the Colour Write units (early-Z path).
    pub out_color: Vec<PortSender<FragQuad>>,
    /// Shaded quads to the Z/stencil units (late-Z path).
    pub out_zstencil: Vec<PortSender<FragQuad>>,
    /// Texture requests to each texture unit.
    pub tex_requests: Vec<PortSender<QuadTexRequest>>,
    /// Texture replies from each texture unit.
    pub tex_replies: Vec<PortReceiver<QuadTexReply>>,
    units: Vec<UnitState>,
    /// Thread groups, stored in a slab: a group's id IS its slot index,
    /// so every scheduler lookup on the per-cycle issue path is an array
    /// load instead of a map walk. Slots recycle through `free_slots`
    /// after release, bounding the slab to the peak concurrent-group
    /// count (itself bounded by the shader input window).
    groups: Vec<Option<Group>>,
    /// Recycled slab slots.
    free_slots: Vec<u32>,
    /// Occupied slab slots.
    live_groups: usize,
    /// Waiting groups (in-order queue mode). In non-unified mode this
    /// holds fragment groups; vertex groups queue in `vqueue`.
    queue: VecDeque<u64>,
    /// Waiting vertex groups (in-order queue mode, non-unified only).
    vqueue: VecDeque<u64>,
    /// Completed vertex groups awaiting delivery (any order — the
    /// Streamer's commit stage reorders vertices itself).
    vertex_outbox: VecDeque<u64>,
    /// Fragment groups in admission order — the reorder buffer: shaded
    /// quads are delivered to the ROPs strictly in rasterization order,
    /// whatever order shading completes in (API blending order).
    frag_order: VecDeque<u64>,
    /// Texture requests awaiting a TU port slot.
    tex_outbox: VecDeque<QuadTexRequest>,
    /// Vertices being collected into a group.
    vertex_staging: Vec<VertexWork>,
    /// Emptied vertex-group buffers, handed to the next groups: a group
    /// is often a single vertex (the Streamer issues one per cycle at
    /// best), so a fresh buffer per group would be one per vertex.
    spare_vertex_bufs: Vec<Vec<VertexWork>>,
    /// Cycle the oldest staged vertex arrived (partial-group timeout).
    staging_since: Cycle,
    /// The cycle of the last clock, which the horizon compares the shader
    /// units' `wake` with.
    last_clock: Cycle,
    /// Fragment-pool occupancy.
    inputs_used: usize,
    regs_used: usize,
    /// Vertex-pool occupancy (non-unified mode).
    v_inputs_used: usize,
    v_regs_used: usize,
    next_order: u64,
    next_tex_id: u64,
    next_tu: usize,
    ids: ObjectIdGen,

    stat_vertex_groups: Counter,
    stat_fragment_groups: Counter,
    stat_tex_requests: Counter,
    stat_frags_shaded: Counter,
    stat_killed: Counter,
    /// Dense per-opcode latency overrides, indexed by `Opcode as usize` —
    /// the configured `instruction_latencies` map flattened once at
    /// construction so the per-thread issue path is an array load instead
    /// of a `BTreeMap<String, _>` search on the mnemonic.
    latency_table: [Option<Cycle>; Opcode::COUNT],
}

impl FragmentFifo {
    /// The name the box's signals are registered under.
    pub const NAME: &'static str = "FragmentFIFO";

    /// Builds the scheduler.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config: ShaderConfig,
        in_vertices: PortReceiver<VertexWork>,
        in_quads: PortReceiver<FragQuad>,
        out_shaded: PortSender<ShadedVertex>,
        out_color: Vec<PortSender<FragQuad>>,
        out_zstencil: Vec<PortSender<FragQuad>>,
        tex_requests: Vec<PortSender<QuadTexRequest>>,
        tex_replies: Vec<PortReceiver<QuadTexReply>>,
        stats: &mut attila_sim::StatsRegistry,
    ) -> Self {
        let mut latency_table = [None; Opcode::COUNT];
        for (mnemonic, &latency) in &config.instruction_latencies {
            if let Some(op) = Opcode::from_mnemonic(mnemonic) {
                latency_table[op as usize] = Some(latency);
            }
        }
        let mut units = Vec::new();
        for u in 0..config.fragment_units {
            units.push(UnitState {
                vertex_unit: false,
                resident: Vec::new(),
                current: None,
                wake: 0,
                emulators: Vec::new(),
                stat_busy: stats.counter(&format!("Shader{u}.busy_cycles")),
                stat_instructions: stats.counter(&format!("Shader{u}.instructions")),
            });
        }
        if !config.unified {
            for u in 0..config.vertex_units {
                units.push(UnitState {
                    vertex_unit: true,
                    resident: Vec::new(),
                    current: None,
                    wake: 0,
                    emulators: Vec::new(),
                    stat_busy: stats.counter(&format!("VertexShader{u}.busy_cycles")),
                    stat_instructions: stats.counter(&format!("VertexShader{u}.instructions")),
                });
            }
        }
        FragmentFifo {
            config,
            in_vertices,
            in_quads,
            out_shaded,
            out_color,
            out_zstencil,
            tex_requests,
            tex_replies,
            units,
            groups: Vec::new(),
            free_slots: Vec::new(),
            live_groups: 0,
            queue: VecDeque::new(),
            vqueue: VecDeque::new(),
            vertex_outbox: VecDeque::new(),
            frag_order: VecDeque::new(),
            tex_outbox: VecDeque::new(),
            vertex_staging: Vec::new(),
            spare_vertex_bufs: Vec::new(),
            staging_since: 0,
            last_clock: 0,
            inputs_used: 0,
            regs_used: 0,
            v_inputs_used: 0,
            v_regs_used: 0,
            next_order: 0,
            next_tex_id: 0,
            next_tu: 0,
            ids: ObjectIdGen::new(),
            stat_vertex_groups: stats.counter("FFIFO.vertex_groups"),
            stat_fragment_groups: stats.counter("FFIFO.fragment_groups"),
            stat_tex_requests: stats.counter("FFIFO.texture_requests"),
            stat_frags_shaded: stats.counter("FFIFO.fragments_shaded"),
            stat_killed: stats.counter("FFIFO.fragments_killed"),
            latency_table,
        }
    }

    /// Advances the scheduler and every shader unit one cycle.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the box's signals.
    pub fn clock(&mut self, cycle: Cycle) -> Result<(), SimError> {
        self.last_clock = cycle;
        self.in_vertices.try_update(cycle)?;
        self.in_quads.try_update(cycle)?;
        self.out_shaded.try_update(cycle)?;
        for p in self.out_color.iter_mut().chain(self.out_zstencil.iter_mut()) {
            p.try_update(cycle)?;
        }
        for p in &mut self.tex_requests {
            p.try_update(cycle)?;
        }
        for p in &mut self.tex_replies {
            p.try_update(cycle)?;
        }
        self.receive_tex_replies(cycle)?;
        self.admit_work(cycle)?;
        self.issue(cycle);
        self.drain_tex_outbox(cycle)?;
        self.deliver_outputs(cycle)
    }

    // --- admission -------------------------------------------------------

    fn admit_work(&mut self, cycle: Cycle) -> Result<(), SimError> {
        // Vertices first: geometry starvation stalls the whole pipeline.
        let mut new_vertex = false;
        loop {
            if self.staging_full() && self.try_spawn_vertex_group(cycle) {
                continue;
            }
            let Some(v) = self.in_vertices.peek() else { break };
            let Some(temps) = self.vertex_fits(v) else { break };
            let v = self.in_vertices.try_pop(cycle)?.expect("peeked");
            if self.config.unified {
                self.inputs_used += 1;
                self.regs_used += temps;
            } else {
                self.v_inputs_used += 1;
                self.v_regs_used += temps;
            }
            if self.vertex_staging.is_empty() {
                self.staging_since = cycle;
            }
            self.vertex_staging.push(v);
            new_vertex = true;
        }
        // Partial-group timeout: don't launch an underfilled group the
        // instant the vertex stream hiccups — wait a few cycles for the
        // rest of the quad-group, then flush (bounds the tail latency of
        // a batch without wasting thread slots on 1-vertex groups).
        if !new_vertex
            && !self.vertex_staging.is_empty()
            && cycle.saturating_sub(self.staging_since) >= STAGING_PATIENCE
        {
            self.try_spawn_vertex_group(cycle);
        }

        // Fragments.
        while let Some(q) = self.in_quads.peek() {
            let Some(need_regs) = self.quad_fits(q) else { break };
            let quad = self.in_quads.try_pop(cycle)?.expect("peeked");
            self.inputs_used += 4;
            self.regs_used += need_regs;
            self.spawn_fragment_group(quad);
        }
        Ok(())
    }

    /// Whether the staging group must be launched: it is full, or the
    /// next vertex belongs to another batch.
    fn staging_full(&self) -> bool {
        let Some(first) = self.vertex_staging.first() else { return false };
        self.vertex_staging.len() >= GROUP_LANES
            || self.in_vertices.peek().is_some_and(|v| v.batch.id != first.batch.id)
    }

    /// Admission control for a vertex: will the staged group, this vertex
    /// included, fit? Vertices reserve per-input resources. The
    /// temporaries it reserves when it does.
    fn vertex_fits(&self, v: &VertexWork) -> Option<usize> {
        let c = &self.config;
        // Inputs first: they need no look at the vertex's program.
        let (inputs_free, regs_used, regs) = if c.unified {
            (self.inputs_used < c.max_inputs, self.regs_used, c.temp_registers)
        } else {
            let threads = c.vertex_units * c.vertex_threads;
            (self.v_inputs_used < threads, self.v_regs_used, c.vertex_units * c.vertex_registers)
        };
        if !inputs_free {
            return None;
        }
        let temps = v.batch.state.vertex_program.temps_used().max(1);
        (regs_used + temps <= regs).then_some(temps)
    }

    /// Admission control for a quad: the registers its four fragments
    /// reserve, when the pool has them and four inputs free.
    fn quad_fits(&self, q: &FragQuad) -> Option<usize> {
        if self.inputs_used + 4 > self.config.max_inputs {
            return None;
        }
        let need_regs = 4 * q.tri.batch.state.fragment_program.temps_used().max(1);
        (self.regs_used + need_regs <= self.config.temp_registers).then_some(need_regs)
    }

    fn try_spawn_vertex_group(&mut self, _cycle: Cycle) -> bool {
        if self.vertex_staging.is_empty() {
            return false;
        }
        let batch = Arc::clone(&self.vertex_staging[0].batch);
        let program = Arc::clone(&batch.state.vertex_program);
        // In non-unified mode each vertex is its own thread (paper §2.3);
        // grouping only happens on unified hardware.
        let take = if self.config.unified {
            self.vertex_staging.len().min(GROUP_LANES)
        } else {
            1
        };
        let mut vertices = self.spare_vertex_bufs.pop().unwrap_or_default();
        vertices.extend(self.vertex_staging.drain(..take));
        let lanes = vertices.len();
        let payload = GroupPayload::Vertices(vertices);
        let queued = self.config.scheduling == ShaderScheduling::InOrderQueue;
        // Thread-window groups are placed on a unit immediately; queued
        // groups are materialized on whichever unit frees up first.
        let (unit, threads) = if queued {
            (usize::MAX, None)
        } else {
            let unit = self.pick_unit(true).expect("an eligible unit always exists");
            let emu = Self::emulator_for(
                &mut self.units[unit],
                batch.id,
                ShaderTarget::Vertex,
                &program,
                &batch.state.vertex_constants,
            );
            (unit, Some(Group::spawn_threads(&payload, emu)))
        };
        let gid = self.alloc_group(Group::new(
            unit,
            batch.id,
            ShaderTarget::Vertex,
            program,
            payload,
            lanes,
            threads,
        ));
        self.attach(gid, unit);
        self.stat_vertex_groups.inc();
        true
    }

    fn spawn_fragment_group(&mut self, quad: FragQuad) {
        let batch = Arc::clone(&quad.tri.batch);
        let program = Arc::clone(&batch.state.fragment_program);
        let payload = GroupPayload::Quad(quad);
        let queued = self.config.scheduling == ShaderScheduling::InOrderQueue;
        let (unit, threads) = if queued {
            (usize::MAX, None)
        } else {
            let unit = self.pick_unit(false).expect("fragment units always exist");
            let emu = Self::emulator_for(
                &mut self.units[unit],
                batch.id,
                ShaderTarget::Fragment,
                &program,
                &batch.state.fragment_constants,
            );
            (unit, Some(Group::spawn_threads(&payload, emu)))
        };
        let gid = self.alloc_group(Group::new(
            unit,
            batch.id,
            ShaderTarget::Fragment,
            program,
            payload,
            GROUP_LANES,
            threads,
        ));
        self.attach(gid, unit);
        self.frag_order.push_back(gid);
        self.stat_fragment_groups.inc();
    }

    fn alloc_group(&mut self, mut g: Group) -> u64 {
        g.order = self.next_order;
        self.next_order += 1;
        let slot = match self.free_slots.pop() {
            Some(s) => s as usize,
            None => {
                self.groups.push(None);
                self.groups.len() - 1
            }
        };
        g.id = slot as u64;
        self.groups[slot] = Some(g);
        self.live_groups += 1;
        slot as u64
    }

    fn attach(&mut self, gid: u64, unit: usize) {
        if self.config.scheduling == ShaderScheduling::InOrderQueue {
            // Queue mode: the group waits in the shader input queue until
            // a unit of the right kind frees up.
            let vertex = self.groups[gid as usize].as_ref().expect("group exists").target
                == ShaderTarget::Vertex;
            if vertex && !self.config.unified {
                self.vqueue.push_back(gid);
            } else {
                self.queue.push_back(gid);
            }
        } else {
            let unit = &mut self.units[unit];
            unit.resident.push(gid);
            // A fresh group may issue at once.
            unit.wake = 0;
        }
    }

    /// Queue mode: places a waiting group onto `unit`, spawning its
    /// threads in that unit's emulator.
    fn materialize(&mut self, gid: u64, unit_idx: usize) {
        let g = self.groups[gid as usize].as_mut().expect("queued group exists");
        debug_assert!(g.threads.is_none());
        g.unit = unit_idx;
        let (program, constants): (Arc<Program>, Arc<Vec<Vec4>>) = match &g.payload {
            GroupPayload::Vertices(vs) => (
                Arc::clone(&vs[0].batch.state.vertex_program),
                Arc::clone(&vs[0].batch.state.vertex_constants),
            ),
            GroupPayload::Quad(q) => (
                Arc::clone(&q.tri.batch.state.fragment_program),
                Arc::clone(&q.tri.batch.state.fragment_constants),
            ),
        };
        let emu =
            Self::emulator_for(&mut self.units[unit_idx], g.batch_id, g.target, &program, &constants);
        g.threads = Some(Group::spawn_threads(&g.payload, emu));
        self.units[unit_idx].resident.push(gid);
        self.units[unit_idx].current = Some(gid);
    }

    /// Chooses the least-loaded eligible unit, or `None` if dedicated
    /// vertex units are saturated.
    fn pick_unit(&self, vertex: bool) -> Option<usize> {
        let want_vertex_unit = vertex && !self.config.unified;
        let candidates = self
            .units
            .iter()
            .enumerate()
            .filter(|(_, u)| u.vertex_unit == want_vertex_unit);
        candidates.min_by_key(|(_, u)| u.resident.len()).map(|(i, _)| i)
    }

    fn emulator_for<'a>(
        unit: &'a mut UnitState,
        batch_id: u64,
        target: ShaderTarget,
        program: &Arc<Program>,
        constants: &Arc<Vec<Vec4>>,
    ) -> &'a mut ShaderEmulator {
        match unit.emulators.iter().position(|(k, _)| *k == (batch_id, target)) {
            Some(i) => &mut unit.emulators[i].1,
            None => {
                let mut emu = ShaderEmulator::new(Arc::clone(program));
                for (i, c) in constants.iter().take(limits::PARAMS).enumerate() {
                    emu.set_constant(i, *c);
                }
                unit.emulators.push(((batch_id, target), emu));
                &mut unit.emulators.last_mut().expect("just pushed").1
            }
        }
    }

    // --- execution -------------------------------------------------------

    fn issue(&mut self, cycle: Cycle) {
        for unit_idx in 0..self.units.len() {
            if self.units[unit_idx].wake > cycle {
                continue;
            }
            let mut issued_any = false;
            for _ in 0..self.config.issue_per_cycle.max(1) {
                let Some(gid) = self.select_group(unit_idx, cycle) else { break };
                if self.issue_group(cycle, gid) {
                    issued_any = true;
                } else {
                    break;
                }
            }
            if issued_any {
                self.units[unit_idx].stat_busy.inc();
            }
        }
    }

    /// Picks the group to issue on `unit` this cycle.
    fn select_group(&mut self, unit: usize, cycle: Cycle) -> Option<u64> {
        match self.config.scheduling {
            ShaderScheduling::ThreadWindow => {
                // Oldest ready group whose next instruction's operands are
                // available. Groups attach in allocation order and `order`
                // is assigned monotonically, so `resident` is sorted by
                // age and the first ready group is the oldest.
                let mut wake = Cycle::MAX;
                for gid in &self.units[unit].resident {
                    let Some(g) = self.groups[*gid as usize].as_ref() else { continue };
                    if g.state != GroupState::Ready {
                        continue;
                    }
                    if g.ready_at <= cycle {
                        return Some(g.id);
                    }
                    wake = wake.min(g.ready_at);
                }
                self.units[unit].wake = wake;
                None
            }
            ShaderScheduling::InOrderQueue => {
                // Each unit runs one thread group to completion; groups
                // START in shader-input-queue order, taken by whichever
                // eligible unit frees up first. A texture stall on the
                // running group stalls its whole unit — the behaviour the
                // Section 5 case study measures.
                if self.units[unit].current.is_none() {
                    let q = if self.units[unit].vertex_unit {
                        &mut self.vqueue
                    } else {
                        &mut self.queue
                    };
                    match q.pop_front() {
                        Some(gid) => self.materialize(gid, unit),
                        None => return None,
                    }
                }
                let gid = self.units[unit].current?;
                let g = self.groups[gid as usize].as_ref()?;
                if g.state == GroupState::Ready && g.ready_at <= cycle {
                    Some(gid)
                } else {
                    None
                }
            }
        }
    }

    /// Issues one instruction for every live thread of `gid` in lockstep.
    /// Returns `false` if nothing was issued.
    fn issue_group(&mut self, cycle: Cycle, gid: u64) -> bool {
        let g = self.groups[gid as usize].as_mut().expect("group exists");
        let unit = &mut self.units[g.unit];
        let emu = unit.emu_mut(g.batch_id, g.target).expect("emulator created at spawn");
        let threads = g.threads.expect("resident groups have spawned threads");
        let step = emu.step_group(&threads[..g.lanes], &g.finished);
        unit.stat_instructions.inc();
        for lane in 0..GROUP_LANES {
            if step.finished[lane] {
                g.finished[lane] = true;
                g.killed[lane] = step.killed[lane];
                if step.killed[lane] {
                    self.stat_killed.inc();
                }
            }
        }

        if let Some(tex) = step.texture {
            let batch = match &g.payload {
                GroupPayload::Quad(q) => Arc::clone(&q.tri.batch),
                GroupPayload::Vertices(v) => Arc::clone(&v[0].batch),
            };
            let id = self.next_tex_id;
            self.next_tex_id += 1;
            g.tex_id = Some(id);
            g.state = GroupState::TexBlocked;
            self.stat_tex_requests.inc();
            self.tex_outbox.push_back(QuadTexRequest {
                id,
                shader_unit: g.unit,
                sampler: tex.sampler,
                coords: tex.coords,
                lod_bias: tex.lod_bias,
                projective: tex.projective,
                batch,
                group: g.id as u32,
            });
            return true;
        }

        if step.executed {
            // The configurable per-opcode latency table (paper: execution
            // stages range from 1 to 9 cycles).
            let latency = self.latency_table[step.op as usize].unwrap_or(step.latency);
            if let Some(r) = g.program.temp_dst(g.pc) {
                let r = &mut g.reg_ready[r as usize];
                *r = (*r).max(cycle + latency);
            }
            g.advance();
        }
        if g.finished.iter().all(|f| *f) {
            g.state = GroupState::Finished;
            if g.target == ShaderTarget::Vertex {
                self.vertex_outbox.push_back(gid);
            }
            if self.config.scheduling == ShaderScheduling::InOrderQueue {
                self.units[g.unit].current = None;
            }
        }
        true
    }

    fn drain_tex_outbox(&mut self, cycle: Cycle) -> Result<(), SimError> {
        while !self.tex_outbox.is_empty() {
            // Round-robin distribution over the TU pool (the paper notes
            // its distribution algorithm is "not properly optimized" —
            // neither is round robin, deliberately).
            let n = self.tex_requests.len();
            let mut sent = false;
            for off in 0..n {
                let tu = (self.next_tu + off) % n;
                if self.tex_requests[tu].can_send(cycle) {
                    let req = self.tex_outbox.pop_front().expect("front exists");
                    self.tex_requests[tu].try_send(cycle, req)?;
                    self.next_tu = (tu + 1) % n;
                    sent = true;
                    break;
                }
            }
            if !sent {
                break;
            }
        }
        Ok(())
    }

    fn receive_tex_replies(&mut self, cycle: Cycle) -> Result<(), SimError> {
        for tu in 0..self.tex_replies.len() {
            while let Some(reply) = self.tex_replies[tu].try_pop(cycle)? {
                // The reply names its group's slot; a reply nobody waits
                // for (a duplicate, or one whose slot has been recycled)
                // does not match the slot's pending request id.
                let Some(g) = self.groups.get_mut(reply.group as usize).and_then(|s| s.as_mut())
                else {
                    continue;
                };
                if g.tex_id != Some(reply.id) {
                    continue;
                }
                let unit = &mut self.units[g.unit];
                let emu = unit
                    .emu_mut(g.batch_id, g.target)
                    .expect("emulator alive while group blocked");
                for (i, &tid) in g.live_threads().iter().enumerate() {
                    if !g.finished[i] {
                        emu.complete_texture(tid, reply.texels[i]);
                    }
                }
                // The TEX destination register becomes ready now.
                if let Some(r) = g.program.temp_dst(g.pc) {
                    g.reg_ready[r as usize] = cycle + 1;
                }
                g.advance();
                g.tex_id = None;
                g.state = GroupState::Ready;
                unit.wake = unit.wake.min(g.ready_at);
            }
        }
        Ok(())
    }

    // --- completion ------------------------------------------------------

    fn deliver_outputs(&mut self, cycle: Cycle) -> Result<(), SimError> {
        while let Some(&gid) = self.vertex_outbox.front() {
            if !self.try_deliver(cycle, gid)? {
                break;
            }
            self.vertex_outbox.pop_front();
            self.release_group(gid);
        }
        // Fragment reorder buffer: only the oldest quad may leave, and
        // only once its shading has finished.
        while let Some(&gid) = self.frag_order.front() {
            let finished = self.groups[gid as usize]
                .as_ref()
                .map(|g| g.state == GroupState::Finished)
                .unwrap_or(false);
            if !finished || !self.try_deliver(cycle, gid)? {
                break;
            }
            self.frag_order.pop_front();
            self.release_group(gid);
        }
        Ok(())
    }

    fn try_deliver(&mut self, cycle: Cycle, gid: u64) -> Result<bool, SimError> {
        let g = self.groups[gid as usize].as_ref().expect("group in outbox");
        let unit = &self.units[g.unit];
        let emu = unit.emu(g.batch_id, g.target).expect("emulator alive");
        match &g.payload {
            GroupPayload::Vertices(vs) => {
                if self.out_shaded.sendable(cycle) < vs.len() {
                    return Ok(false);
                }
                for (i, v) in vs.iter().enumerate() {
                    let outputs: Arc<VertexOutputs> = Arc::new(emu.outputs(g.live_threads()[i]));
                    let sv = ShadedVertex {
                        obj: DynamicObject::child_of(self.ids.next_id(), &v.obj),
                        batch: Arc::clone(&v.batch),
                        seq: v.seq,
                        index: v.index,
                        outputs,
                    };
                    // (borrow rules: collect first, send after)
                    self.out_shaded.try_send(cycle, sv)?;
                }
                Ok(true)
            }
            GroupPayload::Quad(q) => {
                if !self.rop_port(q).can_send(cycle) {
                    return Ok(false);
                }
                // Move the quad out without cloning its per-fragment
                // input vectors (the group is released right after this).
                let g = self.groups[gid as usize].as_mut().expect("group in outbox");
                let payload =
                    std::mem::replace(&mut g.payload, GroupPayload::Vertices(Vec::new()));
                let mut quad = match payload {
                    GroupPayload::Quad(q) => q,
                    _ => unreachable!(), // variant excluded by the surrounding match
                };
                let g = self.groups[gid as usize].as_ref().expect("group in outbox");
                let unit = &self.units[g.unit];
                let emu = unit.emu(g.batch_id, g.target).expect("emulator alive");
                let mut any_alive = false;
                for i in 0..4 {
                    quad.frags[i].color = emu.output(g.live_threads()[i], 0);
                    if g.killed[i] {
                        quad.frags[i].alive = false;
                    }
                    if quad.frags[i].alive {
                        any_alive = true;
                        self.stat_frags_shaded.inc();
                    }
                }
                quad.inputs = Vec::new();
                if any_alive {
                    let send_early = quad.tri.batch.state.early_z();
                    if send_early {
                        let u = route_rop(quad.x, quad.y, self.out_color.len());
                        self.out_color[u].try_send(cycle, quad)?;
                    } else {
                        let u = route_rop(quad.x, quad.y, self.out_zstencil.len());
                        self.out_zstencil[u].try_send(cycle, quad)?;
                    }
                }
                Ok(true)
            }
        }
    }

    /// Thread-window mode: whether a clock could do anything besides issue
    /// instructions (which each shader unit's `wake` bounds) — admit an
    /// input, send a texture request or deliver a result.
    fn can_progress(&self) -> bool {
        if self.staging_full()
            || self.in_vertices.peek().is_some_and(|v| self.vertex_fits(v).is_some())
            || self.in_quads.peek().is_some_and(|q| self.quad_fits(q).is_some())
        {
            return true;
        }
        if !self.tex_outbox.is_empty() && self.tex_requests.iter().any(|p| p.credits() > 0) {
            return true;
        }
        let group = |gid: &u64| self.groups[*gid as usize].as_ref();
        let vertices = self.vertex_outbox.front().and_then(group);
        if vertices.is_some_and(|g| g.lanes <= self.out_shaded.credits()) {
            return true;
        }
        // The reorder buffer releases only its head, once finished.
        self.frag_order.front().and_then(group).is_some_and(|g| {
            g.state == GroupState::Finished
                && matches!(&g.payload, GroupPayload::Quad(q) if self.rop_port(q).credits() > 0)
        })
    }

    /// The port a shaded quad leaves by: its Colour Write unit's on the
    /// early-Z path, its Z/stencil unit's on the late one.
    fn rop_port(&self, q: &FragQuad) -> &PortSender<FragQuad> {
        let ports = if q.tri.batch.state.early_z() { &self.out_color } else { &self.out_zstencil };
        &ports[route_rop(q.x, q.y, ports.len())]
    }

    fn release_group(&mut self, gid: u64) {
        let g = self.groups[gid as usize].take().expect("group exists");
        self.free_slots.push(gid as u32);
        self.live_groups -= 1;
        let unit = &mut self.units[g.unit];
        unit.resident.retain(|x| *x != gid);
        let emu = unit.emu_mut(g.batch_id, g.target).expect("alive");
        for &tid in g.live_threads() {
            emu.retire(tid);
        }
        // Prune idle emulators of other batches to bound memory.
        if unit.emulators.len() > 8 {
            let batch = g.batch_id;
            unit.emulators.retain(|((b, _), e)| *b == batch || e.live_threads() > 0);
        }
        if let GroupPayload::Vertices(mut vertices) = g.payload {
            // (A delivered quad group leaves a placeholder with no buffer.)
            if vertices.capacity() > 0 {
                vertices.clear();
                self.spare_vertex_bufs.push(vertices);
            }
        }
        let vertex = g.target == ShaderTarget::Vertex && !self.config.unified;
        if vertex {
            self.v_inputs_used -= g.inputs_reserved;
            self.v_regs_used -= g.regs_reserved;
        } else {
            self.inputs_used -= g.inputs_reserved;
            self.regs_used -= g.regs_reserved;
        }
    }

    /// Fragments shaded so far.
    pub fn fragments_shaded(&self) -> u64 {
        self.stat_frags_shaded.value()
    }

    /// Quad texture requests issued so far.
    pub fn texture_requests(&self) -> u64 {
        self.stat_tex_requests.value()
    }

    /// Per-unit busy-cycle counters, fragment/unified units first.
    pub fn unit_busy_cycles(&self) -> Vec<u64> {
        self.units.iter().map(|u| u.stat_busy.value()).collect()
    }
}

impl Unit for FragmentFifo {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn busy(&self) -> bool {
        self.live_groups > 0
            || !self.vertex_staging.is_empty()
            || !self.in_vertices.idle()
            || !self.in_quads.idle()
            || !self.tex_outbox.is_empty()
            || !self.vertex_outbox.is_empty()
            || !self.frag_order.is_empty()
    }

    /// The box's event horizon (see [`Horizon`]). In thread-window mode it
    /// is `Busy` while a shader unit may issue on the next clock (its
    /// `wake` has come; O(units) — no group walk) or a clock can progress
    /// otherwise (see `can_progress`); else the earliest `wake` or the
    /// staging group's timeout. In-order-queue mode is `Busy` while the box
    /// holds any work. The texture-reply queues need no term: every clock
    /// takes all of them.
    fn work_horizon(&self) -> Horizon {
        let in_order = self.config.scheduling == ShaderScheduling::InOrderQueue;
        let issue = self.units.iter().map(|u| u.wake).min().unwrap_or(Cycle::MAX);
        let busy = if in_order {
            !self.in_vertices.is_empty()
                || !self.in_quads.is_empty()
                || self.live_groups > 0
                || !self.vertex_staging.is_empty()
                || !self.tex_outbox.is_empty()
                || !self.vertex_outbox.is_empty()
                || !self.frag_order.is_empty()
        } else {
            // The unit check first: it is the cheap one, and the usual
            // answer while the shaders are the bottleneck.
            issue <= self.last_clock + 1 || self.can_progress()
        };
        if busy {
            return Horizon::Busy;
        }
        if in_order {
            return Horizon::Idle;
        }
        let staging = self.vertex_staging.first().map(|_| self.staging_since + STAGING_PATIENCE);
        Horizon::from_event((issue != Cycle::MAX).then_some(issue))
            .meet(Horizon::from_event(staging))
    }

    /// Objects waiting in the box's queues and reorder buffers.
    fn queued(&self) -> usize {
        self.in_vertices.len()
            + self.in_quads.len()
            + self.vertex_staging.len()
            + self.tex_outbox.len()
            + self.vertex_outbox.len()
            + self.frag_order.len()
    }
}

// Valid at a quiescent point: with no live groups the slab, queues,
// occupancy counters and per-unit emulators (recreated on demand, keyed by
// batch id) are all empty or cold-rebuildable, leaving the four monotonic
// cursors below.
impl_json_state!(FragmentFifo {
    next_order: hex,
    next_tex_id: hex,
    next_tu,
    ids as ids_issued: state,
} skip {
    "wiring: rebuilt at elaboration": config, in_vertices, in_quads, out_shaded, out_color,
        out_zstencil, tex_requests, tex_replies, stat_vertex_groups, stat_fragment_groups,
        stat_tex_requests, stat_frags_shaded, stat_killed;
    "derived: flattened from the configuration at construction": latency_table;
    "transient: scheduler occupancy, drained at the quiescent boundary (no live groups, empty \
     queues, zeroed pool usage)": units, groups, free_slots, live_groups, queue, vqueue,
        vertex_outbox, frag_order, tex_outbox, vertex_staging, spare_vertex_bufs, staging_since,
        last_clock, inputs_used, regs_used, v_inputs_used, v_regs_used;
});

impl std::fmt::Debug for FragmentFifo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FragmentFifo")
            .field("units", &self.units.len())
            .field("groups", &self.live_groups)
            .field("inputs_used", &self.inputs_used)
            .field("regs_used", &self.regs_used)
            .finish()
    }
}
