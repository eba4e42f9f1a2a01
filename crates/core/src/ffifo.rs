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

use attila_emu::isa::{limits, Bank, Opcode, Program, ShaderTarget};
use attila_emu::shader::{ShaderEmulator, StepResult, ThreadId};
use attila_emu::vector::Vec4;
use attila_json::impl_json_state;
use attila_sim::{Counter, Cycle, DynamicObject, Horizon, ObjectIdGen, PortDecl, SimError};

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

/// Threads per group: one fragment quad or up to four vertices
/// (`shader.group_size`, which config validation pins to this value).
const GROUP_LANES: usize = 4;

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

    // state: transient — scheduler occupancy below is drained at the
    // quiescent checkpoint boundary (no live groups, empty queues,
    // zeroed pool usage)
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
    /// Fragment-pool occupancy.
    inputs_used: usize,
    regs_used: usize,
    /// Vertex-pool occupancy (non-unified mode).
    v_inputs_used: usize,
    v_regs_used: usize,
    // state: checkpointed
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
    latency_table: [Option<Cycle>; Opcode::COUNT], // state: derived — flattened from config at construction
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
        let group_size = self.config.group_size.max(1) as usize;
        let mut new_vertex = false;
        loop {
            // Flush the staging group when full or the batch changes.
            let flush = !self.vertex_staging.is_empty()
                && (self.vertex_staging.len() >= group_size
                    || self
                        .in_vertices
                        .peek()
                        .map(|v| v.batch.id != self.vertex_staging[0].batch.id)
                        .unwrap_or(false));
            if flush && self.try_spawn_vertex_group(cycle) {
                continue;
            }
            let Some(v) = self.in_vertices.peek() else { break };
            // Admission control: will the staged group (this vertex
            // included) fit? Vertices reserve per-input resources.
            let temps = v.batch.state.vertex_program.temps_used().max(1);
            let fits = if self.config.unified {
                self.inputs_used < self.config.max_inputs
                    && self.regs_used + temps <= self.config.temp_registers
            } else {
                self.v_inputs_used < self.config.vertex_units * self.config.vertex_threads
                    && self.v_regs_used + temps
                        <= self.config.vertex_units * self.config.vertex_registers
            };
            if !fits {
                break;
            }
            let v = self.in_vertices.try_pop(cycle)?.expect("peeked"); // lint:allow(clock-unwrap) head existence checked via peek above
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
        const STAGING_PATIENCE: Cycle = 8;
        if !new_vertex
            && !self.vertex_staging.is_empty()
            && cycle.saturating_sub(self.staging_since) >= STAGING_PATIENCE
        {
            self.try_spawn_vertex_group(cycle);
        }

        // Fragments.
        while let Some(q) = self.in_quads.peek() {
            let temps = q.tri.batch.state.fragment_program.temps_used().max(1);
            let need_regs = 4 * temps;
            if self.inputs_used + 4 > self.config.max_inputs
                || self.regs_used + need_regs > self.config.temp_registers
            {
                break;
            }
            let quad = self.in_quads.try_pop(cycle)?.expect("peeked"); // lint:allow(clock-unwrap) head existence checked via peek above
            self.inputs_used += 4;
            self.regs_used += need_regs;
            self.spawn_fragment_group(quad);
        }
        Ok(())
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
            self.vertex_staging.len().min(self.config.group_size.max(1) as usize)
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
            self.units[unit].resident.push(gid);
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
                self.units[unit]
                    .resident
                    .iter()
                    .filter_map(|gid| self.groups[*gid as usize].as_ref())
                    .find(|g| g.state == GroupState::Ready && self.deps_ready(g, cycle))
                    .map(|g| g.id)
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
                if g.state == GroupState::Ready && self.deps_ready(g, cycle) {
                    Some(gid)
                } else {
                    None
                }
            }
        }
    }

    fn deps_ready(&self, g: &Group, cycle: Cycle) -> bool {
        let inst = g.program.instructions()[g.pc];
        for src in inst.srcs.iter().flatten() {
            if src.reg.bank == Bank::Temp && g.reg_ready[src.reg.index as usize] > cycle {
                return false;
            }
        }
        if let Some(dst) = inst.dst {
            if dst.reg.bank == Bank::Temp && g.reg_ready[dst.reg.index as usize] > cycle {
                return false;
            }
        }
        true
    }

    /// Issues one instruction for every live thread of `gid` in lockstep.
    /// Returns `false` if nothing was issued.
    fn issue_group(&mut self, cycle: Cycle, gid: u64) -> bool {
        let g = self.groups[gid as usize].as_mut().expect("group exists");
        let unit = &mut self.units[g.unit];
        let emu = unit.emu_mut(g.batch_id, g.target).expect("emulator created at spawn");
        let inst = g.program.instructions()[g.pc];

        let mut tex_coords: [Option<Vec4>; 4] = [None; 4];
        let mut tex_meta: Option<(u8, f32, bool)> = None;
        let mut advanced = false;
        let threads = g.threads.expect("resident groups have spawned threads");
        for (i, &tid) in threads[..g.lanes].iter().enumerate() {
            if g.finished[i] {
                continue;
            }
            match emu.step(tid) {
                StepResult::Executed { latency } => {
                    advanced = true;
                    // The configurable per-opcode latency table (paper:
                    // execution stages range from 1 to 9 cycles).
                    let latency = self.latency_table[inst.op as usize].unwrap_or(latency);
                    if let Some(dst) = inst.dst {
                        if dst.reg.bank == Bank::Temp {
                            let r = &mut g.reg_ready[dst.reg.index as usize];
                            *r = (*r).max(cycle + latency);
                        }
                    }
                }
                StepResult::Texture(req) => {
                    tex_coords[i] = Some(req.coords);
                    tex_meta = Some((req.sampler, req.lod_bias, req.projective));
                }
                StepResult::Finished { killed } => {
                    g.finished[i] = true;
                    g.killed[i] = killed;
                    if killed {
                        self.stat_killed.inc();
                    }
                }
            }
        }
        unit.stat_instructions.inc();

        if let Some((sampler, lod_bias, projective)) = tex_meta {
            // Build the quad texture request; killed/finished helper slots
            // reuse a live thread's coordinates for derivatives.
            let fallback = tex_coords.iter().flatten().next().copied().unwrap_or(Vec4::ZERO);
            let coords = [
                tex_coords[0].unwrap_or(fallback),
                tex_coords[1].unwrap_or(fallback),
                tex_coords[2].unwrap_or(fallback),
                tex_coords[3].unwrap_or(fallback),
            ];
            let batch = match &g.payload {
                GroupPayload::Quad(q) => Arc::clone(&q.tri.batch),
                GroupPayload::Vertices(v) => Arc::clone(&v[0].batch),
            };
            let id = self.next_tex_id;
            self.next_tex_id += 1;
            g.tex_id = Some(id);
            g.state = GroupState::TexBlocked;
            self.stat_tex_requests.inc();
            let unit_idx = g.unit;
            self.tex_outbox.push_back(QuadTexRequest {
                id,
                shader_unit: unit_idx,
                sampler,
                coords,
                lod_bias,
                projective,
                batch,
                group: g.id as u32,
            });
            return true;
        }

        if advanced {
            g.pc += 1;
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
                    let req = self.tex_outbox.pop_front().expect("front exists"); // lint:allow(clock-unwrap) emptiness checked above
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
                    .expect("emulator alive while group blocked"); // lint:allow(clock-unwrap) emulators outlive their blocked groups
                for (i, &tid) in g.live_threads().iter().enumerate() {
                    if !g.finished[i] {
                        emu.complete_texture(tid, reply.texels[i]);
                    }
                }
                // The TEX destination register becomes ready now.
                let inst = g.program.instructions()[g.pc];
                if let Some(dst) = inst.dst {
                    if dst.reg.bank == Bank::Temp {
                        g.reg_ready[dst.reg.index as usize] = cycle + 1;
                    }
                }
                g.pc += 1;
                g.tex_id = None;
                g.state = GroupState::Ready;
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
        let g = self.groups[gid as usize].as_ref().expect("group in outbox"); // lint:allow(clock-unwrap) outbox ids always reference live groups
        let unit = &self.units[g.unit];
        let emu = unit.emu(g.batch_id, g.target).expect("emulator alive"); // lint:allow(clock-unwrap) emulators outlive their groups
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
                let early = q.tri.batch.state.early_z();
                let (ports, unit_idx) = if early {
                    let u = route_rop(q.x, q.y, self.out_color.len());
                    (&self.out_color, u)
                } else {
                    let u = route_rop(q.x, q.y, self.out_zstencil.len());
                    (&self.out_zstencil, u)
                };
                if !ports[unit_idx].can_send(cycle) {
                    return Ok(false);
                }
                // Move the quad out without cloning its per-fragment
                // input vectors (the group is released right after this).
                let g = self.groups[gid as usize].as_mut().expect("group in outbox"); // lint:allow(clock-unwrap) outbox ids always reference live groups
                let payload =
                    std::mem::replace(&mut g.payload, GroupPayload::Vertices(Vec::new()));
                let mut quad = match payload {
                    GroupPayload::Quad(q) => q,
                    _ => unreachable!(), // lint:allow(clock-unwrap) variant excluded by the surrounding match
                };
                let g = self.groups[gid as usize].as_ref().expect("group in outbox"); // lint:allow(clock-unwrap) outbox ids always reference live groups
                let unit = &self.units[g.unit];
                let emu = unit.emu(g.batch_id, g.target).expect("alive"); // lint:allow(clock-unwrap) emulators outlive their groups
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

    /// The box's event horizon: busy while shader groups, staging buffers
    /// or reorder queues hold work, otherwise the earliest arrival across
    /// the vertex wire, the quad wire, and every texture-reply wire (see
    /// [`Horizon`]).
    fn work_horizon(&self) -> Horizon {
        if self.live_groups > 0
            || !self.vertex_staging.is_empty()
            || !self.tex_outbox.is_empty()
            || !self.vertex_outbox.is_empty()
            || !self.frag_order.is_empty()
        {
            return Horizon::Busy;
        }
        let mut h = self.in_vertices.work_horizon().meet(self.in_quads.work_horizon());
        for p in &self.tex_replies {
            h = h.meet(p.work_horizon());
        }
        h
    }

    fn declared_ports(&self) -> Vec<PortDecl> {
        let mut ports = vec![
            self.in_vertices.decl(),
            self.in_quads.decl(),
            self.out_shaded.decl(),
        ];
        ports.extend(self.out_color.iter().map(|p| p.decl()));
        ports.extend(self.out_zstencil.iter().map(|p| p.decl()));
        ports.extend(self.tex_requests.iter().map(|p| p.decl()));
        ports.extend(self.tex_replies.iter().map(|p| p.decl()));
        ports
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
    ids_issued = ids: state,
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
