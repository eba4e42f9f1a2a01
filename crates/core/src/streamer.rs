//! The Streamer: vertex and index fetch, format conversion, and the
//! post-shading vertex cache.
//!
//! Per the paper (§2.2): "The Streamer unit task is to request input
//! vertex attribute data to the Memory Controller, convert the data to the
//! internal format (4 component 32 bit float point vectors) and issue
//! vertices to a shader unit. A vertex post shading cache, storing indexed
//! vertices already shaded, enables reusing the vertex shader results
//! for vertices in adjacent triangles."
//!
//! The original implements the Streamer as four boxes (Fetch, Loader,
//! Commit and the controller); here one box contains those stages, with
//! the commit reorder buffer making shader-completion order irrelevant.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use attila_emu::vector::Vec4;
use attila_json::impl_json_state;
use attila_mem::{Client, MemOp, MemRequest, MemoryController};
use attila_sim::{Counter, Cycle, DynamicObject, Horizon, ObjectIdGen, PortDecl, SimError};

use crate::config::StreamerConfig;
use crate::port::{PortReceiver, PortSender};
use crate::types::{Batch, ShadedVertex, VertexOutputs, VertexWork};
use crate::unit::Unit;

/// In-flight vertex whose attribute fetches are outstanding.
#[derive(Debug)]
struct PendingVertex {
    batch: Arc<Batch>,
    seq: u32,
    index: u32,
    inputs: Vec<Vec4>,
    replies_left: usize,
}

/// Per-batch commit state: reorder buffer + progress.
#[derive(Debug)]
struct BatchCommit {
    batch_id: u64,
    reorder: BTreeMap<u32, ShadedVertex>,
    next_seq: u32,
    total: u32,
}

/// The batch currently being fetched.
#[derive(Debug)]
struct ActiveBatch {
    batch: Arc<Batch>,
    next_seq: u32,
    total: u32,
}

/// The Streamer box.
#[derive(Debug)]
pub struct Streamer {
    config: StreamerConfig,
    /// Draw batches from the Command Processor.
    pub in_draws: PortReceiver<Arc<Batch>>,
    /// Unshaded vertices to the shader scheduler.
    pub out_work: PortSender<VertexWork>,
    /// Shaded vertices back from the shader pool (Streamer Commit).
    pub in_shaded: PortReceiver<ShadedVertex>,
    /// In-order shaded vertices to Primitive Assembly.
    pub out_assembled: PortSender<ShadedVertex>,

    // state: transient — per-batch fetch/shade bookkeeping below is
    // drained at the quiescent checkpoint boundary (no active batch,
    // no outstanding memory or shader work)
    active: Option<ActiveBatch>,
    commits: VecDeque<BatchCommit>,
    ready_to_shade: VecDeque<VertexWork>,
    pending: BTreeMap<u64, usize>,
    pending_slots: Vec<Option<PendingVertex>>,
    outstanding_mem: usize,
    /// Post-shading vertex cache for the batch being fetched
    /// (index → outputs), LRU-evicted.
    vcache: VecDeque<(u32, Arc<VertexOutputs>)>,
    vcache_batch: u64,
    // state: checkpointed
    /// Recently fetched 64-byte index-buffer chunks.
    index_chunks: VecDeque<u64>,
    index_chunk_pending: Option<(u64, u64)>, // state: transient — in-flight chunk fetch, drained at the boundary
    /// Scratch for one vertex's attribute-fetch transactions, `(address,
    /// size)`; empty between vertices.
    fetch_pieces: Vec<(u64, u32)>, // state: transient — per-vertex scratch
    next_req_id: u64,
    ids: ObjectIdGen,

    // Statistics.
    stat_vertices: Counter,
    stat_vcache_hits: Counter,
    stat_shaded: Counter,
}

impl Streamer {
    /// The name the box's signals are registered under.
    pub const NAME: &'static str = "Streamer";

    /// Builds the Streamer around its four ports.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config: StreamerConfig,
        in_draws: PortReceiver<Arc<Batch>>,
        out_work: PortSender<VertexWork>,
        in_shaded: PortReceiver<ShadedVertex>,
        out_assembled: PortSender<ShadedVertex>,
        stats: &mut attila_sim::StatsRegistry,
    ) -> Self {
        Streamer {
            config,
            in_draws,
            out_work,
            in_shaded,
            out_assembled,
            active: None,
            commits: VecDeque::new(),
            ready_to_shade: VecDeque::new(),
            pending: BTreeMap::new(),
            pending_slots: Vec::new(),
            outstanding_mem: 0,
            vcache: VecDeque::new(),
            vcache_batch: u64::MAX,
            index_chunks: VecDeque::new(),
            index_chunk_pending: None,
            fetch_pieces: Vec::new(),
            next_req_id: 0,
            ids: ObjectIdGen::new(),
            stat_vertices: stats.counter("Streamer.vertices"),
            stat_vcache_hits: stats.counter("Streamer.vertex_cache_hits"),
            stat_shaded: stats.counter("Streamer.shaded_received"),
        }
    }

    fn vcache_lookup(&mut self, batch_id: u64, index: u32) -> Option<Arc<VertexOutputs>> {
        if self.vcache_batch != batch_id {
            return None;
        }
        let pos = self.vcache.iter().position(|(i, _)| *i == index)?;
        let entry = self.vcache.remove(pos).expect("position valid");
        let out = Arc::clone(&entry.1);
        self.vcache.push_back(entry);
        Some(out)
    }

    fn vcache_insert(&mut self, batch_id: u64, index: u32, outputs: Arc<VertexOutputs>) {
        if self.vcache_batch != batch_id {
            self.vcache.clear();
            self.vcache_batch = batch_id;
        }
        if self.vcache.iter().any(|(i, _)| *i == index) {
            return;
        }
        if self.vcache.len() >= self.config.vertex_cache_entries {
            self.vcache.pop_front();
        }
        self.vcache.push_back((index, outputs));
    }

    /// Advances the Streamer one cycle.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the box's signals.
    pub fn clock(&mut self, cycle: Cycle, mem: &mut MemoryController) -> Result<(), SimError> {
        self.in_draws.try_update(cycle)?;
        self.in_shaded.try_update(cycle)?;
        self.out_work.try_update(cycle)?;
        self.out_assembled.try_update(cycle)?;

        // 1. Collect memory replies.
        while let Some(reply) = mem.pop_reply(Client::Streamer) {
            self.outstanding_mem -= 1;
            if let Some((chunk, id)) = self.index_chunk_pending {
                if id == reply.id {
                    self.index_chunks.push_back(chunk);
                    if self.index_chunks.len() > 4 {
                        self.index_chunks.pop_front();
                    }
                    self.index_chunk_pending = None;
                    continue;
                }
            }
            if let Some(slot) = self.pending.remove(&reply.id) {
                let done = {
                    let pv = self.pending_slots[slot].as_mut().expect("slot occupied"); // lint:allow(clock-unwrap) pending maps only to occupied slots
                    pv.replies_left -= 1;
                    pv.replies_left == 0
                };
                if done {
                    let pv = self.pending_slots[slot].take().expect("slot occupied"); // lint:allow(clock-unwrap) pending maps only to occupied slots
                    self.ready_to_shade.push_back(VertexWork {
                        obj: DynamicObject::new(self.ids.next_id()),
                        batch: pv.batch,
                        seq: pv.seq,
                        index: pv.index,
                        inputs: pv.inputs,
                    });
                }
            }
        }

        // 2. Issue fetched vertices to the shader pool.
        while !self.ready_to_shade.is_empty() && self.out_work.can_send(cycle) {
            let v = self.ready_to_shade.pop_front().expect("non-empty"); // lint:allow(clock-unwrap) emptiness checked above
            self.out_work.try_send(cycle, v)?;
        }

        // 3. Start new vertices.
        for _ in 0..self.config.indices_per_cycle {
            if self.active.is_none() {
                if let Some(batch) = self.in_draws.try_pop(cycle)? {
                    let total = batch.draw.vertex_count;
                    self.commits.push_back(BatchCommit {
                        batch_id: batch.id,
                        reorder: BTreeMap::new(),
                        next_seq: 0,
                        total,
                    });
                    self.active = Some(ActiveBatch { batch, next_seq: 0, total });
                }
            }
            let Some(active) = &mut self.active else { break };
            if active.next_seq >= active.total {
                self.active = None;
                continue;
            }
            let seq = active.next_seq;
            let batch = Arc::clone(&active.batch);

            // Resolve the vertex index (with index-chunk fetch timing).
            let index = match batch.draw.index_buffer {
                None => seq,
                Some(ib) => {
                    let addr = ib + seq as u64 * 4;
                    let chunk = addr & !63;
                    if !self.index_chunks.contains(&chunk) {
                        if self.index_chunk_pending.is_none()
                            && self.outstanding_mem < self.config.max_memory_requests
                            && mem.can_accept(Client::Streamer, chunk)
                        {
                            let id = self.alloc_id();
                            self.index_chunk_pending = Some((chunk, id));
                            mem.submit(MemRequest {
                                id,
                                client: Client::Streamer,
                                addr: chunk,
                                op: MemOp::TimingRead { size: 64 },
                            })
                            .expect("can_accept checked"); // lint:allow(clock-unwrap) submit follows the can_accept check above
                            self.outstanding_mem += 1;
                        }
                        break; // stall until the chunk arrives
                    }
                    mem.gpu_mem().read_u32(addr)
                }
            };

            // Post-shading vertex cache.
            if let Some(outputs) = self.vcache_lookup(batch.id, index) {
                self.stat_vcache_hits.inc();
                self.stat_vertices.inc();
                let sv = ShadedVertex {
                    obj: DynamicObject::new(self.ids.next_id()),
                    batch: Arc::clone(&batch),
                    seq,
                    index,
                    outputs,
                };
                self.insert_committed(sv);
                if let Some(active) = &mut self.active {
                    active.next_seq += 1;
                }
                continue;
            }

            // Fetch attributes: first the transactions the fetch costs,
            // which decide whether the vertex can start this cycle at all.
            self.fetch_pieces.clear();
            for b in batch.state.attributes.iter().flatten() {
                self.fetch_pieces.extend(attila_mem::controller::split_transactions(
                    b.element_address(index),
                    b.element_bytes() as u64,
                ));
            }
            if self.outstanding_mem + self.fetch_pieces.len() > self.config.max_memory_requests
                || self.fetch_pieces.iter().any(|(a, _)| !mem.can_accept(Client::Streamer, *a))
            {
                break; // stall: too many outstanding fetches
            }
            // Then the values, read from the memory image right here
            // (execution-driven: the bytes are exact, the requests only
            // charge the time — timing reads, whose replies carry no data)
            // and converted to the internal 4x f32 format.
            let mut inputs = Vec::with_capacity(batch.state.attributes.len());
            for binding in batch.state.attributes.iter() {
                let Some(b) = binding else {
                    inputs.push(Vec4::ZERO);
                    continue;
                };
                let addr = b.element_address(index);
                let mut v = Vec4::new(0.0, 0.0, 0.0, b.default_w);
                for c in 0..b.components as usize {
                    let mut bytes = [0u8; 4];
                    mem.gpu_mem().read(addr + c as u64 * 4, &mut bytes);
                    v[c] = f32::from_le_bytes(bytes);
                }
                inputs.push(v);
            }
            let slot = self
                .pending_slots
                .iter()
                .position(|s| s.is_none())
                .unwrap_or_else(|| {
                    self.pending_slots.push(None);
                    self.pending_slots.len() - 1
                });
            if self.fetch_pieces.is_empty() {
                // No attributes bound: ready immediately.
                self.ready_to_shade.push_back(VertexWork {
                    obj: DynamicObject::new(self.ids.next_id()),
                    batch: Arc::clone(&batch),
                    seq,
                    index,
                    inputs,
                });
            } else {
                let count = self.fetch_pieces.len();
                for i in 0..count {
                    let (addr, size) = self.fetch_pieces[i];
                    let id = self.alloc_id();
                    self.pending.insert(id, slot);
                    mem.submit(MemRequest {
                        id,
                        client: Client::Streamer,
                        addr,
                        op: MemOp::TimingRead { size },
                    })
                    .expect("can_accept checked"); // lint:allow(clock-unwrap) submit follows the can_accept check above
                    self.outstanding_mem += 1;
                }
                self.pending_slots[slot] = Some(PendingVertex {
                    batch,
                    seq,
                    index,
                    inputs,
                    replies_left: count,
                });
            }
            self.stat_vertices.inc();
            if let Some(active) = &mut self.active {
                active.next_seq += 1;
            }
        }

        // 4. Receive shaded vertices (Streamer Commit).
        while let Some(sv) = self.in_shaded.try_pop(cycle)? {
            self.stat_shaded.inc();
            self.vcache_insert(sv.batch.id, sv.index, Arc::clone(&sv.outputs));
            self.insert_committed(sv);
        }

        // 5. Commit in order to Primitive Assembly (1 vertex/cycle,
        //    Table 1).
        while self.out_assembled.can_send(cycle) {
            let Some(head) = self.commits.front_mut() else { break };
            if head.next_seq >= head.total {
                self.commits.pop_front();
                continue;
            }
            let next = head.next_seq;
            let Some(sv) = head.reorder.remove(&next) else { break };
            head.next_seq += 1;
            self.out_assembled.try_send(cycle, sv)?;
        }
        Ok(())
    }

    fn insert_committed(&mut self, sv: ShadedVertex) {
        let batch_id = sv.batch.id;
        let commit = self
            .commits
            .iter_mut()
            .find(|c| c.batch_id == batch_id)
            .expect("shaded vertex for unknown batch");
        commit.reorder.insert(sv.seq, sv);
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_req_id;
        self.next_req_id += 1;
        id
    }

    /// Vertices issued so far.
    pub fn vertices_issued(&self) -> u64 {
        self.stat_vertices.value()
    }

    /// Post-shading vertex cache hits.
    pub fn vertex_cache_hits(&self) -> u64 {
        self.stat_vcache_hits.value()
    }
}

impl Unit for Streamer {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn client(&self) -> Option<Client> {
        Some(Client::Streamer)
    }

    /// Whether the Streamer still has work in flight.
    fn busy(&self) -> bool {
        self.active.is_some()
            || !self.commits.is_empty()
            || !self.ready_to_shade.is_empty()
            || !self.pending.is_empty()
            || !self.in_draws.idle()
            || !self.in_shaded.idle()
    }

    /// The box's event horizon: busy while a draw is being streamed or
    /// vertices sit in the fetch/shade/commit buffers, otherwise the
    /// earliest arrival across the draw wire and the shaded-vertex wire
    /// (see [`Horizon`]).
    fn work_horizon(&self) -> Horizon {
        if self.active.is_some()
            || !self.commits.is_empty()
            || !self.ready_to_shade.is_empty()
            || !self.pending.is_empty()
        {
            return Horizon::Busy;
        }
        self.in_draws.work_horizon().meet(self.in_shaded.work_horizon())
    }

    fn declared_ports(&self) -> Vec<PortDecl> {
        vec![
            self.in_draws.decl(),
            self.out_work.decl(),
            self.in_shaded.decl(),
            self.out_assembled.decl(),
        ]
    }

    fn queued(&self) -> usize {
        self.in_draws.len()
            + self.in_shaded.len()
            + self.ready_to_shade.len()
            + self.pending.len()
    }
}

// Valid at a quiescent point (no active batch, empty fetch/commit buffers,
// no outstanding memory requests). The post-shading vertex cache is
// deliberately *not* listed: it only serves lookups for the batch named by
// its tag, batch ids never repeat within a run, and at a quiescent point no
// batch is active — so a cold cache after restore is behaviourally
// identical.
impl_json_state!(Streamer { index_chunks: hex, next_req_id: hex, ids_issued = ids: state });
