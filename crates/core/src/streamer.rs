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

use std::collections::VecDeque;
use std::sync::Arc;

use attila_emu::vector::Vec4;
use attila_json::impl_json_state;
use attila_mem::{Client, MemOp, MemRequest, MemoryController};
use attila_sim::{Counter, Cycle, DynamicObject, Horizon, ObjectIdGen, SimError};

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
}

/// The vertices whose attribute fetches are in flight. One vertex's
/// requests take consecutive ids, so a reply finds its vertex by that
/// range; index-chunk ids fall between the ranges, never inside one.
#[derive(Debug)]
struct FetchBook<T> {
    /// In no order.
    entries: Vec<Booked<T>>,
    /// Replies still owed, summed over the entries.
    owed: usize,
}

/// A vertex in a [`FetchBook`]: its requests carry the ids `first_id ..
/// first_id + requests`.
#[derive(Debug)]
struct Booked<T> {
    first_id: u64,
    requests: u64,
    /// Replies still owed.
    owed: u64,
    vertex: T,
}

impl<T> FetchBook<T> {
    fn new() -> Self {
        FetchBook { entries: Vec::new(), owed: 0 }
    }

    /// Books a vertex whose `requests` fetches carry the ids from
    /// `first_id` on.
    fn insert(&mut self, first_id: u64, requests: usize, vertex: T) {
        let n = requests as u64;
        self.entries.push(Booked { first_id, requests: n, owed: n, vertex });
        self.owed += requests;
    }

    /// Counts the reply to request `id`, and hands back its vertex when
    /// that was the vertex's last reply. An id no vertex booked is
    /// ignored.
    fn reply(&mut self, id: u64) -> Option<T> {
        let at = self.entries.iter().position(|e| id.wrapping_sub(e.first_id) < e.requests)?;
        self.owed -= 1;
        let owed = &mut self.entries[at].owed;
        *owed -= 1;
        if *owed > 0 {
            return None;
        }
        Some(self.entries.swap_remove(at).vertex)
    }
}

/// A batch's commit reorder buffer: vertex `seq` waits in slot `seq -
/// next_seq` until every vertex before it has been committed.
#[derive(Debug)]
struct CommitRing<T> {
    next_seq: u32,
    slots: VecDeque<Option<T>>,
}

impl<T> CommitRing<T> {
    /// An empty ring over `slots`, the storage of a retired one.
    fn new(mut slots: VecDeque<Option<T>>) -> Self {
        slots.clear();
        CommitRing { next_seq: 0, slots }
    }

    fn insert(&mut self, seq: u32, vertex: T) {
        let at = (seq - self.next_seq) as usize;
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || None);
        }
        self.slots[at] = Some(vertex);
    }

    /// Whether vertex `next_seq` has arrived.
    fn next_ready(&self) -> bool {
        matches!(self.slots.front(), Some(Some(_)))
    }

    /// Takes vertex `next_seq`, once it has arrived.
    fn pop_next(&mut self) -> Option<T> {
        if !self.next_ready() {
            return None;
        }
        self.next_seq += 1;
        self.slots.pop_front().flatten()
    }
}

/// Per-batch commit state: reorder buffer + progress.
#[derive(Debug)]
struct BatchCommit {
    batch_id: u64,
    reorder: CommitRing<ShadedVertex>,
    total: u32,
}

/// The head vertex as the fetch pass that could not start it left it.
/// Its attribute transactions stay in `Streamer::fetch_pieces`.
#[derive(Debug, Clone, Copy)]
struct StalledVertex {
    seq: u32,
    index: u32,
    /// `Streamer::vcache_changes` when the post-shading cache missed.
    missed_at: u64,
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
    active: Option<ActiveBatch>,
    commits: VecDeque<BatchCommit>,
    /// The last retired batch's reorder storage, for the next batch.
    spare_reorder: VecDeque<Option<ShadedVertex>>,
    ready_to_shade: VecDeque<VertexWork>,
    fetches: FetchBook<PendingVertex>,
    outstanding_mem: usize,
    /// Post-shading vertex cache for the batch being fetched
    /// (index → outputs), LRU-evicted.
    vcache: VecDeque<(u32, Arc<VertexOutputs>)>,
    vcache_batch: u64,
    /// Bumped whenever an insert changes which indices the cache holds.
    vcache_changes: u64,
    /// Recently fetched 64-byte index-buffer chunks.
    index_chunks: VecDeque<u64>,
    index_chunk_pending: Option<(u64, u64)>,
    /// The head vertex, when the last fetch pass resolved it but could
    /// not start it.
    stalled: Option<StalledVertex>,
    /// One vertex's attribute-fetch transactions, `(address, size,
    /// channel)`: the last vertex started, or the stalled one.
    fetch_pieces: Vec<(u64, u32, usize)>,
    /// The last fetch pass stopped where only a memory reply can let it
    /// go on: `max_memory_requests` outstanding, or an index chunk in
    /// flight. Cleared by a received shaded vertex, which may turn the
    /// stalled vertex into a post-shading cache hit.
    fetch_blocked: bool,
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
            spare_reorder: VecDeque::new(),
            ready_to_shade: VecDeque::new(),
            fetches: FetchBook::new(),
            outstanding_mem: 0,
            vcache: VecDeque::new(),
            vcache_batch: u64::MAX,
            vcache_changes: 0,
            index_chunks: VecDeque::new(),
            index_chunk_pending: None,
            stalled: None,
            fetch_pieces: Vec::new(),
            fetch_blocked: false,
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
            self.vcache_changes += 1;
        }
        if self.vcache.iter().any(|(i, _)| *i == index) {
            return;
        }
        if self.vcache.len() >= self.config.vertex_cache_entries {
            self.vcache.pop_front();
        }
        self.vcache.push_back((index, outputs));
        self.vcache_changes += 1;
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
            if let Some(pv) = self.fetches.reply(reply.id) {
                self.ready_to_shade.push_back(VertexWork {
                    obj: DynamicObject::new(self.ids.next_id()),
                    batch: pv.batch,
                    seq: pv.seq,
                    index: pv.index,
                    inputs: pv.inputs,
                });
            }
        }

        // 2. Issue fetched vertices to the shader pool.
        while !self.ready_to_shade.is_empty() && self.out_work.can_send(cycle) {
            let v = self.ready_to_shade.pop_front().expect("non-empty");
            self.out_work.try_send(cycle, v)?;
        }

        // 3. Start new vertices.
        self.fetch_blocked = false;
        for _ in 0..self.config.indices_per_cycle {
            if self.active.is_none() {
                if let Some(batch) = self.in_draws.try_pop(cycle)? {
                    let total = batch.draw.vertex_count;
                    self.commits.push_back(BatchCommit {
                        batch_id: batch.id,
                        reorder: CommitRing::new(std::mem::take(&mut self.spare_reorder)),
                        total,
                    });
                    self.active = Some(ActiveBatch { batch, next_seq: 0, total });
                    self.stalled = None;
                }
            }
            let Some(mut active) = self.active.take() else { break };
            if active.next_seq >= active.total {
                continue;
            }
            let started = self.start_vertex(&active, mem);
            if started {
                active.next_seq += 1;
            }
            self.active = Some(active);
            if !started {
                break;
            }
        }

        // 4. Receive shaded vertices (Streamer Commit).
        while let Some(sv) = self.in_shaded.try_pop(cycle)? {
            self.fetch_blocked = false;
            self.stat_shaded.inc();
            self.vcache_insert(sv.batch.id, sv.index, Arc::clone(&sv.outputs));
            self.insert_committed(sv);
        }

        // 5. Commit in order to Primitive Assembly (1 vertex/cycle,
        //    Table 1).
        while self.out_assembled.can_send(cycle) {
            let Some(head) = self.commits.front_mut() else { break };
            if head.reorder.next_seq >= head.total {
                let done = self.commits.pop_front().expect("head exists");
                self.spare_reorder = done.reorder.slots;
                continue;
            }
            let Some(sv) = head.reorder.pop_next() else { break };
            self.out_assembled.try_send(cycle, sv)?;
        }
        Ok(())
    }

    /// Resolves and starts vertex `active.next_seq`: its index (fetching
    /// the index chunk first), then a post-shading cache hit, or its
    /// attribute fetches. Returns whether it started; a vertex that cannot
    /// start stays the head, with `fetch_blocked` saying whether only a
    /// memory reply can change that.
    ///
    /// A head that stalled after its cache lookup is not resolved again
    /// (DESIGN.md §16.6): while its index word reads the same, the next
    /// pass reuses its transactions, and repeats the lookup only if a
    /// shaded vertex has changed the cache since.
    fn start_vertex(&mut self, active: &ActiveBatch, mem: &mut MemoryController) -> bool {
        let (batch, seq) = (&active.batch, active.next_seq);
        let index = match batch.draw.index_buffer {
            None => seq,
            Some(ib) => {
                let addr = ib + u64::from(seq) * 4;
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
                        .expect("can_accept checked");
                        self.outstanding_mem += 1;
                    }
                    // Stall until the chunk arrives. Only a reply can end
                    // it, unless the controller refused the fetch.
                    self.fetch_blocked = self.index_chunk_pending.is_some()
                        || self.outstanding_mem >= self.config.max_memory_requests;
                    return false;
                }
                mem.gpu_mem().read_u32(addr)
            }
        };

        // Post-shading vertex cache.
        let kept = self.stalled.take().filter(|s| s.seq == seq && s.index == index);
        if kept.is_none_or(|s| s.missed_at != self.vcache_changes) {
            if let Some(outputs) = self.vcache_lookup(batch.id, index) {
                self.stat_vcache_hits.inc();
                self.stat_vertices.inc();
                let sv = ShadedVertex {
                    obj: DynamicObject::new(self.ids.next_id()),
                    batch: Arc::clone(batch),
                    seq,
                    index,
                    outputs,
                };
                self.insert_committed(sv);
                return true;
            }
        }

        // Fetch attributes: first the transactions the fetch costs,
        // which decide whether the vertex can start this cycle at all.
        if kept.is_none() {
            self.fetch_pieces.clear();
            for b in batch.state.attributes.iter().flatten() {
                let pieces = attila_mem::controller::split_transactions(
                    b.element_address(index),
                    b.element_bytes() as u64,
                );
                let channel = |addr| mem.config().channel_of(addr);
                self.fetch_pieces.extend(pieces.map(|(a, size)| (a, size, channel(a))));
            }
        }
        let over = self.outstanding_mem + self.fetch_pieces.len() > self.config.max_memory_requests;
        let room = |&(_, _, ch): &(u64, u32, usize)| mem.can_accept_on(Client::Streamer, ch);
        if over || !self.fetch_pieces.iter().all(room) {
            // Stall: too many outstanding fetches, which only a reply
            // ends, or a controller queue that is full.
            self.stalled = Some(StalledVertex { seq, index, missed_at: self.vcache_changes });
            self.fetch_blocked = over;
            return false;
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
            let mut bytes = [0u8; 16];
            let element = &mut bytes[..b.element_bytes() as usize];
            mem.gpu_mem().read(b.element_address(index), element);
            let mut v = Vec4::new(0.0, 0.0, 0.0, b.default_w);
            for (c, word) in element.chunks_exact(4).enumerate() {
                v[c] = f32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            }
            inputs.push(v);
        }
        let batch = Arc::clone(batch);
        if self.fetch_pieces.is_empty() {
            // No attributes bound: ready immediately.
            self.ready_to_shade.push_back(VertexWork {
                obj: DynamicObject::new(self.ids.next_id()),
                batch,
                seq,
                index,
                inputs,
            });
        } else {
            let first_id = self.next_req_id;
            for &(addr, size, _) in &self.fetch_pieces {
                let id = self.next_req_id;
                self.next_req_id += 1;
                mem.submit(MemRequest {
                    id,
                    client: Client::Streamer,
                    addr,
                    op: MemOp::TimingRead { size },
                })
                .expect("can_accept checked");
            }
            self.outstanding_mem += self.fetch_pieces.len();
            let vertex = PendingVertex { batch, seq, index, inputs };
            self.fetches.insert(first_id, self.fetch_pieces.len(), vertex);
        }
        self.stat_vertices.inc();
        true
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
            || self.fetches.owed > 0
            || !self.in_draws.idle()
            || !self.in_shaded.idle()
    }

    /// The box's event horizon (see [`Horizon`]): busy while a clock can
    /// progress — a shaded vertex to commit, a fetched vertex and an
    /// `out_work` credit, a commit head that is finished or has its next
    /// vertex, with an `out_assembled` credit, or a fetch that is not
    /// blocked on a memory reply (a queued draw, with none active).
    /// Otherwise idle: inputs and credits return on wires and replies wake
    /// the box.
    fn work_horizon(&self) -> Horizon {
        let fetch = match self.active {
            Some(_) => !self.fetch_blocked,
            None => !self.in_draws.is_empty(),
        };
        let commit = || {
            self.out_assembled.credits() > 0
                && self.commits.front().is_some_and(|head| {
                    head.reorder.next_seq >= head.total || head.reorder.next_ready()
                })
        };
        if fetch
            || !self.in_shaded.is_empty()
            || (!self.ready_to_shade.is_empty() && self.out_work.credits() > 0)
            || commit()
        {
            return Horizon::Busy;
        }
        Horizon::Idle
    }

    fn queued(&self) -> usize {
        self.in_draws.len()
            + self.in_shaded.len()
            + self.ready_to_shade.len()
            + self.fetches.owed
    }
}

// Valid at a quiescent point (no active batch, empty fetch/commit buffers,
// no outstanding memory requests). The post-shading vertex cache is
// deliberately *not* listed: it only serves lookups for the batch named by
// its tag, batch ids never repeat within a run, and at a quiescent point no
// batch is active — so a cold cache after restore is behaviourally
// identical.
impl_json_state!(Streamer { index_chunks: hex, next_req_id: hex, ids as ids_issued: state } skip {
    "wiring: rebuilt at elaboration": config, in_draws, out_work, in_shaded, out_assembled,
        stat_vertices, stat_vcache_hits, stat_shaded;
    "transient: per-batch fetch/shade bookkeeping, drained at the quiescent boundary (no active \
     batch, no outstanding memory or shader work)": active, commits, spare_reorder,
        ready_to_shade, fetches,
        outstanding_mem, vcache, vcache_batch, vcache_changes, index_chunk_pending, stalled,
        fetch_pieces;
    "transient: recomputed by every clock, unread with no batch active": fetch_blocked;
});

#[cfg(test)]
mod tests;
