//! Primitive Assembly: grouping shaded vertices into triangles.
//!
//! "The Primitive Assembly stage stores vertices and assemblies them as
//! triangles. We support five OpenGL primitives: triangle lists, fans and
//! strips and quad lists and strips" (§2.2). Quads are emitted as two
//! triangles. Output rate: 1 triangle per cycle (Table 1).

use std::sync::Arc;

use attila_json::impl_json_state;
use attila_sim::{Counter, Cycle, DynamicObject, Horizon, ObjectIdGen, PortDecl, SimError};

use crate::commands::Primitive;
use crate::port::{PortReceiver, PortSender};
use crate::types::{Batch, ShadedVertex, TriangleWork, VertexOutputs};
use crate::unit::Unit;

/// The Primitive Assembly box.
#[derive(Debug)]
pub struct PrimitiveAssembly {
    /// In-order shaded vertices from the Streamer.
    pub in_verts: PortReceiver<ShadedVertex>,
    /// Assembled triangles to the Clipper.
    pub out_tris: PortSender<TriangleWork>,

    // state: transient — per-batch assembly, reset by the next batch id
    // and empty at the quiescent checkpoint boundary
    batch: Option<Arc<Batch>>,
    received: u32,
    /// Vertex window: at most the last 4 vertices are needed.
    window: Vec<Arc<VertexOutputs>>,
    /// Strip parity (even/odd triangle of a strip).
    parity: bool,
    /// Triangles assembled, awaiting the 1/cycle output slot.
    pending_out: std::collections::VecDeque<TriangleWork>,
    // state: checkpointed
    ids: ObjectIdGen,
    stat_triangles: Counter,
}

impl PrimitiveAssembly {
    /// The name the box's signals are registered under.
    pub const NAME: &'static str = "PrimitiveAssembly";

    /// Builds the box around its ports.
    pub fn new(
        in_verts: PortReceiver<ShadedVertex>,
        out_tris: PortSender<TriangleWork>,
        stats: &mut attila_sim::StatsRegistry,
    ) -> Self {
        PrimitiveAssembly {
            in_verts,
            out_tris,
            batch: None,
            received: 0,
            window: Vec::new(),
            parity: false,
            pending_out: std::collections::VecDeque::new(),
            ids: ObjectIdGen::new(),
            stat_triangles: stats.counter("PrimitiveAssembly.triangles"),
        }
    }

    /// Advances the box one cycle.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the box's signals.
    pub fn clock(&mut self, cycle: Cycle) -> Result<(), SimError> {
        self.in_verts.try_update(cycle)?;
        self.out_tris.try_update(cycle)?;

        // Accept vertices while there is room to stage triangles.
        while self.pending_out.len() < 4 {
            let Some(sv) = self.in_verts.try_pop(cycle)? else { break };
            if self.batch.as_ref().map(|b| b.id) != Some(sv.batch.id) {
                self.batch = Some(Arc::clone(&sv.batch));
                self.received = 0;
                self.window.clear();
                self.parity = false;
            }
            self.received += 1;
            let batch = Arc::clone(self.batch.as_ref().expect("batch set")); // lint:allow(clock-unwrap) batch set when vertices arrive
            let prim = batch.draw.primitive;
            let is_last_vertex = self.received == batch.draw.vertex_count;
            self.window.push(Arc::clone(&sv.outputs));
            let mut new_tris: Vec<[Arc<VertexOutputs>; 3]> = Vec::new();
            match prim {
                Primitive::Triangles => {
                    if self.window.len() == 3 {
                        new_tris.push([
                            Arc::clone(&self.window[0]),
                            Arc::clone(&self.window[1]),
                            Arc::clone(&self.window[2]),
                        ]);
                        self.window.clear();
                    }
                }
                Primitive::TriangleStrip => {
                    if self.window.len() == 3 {
                        // Alternate winding to keep consistent facing.
                        let t = if !self.parity {
                            [
                                Arc::clone(&self.window[0]),
                                Arc::clone(&self.window[1]),
                                Arc::clone(&self.window[2]),
                            ]
                        } else {
                            [
                                Arc::clone(&self.window[1]),
                                Arc::clone(&self.window[0]),
                                Arc::clone(&self.window[2]),
                            ]
                        };
                        new_tris.push(t);
                        self.parity = !self.parity;
                        self.window.remove(0);
                    }
                }
                Primitive::TriangleFan => {
                    if self.window.len() == 3 {
                        new_tris.push([
                            Arc::clone(&self.window[0]),
                            Arc::clone(&self.window[1]),
                            Arc::clone(&self.window[2]),
                        ]);
                        self.window.remove(1);
                    }
                }
                Primitive::Quads => {
                    if self.window.len() == 4 {
                        new_tris.push([
                            Arc::clone(&self.window[0]),
                            Arc::clone(&self.window[1]),
                            Arc::clone(&self.window[2]),
                        ]);
                        new_tris.push([
                            Arc::clone(&self.window[0]),
                            Arc::clone(&self.window[2]),
                            Arc::clone(&self.window[3]),
                        ]);
                        self.window.clear();
                    }
                }
                Primitive::QuadStrip => {
                    if self.window.len() == 4 {
                        // Quad strip vertex order: v0 v1 v2 v3 form the
                        // quad (v0, v1, v3, v2).
                        new_tris.push([
                            Arc::clone(&self.window[0]),
                            Arc::clone(&self.window[1]),
                            Arc::clone(&self.window[3]),
                        ]);
                        new_tris.push([
                            Arc::clone(&self.window[0]),
                            Arc::clone(&self.window[3]),
                            Arc::clone(&self.window[2]),
                        ]);
                        self.window.drain(..2);
                    }
                }
            }
            let count = new_tris.len();
            for (i, verts) in new_tris.into_iter().enumerate() {
                self.stat_triangles.inc();
                self.pending_out.push_back(TriangleWork {
                    obj: DynamicObject::new(self.ids.next_id()),
                    batch: Arc::clone(&batch),
                    verts,
                    end_of_batch: is_last_vertex && i + 1 == count,
                });
            }
            if is_last_vertex {
                self.window.clear();
                self.parity = false;
            }
        }

        // 1 triangle per cycle out.
        if self.out_tris.can_send(cycle) {
            if let Some(tri) = self.pending_out.pop_front() {
                self.out_tris.try_send(cycle, tri)?;
            }
        }
        Ok(())
    }

    /// Triangles assembled so far.
    pub fn triangles_assembled(&self) -> u64 {
        self.stat_triangles.value()
    }
}

impl Unit for PrimitiveAssembly {
    fn name(&self) -> &str {
        Self::NAME
    }

    /// Whether work is still in flight.
    fn busy(&self) -> bool {
        !self.pending_out.is_empty() || !self.in_verts.idle()
    }

    /// The box's event horizon: busy while assembled triangles wait in the
    /// staging buffer or shaded vertices wait in the input queue, the
    /// wire's next arrival while vertices are in flight, idle otherwise
    /// (see [`Horizon`]).
    fn work_horizon(&self) -> Horizon {
        if !self.pending_out.is_empty() {
            return Horizon::Busy;
        }
        self.in_verts.work_horizon()
    }

    fn declared_ports(&self) -> Vec<PortDecl> {
        vec![self.in_verts.decl(), self.out_tris.decl()]
    }

    /// Objects waiting in the box's input queue and staging buffer.
    fn queued(&self) -> usize {
        self.in_verts.len() + self.pending_out.len()
    }
}

// The id cursor is the box's whole persistent state: the vertex window and
// batch pointer reset when a new batch id arrives, and are empty at any
// quiescent point.
impl_json_state!(PrimitiveAssembly = ids: state);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::DrawCall;
    use crate::port::unbound_port;
    use crate::state::RenderState;
    use attila_emu::isa::limits;
    use attila_emu::vector::Vec4;
    use attila_sim::StatsRegistry;

    fn make_batch(prim: Primitive, n: u32) -> Arc<Batch> {
        Arc::new(Batch {
            id: 1,
            state: Arc::new(RenderState::default()),
            draw: DrawCall { primitive: prim, vertex_count: n, index_buffer: None },
        })
    }

    fn vert(batch: &Arc<Batch>, seq: u32) -> ShadedVertex {
        let mut outputs = [Vec4::ZERO; limits::OUTPUTS];
        outputs[0] = Vec4::new(seq as f32, 0.0, 0.0, 1.0);
        ShadedVertex {
            obj: DynamicObject::new(seq as u64),
            batch: Arc::clone(batch),
            seq,
            index: seq,
            outputs: Arc::new(outputs),
        }
    }

    fn run_assembly(prim: Primitive, n: u32) -> Vec<TriangleWork> {
        let mut stats = StatsRegistry::new(0);
        let (mut vtx_tx, vtx_rx) = unbound_port::<ShadedVertex>("v", 4, 1, 8);
        let (tri_tx, mut tri_rx) = unbound_port::<TriangleWork>("t", 1, 1, 64);
        let mut pa = PrimitiveAssembly::new(vtx_rx, tri_tx, &mut stats);
        let batch = make_batch(prim, n);
        let mut sent = 0u32;
        let mut out = Vec::new();
        for cycle in 0..200 {
            vtx_tx.update(cycle);
            while sent < n && vtx_tx.can_send(cycle) {
                vtx_tx.send(cycle, vert(&batch, sent));
                sent += 1;
            }
            pa.clock(cycle).expect("no faults");
            tri_rx.update(cycle);
            while let Some(t) = tri_rx.pop(cycle) {
                out.push(t);
            }
        }
        out
    }

    fn first_x(t: &TriangleWork) -> [f32; 3] {
        [t.verts[0][0].x, t.verts[1][0].x, t.verts[2][0].x]
    }

    #[test]
    fn triangle_list_groups_of_three() {
        let tris = run_assembly(Primitive::Triangles, 9);
        assert_eq!(tris.len(), 3);
        assert_eq!(first_x(&tris[0]), [0.0, 1.0, 2.0]);
        assert_eq!(first_x(&tris[2]), [6.0, 7.0, 8.0]);
        assert!(tris[2].end_of_batch);
        assert!(!tris[1].end_of_batch);
    }

    #[test]
    fn strip_alternates_winding() {
        let tris = run_assembly(Primitive::TriangleStrip, 5);
        assert_eq!(tris.len(), 3);
        assert_eq!(first_x(&tris[0]), [0.0, 1.0, 2.0]);
        assert_eq!(first_x(&tris[1]), [2.0, 1.0, 3.0], "odd triangle swaps");
        assert_eq!(first_x(&tris[2]), [2.0, 3.0, 4.0]);
    }

    #[test]
    fn fan_shares_first_vertex() {
        let tris = run_assembly(Primitive::TriangleFan, 5);
        assert_eq!(tris.len(), 3);
        assert_eq!(first_x(&tris[0]), [0.0, 1.0, 2.0]);
        assert_eq!(first_x(&tris[1]), [0.0, 2.0, 3.0]);
        assert_eq!(first_x(&tris[2]), [0.0, 3.0, 4.0]);
    }

    #[test]
    fn quads_become_two_triangles() {
        let tris = run_assembly(Primitive::Quads, 8);
        assert_eq!(tris.len(), 4);
        assert_eq!(first_x(&tris[0]), [0.0, 1.0, 2.0]);
        assert_eq!(first_x(&tris[1]), [0.0, 2.0, 3.0]);
        assert_eq!(first_x(&tris[2]), [4.0, 5.0, 6.0]);
    }

    #[test]
    fn quad_strip_shares_edges() {
        let tris = run_assembly(Primitive::QuadStrip, 6);
        assert_eq!(tris.len(), 4);
        assert_eq!(first_x(&tris[0]), [0.0, 1.0, 3.0]);
        assert_eq!(first_x(&tris[1]), [0.0, 3.0, 2.0]);
        assert_eq!(first_x(&tris[2]), [2.0, 3.0, 5.0]);
        assert_eq!(first_x(&tris[3]), [2.0, 5.0, 4.0]);
    }

    #[test]
    fn output_rate_is_one_per_cycle() {
        let mut stats = StatsRegistry::new(0);
        let (mut vtx_tx, vtx_rx) = unbound_port::<ShadedVertex>("v", 4, 1, 16);
        let (tri_tx, mut tri_rx) = unbound_port::<TriangleWork>("t", 1, 1, 64);
        let mut pa = PrimitiveAssembly::new(vtx_rx, tri_tx, &mut stats);
        let batch = make_batch(Primitive::Quads, 4);
        for cycle in 0..2 {
            vtx_tx.update(cycle);
            while vtx_tx.can_send(cycle) {
                let seq = vtx_tx.total_sent() as u32;
                if seq >= 4 {
                    break;
                }
                vtx_tx.send(cycle, vert(&batch, seq));
            }
            pa.clock(cycle).expect("no faults");
        }
        // The quad's two triangles must leave on different cycles.
        let mut arrivals = Vec::new();
        for cycle in 2..10 {
            pa.clock(cycle).expect("no faults");
            tri_rx.update(cycle);
            while tri_rx.pop(cycle).is_some() {
                arrivals.push(cycle);
            }
        }
        assert_eq!(arrivals.len(), 2);
        assert_ne!(arrivals[0], arrivals[1]);
    }
}
