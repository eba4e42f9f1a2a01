//! Triangle Setup: edge and depth interpolation equations (paper §2.2).
//!
//! "Triangle Setup calculates the triangle half-plane edge and a depth
//! (z/w) interpolation equations from the triangle homogeneous matrix" —
//! see [`attila_emu::raster::setup_triangle`]. Face culling and
//! degenerate-triangle elimination happen here too.

use std::sync::Arc;

use attila_emu::raster::setup_triangle;
use attila_json::impl_json_state;
use attila_sim::{Counter, Cycle, DynamicObject, Horizon, ObjectIdGen, SimError};

use crate::port::{PortReceiver, PortSender};
use crate::state::CullMode;
use crate::types::{SetupTriWork, TriangleData, TriangleWork};
use crate::unit::Unit;

/// The Triangle Setup box.
#[derive(Debug)]
pub struct TriangleSetup {
    /// Triangles from the Clipper.
    pub in_tris: PortReceiver<TriangleWork>,
    /// Set-up triangles to the Fragment Generator.
    pub out_tris: PortSender<SetupTriWork>,
    ids: ObjectIdGen,
    stat_in: Counter,
    stat_culled: Counter,
    stat_degenerate: Counter,
}

impl TriangleSetup {
    /// The name the box's signals are registered under.
    pub const NAME: &'static str = "TriangleSetup";

    /// Builds the box around its ports.
    pub fn new(
        in_tris: PortReceiver<TriangleWork>,
        out_tris: PortSender<SetupTriWork>,
        stats: &mut attila_sim::StatsRegistry,
    ) -> Self {
        TriangleSetup {
            in_tris,
            out_tris,
            ids: ObjectIdGen::new(),
            stat_in: stats.counter("Setup.triangles"),
            stat_culled: stats.counter("Setup.face_culled"),
            stat_degenerate: stats.counter("Setup.degenerate"),
        }
    }

    /// Advances the box one cycle (1 triangle per cycle, Table 1).
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] raised by the box's signals.
    pub fn clock(&mut self, cycle: Cycle) -> Result<(), SimError> {
        self.in_tris.try_update(cycle)?;
        self.out_tris.try_update(cycle)?;
        if !self.out_tris.can_send(cycle) {
            return Ok(());
        }
        let Some(tri) = self.in_tris.try_pop(cycle)? else { return Ok(()) };
        self.stat_in.inc();
        let state = &tri.batch.state;
        let positions = [tri.verts[0][0], tri.verts[1][0], tri.verts[2][0]];
        let Some(setup) = setup_triangle(&positions, state.viewport) else {
            self.stat_degenerate.inc();
            return Ok(());
        };
        let cull = match state.cull {
            CullMode::None => false,
            CullMode::Front => setup.front_facing,
            CullMode::Back => !setup.front_facing,
        };
        if cull {
            self.stat_culled.inc();
            return Ok(());
        }
        let data = Arc::new(TriangleData {
            batch: Arc::clone(&tri.batch),
            setup,
            outputs: tri.verts,
        });
        self.out_tris.try_send(
            cycle,
            SetupTriWork {
                obj: DynamicObject::new(self.ids.next_id()),
                data,
                end_of_batch: tri.end_of_batch,
            },
        )
    }

    /// Back/front-face culled triangles so far.
    pub fn face_culled(&self) -> u64 {
        self.stat_culled.value()
    }
}

impl Unit for TriangleSetup {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn busy(&self) -> bool {
        !self.in_tris.idle()
    }

    /// The box's event horizon (see [`Horizon`]): busy while a queued
    /// triangle awaits setup and the output holds a credit; otherwise idle
    /// (`clock` returns before popping when it cannot send).
    fn work_horizon(&self) -> Horizon {
        if !self.in_tris.is_empty() && self.out_tris.credits() > 0 {
            return Horizon::Busy;
        }
        Horizon::Idle
    }

    fn queued(&self) -> usize {
        self.in_tris.len()
    }
}

// The id cursor is the box's whole persistent state; Setup holds no
// buffers beyond its ports.
impl_json_state!(TriangleSetup = ids: state skip {
    "wiring: rebuilt at elaboration": in_tris, out_tris, stat_in, stat_culled, stat_degenerate;
});
