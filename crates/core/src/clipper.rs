//! The Clipper box: trivial frustum rejection (paper §2.2).
//!
//! Rejected triangles leave the pipeline here; everything else — including
//! partially visible triangles — flows unclipped to Triangle Setup, whose
//! 2D homogeneous rasterization handles them.

use attila_emu::ClipperEmulator;
use attila_sim::{Counter, Cycle, Horizon, SimError};

use crate::port::{PortReceiver, PortSender};
use crate::types::TriangleWork;
use crate::unit::Unit;

/// The Clipper box.
#[derive(Debug)]
pub struct Clipper {
    /// Triangles from Primitive Assembly.
    pub in_tris: PortReceiver<TriangleWork>,
    /// Surviving triangles to Triangle Setup.
    pub out_tris: PortSender<TriangleWork>,
    emulator: ClipperEmulator,
    stat_in: Counter,
    stat_rejected: Counter,
}

impl Clipper {
    /// The name the box's signals are registered under.
    pub const NAME: &'static str = "Clipper";

    /// Builds the box around its ports.
    pub fn new(
        in_tris: PortReceiver<TriangleWork>,
        out_tris: PortSender<TriangleWork>,
        stats: &mut attila_sim::StatsRegistry,
    ) -> Self {
        Clipper {
            in_tris,
            out_tris,
            emulator: ClipperEmulator::new(),
            stat_in: stats.counter("Clipper.triangles"),
            stat_rejected: stats.counter("Clipper.trivially_rejected"),
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
        let positions = [tri.verts[0][0], tri.verts[1][0], tri.verts[2][0]];
        if self.emulator.trivially_rejected(&positions) {
            self.stat_rejected.inc();
            return Ok(());
        }
        self.out_tris.try_send(cycle, tri)
    }

    /// Triangles trivially rejected so far.
    pub fn rejected(&self) -> u64 {
        self.stat_rejected.value()
    }
}

impl Unit for Clipper {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn busy(&self) -> bool {
        !self.in_tris.idle()
    }

    /// Busy while a queued triangle awaits the trivial-reject test and the
    /// output holds a credit; otherwise idle (`clock` returns before
    /// popping when it cannot send).
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
