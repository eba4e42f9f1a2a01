//! The unit interface: what every clocked box answers besides `clock()`.
//!
//! The paper's framework is boxes with one interface (§3). Every read-only
//! question the top level asks of a box goes through this trait and one
//! dispatch — the unit table of [`Gpu`](crate::gpu::Gpu) — instead of one
//! hand list per question. `clock()` itself is not here: it is the one
//! place units differ in signature (five take the memory controller, one
//! *is* the controller), and stays a static match in `Gpu::try_step`.

use attila_mem::{Client, MemoryController};
use attila_sim::{Horizon, PortDecl};

/// What every clocked unit answers besides `clock()`.
pub trait Unit {
    /// The name the unit's signals are registered under.
    fn name(&self) -> &str;

    /// The memory client whose replies the unit's `clock()` collects, for
    /// the units that have one.
    fn client(&self) -> Option<Client> {
        None
    }

    /// The unit's event horizon (see [`Horizon`]).
    fn work_horizon(&self) -> Horizon;

    /// Whether work is in flight. Not `!work_horizon().is_idle()`: a
    /// horizon also covers arrivals the unit need not count as its work.
    fn busy(&self) -> bool;

    /// Objects waiting in the unit's input queues and staging buffers.
    fn queued(&self) -> usize;

    /// The unit's declared interface for the architecture verifier.
    fn declared_ports(&self) -> Vec<PortDecl>;
}

/// The memory controller serves the pipeline through its request/reply
/// API, not signals: it declares no ports.
impl Unit for MemoryController {
    fn name(&self) -> &str {
        "MemoryController"
    }

    fn busy(&self) -> bool {
        MemoryController::busy(self)
    }

    fn work_horizon(&self) -> Horizon {
        MemoryController::work_horizon(self)
    }

    fn queued(&self) -> usize {
        0
    }

    fn declared_ports(&self) -> Vec<PortDecl> {
        Vec::new()
    }
}
