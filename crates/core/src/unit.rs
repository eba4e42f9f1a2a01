//! The unit interface: what every clocked box answers besides `clock()`.
//!
//! The paper's framework is boxes with one interface (§3). Every read-only
//! question the top level asks of a box goes through this trait and one
//! dispatch — the unit table of [`Gpu`](crate::gpu::Gpu) — instead of one
//! hand list per question. `clock()` itself is not here: it is the one
//! place units differ in signature (five take the memory controller), and
//! stays a static match in `Gpu::try_step`. The memory controller itself
//! is no unit: the walk clocks it last, on every stepped cycle.

use attila_mem::Client;
use attila_sim::Horizon;

/// What every clocked unit answers besides `clock()`.
pub trait Unit {
    /// The name the unit's signals are registered under.
    fn name(&self) -> &str;

    /// The memory client whose replies the unit's `clock()` collects, for
    /// the units that have one.
    fn client(&self) -> Option<Client> {
        None
    }

    /// The unit's event horizon (see [`Horizon`]): its own state only. The
    /// wires it reads answer for their arrivals.
    fn work_horizon(&self) -> Horizon;

    /// Whether work is in flight, objects still on the wires the unit
    /// reads included. Not `work_horizon() != Idle`: a unit stalled on
    /// output credits is busy but not `Busy`, and input on a wire is work
    /// its horizon does not see.
    fn busy(&self) -> bool;

    /// Objects waiting in the unit's input queues and staging buffers.
    fn queued(&self) -> usize;
}
