//! # attila-sim — boxes-and-signals simulation framework
//!
//! Cycle-level simulation framework underlying the ATTILA GPU simulator
//! (Moya et al., *ATTILA: A Cycle-Level Execution-Driven Simulator for
//! Modern GPU Architectures*, ISPASS 2006, Section 3).
//!
//! The framework is structured on two fundamental abstractions:
//!
//! * **Boxes** model a "large enough" piece of a hardware pipeline — e.g.
//!   the Clipper or the Fragment Generator. A box may use local data
//!   (registers, queues) and data read from its input signals to update
//!   its state and drive its output signals, once per cycle. This crate
//!   has no box type: a box is any struct that owns signal endpoints and
//!   has a `clock(cycle)` method, and the one clock loop that drives them
//!   is `attila_core::Gpu::try_step`.
//! * **Signals** ([`Signal`]) are the wires connecting boxes. All
//!   communication between boxes happens in a message-passing style by
//!   sending data through a signal. Every signal has an associated
//!   **latency** (in cycles) and **bandwidth** (in objects per cycle), and
//!   performs verification checks — exceeding the bandwidth or losing
//!   in-flight data terminates the simulation, which catches timing bugs in
//!   box implementations early.
//!
//! Supporting infrastructure mirrors the paper's simulator:
//!
//! * [`SignalBinder`] — a name server registering every signal with a unique
//!   name, its writer and reader box, bandwidth and latency: the machine's
//!   one wiring table, from which wake lines, pipeline dumps and **signal
//!   traces** consumed by the Signal Trace Visualizer ([`trace`] module)
//!   are built.
//! * [`DynamicObject`] — identity attached to the objects that travel
//!   through signals (an id, a parent id forming a multilevel hierarchy —
//!   fragment → triangle → batch — and a colour; three plain words).
//! * [`StatsRegistry`] — named statistics, sampled in configurable cycle
//!   windows and dumped as CSV (the paper's simulator supports ~300
//!   statistics).
//! * [`Horizon`] — the event-horizon contract behind idle-aware clocking:
//!   each box reports whether clocking it before some future cycle could
//!   change observable state, and the clock loop jumps over stretches
//!   every unit and every in-flight wire agree are dead time. Results are
//!   bit-identical to per-cycle clocking; only wall-clock time changes.
//! * [`WakeLine`] — one per reader box, handed out by the binder and
//!   raised by every write towards that box to the object's arrival
//!   cycle, so the clock loop can also leave a *single* idle box
//!   unclocked without missing its next input.
//!
//! ## Example
//!
//! ```
//! use attila_sim::Signal;
//!
//! // A two-stage pipeline: a producer sends integers through a
//! // 3-cycle-latency signal to a consumer.
//! let (mut tx, mut rx) = Signal::<u32>::with_name("producer->consumer", 1, 3);
//! let mut received = Vec::new();
//! for cycle in 0..10 {
//!     if cycle < 5 {
//!         tx.write(cycle, cycle as u32).unwrap();
//!     }
//!     while let Some(v) = rx.read(cycle) {
//!         received.push((cycle, v));
//!     }
//! }
//! // Values written at cycle c arrive at cycle c + 3.
//! assert_eq!(received[0], (3, 0));
//! assert_eq!(received.len(), 5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod binder;
pub mod error;
pub mod horizon;
pub mod name;
pub mod object;
pub mod rng;
pub mod signal;
pub mod stats;
pub mod trace;
pub mod viz;

pub use binder::{SignalBinder, SignalInfo};
pub use error::SimError;
pub use horizon::Horizon;
pub use name::SignalName;
pub use object::{DynamicObject, ObjectIdGen, Traceable};
pub use rng::TinyRng;
pub use signal::{Signal, SignalProbe, SignalReader, SignalStatus, SignalWriter, WakeLine};
pub use stats::{Counter, Gauge, RunningCounter, StatsRegistry};
pub use trace::{SignalTrace, TraceEvent, TraceSink};
pub use viz::{render_html, VizOptions};

/// A simulation cycle number.
///
/// Cycles start at 0 and increase monotonically; the whole framework is
/// driven by a single global clock (the ATTILA paper models one clock
/// domain for the GPU core and expresses memory timing in core cycles).
pub type Cycle = u64;
