//! # attila-core — the ATTILA GPU pipeline
//!
//! A cycle-level, execution-driven model of the generic GPU
//! microarchitecture described in Moya et al., *ATTILA: A Cycle-Level
//! Execution-Driven Simulator for Modern GPU Architectures* (ISPASS
//! 2006), built on the boxes-and-signals framework of `attila-sim`, the
//! functional emulators of `attila-emu` and the memory models of
//! `attila-mem`.
//!
//! Every unit of the paper's pipeline (Figures 1/2/5) is a module here:
//!
//! | Paper unit | Module |
//! |---|---|
//! | Command Processor | [`command_processor`] |
//! | Streamer (fetch / loader / commit, vertex cache) | [`streamer`] |
//! | Primitive Assembly | [`primitive_assembly`] |
//! | Clipper | [`clipper`] |
//! | Triangle Setup | [`setup`] |
//! | Fragment Generator | [`fraggen`] |
//! | Hierarchical Z | [`hz`] |
//! | Z & Stencil Test (ROPz) | [`zstencil`] |
//! | Interpolator | [`interpolator`] |
//! | Fragment FIFO + shader units | [`ffifo`] |
//! | Texture Unit | [`texunit`] |
//! | Color Write (ROPc) | [`colorwrite`] |
//! | DAC | [`dac`] |
//! | Memory Controller | `attila-mem` |
//!
//! Every box has its own `clock()` and an `impl` of [`unit::Unit`] (name,
//! memory client, event horizon, `busy`, `queued`), through
//! which [`Gpu`] asks every per-unit question over one table of its units.
//! "The architecture of the Color Write unit is very similar to that of
//! the Z and Stencil test unit" (§2.2): the two hold one cache engine
//! (`rop.rs`) and keep what the paper says differs — the per-fragment
//! operation, their ports and the HZ feedback.
//!
//! The top-level [`Gpu`] wires them per [`GpuConfig`] — 100 parameters,
//! each read by the timing model or named with the reason it is not in
//! `tests/parameter_liveness.rs` — with presets for the paper's baseline
//! (Tables 1–2), the Section 5 case study, a non-unified variant, an
//! embedded part and a high-end part. The [`golden`] module is the
//! pure-functional reference renderer used (as the paper uses a real
//! GeForce) to validate rendered output.
//!
//! The clock loop is idle-aware: every box reports an event horizon
//! (`work_horizon`, see [`attila_sim::Horizon`]) and
//! [`Gpu::run_trace`](gpu::Gpu::run_trace) jumps the cycle counter over
//! stretches the whole machine — boxes, memory controller and every
//! in-flight signal — agrees are dead time. Cycle counts, statistics and
//! framebuffers are bit-identical with skipping on or off
//! ([`Gpu::skip_idle`](gpu::Gpu::skip_idle)); upload-bound workloads run
//! several times faster in wall-clock.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod address;
pub mod checkpoint;
pub mod clipper;
pub mod colorwrite;
pub mod command_processor;
pub mod commands;
pub mod config;
pub mod dac;
pub mod ffifo;
pub mod fraggen;
pub mod golden;
pub mod gpu;
pub mod hz;
pub mod interpolator;
pub mod port;
pub mod primitive_assembly;
pub mod report;
mod rop;
pub mod setup;
pub mod state;
pub mod streamer;
pub mod sweep;
pub mod texunit;
pub mod types;
pub mod unit;
pub mod zstencil;

pub use checkpoint::{config_hash, trace_hash, Checkpoint, CheckpointBody};
pub use commands::{DrawCall, GpuCommand, Primitive};
pub use config::{GpuConfig, ShaderScheduling};
pub use golden::GoldenRenderer;
pub use gpu::{FrameDump, Gpu, GpuError, RunResult};
pub use report::{BoxStatus, FailureReport};
pub use state::{AttributeBinding, CullMode, RenderState, ScissorState};
pub use sweep::{run_sweep, sweep_csv, sweep_json, SweepJob, SweepOutcome};
