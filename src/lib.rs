//! # ATTILA-rs
//!
//! A Rust reproduction of the **ATTILA** cycle-level, execution-driven GPU
//! simulator (Moya et al., ISPASS 2006). This facade crate re-exports the
//! workspace sub-crates so examples and downstream users can depend on a
//! single crate:
//!
//! * [`sim`] — boxes-and-signals simulation framework (paper §3).
//! * [`emu`] — functional emulators: shader ISA, texture sampling, fragment
//!   operations, rasterization math (paper §3).
//! * [`mem`] — GDDR3-style memory controller, caches and crossbar (paper §2.2).
//! * [`core`] — the GPU pipeline itself: every unit from Command Processor
//!   to DAC, and the top-level [`core::Gpu`] (paper §2).
//! * [`gl`] — the OpenGL-subset framework: library, driver, trace
//!   capture/replay and synthetic workloads (paper §4).
//!
//! Two further workspace crates are not re-exported: `attila-json` (the
//! dependency-free JSON library behind config files and captured traces)
//! and `attila-bench` (the harnesses regenerating the paper's tables and
//! figures).
//!
//! ## Quickstart
//!
//! ```
//! use attila::core::{Gpu, GpuConfig};
//! use attila::gl::workloads;
//!
//! // Build the baseline GPU and render one tiny frame.
//! let mut config = GpuConfig::baseline();
//! config.display.width = 64;
//! config.display.height = 64;
//! let trace = workloads::quickstart_triangle(64, 64);
//! let mut gpu = Gpu::new(config);
//! let result = gpu.run_trace(&trace).expect("simulation runs");
//! assert!(result.cycles > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use attila_core as core;
pub use attila_emu as emu;
pub use attila_gl as gl;
pub use attila_mem as mem;
pub use attila_sim as sim;
