//! # attila-mem — memory hierarchy models
//!
//! The memory side of the ATTILA GPU simulator (Moya et al., ISPASS 2006,
//! §2.2), end to end:
//!
//! 1. **Clients** — pipeline boxes (Command Processor, Streamer, texture
//!    units, ROPs, DAC) enqueue 64-byte-max requests with the Memory
//!    Controller ([`controller`]), one queue per client per channel.
//! 2. **Arbitration** — each cycle a channel with a free data bus picks
//!    one request: round-robin over clients, *row hits first* (a request
//!    whose DRAM row is already open preempts the plain rotation; see
//!    [`controller::MemoryController`] and DESIGN.md §19).
//! 3. **DRAM** — the winning request is issued to a [`gddr::GddrChannel`],
//!    which serializes transactions on its data bus and resolves the
//!    row-buffer outcome against per-bank FSMs ([`bank`]): row hit (no
//!    added latency), row miss (one ACTIVATE, tRCD), or row conflict
//!    (PRECHARGE + ACTIVATE, tRP + tRCD), plus read↔write bus turnaround.
//! 4. **Caches** — the texture and ROP pipelines sit behind a generic
//!    set-associative cache timing model ([`cache`]) and the ROP caches
//!    with fast clear and lossless Z compression ([`rop_cache`]), so most
//!    traffic never reaches DRAM.
//!
//! The simulator is execution driven, so the *functional* bytes live in a
//! single [`MemoryImage`] (a page table whose pages can share an upload's
//! bytes until written); the timing models decide *when* transactions
//! complete and *how many bytes* move (after compression / fast-clear
//! savings), while reads and writes always see real data.
//!
//! The crate owns its parameter types, and they are the config file's:
//! [`MemControllerConfig`] is the GPU config's `memory` section (channels,
//! crossbar, system bus, memory size and the DRAM timings the channels and
//! banks read), and [`CacheConfig`] is each texture and ROP `cache`
//! section. Both serialize through `attila-json`, so the top-level
//! `GpuConfig` composes them as they are, with no copy to convert.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bank;
pub mod cache;
pub mod controller;
pub mod gddr;
pub mod memory;
pub mod rop_cache;

pub use bank::{Bank, BankAccess, BankFsm, RowOutcome};
pub use cache::{Cache, CacheConfig, Eviction, Lookup};
pub use controller::{
    Client, MemControllerConfig, MemOp, MemReply, MemRequest, MemoryController, Route,
    MAX_TRANSACTION,
};
pub use gddr::{Direction, GddrChannel, IssueReport};
pub use memory::{BumpAllocator, MemoryImage};
pub use rop_cache::{BlockState, RopCache};
