//! Phase-disjoint shared cells for the multi-threaded clock loop.
//!
//! The threaded scheduler in [`crate::gpu`] steps the seven "pure" pipeline
//! boxes (primitive assembly through the fragment FIFO — the ones whose
//! `clock()` never touches the memory controller) on dedicated worker
//! threads, one clock domain per worker. The boxes themselves are full of
//! single-threaded machinery (`Rc`, `RefCell`, interned stat handles), so
//! they can never be `Send` in the ordinary sense. What makes sharing them
//! sound anyway is *phase disjointness*: at any instant, each box is
//! touched by exactly one thread, and the hand-off between threads is
//! ordered by the scheduler's epoch barrier.
//!
//! [`ShardCell`] is the narrow bridge that encodes this contract. It is the
//! only `unsafe` code in the workspace, kept in one file so the whole
//! argument can be audited in one sitting.
//!
//! # Safety protocol
//!
//! A `ShardCell<T>` may only be accessed under the following regime, which
//! the `Gpu` scheduler upholds by construction:
//!
//! 1. **Serial phases.** Between barrier epochs (construction, checkpoint
//!    capture/restore, horizon probing, the prologue/epilogue of every
//!    cycle, and the entire lifetime of a single-threaded `Gpu`), only the
//!    coordinator thread dereferences any cell. Workers are parked spinning
//!    on the epoch counter and never touch memory behind a cell.
//! 2. **Parallel phases.** After the coordinator publishes a new epoch
//!    (release store) and before it observes every worker's done-flag
//!    (acquire loads), each worker dereferences **only the cells of its own
//!    clock domain**, and the coordinator dereferences none of them. The
//!    domain assignment is fixed at construction and never migrates.
//! 3. **Hand-off ordering.** The epoch store/load pair and the done-flag
//!    store/load pair are `Release`/`Acquire`, so every write made by the
//!    previous owner of a cell happens-before the next owner's first read.
//! 4. **No shared-handle mutation in parallel.** The `Rc`/`RefCell` handles
//!    *inside* a box (signal cores, stat counters) follow the same
//!    ownership split: every handle reachable from a pure box's `clock()`
//!    is either private to that box's domain or staged through the
//!    mailbox lanes in `attila_sim::signal`, which route cross-domain
//!    writes to a queue owned by the writer and drained by the coordinator
//!    strictly between epochs. The per-reader wake line every wire
//!    raises on a write (`attila_sim::WakeLine`) belongs to the reader's
//!    domain on the same grounds: an unstaged write comes from that
//!    domain, a staged one is replayed by the coordinator between epochs.
//!    So do the wire's two words in the binder's wire table
//!    (`attila_sim::signal`, "The wire table"): the table is one
//!    allocation shared by every wire, but each pair of words has the
//!    single phase owner of its core — the reader polls and advances
//!    them, an unstaged writer updates them through the core from the
//!    same domain, a staged writer never touches them (its bandwidth and
//!    time-travel checks are lane-local) and its writes reach them when
//!    the coordinator drains the mailbox between epochs. Words of wires
//!    owned by different domains may share a cache line; that costs
//!    coherence traffic, not correctness — they are distinct memory
//!    locations, each accessed by one thread per phase.
//!    `SignalBinder::next_event_cycle` reads the whole table and is only
//!    called by the coordinator in serial phases. Rc reference counts are
//!    never cloned or dropped during a parallel phase.
//!
//! Violating any clause is undefined behavior; that is why the accessors
//! are `unsafe` and why `Gpu` funnels every dereference through two
//! private, documented helper methods per box.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;

/// Interior-mutable slot whose cross-thread safety is delegated to the
/// clock scheduler's barrier protocol (see the module documentation).
#[derive(Debug)]
pub struct ShardCell<T>(UnsafeCell<T>);

// SAFETY: see the module-level protocol. `ShardCell` contents are only ever
// dereferenced by one thread per barrier phase, and phase transitions are
// ordered by Release/Acquire atomics, so aliasing and visibility follow the
// same rules as moving the value between threads at each barrier.
unsafe impl<T> Send for ShardCell<T> {}
// SAFETY: as above — `&ShardCell<T>` only permits access through `unsafe`
// accessors whose callers promise phase-disjoint use.
unsafe impl<T> Sync for ShardCell<T> {}

impl<T> ShardCell<T> {
    /// Wraps a value for phase-disjoint sharing.
    pub fn new(value: T) -> Self {
        Self(UnsafeCell::new(value))
    }

    /// Returns a shared reference to the contents.
    ///
    /// # Safety
    ///
    /// The caller must be the cell's current phase owner (module docs,
    /// clauses 1–3) and must not hold a mutable reference from
    /// [`ShardCell::get_mut`] concurrently.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get(&self) -> &T {
        // SAFETY: forwarded to the caller contract above.
        unsafe { &*self.0.get() }
    }

    /// Returns a mutable reference to the contents.
    ///
    /// # Safety
    ///
    /// The caller must be the cell's current phase owner (module docs,
    /// clauses 1–3), and this must be the only live reference into the
    /// cell for the duration of the borrow.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self) -> &mut T {
        // SAFETY: forwarded to the caller contract above.
        unsafe { &mut *self.0.get() }
    }

    /// Consumes the cell, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn phase_disjoint_handoff_round_trips() {
        // Minimal model of the scheduler: coordinator writes, publishes an
        // epoch, worker mutates, signals done, coordinator reads back.
        struct Shared {
            cell: ShardCell<Vec<u64>>,
            epoch: AtomicU64,
            done: AtomicU64,
        }
        let shared = Arc::new(Shared {
            cell: ShardCell::new(vec![1, 2, 3]),
            epoch: AtomicU64::new(0),
            done: AtomicU64::new(0),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while shared.epoch.load(Ordering::Acquire) != 1 {
                    std::hint::spin_loop();
                }
                // SAFETY: parallel phase; this worker is the sole owner.
                unsafe { shared.cell.get_mut() }.push(4);
                shared.done.store(1, Ordering::Release);
            })
        };
        shared.epoch.store(1, Ordering::Release);
        while shared.done.load(Ordering::Acquire) != 1 {
            std::hint::spin_loop();
        }
        // SAFETY: serial phase; the worker has signalled done.
        assert_eq!(unsafe { shared.cell.get() }.as_slice(), &[1, 2, 3, 4]);
        worker.join().unwrap();
    }

    #[test]
    fn into_inner_returns_value() {
        let cell = ShardCell::new(7u32);
        assert_eq!(cell.into_inner(), 7);
    }
}
