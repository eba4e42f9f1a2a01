//! Counting-allocator proof that the signal hot path is allocation-free
//! in steady state.
//!
//! The ring transport preallocates `(latency + 1) × bandwidth` slots at
//! bind time, so a wire never grows its backing
//! storage: every write and read after construction must touch only the
//! preallocated ring. This test swaps in a counting global allocator and
//! asserts that a saturated write/read workload performs **zero**
//! allocations once the wire is built.
//!
//! This file deliberately holds a single `#[test]`: the default harness
//! runs tests in one binary concurrently, and a neighbouring test's
//! allocations would race the counter. (`forbid(unsafe_code)` guards the
//! crate roots; integration tests are separate crates, and the counting
//! allocator is the one place `unsafe` is warranted — it only forwards
//! to the system allocator.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use attila_sim::Signal;

/// Forwards to the system allocator, counting every allocation and
/// reallocation (frees are uncounted: the property under test is "no new
/// memory", not "no memory traffic").
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn signal_hot_path_does_not_allocate_in_steady_state() {
    for &(bandwidth, latency) in &[(1usize, 1u64), (2, 4), (4, 0), (3, 9), (1, 100)] {
        let (mut tx, mut rx) = Signal::<u64>::with_name("hot", bandwidth, latency);

        // Warm-up: fill the wire to its steady-state occupancy.
        let mut value = 0u64;
        for cycle in 0..latency + 8 {
            for _ in 0..bandwidth {
                value += 1;
                tx.write(cycle, value).unwrap();
            }
            while rx.try_read(cycle).unwrap().is_some() {}
        }

        // Steady state: saturate the wire for thousands of cycles. Every
        // push lands in the preallocated ring, every pop frees a slot,
        // and the queries are O(1) reads — zero allocations.
        let before = ALLOCS.load(Ordering::Relaxed);
        for cycle in latency + 8..latency + 8 + 10_000 {
            for _ in 0..bandwidth {
                value += 1;
                tx.write(cycle, value).unwrap();
            }
            while rx.try_read(cycle).unwrap().is_some() {}
            let _ = rx.in_flight();
            let _ = tx.can_write(cycle);
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "bw={bandwidth} lat={latency}: {} allocation(s) on the steady-state hot path",
            after - before
        );
    }
}
