//! Heap-allocation accounting for the zero-alloc epoch-kernel contract.
//!
//! The steady-state epoch pipeline (observe → decide → step → record) is
//! required to perform **zero heap allocations** once its scratch buffers
//! are warm. That contract is enforced, not assumed: benchmark binaries and
//! the allocation-regression test install [`CountingAllocator`] as the
//! global allocator and diff [`allocations`] around the hot loop.
//!
//! The main counters are thread-local, so concurrently running test
//! threads cannot pollute each other's measurements; the counting fast
//! path is two `Cell` increments and never allocates itself. Beside them,
//! [`process_counting`] counts the allocations of every thread, shard-pool
//! workers included, while a closure runs. That count is only meaningful
//! while nothing else in the process runs (tests that read it serialise
//! themselves).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// [`process_counting`] calls in progress. Every allocation reads it; it
/// is written only when a call starts or ends.
static PROCESS_COUNTERS: AtomicUsize = AtomicUsize::new(0);

/// Allocations by every thread while a [`process_counting`] call ran.
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A global allocator that counts every allocation per thread (and
/// process-wide while [`process_counting`] runs) and forwards to the
/// system allocator.
///
/// Install it in a binary or integration test with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: odrl_bench::allocs::CountingAllocator =
///     odrl_bench::allocs::CountingAllocator;
/// ```
pub struct CountingAllocator;

#[inline]
fn count(bytes: usize) {
    // `try_with`: the allocator may be called during TLS teardown, after
    // the counter cells are gone — those late allocations are untracked
    // rather than fatal.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    // One shared counter bumped by every allocation slows threads that
    // allocate at once, as a fleet build on the shard pool does, so it
    // counts only while asked to.
    if PROCESS_COUNTERS.load(Ordering::Relaxed) > 0 {
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Number of heap allocations made by this thread so far (monotonic;
/// includes reallocations). Zero unless [`CountingAllocator`] is installed.
pub fn allocations() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` and returns the heap allocations (reallocations included)
/// that every thread of the process made meanwhile, with `f`'s result.
/// Zero unless [`CountingAllocator`] is installed. Calls that overlap in
/// time each count the other's allocations too.
pub fn process_counting<T>(f: impl FnOnce() -> T) -> (u64, T) {
    PROCESS_COUNTERS.fetch_add(1, Ordering::SeqCst);
    let a0 = PROCESS_ALLOCS.load(Ordering::SeqCst);
    let out = f();
    let allocs = PROCESS_ALLOCS.load(Ordering::SeqCst) - a0;
    PROCESS_COUNTERS.fetch_sub(1, Ordering::SeqCst);
    (allocs, out)
}

/// Number of heap bytes requested by this thread so far (monotonic).
pub fn allocated_bytes() -> u64 {
    BYTES.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` and returns `(allocations, bytes, result)` attributable to it
/// on the calling thread.
pub fn counting<T>(f: impl FnOnce() -> T) -> (u64, u64, T) {
    let a0 = allocations();
    let b0 = allocated_bytes();
    let out = f();
    (allocations() - a0, allocated_bytes() - b0, out)
}
