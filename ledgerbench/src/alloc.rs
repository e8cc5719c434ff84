//! A counting global allocator: heap allocations made by the whole
//! process, and by the calling thread, while counting is switched on.
//!
//! Counting is off in end-to-end runs, where the allocator only pays
//! one relaxed load per call; the traced run switches it on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The allocator installed for the benchmark binary.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and drop-free, so touching it never allocates.
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // Relaxed: a statistic that publishes no other data.
    if ENABLED.load(Ordering::Relaxed) {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        LOCAL.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only an atomic and a const-initialised thread-local `Cell`, neither of
// which allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switch counting on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Allocations counted so far: `(whole process, calling thread)`.
pub fn counts() -> (u64, u64) {
    (TOTAL.load(Ordering::Relaxed), LOCAL.with(Cell::get))
}
