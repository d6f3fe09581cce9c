//! A counting global allocator: one process-wide count and one count per
//! thread, so the load generator's own allocations can be subtracted
//! from the server's and a single call can be measured in isolation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counting;

static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator never allocates or registers anything.
    static LOCAL: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // A statistic that publishes no other data: relaxed is enough.
    TOTAL.fetch_add(1, Ordering::Relaxed);
    let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only an atomic and a const thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) made by the whole process.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread.
pub fn thread() -> u64 {
    LOCAL.with(Cell::get)
}
