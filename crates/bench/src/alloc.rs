//! The counting allocator `tests/alloc_tripwires.rs` registers as its
//! `#[global_allocator]`:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: continuum_bench::alloc::CountingAllocator =
//!     continuum_bench::alloc::CountingAllocator;
//! ```
//!
//! [`allocations`] is "how many times the measured code asked the
//! allocator for memory" (`alloc` and `realloc` calls, every thread).
//! In a process that does not register the allocator it reads zero.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Defers to the system allocator and counts on the way.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its arguments unchanged to the system
// allocator and returns its result, so `System`'s guarantees are this
// type's; the counter is a relaxed atomic that publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this type with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this type with `layout`;
        // the caller upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls (`alloc` + `realloc`) since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
