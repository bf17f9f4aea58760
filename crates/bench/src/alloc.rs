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
//! allocator for memory" (`alloc` and `realloc` calls, every thread);
//! [`live_bytes`] and [`peak_bytes`] are the heap bytes held now and at
//! most since the last [`reset_peak`]. In a process that does not
//! register the allocator they all read zero.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Defers to the system allocator and counts on the way.
pub struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: u64) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method passes its arguments unchanged to the system
// allocator and returns its result, so `System`'s guarantees are this
// type's; the counters are relaxed atomics that publish no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this type with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let (old, new) = (layout.size() as u64, new_size as u64);
        if new >= old {
            grow(new - old);
        } else {
            LIVE_BYTES.fetch_sub(old - new, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this type with `layout`;
        // the caller upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls (`alloc` + `realloc`) since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap bytes allocated and not yet freed, every thread.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Highest [`live_bytes`] since the last [`reset_peak`] (or process
/// start).
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Rebases the peak to the current live level, so the next region's
/// peak is its own and not an earlier, larger one.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}
