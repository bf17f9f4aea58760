//! Resuming a parked async task must not cost a heap allocation: the
//! task's waker is its dispatch metadata (`impl Wake for TaskMeta`), a
//! one-task injector batch has no overflow vector, and stream elements
//! travel by value. A per-resume allocation is exactly what a per-
//! element `Arc` or a fresh `Waker` box would bring back.
//!
//! Its own test binary because the counting allocator is global to the
//! process.

use continuum_dag::TaskSpec;
use continuum_platform::Constraints;
use continuum_runtime::{LocalConfig, LocalRuntime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations of a capacity-1 ping-pong of `elements` elements on one
/// worker: each element parks and resumes the source (full channel)
/// and the sink (empty channel) once.
fn ping_pong_allocations(elements: u64) -> u64 {
    let rt = LocalRuntime::new(LocalConfig::with_workers(1));
    let s = rt.stream::<u64>("s", 1);
    let total = rt.data::<u64>("total");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    rt.submit_async(
        TaskSpec::new("source").stream_out(s.id()),
        Constraints::new(),
        move |ctx| async move {
            let w = ctx.stream_writer::<u64>(0);
            for i in 0..elements {
                assert!(w.send_async(i).await);
            }
            ctx
        },
    )
    .unwrap();
    rt.submit_async(
        TaskSpec::new("sink").stream_in(s.id()).output(total.id()),
        Constraints::new(),
        |mut ctx| async move {
            let r = ctx.stream_reader::<u64>(0);
            let mut sum = 0;
            while let Some(v) = r.recv_async().await {
                sum += v;
            }
            ctx.set_output(0, sum);
            ctx
        },
    )
    .unwrap();
    rt.wait_all().unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(*rt.get(&total).unwrap(), elements * (elements - 1) / 2);
    assert_eq!(rt.parked_count(), 0);
    allocations
}

#[test]
fn ten_thousand_resumes_allocate_o1() {
    let short = ping_pong_allocations(100);
    let long = ping_pong_allocations(10_000);
    // 9 900 more park/wake cycles per task: a single allocation per
    // resume (or per element) would add ≥ 9 900.
    assert!(
        long <= short + 64,
        "allocations grew with the number of resumes: {short} for 100 elements, \
         {long} for 10 000"
    );
}
