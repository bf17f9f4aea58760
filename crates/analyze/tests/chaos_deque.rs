//! Chaos stress test for the work-stealing deque shim: with
//! `crossbeam::hooks::set_chaos(true)` every deque operation yields at
//! the entry of its critical section (and in the steal-batch window
//! between draining the source and publishing to the destination),
//! forcing at 20 000 items the preemptions the schedule explorer
//! enumerates at three. The invariant is the same item conservation
//! `sched::deque` (`continuum_runtime::conc_targets`) checks: every
//! pushed item is consumed exactly once.

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

const ITEMS: usize = 20_000;
const THIEVES: usize = 3;

#[test]
fn chaos_preemption_preserves_item_conservation() {
    crossbeam::hooks::set_chaos(true);
    // Every consumed item increments its slot exactly once; duplication
    // or loss shows up as a slot != 1.
    let seen: Arc<Vec<AtomicUsize>> = Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect());
    let consumed = Arc::new(AtomicUsize::new(0));
    let injector: Arc<Injector<usize>> = Arc::new(Injector::new());

    let owner_queue: Worker<usize> = Worker::new_lifo();
    let stealer: Stealer<usize> = owner_queue.stealer();

    let mut handles = Vec::new();
    for _ in 0..THIEVES {
        let stealer = stealer.clone();
        let injector = Arc::clone(&injector);
        let seen = Arc::clone(&seen);
        let consumed = Arc::clone(&consumed);
        handles.push(thread::spawn(move || {
            let local: Worker<usize> = Worker::new_lifo();
            while consumed.load(Ordering::SeqCst) < ITEMS {
                let mut progress = false;
                for got in [
                    injector.steal_batch_and_pop(&local),
                    stealer.steal_batch_and_pop(&local),
                    stealer.steal(),
                ] {
                    if let Steal::Success(i) = got {
                        seen[i].fetch_add(1, Ordering::SeqCst);
                        consumed.fetch_add(1, Ordering::SeqCst);
                        progress = true;
                    }
                }
                while let Some(i) = local.pop() {
                    seen[i].fetch_add(1, Ordering::SeqCst);
                    consumed.fetch_add(1, Ordering::SeqCst);
                    progress = true;
                }
                if !progress {
                    thread::yield_now();
                }
            }
        }));
    }

    // The owner interleaves pushes (alternating between its own deque
    // and the injector) with pops, racing the thieves throughout.
    for i in 0..ITEMS {
        if i % 2 == 0 {
            owner_queue.push(i);
        } else {
            injector.push(i);
        }
        if i % 3 == 0 {
            if let Some(j) = owner_queue.pop() {
                seen[j].fetch_add(1, Ordering::SeqCst);
                consumed.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    // Drain whatever the thieves left behind.
    while consumed.load(Ordering::SeqCst) < ITEMS {
        match owner_queue.pop() {
            Some(j) => {
                seen[j].fetch_add(1, Ordering::SeqCst);
                consumed.fetch_add(1, Ordering::SeqCst);
            }
            None => thread::yield_now(),
        }
    }

    for h in handles {
        h.join().unwrap();
    }
    crossbeam::hooks::set_chaos(false);

    for (i, slot) in seen.iter().enumerate() {
        let n = slot.load(Ordering::SeqCst);
        assert_eq!(n, 1, "item {i} consumed {n} times (must be exactly once)");
    }
}
