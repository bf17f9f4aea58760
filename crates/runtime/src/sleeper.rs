//! The executor's counted-sleeper: the wake/sleep protocol that parks
//! idle workers without losing wakeups, extracted from the worker loop
//! so it can be unit-tested and schedule-explored in isolation.
//!
//! The protocol is register-then-recheck on the sleep side and
//! publish-then-wake on the producer side:
//!
//! * a sleeper raises the guarded count (and its lock-free mirror)
//!   *before* re-checking for work, and only then waits on the condvar;
//! * a producer makes work visible (`pending` rises) *before* reading
//!   the mirror to decide whether anyone needs waking.
//!
//! One side therefore always sees the other: either the producer
//! observes the registered sleeper and notifies under the same lock the
//! sleeper waits on, or the sleeper's re-check observes the published
//! work and never waits. This is exactly the invariant the
//! `sleeper` explicit-state model and the `sched::sleeper` instrumented
//! target verify (lost-wakeup freedom = deadlock freedom there).
//!
//! The *deficit rule* lives here too: workers advertise themselves in
//! `searching` while they scan the queues, and [`CountedSleeper::wake_for`]
//! wakes only as many sleepers as new work exceeds scanners — a scanner
//! either finds the work or fails its scan, stops searching and is
//! caught by the re-check. A scanner that finds a task may have found
//! one queued before the work a producer counted it for, so the last
//! scanner to stop with a task in hand wakes one sleeper while work is
//! left ([`CountedSleeper::end_search`]); that sleeper, done scanning,
//! passes the wake on in turn. `sched::executor-sleep`
//! explores it.
//!
//! The primitives come from [`continuum_platform::sync`], so under the
//! `conc-instrument` feature every operation here is visible to the
//! exploration scheduler; in default builds they are the plain
//! `parking_lot` mutex/condvar and a `std` atomic.

use crate::lockorder::{self, RANK_SLEEP};
use continuum_platform::sync::{AtomicUsize, Condvar, Mutex};
use std::sync::atomic::Ordering;

/// Counted sleep/wake coordination point for a pool of workers.
#[derive(Debug, Default)]
pub(crate) struct CountedSleeper {
    /// Sleeper count, guarded so registration and `notify_one` pair up
    /// without lost wakeups.
    count: Mutex<usize>,
    cv: Condvar,
    /// Mirror of `count` for lock-free reads on the wake fast path.
    mirror: AtomicUsize,
    /// Workers currently scanning the queues for work. New work skips
    /// the wakeup when a scanner is already guaranteed to find it.
    searching: AtomicUsize,
    /// What tests count of the wake-ups asked for.
    #[cfg(test)]
    pub(crate) tally: Tally,
}

/// Test-only counts of wake-ups asked for and of the tasks that
/// warranted them.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Work units every [`CountedSleeper::wake_for`] so far asked to
    /// wake for.
    pub(crate) requested: std::sync::atomic::AtomicUsize,
    /// Parked tasks an executor's releases moved back to its queues.
    pub(crate) unblocked: std::sync::atomic::AtomicUsize,
}

impl CountedSleeper {
    pub(crate) fn new() -> Self {
        CountedSleeper {
            count: Mutex::new(0),
            cv: Condvar::new(),
            mirror: AtomicUsize::new(0),
            searching: AtomicUsize::new(0),
            #[cfg(test)]
            tally: Tally::default(),
        }
    }

    /// Lock-free count of currently registered sleepers.
    pub(crate) fn sleepers(&self) -> usize {
        self.mirror.load(Ordering::SeqCst)
    }

    /// Registers as a sleeper, re-checks `has_work` under the lock,
    /// and waits for a notification unless work appeared. The
    /// register-then-recheck order closes the lost-wakeup window: a
    /// producer that published work before our registration is caught
    /// by the re-check, one that published after it sees our count.
    pub(crate) fn sleep_unless(&self, has_work: impl Fn() -> bool) {
        let _order = lockorder::acquire(RANK_SLEEP, "sleep");
        let mut count = self.count.lock();
        *count += 1;
        self.mirror.store(*count, Ordering::SeqCst);
        if !has_work() {
            self.cv.wait(&mut count);
        }
        *count -= 1;
        self.mirror.store(*count, Ordering::SeqCst);
    }

    /// Unconditionally parks until the next notification, unless
    /// `cancelled` already holds under the lock. Used by poisoned
    /// workers that must not claim work but still need to observe the
    /// shutdown broadcast.
    pub(crate) fn sleep_until_notified(&self, cancelled: impl Fn() -> bool) {
        let _order = lockorder::acquire(RANK_SLEEP, "sleep");
        let mut count = self.count.lock();
        if cancelled() {
            return;
        }
        *count += 1;
        self.mirror.store(*count, Ordering::SeqCst);
        self.cv.wait(&mut count);
        *count -= 1;
        self.mirror.store(*count, Ordering::SeqCst);
    }

    /// Wakes up to `n` sleepers (bounded by how many are registered).
    /// Lock-free no-op when nobody sleeps; the caller must have
    /// published the work that justifies the wake *before* calling, so
    /// a concurrently registering sleeper's re-check sees it.
    pub(crate) fn wake(&self, n: usize) {
        if n == 0 || self.sleepers() == 0 {
            return;
        }
        let _order = lockorder::acquire(RANK_SLEEP, "sleep");
        let guard = self.count.lock();
        for _ in 0..n.min(*guard) {
            self.cv.notify_one();
        }
    }

    /// The calling worker starts scanning the queues for work.
    pub(crate) fn begin_search(&self) {
        self.searching.fetch_add(1, Ordering::SeqCst);
    }

    /// The scan is over, whether it found work or not. A worker that
    /// found none must call this *before* [`sleep_unless`]: from here
    /// on producers count it as a sleeper-to-be, not a scanner.
    ///
    /// A producer that saw this worker scanning skipped a wake-up,
    /// counting on the scan to find its work — but the scan may have
    /// found a task queued earlier, whose own wake-up started it. So
    /// the last scanner to stop wakes one sleeper if `more_work` holds:
    /// the scan found a task and queued work is left beyond it. Against
    /// a producer this is the sleep protocol's publish-then-read
    /// pairing: either the producer reads `searching` after this
    /// decrement and wakes a sleeper itself, or `more_work` sees its
    /// work.
    ///
    /// [`sleep_unless`]: CountedSleeper::sleep_unless
    pub(crate) fn end_search(&self, more_work: impl FnOnce() -> bool) {
        if self.searching.fetch_sub(1, Ordering::SeqCst) == 1 && more_work() {
            self.wake(1);
        }
    }

    /// Makes `count` units of new queued work eligible to be picked
    /// up: wakes up to that many sleepers, minus scanners that will
    /// find the work anyway. Same publish-before-wake contract as
    /// [`wake`](CountedSleeper::wake).
    pub(crate) fn wake_for(&self, count: usize) {
        #[cfg(test)]
        self.tally.requested.fetch_add(count, Ordering::Relaxed);
        let deficit = count.saturating_sub(self.searching.load(Ordering::SeqCst));
        self.wake(deficit);
    }

    /// Wakes every sleeper (shutdown broadcast). Taken under the lock
    /// so a sleeper between registration and wait cannot miss it.
    pub(crate) fn wake_all(&self) {
        let _order = lockorder::acquire(RANK_SLEEP, "sleep");
        let _guard = self.count.lock();
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn sleeper_wakes_for_published_work() {
        let sleeper = Arc::new(CountedSleeper::new());
        let pending = Arc::new(StdAtomicUsize::new(0));
        let worker = {
            let (sleeper, pending) = (Arc::clone(&sleeper), Arc::clone(&pending));
            std::thread::spawn(move || {
                while pending.load(Ordering::SeqCst) == 0 {
                    let p = Arc::clone(&pending);
                    sleeper.sleep_unless(move || p.load(Ordering::SeqCst) > 0);
                }
                pending.fetch_sub(1, Ordering::SeqCst)
            })
        };
        // Publish before waking — the protocol's contract.
        pending.fetch_add(1, Ordering::SeqCst);
        // The worker may still be between loop entry and registration;
        // keep nudging until it exits (each wake is cheap).
        while !worker.is_finished() {
            sleeper.wake(1);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(worker.join().unwrap(), 1);
        assert_eq!(sleeper.sleepers(), 0);
    }

    #[test]
    fn recheck_skips_the_wait_entirely() {
        let sleeper = CountedSleeper::new();
        // Work already visible: must return immediately, no wake needed.
        sleeper.sleep_unless(|| true);
        assert_eq!(sleeper.sleepers(), 0);
    }

    #[test]
    fn cancelled_parked_sleep_returns_immediately() {
        let sleeper = CountedSleeper::new();
        sleeper.sleep_until_notified(|| true);
        assert_eq!(sleeper.sleepers(), 0);
    }

    #[test]
    fn wake_all_releases_every_sleeper() {
        let sleeper = Arc::new(CountedSleeper::new());
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let sleeper = Arc::clone(&sleeper);
                std::thread::spawn(move || sleeper.sleep_until_notified(|| false))
            })
            .collect();
        while sleeper.sleepers() < 3 {
            std::thread::yield_now();
        }
        sleeper.wake_all();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(sleeper.sleepers(), 0);
    }
}
