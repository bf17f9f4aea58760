//! The task-cell state machine: how an async task body hands itself
//! between a polling worker and the waker that will resume it, without
//! losing a wakeup and without ever parking an OS thread.
//!
//! One cell tracks one async task. Its lifecycle is
//! `Scheduled → Running → {Parked | Notified} → … → Complete`:
//!
//! * **Scheduled** — the task sits in a dispatch queue (global injector
//!   or a worker deque) waiting to be claimed and polled.
//! * **Running** — a worker is inside `Future::poll` right now.
//! * **Parked** — the last poll returned `Poll::Pending` and the stored
//!   waker is the only way back: the task costs one heap cell, not one
//!   thread, until the reactor / a stream peer / a storage reply wakes
//!   it.
//! * **Notified** — the waker fired *while the worker was still
//!   polling* (readiness raced the park). The poller observes this
//!   when it tries to park and immediately re-queues instead — the
//!   classic lost-wakeup race, closed by a CAS handshake (explored
//!   exhaustively on this code by `sched::task-cell` and
//!   `sched::task-cell-requeue`, `crate::conc_targets`).
//! * **Complete** — the future returned `Poll::Ready`; wakes are no-ops.
//!
//! The transitions live here, away from the executor, so they can be
//! unit-tested and schedule-explored in isolation: every load and CAS
//! goes through `continuum_platform::sync::AtomicU8`, which the
//! explorer preempts at under the `conc-instrument` feature.

use continuum_platform::sync::AtomicU8;
use std::sync::atomic::Ordering;

/// Queued for dispatch; no worker owns the task.
pub(crate) const SCHEDULED: u8 = 0;
/// A worker is polling the task body.
pub(crate) const RUNNING: u8 = 1;
/// Suspended; the registered waker re-queues it.
pub(crate) const PARKED: u8 = 2;
/// Woken while still polling; the poller must re-queue instead of park.
pub(crate) const NOTIFIED: u8 = 3;
/// The future finished; all further wakes are no-ops.
pub(crate) const COMPLETE: u8 = 4;

/// What the poller must do after its poll returned `Poll::Pending`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ParkOutcome {
    /// The task parked; ownership passed to whoever wakes it.
    Parked,
    /// A wake raced the park: the poller still owns the task and must
    /// poll (or re-queue) it again itself.
    MustRepoll,
}

/// What a waker invocation is responsible for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WakeOutcome {
    /// The wake took ownership: enqueue the task for dispatch.
    Enqueue,
    /// Someone else already owns the task (it is queued, being polled
    /// with a notification recorded, or complete): nothing to do.
    Coalesced,
}

/// The atomic half of an async task: its lifecycle state. The stored
/// future itself lives next to this in the executor's task metadata.
#[derive(Debug)]
pub(crate) struct TaskCell {
    state: AtomicU8,
}

impl TaskCell {
    /// A fresh cell for a task entering the dispatch queues.
    pub(crate) fn new() -> Self {
        TaskCell {
            state: AtomicU8::new(SCHEDULED),
        }
    }

    /// Current raw state (diagnostics and tests only).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    /// A worker claimed the task from a queue and is about to poll.
    /// Valid from `Scheduled` only — queues hold exactly the tasks in
    /// that state.
    pub(crate) fn claim(&self) {
        let prev = self.state.swap(RUNNING, Ordering::SeqCst);
        debug_assert_eq!(prev, SCHEDULED, "claimed a task that was not scheduled");
    }

    /// The poll returned `Poll::Pending`: try to hand ownership to the
    /// waker. The caller must have stored the future back into the task
    /// metadata *before* calling this — the moment the CAS succeeds, a
    /// concurrent wake may re-queue the task and another worker may
    /// resume it.
    pub(crate) fn try_park(&self) -> ParkOutcome {
        match self
            .state
            .compare_exchange(RUNNING, PARKED, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => ParkOutcome::Parked,
            Err(observed) => {
                debug_assert_eq!(observed, NOTIFIED, "park raced an unexpected state");
                // Consume the notification; the poller keeps ownership.
                self.state.store(RUNNING, Ordering::SeqCst);
                ParkOutcome::MustRepoll
            }
        }
    }

    /// The future returned `Poll::Ready`; late wakes from stale waker
    /// clones become no-ops.
    pub(crate) fn complete(&self) {
        self.state.store(COMPLETE, Ordering::SeqCst);
    }

    /// A waker fired. Returns whether this invocation won the race and
    /// must enqueue the task. Wakes coalesce: any number of concurrent
    /// wakes produce at most one enqueue per park.
    pub(crate) fn wake(&self) -> WakeOutcome {
        loop {
            let state = self.state.load(Ordering::SeqCst);
            match state {
                PARKED => {
                    if self
                        .state
                        .compare_exchange(PARKED, SCHEDULED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return WakeOutcome::Enqueue;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return WakeOutcome::Coalesced;
                    }
                }
                // Already queued, already notified, or finished: the
                // wake is subsumed.
                SCHEDULED | NOTIFIED | COMPLETE => return WakeOutcome::Coalesced,
                _ => unreachable!("invalid task-cell state {state}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn plain_lifecycle_parks_and_resumes() {
        let cell = TaskCell::new();
        assert_eq!(cell.state(), SCHEDULED);
        cell.claim();
        assert_eq!(cell.state(), RUNNING);
        assert_eq!(cell.try_park(), ParkOutcome::Parked);
        assert_eq!(cell.state(), PARKED);
        assert_eq!(cell.wake(), WakeOutcome::Enqueue);
        assert_eq!(cell.state(), SCHEDULED);
        cell.claim();
        cell.complete();
        assert_eq!(cell.state(), COMPLETE);
    }

    #[test]
    fn wake_during_poll_forces_repoll() {
        let cell = TaskCell::new();
        cell.claim();
        // Readiness races the park: the waker fires mid-poll.
        assert_eq!(cell.wake(), WakeOutcome::Coalesced);
        assert_eq!(cell.state(), NOTIFIED);
        assert_eq!(cell.try_park(), ParkOutcome::MustRepoll);
        assert_eq!(cell.state(), RUNNING);
        // The re-poll found readiness and completed.
        cell.complete();
        assert_eq!(cell.wake(), WakeOutcome::Coalesced, "late wake is a no-op");
    }

    #[test]
    fn racing_wakes_coalesce() {
        for _ in 0..100 {
            let cell = Arc::new(TaskCell::new());
            cell.claim();
            assert_eq!(cell.try_park(), ParkOutcome::Parked);
            let results: Vec<WakeOutcome> = (0..4)
                .map(|_| {
                    let cell = Arc::clone(&cell);
                    std::thread::spawn(move || cell.wake())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect();
            let enqueues = results
                .iter()
                .filter(|r| **r == WakeOutcome::Enqueue)
                .count();
            assert_eq!(enqueues, 1, "exactly one waker wins the park handoff");
            assert_eq!(cell.state(), SCHEDULED);
        }
    }
}
