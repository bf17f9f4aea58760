//! Schedule-exploration targets over the runtime's **real** protocol
//! code (only built with the `conc-instrument` feature).
//!
//! Each [`SchedTarget`] here wraps actual `continuum-runtime` /
//! `continuum-platform` code — the [`TaskCell`] park/wake handshake,
//! the oneshot reply cell, the bounded [`StreamChannel`], the
//! [`CountedSleeper`], the [`ValueCell`] tasks publish their outputs
//! into and the `shims/crossbeam` work-stealing deque —
//! in a small multi-threaded scenario whose synchronization operations
//! the exploration scheduler
//! ([`continuum_analyze::conc::sched::explore_sched`]) can enumerate
//! exhaustively. Where the explicit-state models in
//! `continuum_analyze::conc` check an abstraction, these targets check
//! the code itself: a regression that breaks the real implementation
//! without breaking the hand-written model is caught here.
//!
//! Three targets carry **planted races** (`*-racy-*`,
//! `*-commit-before-publish`): deliberately broken variants whose
//! unsynchronized payload access the happens-before detector must
//! flag. CI asserts they stay detected —
//! they are the proof the harness still works.
//!
//! Scenario payloads use [`RaceCell`], whose accesses are reported to
//! the race detector as plain reads/writes; harness-side bookkeeping
//! (what a thread observed, element counts) uses ordinary `std`
//! atomics, which are *not* instrumented and therefore invisible to
//! the scheduler.

use crate::sleeper::CountedSleeper;
use crate::stream::{PollSend, Side, StreamChannel};
use crate::task_cell::{ParkOutcome, TaskCell, WakeOutcome, COMPLETE, RUNNING};
use crate::value_cell::ValueCell;
use continuum_analyze::conc::sched::{Expect, Scenario, SchedTarget};
use continuum_platform::oneshot;
use continuum_platform::sync::{self, RaceCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every instrumented target, planted races included, in the order
/// `model_check` runs them.
pub fn sched_targets() -> Vec<SchedTarget> {
    vec![
        task_cell_target(),
        task_cell_racy_wake_target(),
        oneshot_target(),
        oneshot_racy_publish_target(),
        stream_target(),
        stream_cancel_target(),
        value_cell_target(),
        value_cell_commit_before_publish_target(),
        sleeper_target(),
        deque_target(),
    ]
}

/// `sched::task-cell` — the real [`TaskCell`] poller/waker handshake.
///
/// T0 plays the worker: claims the task, polls (readiness flag), and
/// parks on `Poll::Pending`. T1 plays the event source: publishes the
/// payload, sets readiness, and wakes the cell — re-polling it itself
/// when the wake wins ownership ([`WakeOutcome::Enqueue`]). In every
/// interleaving the task must end [`COMPLETE`] having observed the
/// payload, with the handoff fully ordered (no race on the payload
/// cell) — the readiness-races-the-park window is exactly what the
/// `NOTIFIED` state closes.
fn task_cell_target() -> SchedTarget {
    SchedTarget {
        name: "sched::task-cell",
        about: "real TaskCell park/wake handshake: task completes, payload handoff ordered",
        expect: Expect::Clean,
        make: Box::new(|| {
            let cell = Arc::new(TaskCell::new());
            let ready = Arc::new(sync::AtomicBool::new(false));
            let payload = Arc::new(RaceCell::new(0));
            let observed = Arc::new(AtomicU64::new(0));

            let poller = {
                let (cell, ready, payload, observed) = (
                    Arc::clone(&cell),
                    Arc::clone(&ready),
                    Arc::clone(&payload),
                    Arc::clone(&observed),
                );
                move || {
                    cell.claim();
                    if ready.load(Ordering::SeqCst) {
                        observed.store(payload.get(), Ordering::SeqCst);
                        cell.complete();
                        return;
                    }
                    match cell.try_park() {
                        // Ownership handed to the waker; T1 resumes it.
                        ParkOutcome::Parked => {}
                        // The wake raced the poll: readiness is now
                        // visible, finish here.
                        ParkOutcome::MustRepoll => {
                            observed.store(payload.get(), Ordering::SeqCst);
                            cell.complete();
                        }
                    }
                }
            };
            let waker = {
                let (cell, ready, payload, observed) = (
                    Arc::clone(&cell),
                    Arc::clone(&ready),
                    Arc::clone(&payload),
                    Arc::clone(&observed),
                );
                move || {
                    payload.set(42);
                    ready.store(true, Ordering::SeqCst);
                    if cell.wake() == WakeOutcome::Enqueue {
                        // This wake won the parked task: play the
                        // worker that dequeues and re-polls it.
                        cell.claim();
                        observed.store(payload.get(), Ordering::SeqCst);
                        cell.complete();
                    }
                }
            };
            Scenario {
                threads: vec![Box::new(poller), Box::new(waker)],
                check: Some(Box::new(move || {
                    if cell.state() != COMPLETE {
                        return Err(format!(
                            "task stranded in state {} instead of COMPLETE",
                            cell.state()
                        ));
                    }
                    let got = observed.load(Ordering::SeqCst);
                    if got != 42 {
                        return Err(format!("completed task observed payload {got}, not 42"));
                    }
                    Ok(())
                })),
            }
        }),
    }
}

/// `sched::task-cell-racy-wake` — **planted race**: an event source
/// that peeks at the cell state and, seeing the task `RUNNING`, writes
/// the payload directly instead of going through the wake protocol.
/// The state load carries no ownership, so the write races the
/// poller's own payload write; the detector must flag it.
fn task_cell_racy_wake_target() -> SchedTarget {
    SchedTarget {
        name: "sched::task-cell-racy-wake",
        about: "planted race: waker peeks RUNNING and writes the payload without the handshake",
        expect: Expect::Race,
        make: Box::new(|| {
            let cell = Arc::new(TaskCell::new());
            let payload = Arc::new(RaceCell::new(0));

            let poller = {
                let (cell, payload) = (Arc::clone(&cell), Arc::clone(&payload));
                move || {
                    cell.claim();
                    payload.set(1);
                    cell.complete();
                }
            };
            let racy_waker = {
                let (cell, payload) = (Arc::clone(&cell), Arc::clone(&payload));
                move || {
                    // BUG (planted): observing RUNNING is not
                    // ownership — the poller is writing concurrently.
                    if cell.state() == RUNNING {
                        payload.set(7);
                    }
                }
            };
            Scenario {
                threads: vec![Box::new(poller), Box::new(racy_waker)],
                check: None,
            }
        }),
    }
}

/// `sched::oneshot` — the real oneshot reply cell between a service
/// thread and a receiver blocked in `OneshotReceiver::wait` (the path
/// the agents' orchestrator takes for every offload). Every
/// interleaving must deliver the reply: sender-first resolves the
/// first poll, receiver-first parks and is woken, send-between-poll-
/// and-park is caught by the park token.
fn oneshot_target() -> SchedTarget {
    SchedTarget {
        name: "sched::oneshot",
        about: "real oneshot send/wait: the reply arrives in every interleaving",
        expect: Expect::Clean,
        make: Box::new(|| {
            let (tx, rx) = oneshot::channel::<u64>();
            let got = Arc::new(AtomicU64::new(0));

            let receiver = {
                let got = Arc::clone(&got);
                move || {
                    let v = rx.wait().expect("sender sent before dropping");
                    got.store(v, Ordering::SeqCst);
                }
            };
            let sender = move || {
                tx.send(5);
            };
            Scenario {
                threads: vec![Box::new(receiver), Box::new(sender)],
                check: Some(Box::new(move || {
                    let v = got.load(Ordering::SeqCst);
                    if v == 5 {
                        Ok(())
                    } else {
                        Err(format!("receiver resolved with {v}, not the sent 5"))
                    }
                })),
            }
        }),
    }
}

/// `sched::oneshot-racy-publish` — **planted race**: the sender
/// publishes a side value *after* `send`, relying on the receiver
/// "seeing the reply first". The reply's lock and wake edges order
/// everything up to the `send`, but nothing orders the late side-write
/// against the receiver's read.
fn oneshot_racy_publish_target() -> SchedTarget {
    SchedTarget {
        name: "sched::oneshot-racy-publish",
        about: "planted race: sender writes a side cell after send; receiver reads it after Ready",
        expect: Expect::Race,
        make: Box::new(|| {
            let (tx, rx) = oneshot::channel::<u64>();
            let side = Arc::new(RaceCell::new(0));

            let receiver = {
                let side = Arc::clone(&side);
                move || {
                    let _ = rx.wait();
                    // BUG (planted): nothing orders this read after
                    // the sender's late write.
                    let _ = side.get();
                }
            };
            let sender = {
                let side = Arc::clone(&side);
                move || {
                    tx.send(5);
                    // BUG (planted): published after the reply's
                    // synchronization instead of before.
                    side.set(99);
                }
            };
            Scenario {
                threads: vec![Box::new(receiver), Box::new(sender)],
                check: None,
            }
        }),
    }
}

/// `sched::stream` — the real bounded [`StreamChannel`] at capacity 1:
/// a producer pushes two elements through the backpressure window
/// (parking on the full queue) and closes; a consumer drains to
/// end-of-stream (parking on the empty queue). Every interleaving must
/// deliver both elements in order and terminate — a lost unpark on
/// either side would deadlock the scenario.
fn stream_target() -> SchedTarget {
    SchedTarget {
        name: "sched::stream",
        about: "real StreamChannel capacity-1 backpressure: both elements arrive, close observed",
        expect: Expect::Clean,
        make: Box::new(|| {
            let ch = Arc::new(StreamChannel::new("sched-target", 1));
            // Registered before any thread runs, as the runtime does at
            // task submission (the close protocol's precondition).
            ch.register_writer();
            let received = Arc::new(AtomicU64::new(0));
            let sum = Arc::new(AtomicU64::new(0));

            let producer = {
                let ch = Arc::clone(&ch);
                move || {
                    for v in 1u64..=2 {
                        let (accepted, _us) = ch.send(v);
                        assert!(accepted, "channel is never force-closed here");
                    }
                    ch.writer_done();
                }
            };
            let consumer = {
                let (ch, received, sum) =
                    (Arc::clone(&ch), Arc::clone(&received), Arc::clone(&sum));
                move || {
                    while let (Some(v), _us) = ch.recv::<u64>() {
                        received.fetch_add(1, Ordering::SeqCst);
                        sum.fetch_add(v, Ordering::SeqCst);
                    }
                }
            };
            Scenario {
                threads: vec![Box::new(producer), Box::new(consumer)],
                check: Some(Box::new(move || {
                    let (n, s) = (received.load(Ordering::SeqCst), sum.load(Ordering::SeqCst));
                    if n != 2 {
                        return Err(format!("consumer received {n} elements, expected 2"));
                    }
                    if s != 3 {
                        return Err(format!("element payloads summed to {s}, expected 3"));
                    }
                    if ch.occupancy() != 0 {
                        return Err(format!("{} elements left in the queue", ch.occupancy()));
                    }
                    Ok(())
                })),
            }
        }),
    }
}

/// `sched::stream-cancel` — a cancelled waiter must not swallow its
/// wake-one credit. The capacity-1 channel starts full with a *quitter*
/// already queued behind it: a `send_async` whose only poll found the
/// channel full and which will be dropped, never re-polled. A producer
/// sends through the blocking surface; the consumer pops the first
/// element (waking the quitter, first in line), then drops the quitter
/// and drains to end-of-stream. Whenever the producer queued behind the
/// quitter, only the hand-off in [`StreamChannel::cancel_waiter`] gets
/// the freed slot to it — without it the scenario deadlocks.
fn stream_cancel_target() -> SchedTarget {
    SchedTarget {
        name: "sched::stream-cancel",
        about: "real StreamChannel: a woken-then-cancelled sender passes the freed slot on",
        expect: Expect::Clean,
        make: Box::new(|| {
            let ch = Arc::new(StreamChannel::new("sched-target", 1));
            ch.register_writer();
            assert!(ch.send(0u64).0, "fills the channel before any thread runs");
            // Nobody ever parks behind this waker; the unpark is a no-op.
            let quitter = sync::thread_waker();
            let mut registered = None;
            let full = ch.poll_send(&mut Some(1u64), Some(&quitter), &mut registered);
            assert!(matches!(full, PollSend::Full));
            let received = Arc::new(AtomicU64::new(0));
            let sum = Arc::new(AtomicU64::new(0));

            let producer = {
                let ch = Arc::clone(&ch);
                move || {
                    assert!(ch.send(2u64).0, "channel is never force-closed here");
                    ch.writer_done();
                }
            };
            let consumer = {
                let (ch, received, sum) =
                    (Arc::clone(&ch), Arc::clone(&received), Arc::clone(&sum));
                move || {
                    let mut quitter = registered;
                    while let (Some(v), _us) = ch.recv::<u64>() {
                        received.fetch_add(1, Ordering::SeqCst);
                        sum.fetch_add(v, Ordering::SeqCst);
                        if let Some(waker) = quitter.take() {
                            ch.cancel_waiter(Side::Send, &waker);
                        }
                    }
                }
            };
            Scenario {
                threads: vec![Box::new(producer), Box::new(consumer)],
                check: Some(Box::new(move || {
                    let (n, s) = (received.load(Ordering::SeqCst), sum.load(Ordering::SeqCst));
                    if (n, s) != (2, 2) {
                        return Err(format!(
                            "consumer received {n} elements summing to {s}, expected 2 and 2"
                        ));
                    }
                    Ok(())
                })),
            }
        }),
    }
}

/// What [`value_cell_scenario`] shares between its threads: the cell,
/// the stand-in for the graph mutex and its client condvar, the
/// payload the value stands for, and what the readers saw.
struct ValueCellRun {
    cell: ValueCell,
    /// `true` once the producer's graph commit happened.
    graph: sync::Mutex<bool>,
    client_cv: sync::Condvar,
    payload: RaceCell,
    /// Sum of what successor and `get` read out of the cell.
    observed: AtomicU64,
    /// Values handed back by a last `release`.
    freed: AtomicU64,
}

impl ValueCellRun {
    fn read(&self) {
        if let Some(v) = self.cell.read() {
            let v = v.downcast::<u64>().expect("the producer stores a u64");
            self.observed.fetch_add(*v, Ordering::SeqCst);
        }
        // What a body does with its input, found or not.
        let _ = self.payload.get();
    }

    fn release(&self) {
        if self.cell.release().is_some() {
            self.freed.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// The life of one version in the executor, over the real
/// [`ValueCell`]: the producing worker publishes and then commits under
/// the graph lock; the successor that commit releases reads the cell
/// and lets go of its reference; a client `get` pins the version under
/// the graph lock, waits for it on the client condvar, reads and
/// unpins. `publish_first == false` plants the bug the executor's
/// ordering exists to prevent: commit, then publish.
fn value_cell_scenario(publish_first: bool) -> Scenario {
    let run = Arc::new(ValueCellRun {
        cell: ValueCell::new(), // the column's reference
        graph: sync::Mutex::new(false),
        client_cv: sync::Condvar::new(),
        payload: RaceCell::new(0),
        observed: AtomicU64::new(0),
        freed: AtomicU64::new(0),
    });
    run.cell.retain(); // the successor, registered before anything runs

    let producer = {
        let run = Arc::clone(&run);
        move || {
            let publish = || {
                run.payload.set(21);
                assert!(run.cell.publish(Arc::new(21u64)), "references are held");
            };
            let commit = || {
                *run.graph.lock() = true;
                run.client_cv.notify_all();
            };
            if publish_first {
                publish();
                commit();
            } else {
                // BUG (planted): successors are released first.
                commit();
                publish();
            }
        }
    };
    let successor = {
        let run = Arc::clone(&run);
        move || {
            // Dispatched by the producer's commit.
            let mut committed = run.graph.lock();
            while !*committed {
                run.client_cv.wait(&mut committed);
            }
            drop(committed);
            run.read();
            run.release();
        }
    };
    let get = {
        let run = Arc::clone(&run);
        move || {
            let mut committed = run.graph.lock();
            run.cell.retain(); // the pin, made from the column's reference
            while !*committed {
                run.client_cv.wait(&mut committed);
            }
            drop(committed);
            run.read();
            run.release();
        }
    };
    Scenario {
        threads: vec![Box::new(producer), Box::new(successor), Box::new(get)],
        check: Some(Box::new(move || {
            let seen = run.observed.load(Ordering::SeqCst);
            if seen != 42 {
                return Err(format!(
                    "successor and get read {seen} between them, not 21 each"
                ));
            }
            if run.freed.load(Ordering::SeqCst) != 0 || run.cell.read().is_none() {
                return Err("the current version was freed under the column".to_string());
            }
            // A writer supersedes the version: the column lets go.
            run.release();
            if run.freed.load(Ordering::SeqCst) != 1 || run.cell.read().is_some() {
                return Err("the last release did not free the value exactly once".to_string());
            }
            Ok(())
        })),
    }
}

/// `sched::value-cell` — publish → graph commit → successor read, plus
/// a concurrent `get`, over the real [`ValueCell`]. In every
/// interleaving both readers find the value, ordered after the
/// producer's payload write, and the value outlives them until the
/// column's reference goes — then it is freed exactly once.
fn value_cell_target() -> SchedTarget {
    SchedTarget {
        name: "sched::value-cell",
        about: "real ValueCell publish/commit/read/release: readers find the value, freed once",
        expect: Expect::Clean,
        make: Box::new(|| value_cell_scenario(true)),
    }
}

/// `sched::value-cell-commit-before-publish` — **planted race**: the
/// producer commits to the graph before publishing, so a successor can
/// run against an empty cell and reads the payload unordered with its
/// write.
fn value_cell_commit_before_publish_target() -> SchedTarget {
    SchedTarget {
        name: "sched::value-cell-commit-before-publish",
        about: "planted race: graph commit releases the successor before the output is published",
        expect: Expect::Race,
        make: Box::new(|| value_cell_scenario(false)),
    }
}

/// `sched::sleeper` — the real [`CountedSleeper`] register-then-recheck
/// protocol: a producer publishes one unit of work and wakes one
/// worker; the worker loops between checking for work and sleeping.
/// Lost-wakeup freedom **is** deadlock freedom here: the only way the
/// scenario can fail is the worker asleep with work published and the
/// wake already spent.
fn sleeper_target() -> SchedTarget {
    SchedTarget {
        name: "sched::sleeper",
        about: "real CountedSleeper publish/wake vs register/recheck: no lost wakeup",
        expect: Expect::Clean,
        make: Box::new(|| {
            let sleeper = Arc::new(CountedSleeper::new());
            let pending = Arc::new(sync::AtomicUsize::new(0));

            let worker = {
                let (sleeper, pending) = (Arc::clone(&sleeper), Arc::clone(&pending));
                move || loop {
                    if pending.load(Ordering::SeqCst) > 0 {
                        pending.fetch_sub(1, Ordering::SeqCst);
                        return;
                    }
                    let p = Arc::clone(&pending);
                    sleeper.sleep_unless(move || p.load(Ordering::SeqCst) > 0);
                }
            };
            let producer = {
                let (sleeper, pending) = (Arc::clone(&sleeper), Arc::clone(&pending));
                move || {
                    // Publish before waking — the protocol's contract.
                    pending.fetch_add(1, Ordering::SeqCst);
                    sleeper.wake(1);
                }
            };
            Scenario {
                threads: vec![Box::new(worker), Box::new(producer)],
                check: Some(Box::new(move || {
                    let left = pending.load(Ordering::SeqCst);
                    if left == 0 {
                        Ok(())
                    } else {
                        Err(format!("{left} published units never consumed"))
                    }
                })),
            }
        }),
    }
}

/// `sched::deque` — the `shims/crossbeam` work-stealing deque driven
/// the way `local.rs::find_task` drives it: a LIFO owner pushes three
/// items and pops until empty while two thieves each make two
/// `steal_batch_and_pop` attempts into their own worker and drain it.
/// A thief's batch is invisible between the source drain and the
/// publish to its own deque — the widest window in the protocol.
/// Conservation must hold in every interleaving: each item is taken
/// exactly once, whether popped, stolen or moved in a batch.
fn deque_target() -> SchedTarget {
    use crossbeam::deque::Worker;
    SchedTarget {
        name: "sched::deque",
        about:
            "real work-stealing deque, LIFO owner vs two batch thieves: items taken exactly once",
        expect: Expect::Clean,
        make: Box::new(|| {
            let queues: [Arc<Worker<u64>>; 3] =
                std::array::from_fn(|_| Arc::new(Worker::new_lifo()));
            let taken = Arc::new(AtomicU64::new(0));
            let total = Arc::new(AtomicU64::new(0));
            let tally = {
                let (taken, total) = (Arc::clone(&taken), Arc::clone(&total));
                move |v: u64| {
                    taken.fetch_add(1, Ordering::SeqCst);
                    total.fetch_add(v, Ordering::SeqCst);
                }
            };

            let owner = {
                let (own, tally) = (Arc::clone(&queues[0]), tally.clone());
                move || {
                    for v in 1..=3 {
                        own.push(v);
                    }
                    while let Some(v) = own.pop() {
                        tally(v);
                    }
                }
            };
            let thief = |own: &Arc<Worker<u64>>| {
                let (stealer, own, tally) = (queues[0].stealer(), Arc::clone(own), tally.clone());
                move || {
                    for _ in 0..2 {
                        if let Some(v) = stealer.steal_batch_and_pop(&own).success() {
                            tally(v);
                        }
                    }
                    while let Some(v) = own.pop() {
                        tally(v);
                    }
                }
            };
            Scenario {
                threads: vec![
                    Box::new(owner),
                    Box::new(thief(&queues[1])),
                    Box::new(thief(&queues[2])),
                ],
                check: Some(Box::new(move || {
                    let (n, t) = (taken.load(Ordering::SeqCst), total.load(Ordering::SeqCst));
                    let left: usize = queues.iter().map(|q| q.len()).sum();
                    if n as usize + left != 3 {
                        return Err(format!(
                            "{n} items taken and {left} left behind, expected 3 in all"
                        ));
                    }
                    if left == 0 && t != 6 {
                        return Err(format!(
                            "taken items sum to {t}, expected 6 (1+2+3, each once)"
                        ));
                    }
                    Ok(())
                })),
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_analyze::conc::sched::{
        explore_sched, replay_schedule, ExploreOpts, Pruning, SchedViolation,
    };

    fn opts() -> ExploreOpts {
        ExploreOpts {
            max_schedules: 50_000,
            pruning: Pruning::Dpor,
        }
    }

    #[test]
    fn clean_targets_verify_to_exhaustion() {
        for target in sched_targets() {
            if target.expect != Expect::Clean {
                continue;
            }
            let out = explore_sched(&target, &opts());
            assert!(
                out.violation.is_none(),
                "{} should verify clean, found: {:?}",
                target.name,
                out.violation
            );
            assert!(
                out.stats.schedules > 0,
                "{} explored no schedules",
                target.name
            );
        }
    }

    #[test]
    fn planted_races_stay_detected_with_replayable_witness() {
        for target in sched_targets() {
            if target.expect != Expect::Race {
                continue;
            }
            let out = explore_sched(&target, &opts());
            let Some(SchedViolation::Race { witness, .. }) = out.violation else {
                panic!(
                    "{} must stay detected as a race, got {:?}",
                    target.name, out.violation
                );
            };
            let replay = replay_schedule(&target, &witness);
            assert!(
                matches!(replay.violation, Some(SchedViolation::Race { .. })),
                "{} witness did not reproduce: {:?}",
                target.name,
                replay.violation
            );
        }
    }

    #[test]
    fn dpor_prunes_versus_naive_on_the_task_cell() {
        let target = task_cell_target();
        let dpor = explore_sched(&target, &opts());
        let naive = explore_sched(
            &target,
            &ExploreOpts {
                max_schedules: 200_000,
                pruning: Pruning::Naive,
            },
        );
        assert!(dpor.violation.is_none() && naive.violation.is_none());
        assert!(
            naive.stats.schedules > dpor.stats.schedules,
            "naive {} should exceed dpor {}",
            naive.stats.schedules,
            dpor.stats.schedules
        );
    }
}
