//! Schedule-exploration targets over the runtime's **real** protocol
//! code (only built with the `conc-instrument` feature).
//!
//! Each [`SchedTarget`] here wraps actual `continuum-runtime` /
//! `continuum-platform` code — the [`TaskCell`] park/wake handshake,
//! the oneshot reply cell, the bounded [`StreamChannel`], the
//! [`CountedSleeper`] with its `searching` deficit rule, the
//! [`ValueCell`] tasks publish their outputs into and the
//! `shims/crossbeam` work-stealing deque — in a small multi-threaded
//! scenario whose synchronization operations the exploration scheduler
//! ([`continuum_analyze::conc::sched::explore_sched`]) can enumerate
//! exhaustively. This is the tree's one kind of protocol check: the
//! hand-written deque and park/wake models are gone, and what they
//! proved at their CI bounds is proved here on the code that ships
//! (`sched::deque`, `sched::task-cell-requeue`). Only the sleeper keeps
//! an explicit-state model beside its targets, because stateless DPOR
//! cannot exhaust [2 workers, 2 items] over the real code (see
//! `continuum_analyze::conc`).
//!
//! Five targets carry **planted bugs**, each a harness-side misuse of
//! the real API — no switch in production code: three data races
//! (`*-racy-*`, `*-commit-before-publish`) the happens-before detector
//! must flag, one lost wakeup (`task-cell-dropped-wake`) that must end
//! in a deadlock, and one conservation break (`deque-double-take`) the
//! final check must catch. CI asserts each stays detected *as its own
//! kind* ([`Expect`]) — they are the proof the harness still works.
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

/// Every instrumented target, planted bugs included, in the order
/// `model_check` runs them. `smoke` leaves out the one bound that does
/// not fit the smoke budget of 20 000 schedules.
pub fn sched_targets(smoke: bool) -> Vec<SchedTarget> {
    let mut targets = vec![
        task_cell_target(),
        task_cell_racy_wake_target(),
        task_cell_requeue_target(),
        task_cell_dropped_wake_target(),
        oneshot_target(),
        oneshot_racy_publish_target(),
        stream_target(),
        stream_cancel_target(),
        value_cell_target(),
        value_cell_commit_before_publish_target(),
        sleeper_target(),
        executor_sleep_target(),
        deque_target(),
        deque_double_take_target(),
    ];
    if !smoke {
        targets.push(executor_sleep_two_workers_target());
    }
    targets
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

/// What [`requeue_scenario`] shares between its threads.
struct RequeueRun {
    cell: TaskCell,
    /// The one-slot run queue the pollers share.
    queue: sync::Mutex<RunQueue>,
    queue_cv: sync::Condvar,
    /// Readiness events armed by `Pending` polls and not yet delivered.
    armed: sync::Mutex<u64>,
    armed_cv: sync::Condvar,
    /// `Pending` polls so far — the task's own state, so a plain cell:
    /// two pollers owning the task at once, or a hand-off that does not
    /// order one owner's polls before the next's, is a reported race.
    polls_done: RaceCell,
}

struct RunQueue {
    /// The task sits in the queue (`SCHEDULED`, waiting for a claim).
    queued: bool,
    /// The future returned `Ready`; idle pollers go home.
    done: bool,
}

/// One async task through its whole life over the real [`TaskCell`]:
/// `pollers` workers take it from a one-slot run queue, claim and poll
/// it; each of the first `polls` polls returns `Pending`, arming exactly
/// one readiness event that the event source delivers through
/// [`TaskCell::wake`] — possibly before the poller reaches `try_park` —
/// re-queueing the task when the wake wins it. `drop_running_wake`
/// plants the bug the `NOTIFIED` state exists to prevent: a waker that
/// sees the task `RUNNING` assumes the poller will notice readiness
/// itself and drops the wake.
fn requeue_scenario(pollers: usize, polls: u64, drop_running_wake: bool) -> Scenario {
    let run = Arc::new(RequeueRun {
        cell: TaskCell::new(),
        queue: sync::Mutex::new(RunQueue {
            queued: true,
            done: false,
        }),
        queue_cv: sync::Condvar::new(),
        armed: sync::Mutex::new(0),
        armed_cv: sync::Condvar::new(),
        polls_done: RaceCell::new(0),
    });

    let poller = |run: Arc<RequeueRun>| {
        move || loop {
            {
                let mut q = run.queue.lock();
                while !q.queued && !q.done {
                    run.queue_cv.wait(&mut q);
                }
                if q.done {
                    return;
                }
                q.queued = false;
            }
            run.cell.claim();
            loop {
                let done = run.polls_done.get();
                if done == polls {
                    // `Poll::Ready`.
                    run.cell.complete();
                    let mut q = run.queue.lock();
                    q.done = true;
                    run.queue_cv.notify_all();
                    return;
                }
                // `Poll::Pending`: the poll left a waker with the
                // resource, which may fire at any later step.
                run.polls_done.set(done + 1);
                {
                    let mut armed = run.armed.lock();
                    *armed += 1;
                    run.armed_cv.notify_one();
                }
                if run.cell.try_park() == ParkOutcome::Parked {
                    break; // whoever wakes it owns the re-queue
                }
                // The wake raced the park: still ours, poll again.
            }
        }
    };
    let event_source = {
        let run = Arc::clone(&run);
        move || {
            for _ in 0..polls {
                {
                    let mut armed = run.armed.lock();
                    while *armed == 0 {
                        run.armed_cv.wait(&mut armed);
                    }
                    *armed -= 1;
                }
                // BUG (planted): observing RUNNING is no reason to
                // skip the handshake — the poller may be about to park.
                if drop_running_wake && run.cell.state() == RUNNING {
                    continue;
                }
                if run.cell.wake() == WakeOutcome::Enqueue {
                    let mut q = run.queue.lock();
                    q.queued = true;
                    run.queue_cv.notify_one();
                }
            }
        }
    };

    let mut threads: Vec<Box<dyn FnOnce() + Send>> = (0..pollers)
        .map(|_| Box::new(poller(Arc::clone(&run))) as _)
        .collect();
    threads.push(Box::new(event_source));
    Scenario {
        threads,
        check: Some(Box::new(move || {
            if run.cell.state() != COMPLETE {
                return Err(format!(
                    "task stranded in state {} instead of COMPLETE",
                    run.cell.state()
                ));
            }
            let done = run.polls_done.get();
            if done != polls {
                return Err(format!("completed after {done} pending polls, not {polls}"));
            }
            Ok(())
        })),
    }
}

/// `sched::task-cell-requeue` — the park/wake handshake with the
/// re-queue it exists for, at the bound the retired `parkwake` model
/// ran in CI: two pollers, two `Pending` polls before `Ready`, one wake
/// per poll. In every interleaving the task ends [`COMPLETE`] (a lost
/// wake would leave it parked with every thread waiting — a deadlock),
/// no wake enqueues it twice, and each hand-off between owners is
/// ordered. Three polls need ≈ 10⁵ schedules, so the model's
/// full-scale four are out of reach and not attempted.
fn task_cell_requeue_target() -> SchedTarget {
    SchedTarget {
        name: "sched::task-cell-requeue",
        about: "real TaskCell over a shared run queue, 2 pollers x 2 pending polls: no wake lost",
        expect: Expect::Clean,
        make: Box::new(|| requeue_scenario(2, 2, false)),
    }
}

/// `sched::task-cell-dropped-wake` — **planted lost wakeup**: the event
/// source peeks at the state and drops a wake that lands while the task
/// is `RUNNING` (two pollers, one pending poll). The poller then parks
/// on a consumed event and nothing re-queues it; the explorer must
/// report the deadlock.
fn task_cell_dropped_wake_target() -> SchedTarget {
    SchedTarget {
        name: "sched::task-cell-dropped-wake",
        about: "planted lost wakeup: waker sees RUNNING and drops the wake instead of notifying",
        expect: Expect::Deadlock,
        make: Box::new(|| requeue_scenario(2, 1, true)),
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

/// The executor's idle loop over the real [`CountedSleeper`], deficit
/// rule included: each worker advertises itself as searching, scans
/// (here: takes one unit off `pending`, the stand-in for the queues),
/// stops searching, and sleeps unless work or shutdown is visible; the
/// producer publishes `items` units one by one, each followed by
/// [`CountedSleeper::wake_for`], which skips the notification when a
/// scanner is guaranteed to find the work. The last taker raises
/// shutdown and broadcasts, as `LocalRuntime`'s drop does. A wake the
/// deficit rule wrongly skipped leaves a worker asleep with work
/// published: a deadlock.
fn executor_sleep_scenario(workers: usize, items: usize) -> Scenario {
    let sleeper = Arc::new(CountedSleeper::new());
    let pending = Arc::new(sync::AtomicUsize::new(0));
    let shutdown = Arc::new(sync::AtomicBool::new(false));
    let taken = Arc::new(AtomicU64::new(0));

    let worker = || {
        let (sleeper, pending, shutdown, taken) = (
            Arc::clone(&sleeper),
            Arc::clone(&pending),
            Arc::clone(&shutdown),
            Arc::clone(&taken),
        );
        move || loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            sleeper.begin_search();
            let found = loop {
                let queued = pending.load(Ordering::SeqCst);
                if queued == 0 {
                    break false;
                }
                let take = pending.compare_exchange(
                    queued,
                    queued - 1,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                if take.is_ok() {
                    break true;
                }
            };
            sleeper.end_search();
            if !found {
                sleeper.sleep_unless(|| {
                    pending.load(Ordering::SeqCst) != 0 || shutdown.load(Ordering::SeqCst)
                });
            } else if taken.fetch_add(1, Ordering::SeqCst) + 1 == items as u64 {
                shutdown.store(true, Ordering::SeqCst);
                sleeper.wake_all();
            }
        }
    };
    let producer = {
        let (sleeper, pending) = (Arc::clone(&sleeper), Arc::clone(&pending));
        move || {
            for _ in 0..items {
                // Publish before waking — the protocol's contract.
                pending.fetch_add(1, Ordering::SeqCst);
                sleeper.wake_for(1);
            }
        }
    };

    let mut threads: Vec<Box<dyn FnOnce() + Send>> =
        (0..workers).map(|_| Box::new(worker()) as _).collect();
    threads.push(Box::new(producer));
    Scenario {
        threads,
        check: Some(Box::new(move || {
            let (left, got) = (pending.load(Ordering::SeqCst), taken.load(Ordering::SeqCst));
            if left != 0 || got != items as u64 {
                return Err(format!(
                    "{got} of {items} units taken, {left} still pending"
                ));
            }
            if sleeper.sleepers() != 0 {
                return Err(format!("{} sleepers still registered", sleeper.sleepers()));
            }
            Ok(())
        })),
    }
}

/// `sched::executor-sleep` — search → `sleep_unless` against
/// `wake_for`'s deficit rule, one worker and two items: the bound
/// stateless DPOR exhausts inside the smoke budget.
fn executor_sleep_target() -> SchedTarget {
    SchedTarget {
        name: "sched::executor-sleep",
        about: "real CountedSleeper deficit rule, 1 worker x 2 items: no wake wrongly skipped",
        expect: Expect::Clean,
        make: Box::new(|| executor_sleep_scenario(1, 2)),
    }
}

/// `sched::executor-sleep[w=2,items=1]` — two workers contending for
/// one item: tens of thousands of schedules, so outside `--smoke`.
/// [2 workers, 2 items], the explicit-state sleeper model's CI bound,
/// is not exhausted in 200 000 and is not attempted.
fn executor_sleep_two_workers_target() -> SchedTarget {
    SchedTarget {
        name: "sched::executor-sleep[w=2,items=1]",
        about: "real CountedSleeper deficit rule, 2 workers x 1 item (full scale only)",
        expect: Expect::Clean,
        make: Box::new(|| executor_sleep_scenario(2, 1)),
    }
}

/// The `shims/crossbeam` work-stealing deque driven the way
/// `local.rs::find_task` drives it: a LIFO owner pushes four items and
/// pops until empty while two thieves each make two
/// `steal_batch_and_pop` attempts into their own worker and drain it.
/// `double_take` plants a thief that puts an item it has already taken
/// back on its own deque.
fn deque_scenario(double_take: bool) -> Scenario {
    use crossbeam::deque::Worker;
    const ITEMS: u64 = 4;
    let queues: [Arc<Worker<u64>>; 3] = std::array::from_fn(|_| Arc::new(Worker::new_lifo()));
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
            for v in 1..=ITEMS {
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
                    if double_take {
                        // BUG (planted): the popped item is this
                        // thief's already; re-publishing duplicates it.
                        own.push(v);
                    }
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
            if n + left as u64 != ITEMS {
                return Err(format!(
                    "{n} items taken and {left} left behind, expected {ITEMS} in all"
                ));
            }
            if left == 0 && t != ITEMS * (ITEMS + 1) / 2 {
                return Err(format!(
                    "taken items sum to {t}, expected 1 + … + {ITEMS}, each once"
                ));
            }
            Ok(())
        })),
    }
}

/// `sched::deque` — the real deque at the retired deque model's
/// full-scale bound (4 items, 2 thieves, 2 attempts; its CI bound was
/// 3 items). A thief's batch is
/// invisible between the source drain and the publish to its own deque
/// — the widest window in the protocol. Conservation must hold in every
/// interleaving: each item is taken exactly once, whether popped,
/// stolen or moved in a batch.
fn deque_target() -> SchedTarget {
    SchedTarget {
        name: "sched::deque",
        about:
            "real work-stealing deque, LIFO owner vs two batch thieves: items taken exactly once",
        expect: Expect::Clean,
        make: Box::new(|| deque_scenario(false)),
    }
}

/// `sched::deque-double-take` — **planted conservation break**: a thief
/// re-publishes an item it already tallied, so the item is taken twice.
/// No race and no deadlock — only the final check can see it, which is
/// what keeps `Invariant` detection honest.
fn deque_double_take_target() -> SchedTarget {
    SchedTarget {
        name: "sched::deque-double-take",
        about: "planted conservation break: a thief re-publishes an item it already took",
        expect: Expect::Invariant,
        make: Box::new(|| deque_scenario(true)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_analyze::conc::sched::{explore_sched, replay_schedule, ExploreOpts, Pruning};

    fn opts() -> ExploreOpts {
        ExploreOpts {
            max_schedules: 50_000,
            pruning: Pruning::Dpor,
        }
    }

    #[test]
    fn clean_targets_verify_to_exhaustion() {
        for target in sched_targets(true) {
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
    fn planted_bugs_stay_detected_as_their_kind_with_replayable_witness() {
        let mut planted = 0;
        for target in sched_targets(true) {
            if target.expect == Expect::Clean {
                continue;
            }
            planted += 1;
            let found = explore_sched(&target, &opts()).violation;
            let Some(v) = found.filter(|v| target.expect.is_planted_kind(v)) else {
                panic!("{} must stay detected as {:?}", target.name, target.expect);
            };
            let witness = v.witness().expect("planted kinds carry a witness");
            let replay = replay_schedule(&target, witness).violation;
            assert!(
                replay
                    .as_ref()
                    .is_some_and(|r| target.expect.is_planted_kind(r)),
                "{} witness did not reproduce: {replay:?}",
                target.name
            );
        }
        assert_eq!(planted, 5, "3 races, 1 deadlock, 1 invariant");
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
