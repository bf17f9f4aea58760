//! Dispatch: the worker loop, how a worker finds its next task, and
//! the run of a claimed task — a worker's or a waiting client's — from
//! its body to its commit.

use super::admission::{release, try_admit, Demand};
use super::record::{AsyncBody, Claim, TaskMeta, TaskPayload};
use super::{Shared, TaskContext};
use crate::lockorder::{self, RANK_GRAPH};
use crate::task_cell::ParkOutcome;
use crate::value_cell::Value;
use continuum_dag::{DagError, Label, TaskId};
use continuum_platform::sync::panic_message;
use continuum_telemetry::{CounterKey, Event as TelemetryEvent, TaskPhase, Track};
use crossbeam::deque::{Steal, Worker as WorkerQueue};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread;

/// Per-runner state: pooled buffers, reused across tasks so
/// steady-state dispatch performs no heap allocation of its own, the
/// hand-off slot, and the runner's counts. A worker keeps one for its
/// lifetime; waiting clients borrow theirs from the graph state.
#[derive(Default)]
pub(super) struct Scratch {
    inputs: Vec<Value>,
    outputs: Vec<Option<Value>>,
    ready_ids: Vec<TaskId>,
    ready: Vec<Arc<TaskMeta>>,
    pub(super) unblocked: Vec<Arc<TaskMeta>>,
    /// The successor the last commit readied and kept for this runner
    /// to run next: admitted, holding the committed task's `running`
    /// and in-flight slots, in no queue.
    pub(super) handed: Option<Arc<TaskMeta>>,
    pub(super) counts: WorkerCounts,
}

/// What one worker did, returned when its thread exits, or what waiting
/// clients did, summed per wait. Plain integers: nothing on the
/// dispatch path is shared to count them.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct WorkerCounts {
    /// Tasks run from the hand-off slot.
    pub(super) handoffs: u64,
    /// Tasks stolen from a worker's deque (a sibling's, for a worker).
    pub(super) steals: u64,
}

impl std::ops::AddAssign for WorkerCounts {
    fn add_assign(&mut self, other: WorkerCounts) {
        self.handoffs += other.handoffs;
        self.steals += other.steals;
    }
}

/// Who runs a task. It decides where the commit puts the successors it
/// readies beyond the handed one, and what the task takes from the pool.
#[derive(Clone, Copy)]
pub(super) enum Runner<'a> {
    /// A worker: readied successors go onto its own deque, and a task
    /// takes its whole demand from the pool.
    Worker(&'a WorkerQueue<Arc<TaskMeta>>),
    /// A client waiting in `get` or `wait_all`: readied successors go to
    /// the injector, and the client's own thread is the task's first
    /// core ([`Demand::on_client`]).
    Client,
}

impl Runner<'_> {
    /// What a task of `demand` takes from the pool on this runner.
    pub(super) fn share(self, demand: &Demand) -> Demand {
        match self {
            Runner::Worker(_) => *demand,
            Runner::Client => demand.on_client(),
        }
    }

    /// Queues readied successors where this runner's siblings find
    /// them, and wakes workers for them.
    fn push_ready(self, shared: &Shared, ready: &mut Vec<Arc<TaskMeta>>) {
        let n = ready.len();
        if n == 0 {
            return;
        }
        shared.pending.fetch_add(n, Ordering::SeqCst);
        for m in ready.drain(..) {
            match self {
                Runner::Worker(queue) => queue.push(m),
                Runner::Client => shared.injector.push(m),
            }
        }
        shared.sleeper.wake_for(n);
    }
}

pub(super) fn worker_loop(
    shared: &Arc<Shared>,
    queue: &WorkerQueue<Arc<TaskMeta>>,
    worker: u32,
) -> WorkerCounts {
    let runner = Runner::Worker(queue);
    let mut scratch = Scratch::default();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return scratch.counts;
        }
        if shared.poisoned.load(Ordering::SeqCst) {
            // Poisoned: stop claiming work; sleep until shutdown. A
            // handed task will not run either, so its slot goes back.
            if scratch.handed.take().is_some() {
                give_back_running(shared);
            }
            park_poisoned(shared);
            continue;
        }
        if let Some(meta) = scratch.handed.take() {
            scratch.counts.handoffs += 1;
            execute(shared, runner, &meta, worker, &mut scratch);
            continue;
        }
        shared.sleeper.begin_search();
        let found = find_task(shared, queue, worker, &mut scratch.counts);
        // A found task counts in `pending` until it is admitted.
        let more = || found.is_some() && shared.pending.load(Ordering::SeqCst) > 1;
        shared.sleeper.end_search(more);
        match found {
            Some(meta) => {
                if admit_claimed(shared, runner, &meta) {
                    execute(shared, runner, &meta, worker, &mut scratch);
                }
            }
            None => sleep(shared),
        }
    }
}

/// Takes a task just claimed from a queue out of `pending`, into the
/// in-flight set and through admission with `runner`'s share of its
/// demand; `false` if it parked in a side queue instead. Admitted, it
/// holds a `running` slot.
pub(super) fn admit_claimed(shared: &Shared, runner: Runner, meta: &Arc<TaskMeta>) -> bool {
    shared.pending.fetch_sub(1, Ordering::SeqCst);
    if !meta.inflight_reserved.load(Ordering::SeqCst) {
        shared.note_inflight_start(meta);
    }
    if !try_admit(shared, meta, &runner.share(&meta.demand)) {
        return false;
    }
    shared.running.fetch_add(1, Ordering::SeqCst);
    true
}

/// Own deque first (newest-first: dependency chains stay hot), then a
/// batch from the global injector, then batch-steal from siblings.
fn find_task(
    shared: &Shared,
    queue: &WorkerQueue<Arc<TaskMeta>>,
    worker: u32,
    counts: &mut WorkerCounts,
) -> Option<Arc<TaskMeta>> {
    if let Some(meta) = queue.pop() {
        return Some(meta);
    }
    loop {
        let mut retry = false;
        match shared.injector.steal_batch_and_pop(queue) {
            Steal::Success(meta) => return Some(meta),
            Steal::Retry => retry = true,
            Steal::Empty => {}
        }
        let n = shared.stealers.len();
        for i in 1..n {
            match shared.stealers[(worker as usize + i) % n].steal_batch_and_pop(queue) {
                Steal::Success(meta) => {
                    // The deque was empty: what it holds now is the
                    // rest of the batch.
                    counts.steals += 1 + queue.len() as u64;
                    return Some(meta);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
        thread::yield_now();
    }
}

/// Gives back the `running` slot of a handed task that will not run
/// now. Under the graph lock, like a commit's own decrement, so a
/// `wait_all` watching a failed run drain cannot check the count,
/// miss this change and then sleep through the notification.
fn give_back_running(shared: &Shared) {
    {
        let _order = lockorder::acquire(RANK_GRAPH, "graph");
        let _graph = shared.graph.lock();
        shared.running.fetch_sub(1, Ordering::SeqCst);
    }
    shared.notify_clients();
}

/// Counted sleep with a registered-then-recheck protocol: the sleeper
/// count rises *before* the `pending` re-check, and producers raise
/// `pending` *before* reading the sleeper count, so one side always
/// sees the other (no lost wakeup). The protocol itself lives in
/// [`CountedSleeper`]; this supplies the executor's work predicate.
fn sleep(shared: &Shared) {
    shared.sleeper.sleep_unless(|| {
        shared.pending.load(Ordering::SeqCst) != 0
            || shared.shutdown.load(Ordering::SeqCst)
            || shared.poisoned.load(Ordering::SeqCst)
    });
}

/// After a failure the run is poisoned: workers park here (without
/// claiming tasks) until shutdown.
fn park_poisoned(shared: &Shared) {
    shared
        .sleeper
        .sleep_until_notified(|| shared.shutdown.load(Ordering::SeqCst));
}

/// Releases the stream successors of `meta` (its consumers become
/// dispatchable) on the producer's first sent element. Idempotent, and
/// one shared load after the first call; called from
/// [`StreamWriter::send`] *before* the potentially-blocking push, so
/// consumers are queued before backpressure can park their producer.
pub(super) fn release_stream_successors(shared: &Shared, meta: &TaskMeta) {
    let Some(ports) = &meta.streams else {
        return;
    };
    if ports.released.load(Ordering::Acquire) || ports.released.swap(true, Ordering::AcqRel) {
        return;
    }
    let mut ready: Vec<Arc<TaskMeta>> = Vec::new();
    {
        let _order = lockorder::acquire(RANK_GRAPH, "graph");
        let g = &mut *shared.graph.lock();
        let mut ids = Vec::new();
        if g.run
            .stream_release_into(g.ap.graph(), meta.id, &mut ids)
            .is_ok()
        {
            for id in &ids {
                ready.push(g.take_ready(*id));
            }
        }
    }
    shared.inject_ready(&mut ready);
}

/// Publishes a finished body's outputs into the task's cells, or names
/// the first one the body did not set and publishes none. Called before
/// the graph commit, so a successor that the commit releases always
/// finds its inputs.
fn publish_outputs(
    shared: &Shared,
    meta: &TaskMeta,
    outputs: &mut Vec<Option<Value>>,
) -> Option<String> {
    if let Some(i) = outputs.iter().position(Option::is_none) {
        return Some(format!("task body did not set output {i}"));
    }
    let values = outputs.drain(..).flatten();
    for (cell, value) in meta.outputs.as_slice().iter().zip(values) {
        if cell.publish(value) {
            // Relaxed: a statistic; readers that need it exact (after
            // `wait_all`) are ordered by the graph mutex.
            shared.live_values.fetch_add(1, Ordering::Relaxed);
        }
    }
    None
}

/// Runs one claimed, admitted task on `runner`, whose telemetry row is
/// `worker`: the closure path executes the body to completion; the
/// async path polls it, parking on `Poll::Pending`.
pub(super) fn execute(
    shared: &Arc<Shared>,
    runner: Runner,
    meta: &Arc<TaskMeta>,
    worker: u32,
    s: &mut Scratch,
) {
    match &meta.payload {
        TaskPayload::Closure => execute_closure(shared, runner, meta, worker, s),
        TaskPayload::Async(abody) => poll_async(shared, runner, meta, abody, worker, s),
    }
}

fn execute_closure(
    shared: &Arc<Shared>,
    runner: Runner,
    meta: &Arc<TaskMeta>,
    worker: u32,
    s: &mut Scratch,
) {
    let Claim {
        inputs: claimed,
        body,
    } = std::mem::take(&mut *meta.claim.lock());
    #[expect(clippy::expect_used, reason = "INVARIANT: a closure runs once")]
    let mut body = body.expect("task body runs once");
    let name = body.take_name();
    note_scheduled(shared, name.as_ref(), worker);
    let start_us = shared.stamp_us(name.as_ref());
    // The scratch buffers come back cleared (below).
    let (inputs, outputs) = (
        std::mem::take(&mut s.inputs),
        std::mem::take(&mut s.outputs),
    );
    let mut ctx = TaskContext::for_task(shared, meta, worker, claimed, inputs, outputs, None);
    let result = catch_unwind(AssertUnwindSafe(|| body.run(&mut ctx)));
    let outcome = |s: &mut Scratch| {
        let failure_message = match &result {
            Ok(()) => publish_outputs(shared, meta, &mut ctx.outputs),
            Err(payload) => Some(panic_message(payload.as_ref())),
        };
        // Recycle the context buffers into the runner's scratch.
        (s.inputs, s.outputs) = (ctx.inputs, ctx.outputs);
        s.inputs.clear();
        s.outputs.clear();
        failure_message
    };
    let at = (name.as_ref(), worker, Some(start_us));
    finish_task(shared, runner, meta, at, outcome, s);
}

/// Emits a named task's [`TaskPhase::Scheduled`] instant on `worker`'s
/// row, at its first dispatch.
fn note_scheduled(shared: &Shared, name: Option<&Label>, worker: u32) {
    if let Some(name) = name {
        shared.telemetry.record(TelemetryEvent::Instant {
            track: Track::Worker(worker),
            name: name.clone(),
            phase: TaskPhase::Scheduled,
            at_us: shared.now_us(),
        });
    }
}

/// Polls an async task body on the claiming runner. The first dispatch
/// resolves inputs and builds the future; `Poll::Pending` parks the
/// task, freeing the worker *and* the task's admitted resources (a
/// default task holds one core — without the release, parked
/// concurrency would cap at the worker count); `Poll::Ready` commits
/// exactly like a finished closure.
fn poll_async(
    shared: &Arc<Shared>,
    runner: Runner,
    meta: &Arc<TaskMeta>,
    abody: &AsyncBody,
    worker: u32,
    s: &mut Scratch,
) {
    abody.cell.claim();
    let name = abody.name.as_ref();
    let resumed = abody.future.lock().take();
    let mut fut = match resumed {
        Some(fut) => fut,
        None => {
            // First dispatch: move the task to Running now. It may park
            // and later fail or complete from a different worker; the
            // run must already reflect that it started.
            {
                let _order = lockorder::acquire(RANK_GRAPH, "graph");
                transition(shared.graph.lock().run.ensure_running(meta.id));
            }
            note_scheduled(shared, name, worker);
            let reactor = Some(shared.reactor_inner());
            let claimed = std::mem::take(&mut meta.claim.lock().inputs);
            let (inputs, outputs) = (Vec::new(), Vec::new());
            let ctx =
                TaskContext::for_task(shared, meta, worker, claimed, inputs, outputs, reactor);
            match catch_unwind(AssertUnwindSafe(|| abody.factory.start(ctx))) {
                Ok(fut) => fut,
                Err(payload) => {
                    // The factory (the synchronous prefix of an async
                    // fn) panicked before producing a future.
                    abody.cell.complete();
                    let message = panic_message(payload.as_ref());
                    let at = (name, worker, None);
                    finish_task(shared, runner, meta, at, |_| Some(message), s);
                    return;
                }
            }
        }
    };
    let start_us = shared.stamp_us(name);
    let waker = Waker::from(Arc::clone(meta));
    let mut cx = Context::from_waker(&waker);
    let ended = loop {
        match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
            Err(payload) => break Err(panic_message(payload.as_ref())),
            Ok(Poll::Ready(ctx)) => break Ok(ctx),
            Ok(Poll::Pending) => {
                // Store the future back BEFORE the park CAS: the moment
                // the CAS lands, a concurrent wake may re-queue the
                // task and another worker may resume it.
                *abody.future.lock() = Some(fut);
                abody
                    .parked_at_us
                    .store(shared.stamp_us(name), Ordering::SeqCst);
                shared.parked.fetch_add(1, Ordering::SeqCst);
                match abody.cell.try_park() {
                    ParkOutcome::Parked => {
                        // The task now costs one stored future. Free
                        // the runner and release what the task took;
                        // the resume path re-admits through
                        // `try_admit` like any claimed task.
                        shared.running.fetch_sub(1, Ordering::SeqCst);
                        release(shared, &runner.share(&meta.demand), None, &mut s.unblocked);
                        shared.inject_ready(&mut s.unblocked);
                        // A waiter in `wait_all` watching a failed run
                        // drain needs the `running` transition.
                        shared.notify_clients();
                        return;
                    }
                    ParkOutcome::MustRepoll => {
                        // Readiness raced the park: take the future
                        // back and re-poll inline. Re-queueing instead
                        // would re-enter admission and double-allocate
                        // the task's resources.
                        shared.parked.fetch_sub(1, Ordering::SeqCst);
                        #[expect(clippy::expect_used, reason = "INVARIANT: a failed park keeps it")]
                        let retained = abody
                            .future
                            .lock()
                            .take()
                            .expect("repolling owner retains the future");
                        fut = retained;
                    }
                }
            }
        }
    };
    abody.cell.complete();
    // A failed body's context holds input values: gone before the
    // commit, like a finished one's.
    drop(fut);
    let outcome = |_: &mut Scratch| match ended {
        Ok(mut ctx) => publish_outputs(shared, meta, &mut ctx.outputs),
        Err(message) => Some(message),
    };
    let at = (name, worker, Some(start_us));
    finish_task(shared, runner, meta, at, outcome, s);
}

/// Ends a task body however it ended — the one tail of the closure and
/// async paths: the writers close, the end time is stamped, and the task
/// commits. `outcome` is the body's own part, run once the writers are
/// closed: it publishes the outputs and returns `None`, or returns the
/// failure message. `at` is the task's name for telemetry, its runner's
/// row and the start of its executing span (`None`: it ends where it
/// starts).
fn finish_task(
    shared: &Arc<Shared>,
    runner: Runner,
    meta: &Arc<TaskMeta>,
    (name, worker, start_us): (Option<&Label>, u32, Option<u64>),
    outcome: impl FnOnce(&mut Scratch) -> Option<String>,
    s: &mut Scratch,
) {
    // Writer close: whether the body committed, failed or never sent,
    // this producer is done — once every producer of a channel has
    // closed, drained readers observe end-of-stream.
    for chan in meta.stream_outs() {
        chan.writer_done();
    }
    let end_us = shared.stamp_us(name);
    let failure = outcome(s);
    let times = (start_us.unwrap_or(end_us), end_us);
    commit_task(shared, runner, meta, name, worker, failure, times, s);
}

/// Commits a finished task body: graph transition, resource release,
/// in-flight count, dispatch of newly-runnable work, telemetry and
/// client wakeup. `failure_message == None` means the outputs are
/// already published; `name` is the task's for telemetry, and
/// `(start_us, end_us)` its executing span.
///
/// The last successor the commit readies — the one the LIFO deque
/// would pop first — is handed to this runner instead: it takes over
/// the committed task's `running` and in-flight slots, and its
/// admission shares the pool section that releases its predecessor.
#[allow(clippy::too_many_arguments)]
fn commit_task(
    shared: &Arc<Shared>,
    runner: Runner,
    meta: &Arc<TaskMeta>,
    name: Option<&Label>,
    worker: u32,
    failure_message: Option<String>,
    (start_us, end_us): (u64, u64),
    s: &mut Scratch,
) {
    let committed = failure_message.is_none();
    // -- graph commit ---------------------------------------------------
    s.ready_ids.clear();
    s.ready.clear();
    {
        let _order = lockorder::acquire(RANK_GRAPH, "graph");
        let g = &mut *shared.graph.lock();
        match failure_message {
            None => {
                transition(g.run.complete_into(g.ap.graph(), meta.id, &mut s.ready_ids));
                for id in &s.ready_ids {
                    s.ready.push(g.take_ready(*id));
                }
            }
            Some(message) => {
                // Closure tasks arrive here still `Ready`; async tasks
                // moved to `Running` at first dispatch.
                transition(g.run.ensure_running(meta.id));
                transition(g.run.mark_failed(meta.id));
                if g.failure.is_none() {
                    g.failure = Some((meta.id, message));
                }
                shared.poisoned.store(true, Ordering::SeqCst);
                // Wake every stream endpoint blocked in a running task
                // body, or `wait_all` would hang on `running > 0`.
                // Channel locks are leaves above the graph lock.
                for chan in g.channels.values() {
                    chan.force_close();
                }
            }
        }
        // The graph is done with this record; from here it lives as
        // long as a reader or the column references one of its cells.
        // (The caller holds a clone: nothing is dropped under the lock.)
        g.metas[meta.id.index()] = None;
        s.handed = s.ready.pop();
        if s.handed.is_none() {
            shared.running.fetch_sub(1, Ordering::SeqCst);
        }
    }
    match &s.handed {
        // Its in-flight slot is this task's: the pool lock below orders
        // the mark before any other worker's claim of a parked task.
        Some(handed) => handed.inflight_reserved.store(true, Ordering::Relaxed),
        None => {
            shared.inflight.fetch_sub(1, Ordering::Relaxed);
        }
    }

    // -- resources: release, admit the handed task, unpark -------------
    let handed = s.handed.as_ref().map(|h| (h, runner.share(&h.demand)));
    let handed = handed.as_ref().map(|(h, share)| (*h, share));
    let done = runner.share(&meta.demand);
    if !release(shared, &done, handed, &mut s.unblocked) {
        // Parked in a side queue, as a claimed task would be: a release
        // re-injects it, and it runs from a queue then.
        s.handed = None;
        shared.blocked_count.fetch_add(1, Ordering::SeqCst);
        give_back_running(shared);
    }

    // -- dispatch -------------------------------------------------------
    // The other readied successors go onto a worker's own deque, or a
    // client's injector, and, like the unparked tasks, each warrants
    // one wakeup: the handed one is what this runner runs next, hot in
    // cache, and no sibling can steal it.
    runner.push_ready(shared, &mut s.ready);
    shared.inject_ready(&mut s.unblocked);

    // -- telemetry ------------------------------------------------------
    if let Some(name) = name {
        let track = Track::Worker(worker);
        shared.telemetry.record(TelemetryEvent::Span {
            track,
            name: name.clone(),
            phase: TaskPhase::Executing,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            ctx: None,
        });
        shared.telemetry.record(TelemetryEvent::Instant {
            track,
            name: name.clone(),
            phase: if committed {
                TaskPhase::Committed
            } else {
                TaskPhase::Failed
            },
            at_us: end_us,
        });
        let running = shared.running.load(Ordering::SeqCst);
        let queued =
            shared.pending.load(Ordering::SeqCst) + shared.blocked_count.load(Ordering::SeqCst);
        let telemetry = &shared.telemetry;
        telemetry.counter(CounterKey::RunningTasks, end_us, running as f64);
        telemetry.counter(CounterKey::QueueDepth, end_us, queued as f64);
    }
    shared.notify_clients();
}

/// The outcome of a lifecycle transition of a task this worker claimed.
/// The task is `Ready` until its first dispatch makes it `Running`, and
/// only its claimant moves it on, so each such transition is valid.
#[expect(clippy::expect_used, reason = "INVARIANT: only the claimant moves it")]
fn transition(result: Result<(), DagError>) {
    result.expect("valid transition of a claimed task");
}

#[cfg(test)]
mod tests {
    use crate::local::tests::within;
    use crate::{LocalConfig, LocalRuntime, RuntimeError, TraceBuffer};
    use continuum_dag::TaskSpec;
    use continuum_platform::Constraints;
    use continuum_telemetry::{CounterKey, Event};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    #[test]
    fn a_release_wakes_once_per_task_it_unblocks() -> Result<(), RuntimeError> {
        // A constraint-heavy storm: 400-MB tasks on a 1 000-MB machine
        // and four workers, so two run at a time and the other claims
        // park; the bodies hold until all 398 others have. A task is
        // queued once when submitted and once more per unpark, and each
        // queueing asks for one wake-up. Each of the 398 is unparked
        // once, plus once per re-park. A release that unparks every
        // task fitting the freed room on its own re-parks the herd:
        // 935–3 983 times a run. Unparking only what fits together
        // leaves the re-parks of a task unparked while another took
        // its room: 5–37.
        const TASKS: usize = 400;
        let rt = LocalRuntime::new(LocalConfig {
            memory_mb: 1000,
            ..LocalConfig::with_workers(4)
        });
        let open = Arc::new(AtomicBool::new(false));
        for (i, out) in (0u64..).zip(&rt.data_batch::<u64>("o", TASKS)) {
            let open = Arc::clone(&open);
            rt.submit(
                TaskSpec::new("heavy").output(out.id()),
                Constraints::new().memory_mb(400),
                move |ctx| {
                    while !open.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    std::hint::black_box((0..2_000u64).fold(i, |a, k| a.wrapping_mul(31) ^ k));
                    ctx.set_output(0, i);
                },
            )?;
        }
        const PARKED: usize = TASKS - 2;
        let parked_by = Instant::now() + Duration::from_secs(60);
        while rt.shared.blocked_count.load(Ordering::SeqCst) < PARKED {
            assert!(Instant::now() < parked_by, "the storm never parked");
            std::thread::yield_now();
        }
        open.store(true, Ordering::SeqCst);
        rt.wait_all()?;
        // A worker asks for its wake-up after queueing the task, which
        // another may already have run: read the tally once every
        // worker is joined.
        let shared = Arc::clone(&rt.shared);
        drop(rt);
        let tally = &shared.sleeper.tally;
        let requested = tally.requested.load(Ordering::Relaxed);
        let unblocked = tally.unblocked.load(Ordering::Relaxed);
        assert_eq!(requested, TASKS + unblocked, "{unblocked} tasks unparked");
        let reparked = unblocked - PARKED;
        assert!(
            reparked <= TASKS / 2,
            "{reparked} re-parks of {PARKED} parked tasks"
        );
        Ok(())
    }

    #[test]
    fn a_handed_task_that_does_not_fit_parks_until_its_holder_releases() {
        // `first` (400 MB) commits beside a running 500-MB holder on a
        // 1 000-MB machine: its 600-MB successor is readied, does not
        // fit, parks, and runs once the holder is done.
        for workers in [2, 4] {
            let rt = LocalRuntime::new(LocalConfig {
                memory_mb: 1000,
                ..LocalConfig::with_workers(workers)
            });
            let (held_tx, held) = mpsc::channel::<()>();
            let (release, released) = mpsc::channel::<()>();
            let in_use = Arc::new(AtomicU64::new(0));
            let peak = Arc::new(AtomicU64::new(0));
            let holder_done = Arc::new(AtomicBool::new(false));
            let occupy = |mb: u64| {
                let (in_use, peak) = (Arc::clone(&in_use), Arc::clone(&peak));
                move || {
                    peak.fetch_max(
                        in_use.fetch_add(mb, Ordering::SeqCst) + mb,
                        Ordering::SeqCst,
                    );
                    let in_use = Arc::clone(&in_use);
                    move || in_use.fetch_sub(mb, Ordering::SeqCst)
                }
            };
            let (h, a, b) = (rt.data::<()>("h"), rt.data::<u64>("a"), rt.data::<u64>("b"));
            let (enter, done) = (occupy(500), Arc::clone(&holder_done));
            rt.submit(
                TaskSpec::new("holder").output(h.id()),
                Constraints::new().memory_mb(500),
                move |ctx| {
                    let leave = enter();
                    held_tx.send(()).unwrap();
                    released.recv().unwrap();
                    done.store(true, Ordering::SeqCst);
                    leave();
                    ctx.set_output(0, ());
                },
            )
            .unwrap();
            let enter = occupy(400);
            rt.submit(
                TaskSpec::new("first").output(a.id()),
                Constraints::new().memory_mb(400),
                move |ctx| {
                    let leave = enter();
                    held.recv().unwrap();
                    leave();
                    ctx.set_output(0, 1u64);
                },
            )
            .unwrap();
            let (enter, done) = (occupy(600), Arc::clone(&holder_done));
            rt.submit(
                TaskSpec::new("successor").input(a.id()).output(b.id()),
                Constraints::new().memory_mb(600),
                move |ctx| {
                    let leave = enter();
                    assert!(done.load(Ordering::SeqCst), "ran beside the holder");
                    leave();
                    ctx.set_output(0, *ctx.input::<u64>(0) + 1);
                },
            )
            .unwrap();
            // `first` commits while the holder runs: its successor parks.
            let since = Instant::now();
            while rt.shared.blocked_count.load(Ordering::SeqCst) == 0 {
                assert!(since.elapsed() < Duration::from_secs(20), "never parked");
                std::thread::yield_now();
            }
            assert_eq!(rt.completed_count(), 1, "{workers} workers");
            release.send(()).unwrap();
            let rt = Arc::new(rt);
            let waiter = Arc::clone(&rt);
            within(Duration::from_secs(20), move || waiter.wait_all()).unwrap();
            assert_eq!(*rt.get(&b).unwrap(), 2, "{workers} workers");
            assert!(peak.load(Ordering::SeqCst) <= 1000, "{workers} workers");
        }
    }

    #[test]
    fn a_poisoned_worker_gives_its_handed_task_back() {
        // One worker walks a long chain, each commit handing it the next
        // link, while the other fails a task: the chain's worker finds
        // the run poisoned holding a handed link and must return its
        // `running` slot, or `wait_all` waits for it forever.
        let rt = Arc::new(LocalRuntime::new(LocalConfig::with_workers(2)));
        let (failing_tx, failing) = mpsc::channel::<()>();
        let (boom, acc) = (rt.data::<u64>("boom"), rt.data::<u64>("acc"));
        rt.submit(
            TaskSpec::new("link").output(acc.id()),
            Constraints::new(),
            move |ctx| {
                failing.recv().unwrap();
                ctx.set_output(0, 0u64);
            },
        )
        .unwrap();
        for _ in 0..20_000 {
            rt.submit(
                TaskSpec::new("link").inout(acc.id()),
                Constraints::new(),
                |ctx| {
                    let v = *ctx.input::<u64>(0);
                    ctx.set_output(0, v + 1);
                },
            )
            .unwrap();
        }
        rt.submit(
            TaskSpec::new("boom").output(boom.id()),
            Constraints::new(),
            move |_| {
                failing_tx.send(()).unwrap();
                panic!("boom");
            },
        )
        .unwrap();
        let waiter = Arc::clone(&rt);
        let outcome = within(Duration::from_secs(20), move || waiter.wait_all());
        assert!(
            matches!(outcome, Err(RuntimeError::TaskPanicked { .. })),
            "{outcome:?}"
        );
        assert_eq!(rt.shared.running.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_one_worker_chain_is_handed_off_link_by_link() {
        // Every link is readied by its predecessor's commit and run next
        // by whoever committed it: the worker, or the client waiting in
        // `get` if it claimed the gate first. Both count alike.
        const N: u64 = 64;
        let (buffer, telemetry) = TraceBuffer::collector();
        {
            let rt = LocalRuntime::new(LocalConfig {
                telemetry,
                ..LocalConfig::with_workers(1)
            });
            // The gate holds its runner until the chain is in.
            let (open, gate) = mpsc::channel::<()>();
            let acc = rt.data::<u64>("acc");
            rt.submit(
                TaskSpec::new("gate").output(acc.id()),
                Constraints::new(),
                move |ctx| {
                    gate.recv().unwrap();
                    ctx.set_output(0, 0u64);
                },
            )
            .unwrap();
            for _ in 1..N {
                rt.submit(
                    TaskSpec::new("link").inout(acc.id()),
                    Constraints::new(),
                    |ctx| {
                        let v = *ctx.input::<u64>(0);
                        ctx.set_output(0, v + 1);
                    },
                )
                .unwrap();
            }
            open.send(()).unwrap();
            assert_eq!(*rt.get(&acc).unwrap(), N - 1);
        }
        let counter = |wanted: CounterKey| {
            buffer.events().iter().find_map(|e| match e {
                Event::Counter { key, value, .. } if *key == wanted => Some(*value),
                _ => None,
            })
        };
        assert_eq!(counter(CounterKey::HandedOffTasks), Some((N - 1) as f64));
        assert_eq!(counter(CounterKey::StolenTasks), Some(0.0));
    }
}
