//! Dispatch: the worker loop, how a worker finds its next task, and
//! the run of a claimed task from its body to its commit.

use super::admission::try_admit;
use super::record::{AsyncBody, CellRef, Claim, TaskMeta, TaskPayload};
use super::{Shared, StreamEndpointCore, TaskContext};
use crate::lockorder::{self, RANK_GRAPH, RANK_POOL};
use crate::reactor::ReactorInner;
use crate::stream::StreamChannel;
use crate::task_cell::ParkOutcome;
use crate::value_cell::{Slots, Value};
use continuum_dag::TaskId;
use continuum_platform::sync::panic_message;
use continuum_telemetry::{CounterKey, Event as TelemetryEvent, TaskPhase, Track};
use crossbeam::deque::{Steal, Worker as WorkerQueue};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread;

/// Per-worker state: pooled buffers, reused across tasks so
/// steady-state dispatch performs no heap allocation of its own, the
/// hand-off slot, and the worker's counts.
#[derive(Default)]
struct Scratch {
    inputs: Vec<Value>,
    outputs: Vec<Option<Value>>,
    ready_ids: Vec<TaskId>,
    ready: Vec<Arc<TaskMeta>>,
    unblocked: Vec<Arc<TaskMeta>>,
    /// The successor the last commit readied and kept for this worker
    /// to run next: admitted, holding the committed task's `running`
    /// and in-flight slots, in no queue.
    handed: Option<Arc<TaskMeta>>,
    counts: WorkerCounts,
}

/// What one worker did, returned when its thread exits. Plain
/// integers: nothing on the dispatch path is shared to count them.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct WorkerCounts {
    /// Tasks run from the hand-off slot.
    pub(super) handoffs: u64,
    /// Tasks stolen from a sibling's deque.
    pub(super) steals: u64,
}

pub(super) fn worker_loop(
    shared: &Arc<Shared>,
    queue: &WorkerQueue<Arc<TaskMeta>>,
    worker: u32,
) -> WorkerCounts {
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
            execute(shared, queue, &meta, worker, &mut scratch);
            continue;
        }
        shared.sleeper.begin_search();
        let found = find_task(shared, queue, worker, &mut scratch.counts);
        shared.sleeper.end_search();
        match found {
            Some(meta) => {
                shared.pending.fetch_sub(1, Ordering::SeqCst);
                if !meta.inflight_reserved.load(Ordering::SeqCst) {
                    shared.note_inflight_start(&meta);
                }
                if !try_admit(shared, &meta) {
                    continue;
                }
                shared.running.fetch_add(1, Ordering::SeqCst);
                execute(shared, queue, &meta, worker, &mut scratch);
            }
            None => sleep(shared),
        }
    }
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
    if meta.streams_released.load(Ordering::Acquire)
        || meta.streams_released.swap(true, Ordering::AcqRel)
    {
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

impl TaskContext {
    /// The context `meta`'s body runs in on `worker`: the values behind
    /// the task's input references `claimed`, each released once read,
    /// one empty slot per output, and its stream endpoints. `inputs`
    /// and `outputs` are empty buffers.
    fn for_task(
        shared: &Arc<Shared>,
        meta: &Arc<TaskMeta>,
        worker: u32,
        claimed: Slots<CellRef>,
        mut inputs: Vec<Value>,
        mut outputs: Vec<Option<Value>>,
        reactor: Option<Arc<ReactorInner>>,
    ) -> TaskContext {
        claimed.into_each(|input| {
            inputs.push(
                input
                    .cell()
                    .read()
                    .unwrap_or_else(missing_input_placeholder),
            );
            shared.release(input);
        });
        outputs.resize_with(meta.outputs.as_slice().len(), || None);
        let endpoint = |chan: &Arc<StreamChannel>| StreamEndpointCore {
            chan: Arc::clone(chan),
            shared: Arc::clone(shared),
            meta: Arc::clone(meta),
            worker,
        };
        TaskContext {
            inputs,
            outputs,
            stream_outs: meta.stream_outs().iter().map(endpoint).collect(),
            stream_ins: meta.stream_ins().iter().map(endpoint).collect(),
            reactor,
        }
    }
}

/// Runs one claimed, admitted task: the closure path executes the body
/// to completion on this worker; the async path polls it, parking on
/// `Poll::Pending`.
fn execute(
    shared: &Arc<Shared>,
    queue: &WorkerQueue<Arc<TaskMeta>>,
    meta: &Arc<TaskMeta>,
    worker: u32,
    s: &mut Scratch,
) {
    match &meta.payload {
        TaskPayload::Closure => execute_closure(shared, queue, meta, worker, s),
        TaskPayload::Async(abody) => poll_async(shared, queue, meta, abody, worker, s),
    }
}

fn execute_closure(
    shared: &Arc<Shared>,
    queue: &WorkerQueue<Arc<TaskMeta>>,
    meta: &Arc<TaskMeta>,
    worker: u32,
    s: &mut Scratch,
) {
    let Claim {
        inputs: claimed,
        body,
    } = std::mem::take(&mut *meta.claim.lock());
    let body = body.expect("task body runs once");
    if let Some(name) = &meta.name {
        shared.telemetry.record(TelemetryEvent::Instant {
            track: Track::Worker(worker),
            name: name.clone(),
            phase: TaskPhase::Scheduled,
            at_us: shared.now_us(),
        });
    }
    let start_us = shared.stamp_us(meta);
    // The scratch buffers come back cleared (below).
    let (inputs, outputs) = (
        std::mem::take(&mut s.inputs),
        std::mem::take(&mut s.outputs),
    );
    let mut ctx = TaskContext::for_task(shared, meta, worker, claimed, inputs, outputs, None);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let body = body;
        body(&mut ctx);
    }));
    // Writer close: whether the body committed, failed or never sent,
    // this producer is done — once every producer of a channel has
    // closed, drained readers observe end-of-stream.
    for chan in meta.stream_outs() {
        chan.writer_done();
    }
    let end_us = shared.stamp_us(meta);

    let failure_message = match &result {
        Ok(()) => ctx
            .outputs
            .iter()
            .position(Option::is_none)
            .map(|i| format!("task body did not set output {i}")),
        Err(payload) => Some(panic_message(payload.as_ref())),
    };
    if failure_message.is_none() {
        shared.publish_outputs(meta, &mut ctx.outputs);
    }
    // Recycle the context buffers into the worker's scratch.
    let TaskContext {
        mut inputs,
        mut outputs,
        stream_outs: _,
        stream_ins: _,
        reactor: _,
    } = ctx;
    inputs.clear();
    outputs.clear();
    s.inputs = inputs;
    s.outputs = outputs;

    commit_task(
        shared,
        queue,
        meta,
        worker,
        failure_message,
        start_us,
        end_us,
        s,
    );
}

/// Polls an async task body on the claiming worker. The first dispatch
/// resolves inputs and builds the future; `Poll::Pending` parks the
/// task, freeing the worker *and* the task's admitted resources (a
/// default task holds one core — without the release, parked
/// concurrency would cap at the worker count); `Poll::Ready` commits
/// exactly like a finished closure.
fn poll_async(
    shared: &Arc<Shared>,
    queue: &WorkerQueue<Arc<TaskMeta>>,
    meta: &Arc<TaskMeta>,
    abody: &AsyncBody,
    worker: u32,
    s: &mut Scratch,
) {
    abody.cell.claim();
    let resumed = abody.future.lock().take();
    let mut fut = match resumed {
        Some(fut) => fut,
        None => {
            // First dispatch: move the task to Running now. It may park
            // and later fail or complete from a different worker; the
            // run must already reflect that it started.
            {
                let _order = lockorder::acquire(RANK_GRAPH, "graph");
                shared
                    .graph
                    .lock()
                    .run
                    .ensure_running(meta.id)
                    .expect("claimed task was ready");
            }
            if let Some(name) = &meta.name {
                shared.telemetry.record(TelemetryEvent::Instant {
                    track: Track::Worker(worker),
                    name: name.clone(),
                    phase: TaskPhase::Scheduled,
                    at_us: shared.now_us(),
                });
            }
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
                    for chan in meta.stream_outs() {
                        chan.writer_done();
                    }
                    let end_us = shared.stamp_us(meta);
                    let message = Some(panic_message(payload.as_ref()));
                    commit_task(shared, queue, meta, worker, message, end_us, end_us, s);
                    return;
                }
            }
        }
    };
    let start_us = shared.stamp_us(meta);
    let waker = Waker::from(Arc::clone(meta));
    let mut cx = Context::from_waker(&waker);
    loop {
        match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
            Err(payload) => {
                abody.cell.complete();
                for chan in meta.stream_outs() {
                    chan.writer_done();
                }
                // The failed body's context holds input values: gone
                // before the commit, like a finished one's.
                drop(fut);
                let end_us = shared.stamp_us(meta);
                let message = Some(panic_message(payload.as_ref()));
                commit_task(shared, queue, meta, worker, message, start_us, end_us, s);
                return;
            }
            Ok(Poll::Ready(mut ctx)) => {
                abody.cell.complete();
                for chan in meta.stream_outs() {
                    chan.writer_done();
                }
                let end_us = shared.stamp_us(meta);
                let failure_message = ctx
                    .outputs
                    .iter()
                    .position(Option::is_none)
                    .map(|i| format!("task body did not set output {i}"));
                if failure_message.is_none() {
                    shared.publish_outputs(meta, &mut ctx.outputs);
                }
                drop(ctx);
                commit_task(
                    shared,
                    queue,
                    meta,
                    worker,
                    failure_message,
                    start_us,
                    end_us,
                    s,
                );
                return;
            }
            Ok(Poll::Pending) => {
                // Store the future back BEFORE the park CAS: the moment
                // the CAS lands, a concurrent wake may re-queue the
                // task and another worker may resume it.
                *abody.future.lock() = Some(fut);
                abody
                    .parked_at_us
                    .store(shared.stamp_us(meta), Ordering::SeqCst);
                shared.parked.fetch_add(1, Ordering::SeqCst);
                match abody.cell.try_park() {
                    ParkOutcome::Parked => {
                        // The task now costs one stored future. Free
                        // the worker and release its admitted
                        // resources; the resume path re-admits through
                        // `try_admit` like any claimed task.
                        shared.running.fetch_sub(1, Ordering::SeqCst);
                        s.unblocked.clear();
                        {
                            let _order = lockorder::acquire(RANK_POOL, "pool");
                            shared.pool.lock().release_and_unblock(
                                &meta.demand,
                                None,
                                &mut s.unblocked,
                            );
                        }
                        if !s.unblocked.is_empty() {
                            shared
                                .blocked_count
                                .fetch_sub(s.unblocked.len(), Ordering::SeqCst);
                        }
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
                        fut = abody
                            .future
                            .lock()
                            .take()
                            .expect("repolling owner retains the future");
                    }
                }
            }
        }
    }
}

/// Commits a finished task body — shared tail of the closure and async
/// paths: graph transition, resource release, in-flight count, dispatch
/// of newly-runnable work, telemetry and client wakeup.
/// `failure_message == None` means the outputs are already published.
///
/// The last successor the commit readies — the one the LIFO deque
/// would pop first — is handed to this worker instead: it takes over
/// the committed task's `running` and in-flight slots, and its
/// admission shares the pool section that releases its predecessor.
#[allow(clippy::too_many_arguments)]
fn commit_task(
    shared: &Arc<Shared>,
    queue: &WorkerQueue<Arc<TaskMeta>>,
    meta: &Arc<TaskMeta>,
    worker: u32,
    failure_message: Option<String>,
    start_us: u64,
    end_us: u64,
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
                g.run
                    .complete_into(g.ap.graph(), meta.id, &mut s.ready_ids)
                    .expect("claimed task can complete");
                for id in &s.ready_ids {
                    s.ready.push(g.take_ready(*id));
                }
            }
            Some(message) => {
                // Closure tasks arrive here still `Ready`; async tasks
                // moved to `Running` at first dispatch.
                g.run
                    .ensure_running(meta.id)
                    .expect("claimed task was ready or running");
                g.run.mark_failed(meta.id).expect("running task can fail");
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
    s.unblocked.clear();
    let admitted = {
        let _order = lockorder::acquire(RANK_POOL, "pool");
        shared
            .pool
            .lock()
            .release_and_unblock(&meta.demand, s.handed.as_ref(), &mut s.unblocked)
    };
    if !s.unblocked.is_empty() {
        shared
            .blocked_count
            .fetch_sub(s.unblocked.len(), Ordering::SeqCst);
    }
    if !admitted {
        // Parked in a side queue, as a claimed task would be: a release
        // re-injects it, and it runs from a queue then.
        s.handed = None;
        shared.blocked_count.fetch_add(1, Ordering::SeqCst);
        give_back_running(shared);
    }

    // -- dispatch -------------------------------------------------------
    // The other readied successors go onto this worker's own deque and,
    // like the unparked tasks, each warrants a wakeup: the handed one is
    // what this worker runs next, hot in cache, and no sibling can
    // steal it.
    let wake = s.ready.len() + s.unblocked.len();
    if !s.ready.is_empty() {
        shared.pending.fetch_add(s.ready.len(), Ordering::SeqCst);
        for m in s.ready.drain(..) {
            queue.push(m);
        }
    }
    shared.inject_ready(&mut s.unblocked);
    if wake > 0 {
        shared.sleeper.wake_for(wake);
    }

    // -- telemetry ------------------------------------------------------
    if let Some(name) = &meta.name {
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
        shared.telemetry.record(TelemetryEvent::Counter {
            key: CounterKey::RunningTasks,
            at_us: end_us,
            value: shared.running.load(Ordering::SeqCst) as f64,
        });
        shared.telemetry.record(TelemetryEvent::Counter {
            key: CounterKey::QueueDepth,
            at_us: end_us,
            value: (shared.pending.load(Ordering::SeqCst)
                + shared.blocked_count.load(Ordering::SeqCst)) as f64,
        });
    }
    shared.notify_clients();
}

/// Placeholder for inputs whose value is missing (initial data never
/// set). Task bodies that touch it fail with a type error, which the
/// runtime reports as a task failure.
fn missing_input_placeholder() -> Value {
    struct MissingInput;
    Arc::new(MissingInput)
}

#[cfg(test)]
mod tests {
    use crate::{LocalConfig, LocalRuntime, RuntimeError, TraceBuffer};
    use continuum_dag::TaskSpec;
    use continuum_platform::Constraints;
    use continuum_telemetry::{CounterKey, Event};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    /// Runs `f` on a thread of its own and fails the test if it takes
    /// longer than `limit`: a hang shows as a failure, not a stuck run.
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, result) = mpsc::channel();
        let watched = std::thread::spawn(move || done.send(f()));
        let out = result
            .recv_timeout(limit)
            .expect("watchdog deadline passed");
        watched
            .join()
            .expect("watched thread")
            .expect("result received");
        out
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
        const N: u64 = 64;
        let (buffer, telemetry) = TraceBuffer::collector();
        {
            let rt = LocalRuntime::new(LocalConfig {
                telemetry,
                ..LocalConfig::with_workers(1)
            });
            // The gate holds the only worker until the chain is in:
            // every later link is readied by its predecessor's commit.
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
