//! The local runtime: real multithreaded execution of task closures
//! with dependency-driven asynchrony and constraint-aware admission.
//!
//! This is the programming-model surface of the paper on a single
//! machine: tasks are submitted with parameter directions, the access
//! processor wires the dependency graph, and a worker pool executes
//! task bodies as soon as their inputs exist — out of submission order
//! whenever the dataflow allows.
//!
//! # Executor architecture
//!
//! The hot path is built to absorb storms of sub-millisecond tasks
//! (see `DESIGN.md` §9 and `crates/bench/tests/local_storm.rs`):
//!
//! * **Work-stealing dispatch** — every worker owns a LIFO deque of
//!   ready tasks; submissions land in a global injector. The last
//!   successor a commit readies is handed to the committing worker,
//!   which runs it next without a queue (dependency chains stay on one
//!   thread, hot in cache); the others go onto its own deque. Idle
//!   workers batch-steal from the injector first, then from siblings.
//!   A client waiting in `get`/`wait_all` runs ready tasks through the
//!   same path meanwhile, within limits `get` keeps narrow ([`client`]).
//! * **Split synchronization** — the graph/access-processor state and
//!   the resource accounting are guarded separately, and values live
//!   outside both: every version of a datum has a [`ValueCell`] inside
//!   the record of the task that produces it, reached by reference, so
//!   input resolution and output publication take no shared lock and
//!   hash nothing. Lock order is graph → pool/sleep (leaves).
//! * **O(1) admission** — since `free + allocated == total` always
//!   holds, the submit-time "can this machine ever run it" test is a
//!   single comparison against the static machine capacity instead of
//!   a scan over running tasks. Ready tasks whose constraints don't
//!   fit *right now* park in per-resource-class side queues and are
//!   re-injected when a completing task releases capacity.
//! * **Bounded memory** — a value lives exactly as long as something
//!   can read it: its cell counts a reference while it is its datum's
//!   current version, one per registered reader until that starts and
//!   one per `get` in progress; the last release drops the value, a
//!   started task lets go of its inputs and a committed one of its own
//!   record. A
//!   10 000-step `InOut` chain holds O(1) values and records, not O(n).
//! * **Targeted wakeups** — dispatch uses a counted sleep protocol
//!   with `notify_one` per unit of new work (skipped entirely while a
//!   worker is already scanning), instead of a herd-waking broadcast
//!   on every state change.
//! * **Stream edges** — `Direction::Stream` parameters bind to bounded
//!   in-memory channels ([`crate::stream`]): a producer's *first sent
//!   element* releases its stream consumers for dispatch (completion
//!   releases them for empty streams), so pipeline stages overlap
//!   instead of running back-to-back. A send on a full channel blocks
//!   with backpressure. A *synchronous* blocked stream endpoint
//!   occupies its worker thread, so closure-based pipelines still need
//!   `workers` ≥ the number of concurrently-live stream stages;
//!   *async* bodies using [`StreamWriter::send_async`] /
//!   [`StreamReader::recv_async`] park the task instead and free the
//!   worker.
//! * **M:N async tasks** — [`LocalRuntime::submit_async`] accepts
//!   poll-based task bodies multiplexed over the same bounded worker
//!   pool. A body that awaits a timer ([`TaskContext::sleep`]), a
//!   stream endpoint, or any other waker-backed future *parks* —
//!   costing one stored future plus one waker clone, not one OS
//!   thread — and its worker returns to the steal loop. The park/wake
//!   handoff is a lost-wakeup-free CAS protocol ([`crate::task_cell`]);
//!   timers are served by a hashed-wheel reactor thread
//!   ([`crate::reactor`]). Millions of in-flight workflows therefore
//!   ride on `workers` + 1 threads. The closure API is the degenerate
//!   case — a trivially-ready body that never parks — and keeps its
//!   original dispatch path bit-for-bit.

mod admission;
mod client;
mod dispatch;
mod record;

use crate::error::RuntimeError;
use crate::lockorder::{self, RANK_GRAPH};
use crate::reactor::{Reactor, ReactorInner, Sleep};
use crate::sleeper::CountedSleeper;
use crate::stream::{PollRecv, PollSend, Side, StreamChannel};
use crate::task_cell::TaskCell;
use crate::value_cell::{Slots, Value, ValueCell};
use admission::{Demand, ResourcePool};
use continuum_analyze::{has_errors, read_without_producer, LintMode};
use continuum_dag::{
    AccessProcessor, DagError, DataId, GraphRun, Label, TaskId, TaskSpec, TaskState,
};
use continuum_platform::sync;
use continuum_platform::{Constraints, NodeCapacity};
use continuum_telemetry::{CounterKey, Event as TelemetryEvent, RecorderHandle, TaskPhase, Track};
use crossbeam::deque::{Injector, Stealer, Worker as WorkerQueue};
use dispatch::{release_stream_successors, worker_loop, WorkerCounts};
use parking_lot::{Condvar, Mutex};
use record::{AsyncBody, CellColumn, CellRef, Claim, Named, TaskBody, TaskMeta, TaskPayload};
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Waker};
use std::thread;
use std::time::{Duration, Instant};

/// Typed handle to a logical datum managed by a [`LocalRuntime`].
///
/// The phantom type parameter gives compile-time documentation of what
/// flows through the datum; actual type checks happen at access time.
#[derive(Debug)]
pub struct DataHandle<T> {
    id: DataId,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for DataHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for DataHandle<T> {}

impl<T> DataHandle<T> {
    /// The underlying datum id, usable in [`TaskSpec`] builders.
    pub fn id(&self) -> DataId {
        self.id
    }
}

impl<T> From<DataHandle<T>> for DataId {
    fn from(h: DataHandle<T>) -> DataId {
        h.id
    }
}

/// Typed handle to a stream datum: a bounded channel of `T` elements
/// flowing between tasks, created by [`LocalRuntime::stream`].
///
/// Unlike a [`DataHandle`], a stream has no versions and no final
/// value to `get` — tasks access it through
/// [`TaskContext::stream_writer`] / [`TaskContext::stream_reader`].
#[derive(Debug)]
pub struct StreamHandle<T> {
    id: DataId,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for StreamHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for StreamHandle<T> {}

impl<T> StreamHandle<T> {
    /// The underlying datum id, usable in [`TaskSpec`] builders
    /// (`stream_out` / `stream_in`).
    pub fn id(&self) -> DataId {
        self.id
    }
}

impl<T> From<StreamHandle<T>> for DataId {
    fn from(h: StreamHandle<T>) -> DataId {
        h.id
    }
}

/// Execution context passed to task bodies: read inputs, write
/// outputs.
///
/// Inputs are the values of the reading parameters (`In`/`InOut`) in
/// declaration order; output slots correspond to the writing
/// parameters (`Out`/`InOut`) in declaration order.
pub struct TaskContext {
    inputs: Vec<Value>,
    outputs: Vec<Option<Value>>,
    /// Writer endpoints for the spec's `stream_out` params, in
    /// declaration order. Empty for non-streaming tasks.
    stream_outs: Vec<StreamEndpointCore>,
    /// Reader endpoints for the spec's `stream_in` params, in
    /// declaration order. Empty for non-streaming tasks.
    stream_ins: Vec<StreamEndpointCore>,
    /// Timer-reactor handle; `Some` only for async bodies
    /// ([`LocalRuntime::submit_async`]), whose futures may await
    /// [`TaskContext::sleep`].
    reactor: Option<Arc<ReactorInner>>,
}

impl TaskContext {
    /// The number of inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// The number of output slots.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Borrows the `i`-th input, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or the stored type is not
    /// `T` — both are task programming errors, surfaced as a task
    /// failure by the runtime.
    pub fn input<T: Send + Sync + 'static>(&self, i: usize) -> &T {
        self.inputs[i]
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("input {i} has unexpected type"))
    }

    /// Clones the `i`-th input `Arc`, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TaskContext::input`].
    pub fn input_arc<T: Send + Sync + 'static>(&self, i: usize) -> Arc<T> {
        self.inputs[i]
            .clone()
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("input {i} has unexpected type"))
    }

    /// Fills the `i`-th output slot.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn set_output<T: Send + Sync + 'static>(&mut self, i: usize, value: T) {
        self.outputs[i] = Some(Arc::new(value));
    }

    /// The number of `stream_out` params.
    pub fn stream_out_count(&self) -> usize {
        self.stream_outs.len()
    }

    /// The number of `stream_in` params.
    pub fn stream_in_count(&self) -> usize {
        self.stream_ins.len()
    }

    /// The writing end of the `i`-th `stream_out` param, typed as a
    /// stream of `T`. The handle is owned (it clones shared state), so
    /// it can outlive borrows of the context inside the body.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range, or — naming the datum — if
    /// the stream carries another element type than `T` (fixed by
    /// [`LocalRuntime::stream`], or by the first endpoint of a stream
    /// created on demand). Both are task programming errors, surfaced
    /// as a task failure by the runtime.
    pub fn stream_writer<T: Send + 'static>(&self, i: usize) -> StreamWriter<T> {
        let core = self.stream_outs[i].clone();
        core.chan.bind::<T>();
        StreamWriter {
            core,
            _marker: PhantomData,
        }
    }

    /// The reading end of the `i`-th `stream_in` param, typed as a
    /// stream of `T`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`TaskContext::stream_writer`].
    pub fn stream_reader<T: Send + 'static>(&self, i: usize) -> StreamReader<T> {
        let core = self.stream_ins[i].clone();
        core.chan.bind::<T>();
        StreamReader {
            core,
            _marker: PhantomData,
        }
    }

    /// A future resolving after `dur`, served by the runtime's timer
    /// wheel: awaiting it parks the *task* (one waker clone in a wheel
    /// bucket) and frees the worker thread. Resolution granularity is
    /// [`LocalConfig::reactor_tick`].
    ///
    /// # Panics
    ///
    /// Panics in a closure task body — only async bodies
    /// ([`LocalRuntime::submit_async`]) can suspend; a closure should
    /// use `std::thread::sleep`, which holds its worker.
    pub fn sleep(&self, dur: Duration) -> Sleep {
        self.sleep_until(Instant::now() + dur)
    }

    /// Like [`TaskContext::sleep`], but with an absolute deadline —
    /// useful to park many tasks until one common instant.
    ///
    /// # Panics
    ///
    /// Panics in a closure task body (see [`TaskContext::sleep`]).
    #[expect(clippy::expect_used, reason = "misuse in a closure body: `# Panics`")]
    pub fn sleep_until(&self, deadline: Instant) -> Sleep {
        let inner = self
            .reactor
            .as_ref()
            .expect("TaskContext::sleep requires an async task body (LocalRuntime::submit_async)");
        Sleep::new(Arc::clone(inner), deadline)
    }
}

/// Shared plumbing of one stream endpoint inside a running task: the
/// channel, the runtime (for first-element release and telemetry), the
/// owning task's meta (for the release-once flag) and the worker the
/// body runs on (for wait-span attribution).
#[derive(Clone)]
struct StreamEndpointCore {
    chan: Arc<StreamChannel>,
    shared: Arc<Shared>,
    meta: Arc<TaskMeta>,
    worker: u32,
}

impl StreamEndpointCore {
    /// Emits a [`TaskPhase::StreamWait`] span covering a just-finished
    /// blocked interval, if telemetry is on and the wait was nonzero.
    fn emit_wait(&self, blocked_us: u64) {
        if blocked_us == 0 || !self.shared.telemetry.enabled() {
            return;
        }
        let end_us = self.shared.now_us();
        self.shared.telemetry.record(TelemetryEvent::Span {
            track: Track::Worker(self.worker),
            name: format!("stream:{}", self.chan.name()).into(),
            phase: TaskPhase::StreamWait,
            start_us: end_us.saturating_sub(blocked_us),
            dur_us: blocked_us,
            ctx: None,
        });
    }
}

/// The writing end of a stream, obtained from
/// [`TaskContext::stream_writer`] inside a producer's body.
pub struct StreamWriter<T> {
    core: StreamEndpointCore,
    _marker: PhantomData<fn(T)>,
}

impl<T: Send + 'static> StreamWriter<T> {
    /// Sends one element, blocking while the channel is full
    /// (backpressure). The element moves into the channel: it is
    /// handed to exactly one consumer, or dropped if the run fails
    /// first.
    ///
    /// The producer's *first* send — on any of its output streams —
    /// releases its stream consumers for dispatch, before this call
    /// can block: by the time a producer has filled a channel, every
    /// consumer is already queued for a worker.
    ///
    /// Returns `false` if the channel was force-closed (the run failed
    /// or is shutting down); a well-behaved producer stops streaming
    /// then.
    pub fn send(&self, value: T) -> bool {
        release_stream_successors(&self.core.shared, &self.core.meta);
        let (accepted, blocked_us) = self.core.chan.send(value);
        self.core.emit_wait(blocked_us);
        accepted
    }

    /// Async variant of [`StreamWriter::send`]: where `send` blocks the
    /// worker thread on a full channel, awaiting this future parks the
    /// *task* and frees the worker (the parked interval shows up as a
    /// [`TaskPhase::Parked`] span rather than a `StreamWait` span).
    /// Only meaningful inside an async body
    /// ([`LocalRuntime::submit_async`]).
    ///
    /// Stream-successor release happens eagerly when the future is
    /// created, preserving the `send` guarantee that consumers are
    /// dispatchable before backpressure can suspend their producer.
    pub fn send_async(&self, value: T) -> StreamSend<'_, T> {
        release_stream_successors(&self.core.shared, &self.core.meta);
        StreamSend {
            core: &self.core,
            slot: Some(value),
            registered: None,
        }
    }
}

/// In-flight [`StreamWriter::send_async`] operation. Resolves to the
/// same `bool` as the blocking send.
pub struct StreamSend<'a, T> {
    core: &'a StreamEndpointCore,
    /// The element, until the channel accepts it.
    slot: Option<T>,
    /// This operation's entry in the channel's waiter queue, if a poll
    /// returned `Full` — withdrawn on completion or drop.
    registered: Option<Waker>,
}

// The element is only ever moved out of the slot, never pinned.
impl<T> Unpin for StreamSend<'_, T> {}

impl<T: Send + 'static> Future for StreamSend<'_, T> {
    type Output = bool;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        let this = self.get_mut();
        match this
            .core
            .chan
            .poll_send(&mut this.slot, Some(cx.waker()), &mut this.registered)
        {
            PollSend::Accepted => Poll::Ready(true),
            PollSend::Closed => Poll::Ready(false),
            PollSend::Full => Poll::Pending,
        }
    }
}

impl<T> Drop for StreamSend<'_, T> {
    fn drop(&mut self) {
        if let Some(w) = self.registered.take() {
            self.core.chan.cancel_waiter(Side::Send, &w);
        }
    }
}

/// The reading end of a stream, obtained from
/// [`TaskContext::stream_reader`] inside a consumer's body.
pub struct StreamReader<T> {
    core: StreamEndpointCore,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Send + 'static> StreamReader<T> {
    /// Receives the next element, by value, blocking while the channel
    /// is empty and a producer is still open: each element goes to
    /// exactly one consumer, which owns it. Returns `None` at
    /// end-of-stream: every registered producer has finished and the
    /// queue is drained (or the run was force-closed).
    pub fn recv(&self) -> Option<T> {
        let (value, blocked_us) = self.core.chan.recv();
        self.core.emit_wait(blocked_us);
        value
    }

    /// Iterates the stream to exhaustion (`recv` until `None`),
    /// yielding owned elements.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv())
    }

    /// Async variant of [`StreamReader::recv`]: where `recv` blocks the
    /// worker thread on an empty channel, awaiting this future parks
    /// the *task* and frees the worker. Resolves to the owned element,
    /// or `None` at end-of-stream. Only meaningful inside an async body
    /// ([`LocalRuntime::submit_async`]).
    pub fn recv_async(&self) -> StreamRecv<'_, T> {
        StreamRecv {
            core: &self.core,
            registered: None,
            _marker: PhantomData,
        }
    }
}

/// In-flight [`StreamReader::recv_async`] operation.
pub struct StreamRecv<'a, T> {
    core: &'a StreamEndpointCore,
    /// This operation's entry in the channel's waiter queue, if a poll
    /// returned `Empty` — withdrawn on completion or drop.
    registered: Option<Waker>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Send + 'static> Future for StreamRecv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let this = self.get_mut();
        match this
            .core
            .chan
            .poll_recv(Some(cx.waker()), &mut this.registered)
        {
            PollRecv::Element(v) => Poll::Ready(Some(v)),
            PollRecv::EndOfStream => Poll::Ready(None),
            PollRecv::Empty => Poll::Pending,
        }
    }
}

impl<T> Drop for StreamRecv<'_, T> {
    fn drop(&mut self) {
        if let Some(w) = self.registered.take() {
            self.core.chan.cancel_waiter(Side::Recv, &w);
        }
    }
}

/// Configuration of a [`LocalRuntime`].
#[derive(Debug, Clone)]
pub struct LocalConfig {
    /// Worker threads (also the advertised compute units). A client
    /// waiting in `get`/`wait_all` adds its own thread for the duration
    /// of the wait: up to `workers` + waiting clients tasks run at once.
    pub workers: usize,
    /// Advertised memory capacity in MB (for constraint admission).
    pub memory_mb: u64,
    /// Advertised software packages.
    pub software: Vec<String>,
    /// Advertised GPU count.
    pub gpus: u32,
    /// Telemetry sink for task-lifecycle events, stamped with
    /// wall-clock microseconds since runtime start. Defaults to the
    /// no-op recorder (instrumentation sites then skip event
    /// construction entirely).
    pub telemetry: RecorderHandle,
    /// Ahead-of-run verification at submit time (see
    /// `continuum_analyze`): constraints that no local capacity can
    /// satisfy and reads of data with neither a producer nor an
    /// initial value. `Warn` prints findings to stderr; `Reject` fails
    /// the submission with [`RuntimeError::LintRejected`]. Default:
    /// `Off`.
    pub strict_lints: LintMode,
    /// Granularity of the timer wheel serving [`TaskContext::sleep`]:
    /// a sleep fires on the first tick boundary at or after its
    /// deadline. Clamped to ≥ 50 µs. Default: 1 ms.
    pub reactor_tick: Duration,
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig {
            workers: thread::available_parallelism().map_or(4, |n| n.get()),
            memory_mb: 16_384,
            software: Vec::new(),
            gpus: 0,
            telemetry: RecorderHandle::noop(),
            strict_lints: LintMode::Off,
            reactor_tick: Duration::from_millis(1),
        }
    }
}

impl LocalConfig {
    /// A config with `workers` threads and defaults otherwise.
    pub fn with_workers(workers: usize) -> Self {
        LocalConfig {
            workers: workers.max(1),
            ..LocalConfig::default()
        }
    }

    /// Builder-style worker-thread count (≥ 1).
    ///
    /// ```
    /// use continuum_runtime::LocalConfig;
    /// use std::time::Duration;
    ///
    /// let config = LocalConfig::default()
    ///     .worker_threads(8)
    ///     .reactor_tick(Duration::from_millis(1));
    /// # assert_eq!(config.workers, 8);
    /// ```
    pub fn worker_threads(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style reactor timer-wheel tick; see
    /// [`LocalConfig::reactor_tick`].
    pub fn reactor_tick(mut self, tick: Duration) -> Self {
        self.reactor_tick = tick;
        self
    }

    /// Builder-style telemetry recorder.
    pub fn telemetry(mut self, recorder: RecorderHandle) -> Self {
        self.telemetry = recorder;
        self
    }
}

/// Graph-side state: the access processor, the run over its graph, the
/// dispatch records of tasks that have not finished, each datum's cells
/// and the first failure. Guarded by one mutex; the paired condvar
/// serves client waiters (`get`/`wait_all`).
struct GraphState {
    ap: AccessProcessor,
    /// Every submitted task's lifecycle state and the ready set, grown
    /// at each registration ([`Self::register`]).
    run: GraphRun,
    /// Dispatch records by dense task id; `None` once a closure task is
    /// ready, or any task committed or failed (nothing looks it up
    /// again). An async task's stays until then: teardown breaks the
    /// `Arc` cycles of abandoned futures through this column.
    metas: Vec<Option<Arc<TaskMeta>>>,
    /// Each datum's cells, grown by [`Self::size_cells`].
    cells: CellColumn,
    /// One bounded channel per stream datum, created by
    /// [`LocalRuntime::stream`] or on demand at first use.
    channels: HashMap<DataId, Arc<StreamChannel>>,
    failure: Option<(TaskId, String)>,
    /// What waiting clients keep between waits, and what they did.
    clients: client::Clients,
}

impl GraphState {
    /// Registers a task with the access processor and brings the run
    /// up to the graph, so the new task's readiness is known.
    fn register(&mut self, spec: TaskSpec) -> Result<TaskId, DagError> {
        let id = self.ap.register(spec)?;
        self.run.grow(self.ap.graph());
        Ok(id)
    }

    /// Grows the cell column to the catalog's size.
    fn size_cells(&mut self) {
        self.cells.size(self.ap.catalog().len());
    }

    /// The dispatch record of a task that just became ready: moved out
    /// of the column for a closure task, cloned for an async one.
    fn take_ready(&mut self, id: TaskId) -> Arc<TaskMeta> {
        let slot = &mut self.metas[id.index()];
        #[expect(clippy::expect_used, reason = "INVARIANT: a task becomes ready once")]
        let meta = slot.take().expect("a task becomes ready once");
        if let TaskPayload::Async(_) = meta.payload {
            *slot = Some(Arc::clone(&meta));
        }
        meta
    }

    /// The channel behind a stream datum, created on first use with
    /// the default capacity when [`LocalRuntime::stream`] didn't size
    /// it explicitly.
    fn stream_channel(&mut self, data: DataId) -> Arc<StreamChannel> {
        if let Some(c) = self.channels.get(&data) {
            return Arc::clone(c);
        }
        let name = self.ap.catalog().name(data).unwrap_or("stream").to_string();
        let c = Arc::new(StreamChannel::new(name, DEFAULT_STREAM_CAPACITY));
        self.channels.insert(data, Arc::clone(&c));
        c
    }
}

/// Default bounded capacity of stream channels not sized explicitly
/// via [`LocalRuntime::stream`]. Big enough to decouple bursty
/// producers, small enough that backpressure engages before memory
/// does.
const DEFAULT_STREAM_CAPACITY: usize = 16;

struct Shared {
    graph: Mutex<GraphState>,
    /// Wakes client threads blocked in `get`/`wait_all`; paired with
    /// the `graph` mutex.
    client_cv: Condvar,
    /// Cells currently holding a value
    /// ([`LocalRuntime::live_value_count`]).
    live_values: AtomicUsize,
    pool: Mutex<ResourcePool>,
    /// Global FIFO for submissions and unparked tasks.
    injector: Injector<Arc<TaskMeta>>,
    /// Steal handles onto every worker's deque, indexed by worker.
    stealers: Vec<Stealer<Arc<TaskMeta>>>,
    /// The counted-sleeper protocol parking idle workers, with the
    /// count of scanning workers its wake rule discounts (see
    /// [`crate::sleeper`] for the lost-wakeup-freedom argument).
    sleeper: CountedSleeper,
    /// Tasks sitting in the injector or a worker deque. A
    /// `platform::sync` atomic like the sleeper's own, so the schedule
    /// explorer sees the publish side of the protocol too.
    pending: sync::AtomicUsize,
    /// Tasks parked in the resource side queues (telemetry only).
    blocked_count: AtomicUsize,
    /// Task bodies currently executing.
    running: AtomicUsize,
    /// Client threads blocked on `client_cv` (skip notify when zero).
    client_waiters: AtomicUsize,
    /// Set on the first task failure: workers stop claiming work.
    poisoned: AtomicBool,
    shutdown: AtomicBool,
    /// Static machine capacity, the host's architecture included. Submit
    /// checks a task's whole constraints against it, once; `pool.free +
    /// allocated` always equals its countable part, which is what makes
    /// that check O(1).
    total: NodeCapacity,
    strict_lints: LintMode,
    telemetry: RecorderHandle,
    origin: std::time::Instant,
    /// Tasks claimed for execution and not yet committed/failed —
    /// running bodies *plus parked* async tasks.
    inflight: AtomicUsize,
    /// High-water mark of `inflight` over the runtime's lifetime.
    inflight_peak: AtomicUsize,
    /// Async tasks currently parked on a waker.
    parked: AtomicUsize,
    /// Lazily-started timer reactor (owns the tick thread); closure-only
    /// runtimes never start it, keeping their thread count unchanged.
    reactor: Mutex<Option<Reactor>>,
    /// Fast-path cache of the reactor's shared half.
    reactor_cell: OnceLock<Arc<ReactorInner>>,
    /// Timer-wheel tick (from [`LocalConfig::reactor_tick`]).
    reactor_tick: Duration,
}

impl Shared {
    /// Wall-clock microseconds since the runtime started.
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Publishes `metas` (tasks that are ready to claim) to the global
    /// injector and wakes workers for them. `pending` rises before the
    /// push so a concurrent sleeper's re-check can't miss the work.
    fn inject_ready(&self, metas: &mut Vec<Arc<TaskMeta>>) {
        let n = metas.len();
        if n == 0 {
            return;
        }
        self.pending.fetch_add(n, Ordering::SeqCst);
        for m in metas.drain(..) {
            self.injector.push(m);
        }
        self.sleeper.wake_for(n);
    }

    /// Ends one reference; the last one to a cell frees its value.
    /// Never called with the graph lock held: a payload's own `Drop`
    /// runs here.
    fn release(&self, reference: CellRef) {
        if let Some(value) = reference.cell().release() {
            self.live_values.fetch_sub(1, Ordering::Relaxed);
            drop(value);
        }
    }

    /// Wall-clock µs for a task's telemetry, or 0 for a task that
    /// carries no name and will emit none.
    fn stamp_us(&self, name: Option<&Label>) -> u64 {
        name.map_or(0, |_| self.now_us())
    }

    /// The timer reactor, starting its tick thread on first use. The
    /// owning mutex is untracked by the lock-order checker: it guards
    /// only this one-shot initialization and the teardown in `Drop`,
    /// and never nests with another lock.
    fn reactor_inner(&self) -> Arc<ReactorInner> {
        if let Some(inner) = self.reactor_cell.get() {
            return Arc::clone(inner);
        }
        let mut owner = self.reactor.lock();
        if let Some(inner) = self.reactor_cell.get() {
            return Arc::clone(inner);
        }
        let reactor = Reactor::start(self.origin, self.reactor_tick);
        let inner = Arc::clone(reactor.inner());
        *owner = Some(reactor);
        self.reactor_cell
            .set(Arc::clone(&inner))
            .unwrap_or_else(|_| unreachable!("reactor initialized once under the owner lock"));
        inner
    }

    /// Counts a task into the in-flight set (its first claim).
    fn note_inflight_start(&self, meta: &TaskMeta) {
        meta.inflight_reserved.store(true, Ordering::SeqCst);
        // Relaxed: these counters are statistics only. The peak store
        // is guarded by a plain load so the common below-peak case
        // costs no RMW on the hot path.
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        if now > self.inflight_peak.load(Ordering::Relaxed) {
            self.inflight_peak.fetch_max(now, Ordering::Relaxed);
        }
    }
}

/// A multithreaded dataflow executor for closures.
///
/// # Example
///
/// ```
/// use continuum_runtime::{LocalRuntime, LocalConfig};
/// use continuum_dag::TaskSpec;
/// use continuum_platform::Constraints;
///
/// let rt = LocalRuntime::new(LocalConfig::with_workers(2));
/// let nums = rt.data::<Vec<i64>>("nums");
/// let total = rt.data::<i64>("total");
///
/// rt.submit(
///     TaskSpec::new("gen").output(nums.id()),
///     Constraints::new(),
///     |ctx| ctx.set_output(0, (1..=10i64).collect::<Vec<i64>>()),
/// )?;
/// rt.submit(
///     TaskSpec::new("sum").input(nums.id()).output(total.id()),
///     Constraints::new(),
///     |ctx| {
///         let v: &Vec<i64> = ctx.input(0);
///         ctx.set_output(0, v.iter().sum::<i64>());
///     },
/// )?;
/// assert_eq!(*rt.get(&total)?, 55);
/// rt.wait_all()?;
/// # Ok::<(), continuum_runtime::RuntimeError>(())
/// ```
pub struct LocalRuntime {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<WorkerCounts>>,
}

impl std::fmt::Debug for LocalRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalRuntime")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl LocalRuntime {
    /// Starts a runtime with the given configuration.
    pub fn new(config: LocalConfig) -> Self {
        let worker_count = config.workers.max(1);
        let total = NodeCapacity::new(worker_count as u32, config.memory_mb)
            .with_gpus(config.gpus)
            .with_software(config.software.clone())
            .with_arch(std::env::consts::ARCH);
        let queues: Vec<WorkerQueue<Arc<TaskMeta>>> =
            (0..worker_count).map(|_| WorkerQueue::new_lifo()).collect();
        let stealers = queues.iter().map(WorkerQueue::stealer).collect();
        let shared = Arc::new(Shared {
            graph: Mutex::new(GraphState {
                ap: AccessProcessor::new(),
                run: GraphRun::default(),
                metas: Vec::new(),
                cells: CellColumn::default(),
                channels: HashMap::new(),
                failure: None,
                clients: Default::default(),
            }),
            client_cv: Condvar::new(),
            live_values: AtomicUsize::new(0),
            pool: Mutex::new(ResourcePool {
                free: Demand::capacity(&total),
                blocked: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            }),
            injector: Injector::new(),
            stealers,
            sleeper: CountedSleeper::new(),
            pending: sync::AtomicUsize::new(0),
            blocked_count: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            client_waiters: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            total,
            strict_lints: config.strict_lints,
            telemetry: config.telemetry.clone(),
            origin: std::time::Instant::now(),
            inflight: AtomicUsize::new(0),
            inflight_peak: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            reactor: Mutex::new(None),
            reactor_cell: OnceLock::new(),
            reactor_tick: config.reactor_tick,
        });
        let workers = queues
            .into_iter()
            .enumerate()
            .map(|(i, queue)| {
                let shared = Arc::clone(&shared);
                // A worker runs task bodies all its life: it never helps.
                thread::spawn(move || {
                    client::running_tasks(|| worker_loop(&shared, &queue, i as u32))
                })
            })
            .collect();
        LocalRuntime { shared, workers }
    }

    /// Registers a typed logical datum.
    pub fn data<T>(&self, name: impl Into<String>) -> DataHandle<T> {
        let _order = lockorder::acquire(RANK_GRAPH, "graph");
        let id = self.shared.graph.lock().ap.new_data(name.into());
        DataHandle {
            id,
            _marker: PhantomData,
        }
    }

    /// Registers a typed stream datum backed by a bounded channel of
    /// `capacity` (≥ 1) elements.
    ///
    /// Tasks access the stream with `stream_out` / `stream_in` params
    /// on their [`TaskSpec`]; a stream datum never mixes with
    /// versioned (`In`/`Out`/`InOut`) access. Using a stream datum in
    /// a spec without calling this first creates the channel on demand
    /// with a default capacity of 16.
    pub fn stream<T: Send + 'static>(
        &self,
        name: impl Into<String>,
        capacity: usize,
    ) -> StreamHandle<T> {
        let name = name.into();
        let chan = StreamChannel::new(name.as_str(), capacity);
        chan.bind::<T>();
        let _order = lockorder::acquire(RANK_GRAPH, "graph");
        let mut g = self.shared.graph.lock();
        let id = g.ap.new_data(&name);
        g.channels.insert(id, Arc::new(chan));
        StreamHandle {
            id,
            _marker: PhantomData,
        }
    }

    /// Registers a batch of typed logical data with a shared prefix.
    pub fn data_batch<T>(&self, prefix: &str, n: usize) -> Vec<DataHandle<T>> {
        let _order = lockorder::acquire(RANK_GRAPH, "graph");
        let mut g = self.shared.graph.lock();
        (0..n)
            .map(|i| DataHandle {
                id: g.ap.new_data_fmt(format_args!("{prefix}{i}")),
                _marker: PhantomData,
            })
            .collect()
    }

    /// Provides the initial (version-0) value of a datum, making it
    /// readable by tasks submitted afterwards — and by readers of
    /// version 0 submitted before that have not run yet. Calling it
    /// again replaces the value for readers that have not run (last
    /// write wins); once version 0 is superseded and its last reader
    /// has started, the value is dropped unobserved.
    pub fn set_initial<T: Send + Sync + 'static>(&self, handle: &DataHandle<T>, value: T) {
        let cell = {
            let _order = lockorder::acquire(RANK_GRAPH, "graph");
            let mut g = self.shared.graph.lock();
            g.size_cells();
            // `None`: not a datum of this runtime, or superseded before
            // anyone read or set version 0.
            let Some(cell) = g.cells.initial(handle.id) else {
                return;
            };
            cell
        };
        if cell.publish(Arc::new(value)) {
            self.shared.live_values.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Submits a task: the spec declares data accesses, the
    /// constraints gate admission, the body runs once all inputs
    /// exist.
    ///
    /// # Errors
    ///
    /// * dependency-validation errors from the access processor;
    /// * [`RuntimeError::Unschedulable`] if this machine can never
    ///   satisfy the constraints.
    pub fn submit<F>(
        &self,
        spec: TaskSpec,
        constraints: Constraints,
        body: F,
    ) -> Result<TaskId, RuntimeError>
    where
        F: FnOnce(&mut TaskContext) + Send + 'static,
    {
        let body: TaskBody = if self.shared.telemetry.enabled() {
            let name = Some(spec.name_label().clone());
            Box::new(Named { name, body })
        } else {
            Box::new(body)
        };
        self.submit_inner(spec, constraints, TaskPayload::Closure, Some(body))
    }

    /// Submits a task with a poll-based async body, multiplexed over
    /// the bounded worker pool: an await that suspends (a
    /// [`TaskContext::sleep`], a stream endpoint, any waker-backed
    /// future) parks the *task* — one stored future — and frees both
    /// the worker thread and the task's admitted resources, so millions
    /// of workflows can be in flight on a handful of threads.
    ///
    /// The body takes the [`TaskContext`] by value and must return it
    /// from the future (outputs travel with it). Dependency semantics,
    /// constraints, failure handling and telemetry are identical to
    /// [`LocalRuntime::submit`].
    ///
    /// ```
    /// use continuum_runtime::{LocalRuntime, LocalConfig};
    /// use continuum_dag::TaskSpec;
    /// use continuum_platform::Constraints;
    /// use std::time::Duration;
    ///
    /// let rt = LocalRuntime::new(LocalConfig::default().worker_threads(2));
    /// let out = rt.data::<u64>("out");
    /// rt.submit_async(
    ///     TaskSpec::new("nap").output(out.id()),
    ///     Constraints::new(),
    ///     |mut ctx| async move {
    ///         ctx.sleep(Duration::from_millis(2)).await;
    ///         ctx.set_output(0, 7u64);
    ///         ctx
    ///     },
    /// )?;
    /// assert_eq!(*rt.get(&out)?, 7);
    /// # Ok::<(), continuum_runtime::RuntimeError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same as [`LocalRuntime::submit`].
    pub fn submit_async<F, Fut>(
        &self,
        spec: TaskSpec,
        constraints: Constraints,
        body: F,
    ) -> Result<TaskId, RuntimeError>
    where
        F: FnOnce(TaskContext) -> Fut + Send + 'static,
        Fut: Future<Output = TaskContext> + Send + 'static,
    {
        let body: Box<AsyncBody> = Box::new(AsyncBody {
            cell: TaskCell::new(),
            future: Mutex::new(None),
            parked_at_us: AtomicU64::new(0),
            name: self
                .shared
                .telemetry
                .enabled()
                .then(|| spec.name_label().clone()),
            shared: Arc::downgrade(&self.shared),
            factory: Mutex::new(Some(body)),
        });
        self.submit_inner(spec, constraints, TaskPayload::Async(body), None)
    }

    /// Common submission path behind [`LocalRuntime::submit`] and
    /// [`LocalRuntime::submit_async`].
    fn submit_inner(
        &self,
        spec: TaskSpec,
        constraints: Constraints,
        payload: TaskPayload,
        body: Option<TaskBody>,
    ) -> Result<TaskId, RuntimeError> {
        // Admission: reject constraints this machine can never satisfy
        // even with everything idle. Because free + allocated always
        // equals the static total, this is a single O(1) comparison —
        // no scan over the graph or the running set.
        if !self.shared.total.satisfies(&constraints) {
            return Err(self.shared.unschedulable(&spec, &constraints));
        }
        let submitted_name = self
            .shared
            .telemetry
            .enabled()
            .then(|| spec.name_label().clone());
        // Stream params, writers first, extracted before `register`
        // consumes the spec.
        let writers = spec.stream_writes().count();
        let stream_ids: Vec<DataId> = spec.stream_writes().chain(spec.stream_reads()).collect();
        let mut ready_meta = None;
        let mut warn_findings = Vec::new();
        let id;
        let superseded;
        {
            let _order = lockorder::acquire(RANK_GRAPH, "graph");
            let mut g = self.shared.graph.lock();
            if self.shared.strict_lints != LintMode::Off {
                // Reads of data with neither a producing task nor a
                // stored initial value: the CLI's read-without-producer
                // lint, applied incrementally at the submission front.
                let next = TaskId::from_raw(g.ap.graph().len() as u64);
                let mut findings = Vec::new();
                for data in spec.reads() {
                    let Ok(vd) = g.ap.current_version(data) else {
                        continue; // unknown datum: register reports it
                    };
                    // An empty cell — made for a reader that came
                    // before `set_initial` — is not a value.
                    let provided = g.cells.current(data).is_some_and(|c| c.cell().is_set());
                    if vd.version.is_initial() && !provided {
                        let data_name = g.ap.catalog().name(data).unwrap_or("?").to_string();
                        findings.push(read_without_producer(next, spec.name(), data, &data_name));
                    }
                }
                if self.shared.strict_lints == LintMode::Reject && has_errors(&findings) {
                    return Err(RuntimeError::LintRejected {
                        diagnostics: findings,
                    });
                }
                warn_findings = findings;
            }
            id = g.register(spec)?;
            let streams: Box<[Arc<StreamChannel>]> =
                stream_ids.iter().map(|d| g.stream_channel(*d)).collect();
            // Count this producer as an open writer until its body
            // finishes — readers see end-of-stream only after every
            // registered producer is done.
            for chan in &streams[..writers] {
                chan.register_writer();
            }
            g.size_cells();
            let GraphState {
                ap,
                run,
                metas,
                cells,
                ..
            } = &mut *g;
            #[expect(clippy::expect_used, reason = "INVARIANT: registered above, same lock")]
            let node = ap.graph().node(id).expect("just registered");
            // Every version the access processor resolved a read to is
            // its datum's current one: this task's own writes reach
            // the column only below, and a written datum appears once
            // in a spec.
            let inputs = Slots::collect(node.consumed().map(|vd| cells.touch(vd.data).retain()));
            let meta = Arc::new(TaskMeta {
                id,
                demand: Demand::of(&constraints),
                claim: Mutex::new(Claim { inputs, body }),
                outputs: Slots::collect(node.produced().map(|_| ValueCell::new())),
                streams,
                writers: writers as u32,
                streams_released: AtomicBool::new(false),
                inflight_reserved: AtomicBool::new(false),
                payload,
            });
            // Each new cell's first reference is the column's; the
            // version it supersedes loses that one (after the unlock).
            superseded = Slots::collect(node.produced().enumerate().map(|(i, vd)| {
                let cell = CellRef::Output {
                    producer: Arc::clone(&meta),
                    index: i as u32,
                };
                cells.replace(vd.data, cell)
            }));
            // The record holds what the engine needs of the task; from
            // here on the graph is walked for its edges alone.
            #[expect(clippy::expect_used, reason = "INVARIANT: as for the lookup above")]
            ap.graph_mut().retire_spec(id).expect("just registered");
            debug_assert_eq!(metas.len(), id.index());
            metas.push(Some(meta));
            if run.state(id) == Some(TaskState::Ready) {
                ready_meta = Some(g.take_ready(id));
            }
        }
        for d in &warn_findings {
            eprintln!("{d}");
        }
        superseded.into_each(|old| {
            if let Some(old) = old {
                self.shared.release(old);
            }
        });
        if let Some(name) = submitted_name {
            self.shared.telemetry.record(TelemetryEvent::Instant {
                track: Track::Run,
                name,
                phase: TaskPhase::Submitted,
                at_us: self.shared.now_us(),
            });
        }
        if let Some(meta) = ready_meta {
            self.shared.pending.fetch_add(1, Ordering::SeqCst);
            self.shared.injector.push(meta);
            self.shared.sleeper.wake_for(1);
        }
        Ok(id)
    }
}

impl Drop for LocalRuntime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Force-close every stream channel before joining: a worker
        // blocked in a stream send/recv inside a task body would
        // otherwise never observe the shutdown. In-flight elements of
        // an abandoned run are dropped.
        let channels: Vec<Arc<StreamChannel>> = {
            let _order = lockorder::acquire(RANK_GRAPH, "graph");
            self.shared
                .graph
                .lock()
                .channels
                .values()
                .cloned()
                .collect()
        };
        for chan in &channels {
            chan.force_close();
        }
        // Stop the reactor (if it ever started): clears the timer
        // wheel, dropping its waker clones, and joins the tick thread.
        if let Some(mut reactor) = self.shared.reactor.lock().take() {
            reactor.stop();
        }
        self.shared.sleeper.wake_all();
        let mut counts = WorkerCounts::default();
        for own in self.workers.drain(..).filter_map(|w| w.join().ok()) {
            counts += own;
        }
        // Abandoned async tasks hold futures whose captured
        // `TaskContext` owns stream endpoints with `Arc<Shared>` —
        // an `Arc` cycle (shared → metas → future → shared) that must
        // be broken explicitly now that no worker can resume them.
        // Abandoned tasks of either kind still hold their inputs: let
        // go of them one record at a time while `metas` keeps every
        // record alive, or dropping the newest task of a long pending
        // chain would recurse through all its ancestors.
        let client_tasks = {
            let _order = lockorder::acquire(RANK_GRAPH, "graph");
            let g = self.shared.graph.lock();
            counts += g.clients.counts;
            for meta in g.metas.iter().flatten() {
                if let TaskPayload::Async(abody) = &meta.payload {
                    abody.factory.discard();
                    *abody.future.lock() = None;
                }
                meta.claim.lock().inputs = Slots::None;
            }
            g.clients.tasks
        };
        if self.shared.telemetry.enabled() {
            let end_us = self.shared.now_us();
            // Same end-of-run counter set the simulator publishes, so
            // metrics readers see explicit zeros (shared memory: no
            // transfers, no lineage replays) instead of absent keys.
            self.shared.telemetry.run_end_counters(end_us, 0, 0, 0);
            if !channels.is_empty() {
                let mut high_water = 0u64;
                let (mut send_us, mut recv_us, mut elements, mut bytes) = (0u64, 0u64, 0u64, 0u64);
                for chan in &channels {
                    let st = chan.stats();
                    high_water = high_water.max(st.occupancy_high_water);
                    send_us += st.blocked_send_us;
                    recv_us += st.blocked_recv_us;
                    elements += st.elements;
                    bytes += st.bytes;
                }
                self.shared
                    .telemetry
                    .run_end_stream_counters(end_us, high_water, send_us, recv_us, elements, bytes);
            }
            let telemetry = &self.shared.telemetry;
            let inflight_peak = self.shared.inflight_peak.load(Ordering::SeqCst) as f64;
            telemetry.counter(CounterKey::InflightTasksHighWater, end_us, inflight_peak);
            telemetry.counter(CounterKey::HandedOffTasks, end_us, counts.handoffs as f64);
            telemetry.counter(CounterKey::StolenTasks, end_us, counts.steals as f64);
            telemetry.counter(CounterKey::ClientTasks, end_us, client_tasks as f64);
            // The run span closes last, covering every task span.
            self.shared.telemetry.record(TelemetryEvent::Span {
                track: Track::Run,
                name: "local-run".into(),
                phase: TaskPhase::Executing,
                start_us: 0,
                dur_us: end_us,
                ctx: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn rt(workers: usize) -> LocalRuntime {
        LocalRuntime::new(LocalConfig::with_workers(workers))
    }

    #[test]
    fn linear_pipeline_produces_result() {
        let rt = rt(2);
        let a = rt.data::<i64>("a");
        let b = rt.data::<i64>("b");
        rt.submit(
            TaskSpec::new("one").output(a.id()),
            Constraints::new(),
            |ctx| ctx.set_output(0, 20i64),
        )
        .unwrap();
        rt.submit(
            TaskSpec::new("double").input(a.id()).output(b.id()),
            Constraints::new(),
            |ctx| {
                let x: &i64 = ctx.input(0);
                ctx.set_output(0, x * 2);
            },
        )
        .unwrap();
        assert_eq!(*rt.get(&b).unwrap(), 40);
        rt.wait_all().unwrap();
        assert_eq!(rt.completed_count(), 2);
    }

    #[test]
    fn fan_out_fan_in_runs_in_parallel() {
        let rt = rt(4);
        let src = rt.data::<u64>("src");
        let parts = rt.data_batch::<u64>("part", 8);
        let total = rt.data::<u64>("total");
        rt.submit(
            TaskSpec::new("src").output(src.id()),
            Constraints::new(),
            |ctx| ctx.set_output(0, 10u64),
        )
        .unwrap();
        for (i, p) in parts.iter().enumerate() {
            let factor = i as u64;
            rt.submit(
                TaskSpec::new("mul").input(src.id()).output(p.id()),
                Constraints::new(),
                move |ctx| {
                    let x: &u64 = ctx.input(0);
                    ctx.set_output(0, x * factor);
                },
            )
            .unwrap();
        }
        let spec = TaskSpec::new("sum")
            .inputs(parts.iter().map(|p| p.id()))
            .output(total.id());
        rt.submit(spec, Constraints::new(), |ctx| {
            let mut s = 0u64;
            for i in 0..ctx.input_count() {
                s += *ctx.input::<u64>(i);
            }
            ctx.set_output(0, s);
        })
        .unwrap();
        assert_eq!(*rt.get(&total).unwrap(), 10 * (0..8).sum::<u64>());
    }

    #[test]
    fn inout_chain_accumulates() {
        let rt = rt(4);
        let acc = rt.data::<i64>("acc");
        rt.set_initial(&acc, 0i64);
        for _ in 0..10 {
            rt.submit(
                TaskSpec::new("inc").inout(acc.id()),
                Constraints::new(),
                |ctx| {
                    let v: &i64 = ctx.input(0);
                    ctx.set_output(0, v + 1);
                },
            )
            .unwrap();
        }
        assert_eq!(*rt.get(&acc).unwrap(), 10);
    }

    #[test]
    fn initial_values_feed_tasks() {
        let rt = rt(2);
        let input = rt.data::<Vec<i32>>("input");
        let out = rt.data::<i32>("out");
        rt.set_initial(&input, vec![1, 2, 3]);
        rt.submit(
            TaskSpec::new("sum").input(input.id()).output(out.id()),
            Constraints::new(),
            |ctx| {
                let v: &Vec<i32> = ctx.input(0);
                ctx.set_output(0, v.iter().sum::<i32>());
            },
        )
        .unwrap();
        assert_eq!(*rt.get(&out).unwrap(), 6);
    }

    #[test]
    fn panicking_task_surfaces_as_error() {
        let rt = rt(2);
        let d = rt.data::<i32>("d");
        rt.submit(
            TaskSpec::new("boom").output(d.id()),
            Constraints::new(),
            |_| {
                panic!("kaboom");
            },
        )
        .unwrap();
        let err = rt.wait_all().unwrap_err();
        match err {
            RuntimeError::TaskPanicked { message, .. } => assert!(message.contains("kaboom")),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn missing_output_is_a_failure() {
        let rt = rt(2);
        let d = rt.data::<i32>("d");
        rt.submit(
            TaskSpec::new("lazy").output(d.id()),
            Constraints::new(),
            |_| {},
        )
        .unwrap();
        let err = rt.wait_all().unwrap_err();
        assert!(err.to_string().contains("did not set output"));
    }

    #[test]
    fn unsatisfiable_constraints_rejected_at_submit() {
        let rt = rt(2);
        let d = rt.data::<i32>("d");
        let err = rt
            .submit(
                TaskSpec::new("huge").output(d.id()),
                Constraints::new().compute_units(64),
                |_| {},
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Unschedulable { .. }));
    }

    #[test]
    fn memory_constraints_serialize_heavy_tasks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rt = LocalRuntime::new(LocalConfig {
            workers: 4,
            memory_mb: 1000,
            ..LocalConfig::default()
        });
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        let outs = rt.data_batch::<()>("o", 4);
        for o in &outs {
            let peak = Arc::clone(&peak);
            let cur = Arc::clone(&cur);
            rt.submit(
                TaskSpec::new("heavy").output(o.id()),
                Constraints::new().memory_mb(600),
                move |ctx| {
                    let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    cur.fetch_sub(1, Ordering::SeqCst);
                    ctx.set_output(0, ());
                },
            )
            .unwrap();
        }
        rt.wait_all().unwrap();
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "600 MB tasks on a 1000 MB machine must serialise"
        );
    }

    #[test]
    fn gpu_constraints_serialize_on_a_single_gpu() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rt = LocalRuntime::new(LocalConfig {
            workers: 4,
            gpus: 1,
            ..LocalConfig::default()
        });
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        let outs = rt.data_batch::<()>("o", 3);
        for o in &outs {
            let peak = Arc::clone(&peak);
            let cur = Arc::clone(&cur);
            rt.submit(
                TaskSpec::new("gpu").output(o.id()),
                Constraints::new().gpus(1),
                move |ctx| {
                    let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    cur.fetch_sub(1, Ordering::SeqCst);
                    ctx.set_output(0, ());
                },
            )
            .unwrap();
        }
        rt.wait_all().unwrap();
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "gpu tasks must serialise on a 1-GPU machine"
        );
    }

    #[test]
    fn independent_tasks_overlap_in_time() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rt = rt(4);
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        let outs = rt.data_batch::<()>("o", 4);
        for o in &outs {
            let peak = Arc::clone(&peak);
            let cur = Arc::clone(&cur);
            rt.submit(
                TaskSpec::new("t").output(o.id()),
                Constraints::new(),
                move |ctx| {
                    let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    cur.fetch_sub(1, Ordering::SeqCst);
                    ctx.set_output(0, ());
                },
            )
            .unwrap();
        }
        rt.wait_all().unwrap();
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "independent tasks should overlap, peak = {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let rt = rt(3);
        let d = rt.data::<i32>("d");
        rt.submit(
            TaskSpec::new("t").output(d.id()),
            Constraints::new(),
            |ctx| ctx.set_output(0, 1),
        )
        .unwrap();
        rt.wait_all().unwrap();
        drop(rt); // must not hang
    }

    #[test]
    fn software_constraints_respected() {
        let rt = LocalRuntime::new(LocalConfig {
            workers: 2,
            software: vec!["blast".to_string()],
            ..LocalConfig::default()
        });
        let d = rt.data::<i32>("d");
        rt.submit(
            TaskSpec::new("uses-blast").output(d.id()),
            Constraints::new().software("blast"),
            |ctx| ctx.set_output(0, 7),
        )
        .unwrap();
        assert_eq!(*rt.get(&d).unwrap(), 7);
        let e = rt.data::<i32>("e");
        let err = rt
            .submit(
                TaskSpec::new("uses-samtools").output(e.id()),
                Constraints::new().software("samtools"),
                |ctx| ctx.set_output(0, 7),
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Unschedulable { .. }));
    }

    #[test]
    fn out_of_order_execution_follows_dataflow_not_submission() {
        // Submit a slow independent task first and a fast chain after;
        // the chain result must not wait for the slow task.
        let rt = rt(2);
        let slow = rt.data::<()>("slow");
        let fast = rt.data::<i32>("fast");
        rt.submit(
            TaskSpec::new("slow").output(slow.id()),
            Constraints::new(),
            |ctx| {
                std::thread::sleep(std::time::Duration::from_millis(100));
                ctx.set_output(0, ());
            },
        )
        .unwrap();
        let t0 = std::time::Instant::now();
        rt.submit(
            TaskSpec::new("fast").output(fast.id()),
            Constraints::new(),
            |ctx| ctx.set_output(0, 42),
        )
        .unwrap();
        assert_eq!(*rt.get(&fast).unwrap(), 42);
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(90),
            "fast task must not queue behind the slow one"
        );
        rt.wait_all().unwrap();
    }

    #[test]
    fn dead_intermediate_values_are_evicted() {
        let rt = rt(2);
        let acc = rt.data::<u64>("acc");
        rt.set_initial(&acc, 0u64);
        for _ in 0..500 {
            rt.submit(
                TaskSpec::new("inc").inout(acc.id()),
                Constraints::new(),
                |ctx| {
                    let v: &u64 = ctx.input(0);
                    ctx.set_output(0, v + 1);
                },
            )
            .unwrap();
        }
        rt.wait_all().unwrap();
        assert_eq!(*rt.get(&acc).unwrap(), 500);
        assert!(
            rt.live_value_count() <= 2,
            "a 500-step inout chain must not retain intermediates, live = {}",
            rt.live_value_count()
        );
    }

    #[test]
    fn superseded_inputs_survive_until_their_readers_run() {
        // A reader of version 1 is registered, then a writer bumps the
        // datum to version 2 before the reader runs: the version-1
        // value must stay live for the reader.
        let rt = rt(1);
        let gate = rt.data::<()>("gate");
        let d = rt.data::<u64>("d");
        let old_sum = rt.data::<u64>("old_sum");
        rt.submit(
            TaskSpec::new("slow-gate").output(gate.id()),
            Constraints::new(),
            |ctx| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                ctx.set_output(0, ());
            },
        )
        .unwrap();
        rt.submit(
            TaskSpec::new("v1").output(d.id()),
            Constraints::new(),
            |ctx| ctx.set_output(0, 10u64),
        )
        .unwrap();
        // Reader of d@v1, gated so it runs late.
        rt.submit(
            TaskSpec::new("late-reader")
                .input(gate.id())
                .input(d.id())
                .output(old_sum.id()),
            Constraints::new(),
            |ctx| {
                let v: &u64 = ctx.input(1);
                ctx.set_output(0, *v + 1);
            },
        )
        .unwrap();
        // Writer supersedes d@v1 with d@v2.
        rt.submit(
            TaskSpec::new("v2").inout(d.id()),
            Constraints::new(),
            |ctx| {
                let v: &u64 = ctx.input(0);
                ctx.set_output(0, *v * 100);
            },
        )
        .unwrap();
        assert_eq!(*rt.get(&old_sum).unwrap(), 11, "late reader saw d@v1");
        assert_eq!(*rt.get(&d).unwrap(), 1000, "current version is d@v2");
        rt.wait_all().unwrap();
    }

    #[test]
    fn async_body_with_sleep_produces_result() {
        let rt = rt(2);
        let out = rt.data::<u64>("out");
        rt.submit_async(
            TaskSpec::new("nap").output(out.id()),
            Constraints::new(),
            |mut ctx| async move {
                ctx.sleep(Duration::from_millis(3)).await;
                ctx.set_output(0, 99u64);
                ctx
            },
        )
        .unwrap();
        assert_eq!(*rt.get(&out).unwrap(), 99);
        rt.wait_all().unwrap();
        assert!(rt.inflight_high_water() >= 1);
    }

    #[test]
    fn async_dependencies_mix_with_closures() {
        // closure -> async -> closure chain through versioned data.
        let rt = rt(2);
        let a = rt.data::<u64>("a");
        let b = rt.data::<u64>("b");
        let c = rt.data::<u64>("c");
        rt.submit(
            TaskSpec::new("seed").output(a.id()),
            Constraints::new(),
            |ctx| ctx.set_output(0, 5u64),
        )
        .unwrap();
        rt.submit_async(
            TaskSpec::new("triple").input(a.id()).output(b.id()),
            Constraints::new(),
            |mut ctx| async move {
                let x = *ctx.input::<u64>(0);
                ctx.sleep(Duration::from_millis(1)).await;
                ctx.set_output(0, x * 3);
                ctx
            },
        )
        .unwrap();
        rt.submit(
            TaskSpec::new("inc").input(b.id()).output(c.id()),
            Constraints::new(),
            |ctx| {
                let x: &u64 = ctx.input(0);
                ctx.set_output(0, x + 1);
            },
        )
        .unwrap();
        assert_eq!(*rt.get(&c).unwrap(), 16);
        rt.wait_all().unwrap();
    }

    #[test]
    fn parked_tasks_vastly_exceed_worker_count() {
        // 200 async tasks all sleep until one common deadline on 2
        // workers: every one of them must be in flight (parked)
        // simultaneously — impossible if a parked task held a thread
        // or a core.
        const N: usize = 200;
        let rt = rt(2);
        let outs = rt.data_batch::<u64>("o", N);
        let deadline = Instant::now() + Duration::from_millis(120);
        for (i, o) in outs.iter().enumerate() {
            rt.submit_async(
                TaskSpec::new("deadline").output(o.id()),
                Constraints::new(),
                move |mut ctx| async move {
                    ctx.sleep_until(deadline).await;
                    ctx.set_output(0, i as u64);
                    ctx
                },
            )
            .unwrap();
        }
        rt.wait_all().unwrap();
        assert!(
            rt.inflight_high_water() >= N,
            "all {N} tasks must park concurrently, high water = {}",
            rt.inflight_high_water()
        );
        assert_eq!(rt.parked_count(), 0, "nothing stays parked after the run");
        for (i, o) in outs.iter().enumerate() {
            assert_eq!(*rt.get(o).unwrap(), i as u64);
        }
    }

    #[test]
    fn async_stream_pipeline_runs_on_one_worker() {
        // Producer and consumer share a capacity-1 channel on a
        // single-worker runtime: with blocking endpoints this deadlocks
        // (the producer's thread can never yield to the consumer);
        // async endpoints park instead, so one worker suffices.
        let rt = rt(1);
        let s = rt.stream::<u64>("s", 1);
        let total = rt.data::<u64>("total");
        rt.submit_async(
            TaskSpec::new("producer").stream_out(s.id()),
            Constraints::new(),
            |ctx| async move {
                let w = ctx.stream_writer::<u64>(0);
                for i in 0..64u64 {
                    assert!(w.send_async(i).await);
                }
                ctx
            },
        )
        .unwrap();
        rt.submit_async(
            TaskSpec::new("consumer")
                .stream_in(s.id())
                .output(total.id()),
            Constraints::new(),
            |mut ctx| async move {
                let r = ctx.stream_reader::<u64>(0);
                let mut sum = 0u64;
                while let Some(v) = r.recv_async().await {
                    sum += v;
                }
                ctx.set_output(0, sum);
                ctx
            },
        )
        .unwrap();
        assert_eq!(*rt.get(&total).unwrap(), (0..64).sum::<u64>());
        rt.wait_all().unwrap();
    }

    #[test]
    fn async_panic_surfaces_as_error() {
        let rt = rt(2);
        let d = rt.data::<i32>("d");
        rt.submit_async(
            TaskSpec::new("boom").output(d.id()),
            Constraints::new(),
            |ctx| async move {
                ctx.sleep(Duration::from_millis(1)).await;
                panic!("async kaboom");
                #[allow(unreachable_code)]
                ctx
            },
        )
        .unwrap();
        let err = rt.wait_all().unwrap_err();
        match err {
            RuntimeError::TaskPanicked { message, .. } => {
                assert!(message.contains("async kaboom"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn async_missing_output_is_a_failure() {
        let rt = rt(2);
        let d = rt.data::<i32>("d");
        rt.submit_async(
            TaskSpec::new("lazy").output(d.id()),
            Constraints::new(),
            |ctx| async move { ctx },
        )
        .unwrap();
        let err = rt.wait_all().unwrap_err();
        assert!(err.to_string().contains("did not set output"));
    }

    #[test]
    fn drop_with_parked_tasks_does_not_leak_or_hang() {
        // Abandon a runtime while tasks are parked on a long timer: the
        // drop must break the future/shared Arc cycle and join cleanly.
        let rt = rt(2);
        let outs = rt.data_batch::<()>("o", 8);
        for o in &outs {
            rt.submit_async(
                TaskSpec::new("sleeper").output(o.id()),
                Constraints::new(),
                |mut ctx| async move {
                    ctx.sleep(Duration::from_secs(3600)).await;
                    ctx.set_output(0, ());
                    ctx
                },
            )
            .unwrap();
        }
        // Give the tasks a moment to reach their park.
        let t0 = Instant::now();
        while rt.parked_count() < 8 && t0.elapsed() < Duration::from_secs(5) {
            thread::yield_now();
        }
        let weak = Arc::downgrade(&rt.shared);
        drop(rt); // must not hang
        assert_eq!(
            weak.upgrade().map(|_| ()),
            None,
            "shared state must be freed (no Arc cycle through parked futures)"
        );
    }

    /// A payload that counts its own drops.
    struct Counted(u64, Arc<AtomicUsize>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A task that holds its worker until the returned sender fires,
    /// plus the datum later tasks read to queue up behind it.
    fn gate(rt: &LocalRuntime) -> (DataHandle<()>, std::sync::mpsc::Sender<()>) {
        let (open, wait) = std::sync::mpsc::channel::<()>();
        let out = rt.data::<()>("gate");
        rt.submit(
            TaskSpec::new("gate").output(out.id()),
            Constraints::new(),
            move |ctx| {
                wait.recv().expect("gate opened");
                ctx.set_output(0, ());
            },
        )
        .unwrap();
        (out, open)
    }

    /// Runs `f` on a thread of its own and fails the test if it takes
    /// longer than `limit`: a hang shows as a failure, not a stuck run.
    pub(super) fn within<T: Send + 'static>(
        limit: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (done, result) = std::sync::mpsc::channel();
        let watched = thread::spawn(move || done.send(f()));
        let out = result
            .recv_timeout(limit)
            .expect("watchdog deadline passed");
        watched
            .join()
            .expect("watched thread")
            .expect("result received");
        out
    }

    /// A gate task a worker is running: it holds that worker until
    /// `open` fires, and sets `done` as it lets go.
    pub(super) struct Held {
        pub(super) out: DataHandle<()>,
        pub(super) open: std::sync::mpsc::Sender<()>,
        pub(super) done: Arc<AtomicBool>,
    }

    /// Submits a gate with `constraints` and returns once a worker runs
    /// it. No client may be waiting meanwhile, or it could take the gate.
    pub(super) fn hold_a_worker(rt: &LocalRuntime, constraints: Constraints) -> Held {
        let (open, wait) = std::sync::mpsc::channel::<()>();
        let (started, running) = std::sync::mpsc::channel::<()>();
        let done = Arc::new(AtomicBool::new(false));
        let out = rt.data::<()>("gate");
        let leaving = Arc::clone(&done);
        rt.submit(
            TaskSpec::new("gate").output(out.id()),
            constraints,
            move |ctx| {
                started.send(()).expect("test waits for the start");
                wait.recv().expect("gate opened");
                leaving.store(true, Ordering::SeqCst);
                ctx.set_output(0, ());
            },
        )
        .unwrap();
        running.recv().expect("a worker runs the gate");
        Held { out, open, done }
    }

    #[test]
    fn set_initial_reaches_readers_submitted_before_it() {
        // One reader registers against the untouched version 0, a
        // writer then supersedes it, and only then is the initial value
        // provided: the reader still sees it, `get` sees the writer's.
        let rt = rt(2);
        let (gate, open) = gate(&rt);
        let d = rt.data::<u64>("d");
        let seen = rt.data::<u64>("seen");
        rt.submit(
            TaskSpec::new("early-reader")
                .input(gate.id())
                .input(d.id())
                .output(seen.id()),
            Constraints::new(),
            |ctx| {
                let v = *ctx.input::<u64>(1);
                ctx.set_output(0, v);
            },
        )
        .unwrap();
        rt.submit(
            TaskSpec::new("writer").input(gate.id()).output(d.id()),
            Constraints::new(),
            |ctx| ctx.set_output(0, 99u64),
        )
        .unwrap();
        rt.set_initial(&d, 7u64);
        open.send(()).unwrap();
        assert_eq!(*rt.get(&seen).unwrap(), 7);
        assert_eq!(*rt.get(&d).unwrap(), 99);
        rt.wait_all().unwrap();
        // gate, seen and d@v1; d@v0 went with its only reader.
        assert_eq!(rt.live_value_count(), 3);
    }

    #[test]
    fn set_initial_twice_keeps_the_last_value() {
        let drops = Arc::new(AtomicUsize::new(0));
        let rt = rt(1);
        let d = rt.data::<Counted>("d");
        let out = rt.data::<u64>("out");
        rt.set_initial(&d, Counted(1, Arc::clone(&drops)));
        rt.set_initial(&d, Counted(2, Arc::clone(&drops)));
        assert_eq!(drops.load(Ordering::SeqCst), 1, "first value replaced");
        assert_eq!(rt.live_value_count(), 1, "one cell, counted once");
        rt.submit(
            TaskSpec::new("read").input(d.id()).output(out.id()),
            Constraints::new(),
            |ctx| {
                let v = ctx.input::<Counted>(0).0;
                ctx.set_output(0, v);
            },
        )
        .unwrap();
        assert_eq!(*rt.get(&out).unwrap(), 2);
        drop(rt);
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn version_superseded_unread_before_production_dies_at_commit() {
        let drops = Arc::new(AtomicUsize::new(0));
        let rt = rt(2);
        let (gate, open) = gate(&rt);
        let d = rt.data::<Counted>("d");
        for version in 1..=2u64 {
            let drops = Arc::clone(&drops);
            rt.submit(
                TaskSpec::new("write").input(gate.id()).output(d.id()),
                Constraints::new(),
                move |ctx| ctx.set_output(0, Counted(version, drops)),
            )
            .unwrap();
        }
        open.send(()).unwrap();
        rt.wait_all().unwrap();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "d@v1 was dead on arrival");
        assert_eq!(rt.live_value_count(), 2, "gate and d@v2");
        assert_eq!(rt.get(&d).unwrap().0, 2);
    }

    #[test]
    fn an_empty_cell_is_not_a_provided_value() {
        // What the strict read-without-producer lint asks: a reader
        // that came first leaves an empty cell, which must not pass
        // for an initial value.
        let rt = rt(1);
        let d = rt.data::<u64>("d");
        let out = rt.data::<u64>("out");
        let cell_is_set = || {
            let g = rt.shared.graph.lock();
            g.cells
                .current(d.id())
                .map(|current| current.cell().is_set())
        };
        assert_eq!(cell_is_set(), None);
        rt.submit(
            TaskSpec::new("reader").input(d.id()).output(out.id()),
            Constraints::new(),
            |ctx| ctx.set_output(0, 0u64),
        )
        .unwrap();
        rt.wait_all().unwrap();
        assert_eq!(cell_is_set(), Some(false));
        rt.set_initial(&d, 1u64);
        assert_eq!(cell_is_set(), Some(true));
    }

    #[test]
    fn finished_tasks_let_go_of_their_records() {
        // After a chain ran the graph holds no record, and the newest
        // one — kept by the column — references none before it: nothing
        // is retained per step and nothing can drop recursively.
        let rt = rt(2);
        let acc = rt.data::<u64>("acc");
        rt.set_initial(&acc, 0u64);
        for _ in 0..100 {
            rt.submit(
                TaskSpec::new("inc").inout(acc.id()),
                Constraints::new(),
                |ctx| {
                    let v = *ctx.input::<u64>(0);
                    ctx.set_output(0, v + 1);
                },
            )
            .unwrap();
        }
        rt.wait_all().unwrap();
        let g = rt.shared.graph.lock();
        assert!(g.metas.iter().all(Option::is_none));
        let Some(CellRef::Output { producer, .. }) = g.cells.current(acc.id()) else {
            panic!("the chain's last task produced the current version");
        };
        assert!(
            matches!(producer.claim.lock().inputs, Slots::None),
            "the newest record holds no predecessor"
        );
    }
}
