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
mod context;
mod dispatch;
mod record;
#[cfg(test)]
mod tests;

pub use context::{
    DataHandle, StreamHandle, StreamReader, StreamRecv, StreamSend, StreamWriter, TaskContext,
};

use crate::error::{lint_verdict, RuntimeError};
use crate::lockorder::{self, RANK_GRAPH};
use crate::reactor::{Reactor, ReactorInner};
use crate::sleeper::CountedSleeper;
use crate::stream::StreamChannel;
use crate::task_cell::TaskCell;
use crate::value_cell::{Slots, Value, ValueCell};
use admission::{Demand, ResourcePool};
use continuum_analyze::{read_without_producer, LintMode};
use continuum_dag::{
    AccessProcessor, DagError, DataId, GraphRun, Label, TaskId, TaskSpec, TaskState,
};
use continuum_platform::sync;
use continuum_platform::{Constraints, NodeCapacity};
use continuum_telemetry::{CounterKey, Event as TelemetryEvent, RecorderHandle, TaskPhase, Track};
use crossbeam::deque::{Injector, Stealer, Worker as WorkerQueue};
use dispatch::{worker_loop, Scratch, WorkerCounts};
use parking_lot::{Condvar, Mutex};
use record::{
    AsyncBody, CellColumn, CellRef, Claim, Named, StreamPorts, TaskBody, TaskMeta, TaskPayload,
};
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

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
                clients: client::Clients::new(),
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
                let (shared, scratch) = (Arc::clone(&shared), Scratch::new());
                // A worker runs task bodies all its life: it never helps.
                thread::spawn(move || {
                    client::running_tasks(|| worker_loop(&shared, &queue, i as u32, scratch))
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
        if cell.publish(Value::new(value)) {
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
        let warnings;
        let id;
        let superseded;
        {
            let _order = lockorder::acquire(RANK_GRAPH, "graph");
            let mut g = self.shared.graph.lock();
            // Reads of data with neither a producing task nor a stored
            // initial value: the CLI's read-without-producer lint,
            // applied incrementally at the submission front.
            warnings = lint_verdict(self.shared.strict_lints, || {
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
                findings
            })?;
            id = g.register(spec)?;
            let streams = (!stream_ids.is_empty()).then(|| {
                let channels: Box<[Arc<StreamChannel>]> =
                    stream_ids.iter().map(|d| g.stream_channel(*d)).collect();
                // Count this producer as an open writer until its body
                // finishes — readers see end-of-stream only after every
                // registered producer is done.
                for chan in &channels[..writers] {
                    chan.register_writer();
                }
                Box::new(StreamPorts {
                    channels,
                    writers: writers as u32,
                    released: AtomicBool::new(false),
                })
            });
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
        warnings.iter().for_each(|d| eprintln!("{d}"));
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
