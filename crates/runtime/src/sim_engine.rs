//! The simulated execution engine: runs cost-modelled workloads on
//! simulated platforms under a pluggable scheduler, with data
//! transfers, locality, persistence, failures, lineage recovery and
//! elasticity.

use crate::data::{DataRegistry, Settle};
use crate::error::RuntimeError;
use crate::profile::TaskProfile;
use crate::scheduler::{PlacementView, Scheduler};
use crate::workload::SimWorkload;
use continuum_analyze::{has_errors, LintMode};
use continuum_dag::{
    DagError, DataId, ExpandSink, GraphAnalysis, GraphRun, GraphSource, InlineVec, Label, SegVec,
    TaskId, TaskSpec, TaskState, VersionedData,
};
use continuum_platform::{Constraints, ElasticityPolicy, NodeId, Platform, ZoneId};
use continuum_sim::{
    EventQueue, ExecutionTrace, FaultKind, FaultPlan, NodeState, RunReport, TraceRecord,
    TransferLedger, TransferRecord, VirtualTime,
};
use continuum_telemetry::{
    micros_from_seconds, CounterKey, Event as TelemetryEvent, RecorderHandle, TaskPhase, Track,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Deref;

/// Nominal capacity of a simulated stream channel. Virtual time is
/// driven by the cost model, not by backpressure, so capacity is
/// *recorded* rather than enforced: the time a channel spends above
/// this bound is accumulated as blocked-send micros instead of
/// delaying the producer (see [`SimChannel`]).
const SIM_STREAM_CAPACITY: u64 = 16;

/// What the engine does when a node failure destroys the only copy of
/// a datum that is still needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataLossMode {
    /// Re-execute the producing tasks (lineage replay). Matches the
    /// paper's agent recovery when outputs were persisted or can be
    /// recomputed.
    Replay,
    /// Restart the whole workflow from scratch (the baseline without
    /// any recovery support).
    Restart,
    /// Abort with [`RuntimeError::Stuck`].
    Fail,
}

/// Elasticity configuration for one zone.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// The elastic zone.
    pub zone: ZoneId,
    /// Grow/shrink policy.
    pub policy: ElasticityPolicy,
    /// Seconds between policy evaluations.
    pub period_s: f64,
    /// Seconds between a grow decision and the node becoming usable.
    pub provision_delay_s: f64,
}

/// Options of a simulated run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// If set, every task output is asynchronously persisted to the
    /// storage service homed on this node; persisted data survive node
    /// failures and can be fetched from storage.
    pub persistence: Option<NodeId>,
    /// Execute the DAG level-by-level with a barrier between levels
    /// (emulates synchronous stage-based engines). Default: dataflow.
    pub barrier_levels: bool,
    /// Reaction to lost, still-needed data.
    pub data_loss: DataLossMode,
    /// Suspend idle nodes (no idle power draw).
    pub power_off_idle: bool,
    /// Optional elastic pool management.
    pub elastic: Option<ElasticConfig>,
    /// Safety limit on virtual time.
    pub max_virtual_seconds: f64,
    /// Telemetry sink for task-lifecycle events, stamped with virtual
    /// microseconds. Defaults to the no-op recorder.
    pub telemetry: RecorderHandle,
    /// Ahead-of-run verification of the workload against the platform
    /// (see `continuum_analyze`). `Warn` prints every finding to
    /// stderr; `Reject` additionally fails the run with
    /// [`RuntimeError::LintRejected`] when any error-severity finding
    /// exists. Default: `Off`.
    pub strict_lints: LintMode,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            persistence: None,
            barrier_levels: false,
            data_loss: DataLossMode::Replay,
            power_off_idle: false,
            elastic: None,
            max_virtual_seconds: 1e9,
            telemetry: RecorderHandle::noop(),
            strict_lints: LintMode::Off,
        }
    }
}

/// The simulated workflow engine.
///
/// # Example
///
/// ```
/// use continuum_runtime::{SimRuntime, SimWorkload, SimOptions, TaskProfile, FifoScheduler};
/// use continuum_dag::TaskSpec;
/// use continuum_platform::{PlatformBuilder, NodeSpec};
/// use continuum_sim::FaultPlan;
///
/// let mut w = SimWorkload::new();
/// let d = w.data("d");
/// w.task(TaskSpec::new("t").output(d), TaskProfile::new(10.0))?;
///
/// let platform = PlatformBuilder::new()
///     .cluster("c", 2, NodeSpec::hpc(4, 8_000))
///     .build();
/// let runtime = SimRuntime::new(platform, SimOptions::default());
/// let report = runtime.run(&w, &mut FifoScheduler::new(), &FaultPlan::new()).unwrap();
/// assert_eq!(report.tasks_completed, 1);
/// assert!((report.makespan_s - 10.0).abs() < 1e-9);
/// # Ok::<(), continuum_dag::DagError>(())
/// ```
#[derive(Debug)]
pub struct SimRuntime {
    platform: Platform,
    options: SimOptions,
}

/// Host nodes of one execution: one, or a few for rigid tasks.
type Hosts = InlineVec<NodeId, 2>;

/// Everything the engine keeps per task, indexed by task id in a
/// [`SegVec`] whose segments are evacuated and dropped together with the
/// graph's (see `Engine::retire_task`).
#[derive(Debug, Clone, Default)]
struct TaskSlot {
    /// Cached `inputs_ready` verdict (dirty tracking). A cell is valid
    /// while `all_epoch` matches; a *false* verdict additionally
    /// requires `add_epoch` to match, because data arrivals
    /// (completions, node joins/recoveries) can flip it true, while
    /// only removals (failures, restarts) can flip true to false.
    verdict: VerdictCell,
    /// Epoch of the in-flight execution, 0 while the task is not
    /// running (epochs start at 1). Stale `TaskDone`/`StreamSend`
    /// events carry another epoch and are ignored.
    flight_epoch: u64,
    /// Start and transfer-stall seconds of the in-flight execution.
    start_s: f64,
    stall_s: f64,
    /// Nodes hosting the in-flight execution.
    hosts: Hosts,
    /// Values this task produced that are not retired yet (lazy runs);
    /// reaching zero retires the task.
    outstanding: u32,
    /// DAG level (barrier mode only).
    level: u32,
    /// The task started at least once (a later start that is not a
    /// replay is a re-execution).
    started_once: bool,
    /// A completed task being re-run to regenerate lost data.
    replaying: bool,
}

#[derive(Debug)]
enum Event {
    TaskDone {
        task: TaskId,
        epoch: u64,
    },
    Fault {
        node: NodeId,
        kind: FaultKind,
    },
    ElasticTick,
    NodeJoin {
        node: NodeId,
    },
    /// One stream element leaves a producer. Guarded by the producer's
    /// in-flight epoch so events of a lost/restarted attempt are inert.
    StreamSend {
        task: TaskId,
        data: DataId,
        epoch: u64,
    },
    /// One stream element is absorbed by a running consumer. Guarded
    /// by the restart generation (`Engine::restarts`).
    StreamRecv {
        data: DataId,
        generation: usize,
    },
}

/// Virtual-time bookkeeping of one stream datum: sends and receives
/// are discrete events on the sim clock, occupancy is the element
/// backlog between them. Unlike the local runtime's
/// [`StreamChannel`](crate::stream), capacity never *blocks* anything
/// — virtual durations come from the cost model — so backpressure is
/// recorded instead: time spent above [`SIM_STREAM_CAPACITY`] counts
/// as blocked-send micros, and a running consumer's wait for the next
/// element counts as blocked-recv micros.
#[derive(Debug)]
struct SimChannel {
    /// Producer tasks registered at workload build time.
    writers_total: usize,
    /// Producers not yet completed (close protocol: the channel is
    /// exhausted when this reaches zero).
    open_writers: usize,
    /// Consumers currently executing (they absorb sends immediately;
    /// elements queue only while no consumer is admitted).
    consumers_running: usize,
    /// Elements sent but not yet received.
    occupancy: u64,
    /// Highest occupancy ever observed.
    high_water: u64,
    /// Elements sent over the run.
    elements: u64,
    /// Approximate payload bytes sent over the run.
    bytes: u64,
    /// Virtual µs the backlog sat above the nominal capacity.
    blocked_send_us: u64,
    /// Virtual µs a running consumer waited for the next element.
    blocked_recv_us: u64,
    /// When the backlog went above capacity (recorded, not enforced).
    over_capacity_since: Option<VirtualTime>,
    /// When a running consumer started waiting on an empty channel.
    waiting_since: Option<VirtualTime>,
}

impl SimChannel {
    fn new() -> Self {
        SimChannel {
            writers_total: 0,
            open_writers: 0,
            consumers_running: 0,
            occupancy: 0,
            high_water: 0,
            elements: 0,
            bytes: 0,
            blocked_send_us: 0,
            blocked_recv_us: 0,
            over_capacity_since: None,
            waiting_since: None,
        }
    }

    /// Rewinds the live state for a from-scratch restart; cumulative
    /// counters keep what already happened (those sends were real).
    fn reset_live_state(&mut self) {
        self.open_writers = self.writers_total;
        self.consumers_running = 0;
        self.occupancy = 0;
        self.over_capacity_since = None;
        self.waiting_since = None;
    }
}

/// Cached `inputs_ready` verdict for one task, validated against the
/// engine's invalidation epochs (see the fields on [`Engine`]).
#[derive(Debug, Clone, Copy, Default)]
struct VerdictCell {
    all_epoch: u64,
    add_epoch: u64,
    ready: bool,
}

/// The engine's view of its workload: borrowed for eager runs (the
/// caller keeps the workload and can re-run it under different
/// configurations), owned for lazy runs (the engine grows it through
/// the expansion sink as the [`GraphSource`] materializes subgraphs).
enum WorkloadRef<'w> {
    Borrowed(&'w SimWorkload),
    Owned(Box<SimWorkload>),
}

impl Deref for WorkloadRef<'_> {
    type Target = SimWorkload;

    fn deref(&self) -> &SimWorkload {
        match self {
            WorkloadRef::Borrowed(w) => w,
            WorkloadRef::Owned(w) => w,
        }
    }
}

impl WorkloadRef<'_> {
    fn owned_mut(&mut self) -> Option<&mut SimWorkload> {
        match self {
            WorkloadRef::Owned(w) => Some(w),
            WorkloadRef::Borrowed(_) => None,
        }
    }
}

/// Lazy-materialization state (`None` for eager runs). Value liveness
/// lives in the registry's records and the closed flags beside the
/// workload's catalog; what is left here is the source and the two
/// buffers each expansion reports through.
struct LazyState<'s> {
    source: &'s mut dyn GraphSource<TaskProfile>,
    /// Initial data registered by the current expansion.
    new_initial: Vec<(DataId, u64)>,
    /// Data closed by the current expansion.
    closed: Vec<DataId>,
}

/// Expansion surface handed to a [`GraphSource`]: registers data and
/// tasks directly into the engine's owned workload, recording what was
/// added so the engine can grow its run state afterwards.
struct LazySink<'a> {
    w: &'a mut SimWorkload,
    new_initial: &'a mut Vec<(DataId, u64)>,
    closed: &'a mut Vec<DataId>,
}

impl ExpandSink<TaskProfile> for LazySink<'_> {
    fn data(&mut self, name: &str) -> DataId {
        self.w.data(name)
    }

    fn initial_data(&mut self, name: &str, bytes: u64) -> DataId {
        self.initial_data_fmt(format_args!("{name}"), bytes)
    }

    fn data_fmt(&mut self, name: fmt::Arguments<'_>) -> DataId {
        self.w.data_fmt(name)
    }

    fn initial_data_fmt(&mut self, name: fmt::Arguments<'_>, bytes: u64) -> DataId {
        let id = self.w.initial_data_fmt(name, bytes, None);
        self.new_initial.push((id, bytes));
        id
    }

    fn submit(&mut self, spec: TaskSpec, payload: TaskProfile) -> Result<TaskId, DagError> {
        self.w.task(spec, payload)
    }

    fn close_data(&mut self, data: DataId) {
        self.closed.push(data);
    }
}

/// What [`SimRuntime::run_lazy`] returns beyond the usual report: the
/// execution trace plus the scale counters that quantify how well lazy
/// materialization bounded the resident frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct LazyRunOutcome {
    /// The usual run metrics.
    pub report: RunReport,
    /// Per-task placement and timing (byte-identical across runs of
    /// the same source and options).
    pub trace: ExecutionTrace,
    /// Highest number of materialized (non-retired) tasks resident at
    /// once — the frontier high-water mark.
    pub peak_materialized_tasks: usize,
    /// Total tasks the source emitted over the run.
    pub total_tasks: usize,
    /// Tasks whose graph payload was retired (tombstoned).
    pub retired_tasks: usize,
    /// Highest number of live values tracked by the registry at once.
    pub peak_live_values: usize,
    /// Values retired from the registry over the run.
    pub retired_values: u64,
    /// Highest event-queue occupancy observed.
    pub peak_event_queue: usize,
    /// Discrete events processed over the run.
    pub events_processed: u64,
    /// Highest number of task segments (see [`continuum_dag::SegVec`])
    /// holding their 1 024-slot block at once: what bounds the memory
    /// of the per-task columns, and what must depend neither on the
    /// campaign's length nor on how many long-lived tasks it strews
    /// among short-lived ones. A segment evacuated down to its last
    /// few live tasks no longer counts; those tasks are
    /// `peak_evacuated_slots`.
    pub peak_resident_segments: usize,
    /// Highest number of live tasks held outside any segment block at
    /// once, each having outlived all but a few of the 1 024 tasks
    /// materialized around it.
    pub peak_evacuated_slots: usize,
}

struct Engine<'w, 's> {
    workload: WorkloadRef<'w>,
    scheduler: &'s mut dyn Scheduler,
    options: SimOptions,
    platform: Platform,
    /// Mutable lifecycle state over the workload's immutable graph
    /// (avoids cloning the whole structure per run).
    run: GraphRun,
    nodes: Vec<NodeState>,
    registry: DataRegistry,
    ledger: TransferLedger,
    queue: EventQueue<Event>,
    /// Per-task engine state, indexed by task id.
    slots: SegVec<TaskSlot>,
    epoch: u64,
    reexecutions: usize,
    current_level: usize,
    level_remaining: Vec<usize>,
    last_completion: VirtualTime,
    restarts: usize,
    trace: ExecutionTrace,
    /// Per inter-zone link pair (canonical `a <= b`, flattened as
    /// `a * num_zones + b`): when the (shared, serialising) uplink
    /// becomes free. Intra-zone fabrics are switched and do not
    /// contend; asynchronous persistence writes are not counted.
    num_zones: usize,
    link_busy: Vec<VirtualTime>,
    /// Worst busy-until of any link touching each zone, maintained as
    /// a running max (per-pair finish times are monotone, so the
    /// running max equals a scan over current pair values) — the O(1)
    /// backing of `PlacementView::pending_uplink_seconds_to`.
    zone_uplink_busy: Vec<VirtualTime>,
    /// Bumped when data may have been *removed* (node failure,
    /// restart): every cached verdict becomes stale.
    inval_all_epoch: u64,
    /// Bumped when data may have *arrived* or placement capacity
    /// appeared (task completion incl. replays, node join/recovery):
    /// cached *false* verdicts become stale.
    inval_add_epoch: u64,
    /// Rounds that placed nothing only because of in-flight replays.
    replay_stall_rounds: u64,
    /// Scratch buffers reused across scheduling rounds so the hot loop
    /// allocates nothing after warm-up.
    ready_scratch: Vec<TaskId>,
    single_scratch: Vec<TaskId>,
    multi_scratch: Vec<TaskId>,
    consumed_scratch: Vec<VersionedData>,
    produced_scratch: Vec<VersionedData>,
    transfer_scratch: Vec<VersionedData>,
    placement_scratch: Vec<(TaskId, NodeId)>,
    /// Stream channels by datum (ordered for deterministic end-of-run
    /// aggregation). Empty for workloads without stream edges, which
    /// then pay nothing on any path.
    channels: BTreeMap<DataId, SimChannel>,
    /// Node hosting the producer of each stream datum, recorded at
    /// producer start — the locality index stream edges contribute to
    /// (affinity for co-location, not data-resident bytes).
    stream_sites: HashMap<DataId, NodeId>,
    /// Lazy-materialization state; `None` for eager runs.
    lazy: Option<LazyState<'s>>,
    /// High-water mark of materialized (non-retired) tasks.
    peak_materialized: usize,
    /// High-water mark of registry-tracked live values.
    peak_live_values: usize,
    /// High-water mark of event-queue occupancy.
    queue_high_water: usize,
    /// Tasks whose graph payload was tombstoned (lazy runs only).
    retired_tasks: usize,
    /// Values dropped from the registry after draining (lazy only).
    retired_values: u64,
    /// Discrete events popped off the queue over the run.
    events_processed: u64,
    /// High-water mark of resident task segments.
    peak_resident_segments: usize,
    /// High-water mark of evacuated task slots.
    peak_evacuated_slots: usize,
}

impl SimRuntime {
    /// Creates an engine over a platform with the given options.
    pub fn new(platform: Platform, options: SimOptions) -> Self {
        SimRuntime { platform, options }
    }

    /// The platform (initial state; elastic growth operates on a
    /// per-run clone).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Executes a workload to completion under `scheduler` and the
    /// given fault plan. The workload and platform are not mutated, so
    /// the same inputs can be re-run under different configurations.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::Unschedulable`] if ready tasks can never be
    ///   placed on any node;
    /// * [`RuntimeError::Stuck`] if progress stops (e.g. data lost
    ///   with [`DataLossMode::Fail`], or the virtual-time limit hit).
    pub fn run(
        &self,
        workload: &SimWorkload,
        scheduler: &mut dyn Scheduler,
        faults: &FaultPlan,
    ) -> Result<RunReport, RuntimeError> {
        self.run_traced(workload, scheduler, faults).map(|(r, _)| r)
    }

    /// Like [`SimRuntime::run`], additionally returning the full
    /// execution trace (per-task placement and timing; the Paraver
    /// trace of COMPSs).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`SimRuntime::run`].
    pub fn run_traced(
        &self,
        workload: &SimWorkload,
        scheduler: &mut dyn Scheduler,
        faults: &FaultPlan,
    ) -> Result<(RunReport, ExecutionTrace), RuntimeError> {
        if self.options.strict_lints != LintMode::Off {
            let report = workload.lint_bundle(&self.platform).verify();
            for d in &report {
                eprintln!("{d}");
            }
            if self.options.strict_lints == LintMode::Reject && has_errors(&report) {
                return Err(RuntimeError::LintRejected {
                    diagnostics: report,
                });
            }
        }
        let mut engine = Engine::new(
            WorkloadRef::Borrowed(workload),
            None,
            scheduler,
            self.options.clone(),
            self.platform.clone(),
        );
        engine.prime(faults);
        let report = engine.drive()?;
        Ok((report, engine.trace))
    }

    /// Runs a lazily-materialized workload to completion: `source`
    /// primes an initial frontier, every completion may expand further
    /// subgraphs, and fully-consumed subgraphs retire as the run
    /// advances — so resident state tracks the execution frontier, not
    /// the total task count. The schedule is identical to running the
    /// fully-materialized equivalent workload eagerly whenever the
    /// source keeps every not-yet-runnable task's predecessors ahead
    /// of it (sources expanding ahead of the ready frontier).
    ///
    /// Barrier-level execution and [`DataLossMode::Restart`] are not
    /// supported in lazy mode: both assume the full graph up front.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`SimRuntime::run`], plus
    /// [`RuntimeError::Stuck`] for the unsupported options above.
    pub fn run_lazy(
        &self,
        source: &mut dyn GraphSource<TaskProfile>,
        scheduler: &mut dyn Scheduler,
        faults: &FaultPlan,
    ) -> Result<LazyRunOutcome, RuntimeError> {
        if self.options.barrier_levels {
            return Err(RuntimeError::Stuck {
                completed: 0,
                remaining: 0,
                reason: "barrier_levels is not supported with lazy materialization".into(),
            });
        }
        if self.options.data_loss == DataLossMode::Restart {
            return Err(RuntimeError::Stuck {
                completed: 0,
                remaining: 0,
                reason: "DataLossMode::Restart is not supported with lazy materialization".into(),
            });
        }
        let total_tasks = source.total_tasks();
        let mut engine = Engine::new(
            WorkloadRef::Owned(Box::new(SimWorkload::new())),
            Some(source),
            scheduler,
            self.options.clone(),
            self.platform.clone(),
        );
        if let Some(tasks) = total_tasks {
            // One record per task unless something is replayed.
            engine.trace.reserve_hint(tasks);
        }
        engine.prime(faults);
        engine.expand(None, VirtualTime::ZERO)?;
        let report = engine.drive()?;
        Ok(LazyRunOutcome {
            report,
            peak_materialized_tasks: engine.peak_materialized,
            total_tasks: engine.workload.graph().len(),
            retired_tasks: engine.retired_tasks,
            peak_live_values: engine.peak_live_values,
            retired_values: engine.retired_values,
            peak_event_queue: engine.queue_high_water,
            events_processed: engine.events_processed,
            peak_resident_segments: engine.peak_resident_segments,
            peak_evacuated_slots: engine.peak_evacuated_slots,
            trace: engine.trace,
        })
    }
}

impl<'w, 's> Engine<'w, 's> {
    fn new(
        workload: WorkloadRef<'w>,
        source: Option<&'s mut dyn GraphSource<TaskProfile>>,
        scheduler: &'s mut dyn Scheduler,
        options: SimOptions,
        platform: Platform,
    ) -> Self {
        let graph = workload.graph();
        let mut nodes: Vec<NodeState> = platform.nodes().iter().map(NodeState::new).collect();
        for n in &mut nodes {
            n.set_idle_accounting(!options.power_off_idle);
        }
        let num_zones = platform.zones().len();
        let num_tasks = graph.len();
        let run = GraphRun::new(graph);
        let mut channels: BTreeMap<DataId, SimChannel> = BTreeMap::new();
        for node in graph.nodes() {
            Self::open_channels(&mut channels, node.spec());
        }
        let lazy = source.map(|s| LazyState {
            source: s,
            new_initial: Vec::new(),
            closed: Vec::new(),
        });
        let mut engine = Engine {
            workload,
            scheduler,
            options,
            platform,
            run,
            nodes,
            registry: DataRegistry::new(),
            ledger: TransferLedger::new(),
            queue: EventQueue::new(),
            slots: (0..num_tasks).map(|_| TaskSlot::default()).collect(),
            epoch: 0,
            reexecutions: 0,
            current_level: 0,
            level_remaining: Vec::new(),
            last_completion: VirtualTime::ZERO,
            restarts: 0,
            trace: ExecutionTrace::new(),
            num_zones,
            link_busy: vec![VirtualTime::ZERO; num_zones * num_zones],
            zone_uplink_busy: vec![VirtualTime::ZERO; num_zones],
            inval_all_epoch: 1,
            inval_add_epoch: 1,
            replay_stall_rounds: 0,
            ready_scratch: Vec::new(),
            single_scratch: Vec::new(),
            multi_scratch: Vec::new(),
            consumed_scratch: Vec::new(),
            produced_scratch: Vec::new(),
            transfer_scratch: Vec::new(),
            placement_scratch: Vec::new(),
            channels,
            stream_sites: HashMap::new(),
            lazy,
            peak_materialized: num_tasks,
            peak_live_values: 0,
            queue_high_water: 0,
            retired_tasks: 0,
            retired_values: 0,
            events_processed: 0,
            peak_resident_segments: 0,
            peak_evacuated_slots: 0,
        };
        engine.index_producers();
        engine.plan_levels();
        engine.peak_resident_segments = engine.workload.graph().resident_segments();
        engine
    }

    /// Registers the stream channels `spec` touches.
    fn open_channels(channels: &mut BTreeMap<DataId, SimChannel>, spec: &TaskSpec) {
        for d in spec.stream_writes() {
            let ch = channels.entry(d).or_insert_with(SimChannel::new);
            ch.writers_total += 1;
            ch.open_writers += 1;
        }
        for d in spec.stream_reads() {
            channels.entry(d).or_insert_with(SimChannel::new);
        }
    }

    /// Records the producer of every value of the (eager) graph in the
    /// registry, where lineage replay looks it up.
    fn index_producers(&mut self) {
        for node in self.workload.graph().nodes() {
            for vd in node.produced() {
                self.registry.set_producer(vd, node.id());
            }
        }
    }

    /// Barrier mode: the level of every task and how many tasks each
    /// level still has to complete.
    fn plan_levels(&mut self) {
        if !self.options.barrier_levels {
            return;
        }
        let levels = GraphAnalysis::new(self.workload.graph()).levels();
        let depth = levels.iter().map(|l| l + 1).max().unwrap_or(0);
        self.level_remaining = vec![0; depth];
        for (task, level) in levels.into_iter().enumerate() {
            self.level_remaining[level] += 1;
            self.slots[task].level = level as u32;
        }
        self.current_level = 0;
    }

    fn prime(&mut self, faults: &FaultPlan) {
        self.seed_initial_data();
        for f in faults.events() {
            self.queue.push(
                f.time,
                Event::Fault {
                    node: f.node,
                    kind: f.kind,
                },
            );
        }
        if let Some(cfg) = &self.options.elastic {
            self.queue
                .push(VirtualTime::from_seconds(cfg.period_s), Event::ElasticTick);
        }
    }

    fn seed_initial_data(&mut self) {
        for (data, bytes, home) in self.workload.initial_data_entries() {
            self.registry
                .record_initial(VersionedData::initial(data), home, bytes);
        }
    }

    /// The task's spec name, for telemetry labels.
    fn task_name(&self, task: TaskId) -> Label {
        self.workload.graph().node(task).map_or_else(
            |_| task.to_string().into(),
            |n| n.spec().name_label().clone(),
        )
    }

    fn drive(&mut self) -> Result<RunReport, RuntimeError> {
        // Lazy runs emit Submitted instants as subgraphs materialize
        // (see `expand`); eager runs emit them all up front.
        if self.options.telemetry.enabled() && self.lazy.is_none() {
            for node in self.workload.graph().nodes() {
                self.options.telemetry.record(TelemetryEvent::Instant {
                    track: Track::Run,
                    name: node.spec().name_label().clone(),
                    phase: TaskPhase::Submitted,
                    at_us: 0,
                });
            }
        }
        self.schedule_round(VirtualTime::ZERO)?;
        while !self.run.all_completed() {
            self.queue_high_water = self.queue_high_water.max(self.queue.len());
            self.peak_live_values = self.peak_live_values.max(self.registry.len());
            let Some((now, event)) = self.queue.pop() else {
                return self.stall_error("event queue drained");
            };
            self.events_processed += 1;
            if now.as_seconds() > self.options.max_virtual_seconds {
                return self.stall_error("virtual time limit exceeded");
            }
            match event {
                Event::TaskDone { task, epoch } => self.on_task_done(task, epoch, now)?,
                Event::Fault { node, kind } => self.on_fault(node, kind, now)?,
                Event::ElasticTick => self.on_elastic_tick(now)?,
                Event::NodeJoin { node } => {
                    self.nodes[node.index()].recover(now);
                    // New capacity: cached "not ready" verdicts may
                    // now be able to place their pending replays.
                    self.inval_add_epoch += 1;
                    self.schedule_round(now)?;
                }
                Event::StreamSend { task, data, epoch } => {
                    self.on_stream_send(task, data, epoch, now)?
                }
                Event::StreamRecv { data, generation } => {
                    self.on_stream_recv(data, generation, now)
                }
            }
        }
        let makespan = self.last_completion;
        // Close any still-open bookkeeping windows at the makespan.
        for ch in self.channels.values_mut() {
            if let Some(since) = ch.over_capacity_since.take() {
                ch.blocked_send_us += micros_from_seconds(makespan.since(since));
            }
            if let Some(since) = ch.waiting_since.take() {
                ch.blocked_recv_us += micros_from_seconds(makespan.since(since));
            }
        }
        for n in &mut self.nodes {
            if n.is_alive() {
                n.advance(makespan);
            }
        }
        if self.options.telemetry.enabled() {
            let end_us = micros_from_seconds(makespan.as_seconds());
            self.options.telemetry.record(TelemetryEvent::Span {
                track: Track::Run,
                name: "sim-run".into(),
                phase: TaskPhase::Executing,
                start_us: 0,
                dur_us: end_us,
                ctx: None,
            });
            self.options.telemetry.run_end_counters(
                end_us,
                self.ledger.total_bytes(),
                micros_from_seconds(self.trace.total_transfer_stall_s()),
                self.reexecutions as u64,
            );
            for (key, value) in [
                (
                    CounterKey::MaterializedTasksHighWater,
                    self.peak_materialized as f64,
                ),
                (
                    CounterKey::LiveValuesHighWater,
                    self.peak_live_values as f64,
                ),
                (
                    CounterKey::EventQueueHighWater,
                    self.queue_high_water as f64,
                ),
            ] {
                self.options.telemetry.record(TelemetryEvent::Counter {
                    key,
                    at_us: end_us,
                    value,
                });
            }
            // Stream counters only exist for workloads with stream
            // edges; their absence means "no streams", mirroring the
            // local engine.
            if !self.channels.is_empty() {
                let high_water = self
                    .channels
                    .values()
                    .map(|c| c.high_water)
                    .max()
                    .unwrap_or(0);
                let send_us: u64 = self.channels.values().map(|c| c.blocked_send_us).sum();
                let recv_us: u64 = self.channels.values().map(|c| c.blocked_recv_us).sum();
                let elements: u64 = self.channels.values().map(|c| c.elements).sum();
                let bytes: u64 = self.channels.values().map(|c| c.bytes).sum();
                self.options
                    .telemetry
                    .run_end_stream_counters(end_us, high_water, send_us, recv_us, elements, bytes);
            }
        }
        Ok(RunReport::from_parts(
            makespan.as_seconds(),
            self.run.completed_count(),
            self.reexecutions,
            self.trace.total_transfer_stall_s(),
            &self.nodes,
            &self.ledger,
        ))
    }

    fn stall_error(&self, reason: &str) -> Result<RunReport, RuntimeError> {
        // Distinguish "nothing can ever be placed" from generic stalls.
        let completed = self.run.completed_count();
        let remaining = self.workload.graph().len() - completed;
        if let Some(task) = self.run.ready_tasks().first() {
            let req = self.workload.profile(task).constraints_ref();
            let feasible = self
                .platform
                .nodes()
                .iter()
                .any(|n| n.capacity().satisfies(req));
            if !feasible {
                return Err(RuntimeError::Unschedulable {
                    task,
                    reason: "no node in the platform satisfies its constraints".into(),
                });
            }
        }
        Err(RuntimeError::Stuck {
            completed,
            remaining,
            reason: reason.to_string(),
        })
    }

    // ---- task lifecycle --------------------------------------------------

    fn on_task_done(
        &mut self,
        task: TaskId,
        epoch: u64,
        now: VirtualTime,
    ) -> Result<(), RuntimeError> {
        // Stale unless this very attempt is still in flight: the task
        // was lost to a failure or a restart (epoch 0), a newer
        // attempt owns the slot, or the task is long retired.
        let Some(slot) = self.slots.get_mut(task.index()) else {
            return Ok(());
        };
        if slot.flight_epoch != epoch {
            return Ok(());
        }
        slot.flight_epoch = 0;
        let (start_s, stall_s, was_replay) = (slot.start_s, slot.stall_s, slot.replaying);
        let hosts = std::mem::take(&mut slot.hosts);
        let head = hosts[0];
        self.release_hosts(task, &hosts, now);
        self.record_outputs(task, head, now);
        // Data arrived and capacity freed: cached "not ready" verdicts
        // (consumers of these outputs, replays waiting for a slot) are
        // stale. Applies to replay completions too.
        self.inval_add_epoch += 1;
        if !was_replay && !self.channels.is_empty() {
            self.finish_stream_endpoints(task, now);
        }
        let record = TraceRecord {
            task,
            node: head,
            start_s,
            end_s: now.as_seconds(),
            transfer_stall_s: stall_s,
            replay: was_replay,
        };
        if self.options.telemetry.enabled() {
            for event in record.to_events(&self.task_name(task), None) {
                self.options.telemetry.record(event);
            }
            self.options.telemetry.record(TelemetryEvent::Counter {
                key: CounterKey::TransferStallMicros,
                at_us: micros_from_seconds(now.as_seconds()),
                value: micros_from_seconds(self.trace.total_transfer_stall_s() + stall_s) as f64,
            });
        }
        self.trace.record(record);
        if was_replay {
            self.slots[task.index()].replaying = false;
            self.reexecutions += 1;
        } else {
            self.run.complete(self.workload.graph(), task)?;
            self.last_completion = self.last_completion.max(now);
            if self.options.barrier_levels {
                let lvl = self.slots[task.index()].level as usize;
                self.level_remaining[lvl] -= 1;
                while self.current_level < self.level_remaining.len()
                    && self.level_remaining[self.current_level] == 0
                {
                    self.current_level += 1;
                }
            }
            if self.lazy.is_some() {
                // Expand before settling so readers materialized by
                // this very completion are counted before any value
                // is considered drained.
                self.expand(Some(task), now)?;
                self.settle_retirement(task);
            }
        }
        self.schedule_round(now)
    }

    fn record_outputs(&mut self, task: TaskId, node: NodeId, now: VirtualTime) {
        let mut produced = std::mem::take(&mut self.produced_scratch);
        produced.clear();
        produced.extend(
            self.workload
                .graph()
                .node(task)
                .expect("task in graph")
                .produced(),
        );
        for (i, vd) in produced.iter().enumerate() {
            let bytes = self.workload.profile(task).output_size(i);
            self.registry.record_production(*vd, node, bytes);
            if let Some(storage) = self.options.persistence {
                self.registry.persist(*vd);
                if bytes > 0 && storage != node {
                    let secs = self.platform.transfer_seconds(bytes, node, storage);
                    self.ledger.record(TransferRecord {
                        from: node,
                        to: storage,
                        bytes,
                        seconds: secs,
                        start: now,
                    });
                }
            }
        }
        self.produced_scratch = produced;
    }

    // ---- lazy materialization --------------------------------------------

    /// Asks the lazy source to expand (prime when `completed` is
    /// `None`, react to a completion otherwise), integrates what it
    /// emitted into the run state, and applies its close notices. A
    /// no-op for eager runs.
    fn expand(&mut self, completed: Option<TaskId>, now: VirtualTime) -> Result<(), RuntimeError> {
        let Some(lazy) = self.lazy.as_mut() else {
            return Ok(());
        };
        let w = self
            .workload
            .owned_mut()
            .expect("lazy runs own their workload");
        let tasks_before = w.graph().len();
        let mut new_initial = std::mem::take(&mut lazy.new_initial);
        let mut closed_now = std::mem::take(&mut lazy.closed);
        let mut sink = LazySink {
            w,
            new_initial: &mut new_initial,
            closed: &mut closed_now,
        };
        match completed {
            Some(task) => lazy.source.on_task_complete(task, &mut sink)?,
            None => lazy.source.prime(&mut sink)?,
        }
        // Externally-provided data from this expansion: available
        // immediately, liveness-tracked like any produced value.
        for (data, bytes) in new_initial.drain(..) {
            let vd = VersionedData::initial(data);
            self.registry.record_initial(vd, None, bytes);
            self.registry.settle(vd, Settle::Produced, false);
        }
        // Integrate the newly emitted tasks: producer index, value
        // liveness, stream channels, telemetry, run-state growth.
        let graph_len = self.workload.graph().len();
        let at_us = micros_from_seconds(now.as_seconds());
        for idx in tasks_before..graph_len {
            let id = TaskId::from_raw(idx as u64);
            let node = self.workload.graph().node(id).expect("just integrated");
            self.slots.push(TaskSlot {
                outstanding: node.produced().len() as u32,
                ..TaskSlot::default()
            });
            for vd in node.produced() {
                self.registry.set_producer(vd, id);
            }
            for vd in node.consumed() {
                self.registry.add_reader(vd);
            }
            let spec = node.spec();
            Self::open_channels(&mut self.channels, spec);
            if self.options.telemetry.enabled() {
                self.options.telemetry.record(TelemetryEvent::Instant {
                    track: Track::Run,
                    name: spec.name_label().clone(),
                    phase: TaskPhase::Submitted,
                    at_us,
                });
            }
        }
        let w = self
            .workload
            .owned_mut()
            .expect("lazy runs own their workload");
        for &data in &closed_now {
            w.close_data(data);
        }
        self.run.grow(self.workload.graph());
        self.peak_materialized = self.peak_materialized.max(graph_len - self.retired_tasks);
        self.peak_resident_segments = self
            .peak_resident_segments
            .max(self.workload.graph().resident_segments());
        // Close notices may have made already-drained values retirable
        // (the initial and the current version cover the write-once
        // catalogs lazy sources produce).
        for data in closed_now.drain(..) {
            self.settle_value(VersionedData::initial(data), Settle::Closed);
            if let Ok(info) = self.workload.catalog().current(data) {
                self.settle_value(
                    VersionedData {
                        data,
                        version: info.version,
                    },
                    Settle::Closed,
                );
            }
        }
        let lazy = self.lazy.as_mut().expect("checked above");
        lazy.new_initial = new_initial;
        lazy.closed = closed_now;
        Ok(())
    }

    /// Settles value liveness after `task` completed in a lazy run:
    /// its inputs have one fewer pending reader, its outputs are now
    /// produced, and anything fully drained retires.
    fn settle_retirement(&mut self, task: TaskId) {
        let mut produced = std::mem::take(&mut self.produced_scratch);
        let mut consumed = std::mem::take(&mut self.consumed_scratch);
        produced.clear();
        consumed.clear();
        {
            let node = self.workload.graph().node(task).expect("task in graph");
            produced.extend(node.produced());
            consumed.extend(node.consumed());
        }
        for &vd in &consumed {
            self.settle_value(vd, Settle::ReaderDone);
        }
        for &vd in &produced {
            self.settle_value(vd, Settle::Produced);
        }
        if produced.is_empty() {
            // No outputs means no value retirement can ever cascade
            // into this task: retire it directly.
            self.retire_task(task);
        }
        self.produced_scratch = produced;
        self.consumed_scratch = consumed;
    }

    /// Applies `update` to `vd`'s liveness and retires the value if its
    /// datum is closed, the value produced, and no materialized reader
    /// still pending — dropping it from the registry, and retiring the
    /// producing task once none of its outputs remain live. A no-op
    /// for untracked or still-live values.
    fn settle_value(&mut self, vd: VersionedData, update: Settle) {
        let closed = self.workload.is_closed(vd.data);
        let Some(producer) = self.registry.settle(vd, update, closed) else {
            return;
        };
        self.retired_values += 1;
        if let Some(producer) = producer {
            // `produced` only flips at completion, so the producer of
            // a retired value is necessarily completed.
            let slot = &mut self.slots[producer.index()];
            slot.outstanding = slot.outstanding.saturating_sub(1);
            if slot.outstanding == 0 {
                self.retire_task(producer);
            }
        }
        // Retire the catalog entry once the datum's current version is
        // gone (earlier versions were superseded before close).
        let was_current = self
            .workload
            .catalog()
            .current(vd.data)
            .is_ok_and(|info| info.version == vd.version);
        if was_current {
            self.workload
                .owned_mut()
                .expect("lazy runs own their workload")
                .retire_data(vd.data);
        }
    }

    /// Retires a completed task none of whose outputs is live any
    /// more: frees its graph payload, and whatever that does to its
    /// task segment — evacuated, dropped — is done to every per-task
    /// column.
    fn retire_task(&mut self, task: TaskId) {
        let w = self
            .workload
            .owned_mut()
            .expect("lazy runs own their workload");
        let Ok(outcome) = w.retire_task_payload(task) else {
            return;
        };
        self.retired_tasks += 1;
        self.slots.follow(&outcome);
        self.run.follow(&outcome);
        self.peak_evacuated_slots = self
            .peak_evacuated_slots
            .max(self.workload.graph().evacuated_slots());
    }

    // ---- faults ----------------------------------------------------------

    fn on_fault(
        &mut self,
        node: NodeId,
        kind: FaultKind,
        now: VirtualTime,
    ) -> Result<(), RuntimeError> {
        if node.index() >= self.nodes.len() {
            return Ok(()); // fault for a node that never joined
        }
        match kind {
            FaultKind::Recover => {
                self.nodes[node.index()].recover(now);
                // Recovered capacity may unblock pending replays.
                self.inval_add_epoch += 1;
            }
            FaultKind::Fail => {
                // Data may have been removed: every cached verdict is
                // stale, true ones included.
                self.inval_all_epoch += 1;
                let lost_tasks = self.nodes[node.index()].fail(now);
                // Tasks running on the dead node (and their co-hosts
                // for rigid tasks) are lost.
                for task in lost_tasks {
                    let slot = &mut self.slots[task.index()];
                    let was_replay = std::mem::take(&mut slot.replaying);
                    if std::mem::take(&mut slot.flight_epoch) != 0 {
                        // Rigid tasks: free the surviving co-hosts.
                        let hosts = std::mem::take(&mut slot.hosts);
                        self.release_hosts(task, &hosts, now);
                    }
                    if !was_replay {
                        self.run.mark_failed(task)?;
                        self.run.requeue_failed(task)?;
                    }
                }
                let lost_data = self.registry.drop_node(node);
                if !lost_data.is_empty() {
                    match self.options.data_loss {
                        DataLossMode::Replay => {} // lineage replay on demand
                        DataLossMode::Restart => {
                            let needed = lost_data.iter().any(|vd| self.still_needed(*vd));
                            if needed {
                                self.restart(now)?;
                            }
                        }
                        DataLossMode::Fail => {
                            let needed = lost_data.iter().any(|vd| self.still_needed(*vd));
                            if needed {
                                return self
                                    .stall_error("data lost with recovery disabled")
                                    .map(|_| ());
                            }
                        }
                    }
                }
            }
        }
        self.schedule_round(now)
    }

    fn still_needed(&self, vd: VersionedData) -> bool {
        // A datum is needed if any non-completed task consumes it.
        self.workload.graph().nodes().any(|n| {
            self.run.state(n.id()) != Some(TaskState::Completed) && n.consumed().any(|c| c == vd)
        })
    }

    /// Restart-from-scratch recovery: every completed task is counted
    /// as a re-execution and the whole graph starts over.
    fn restart(&mut self, now: VirtualTime) -> Result<(), RuntimeError> {
        // Lazy runs reject `DataLossMode::Restart` at entry: a
        // restarted source would have to replay its expansion history.
        debug_assert!(self.lazy.is_none(), "lazy runs never restart");
        self.restarts += 1;
        self.reexecutions += self.run.completed_count();
        // Cancel in-flight work (in task-id order) and forget every
        // task's history; clearing the flight epochs also stale-guards
        // all pending TaskDone events.
        for idx in 0..self.slots.len() {
            let slot = std::mem::take(&mut self.slots[idx]);
            if slot.flight_epoch != 0 {
                self.release_hosts(TaskId::from_raw(idx as u64), &slot.hosts, now);
            }
        }
        self.run = GraphRun::new(self.workload.graph());
        self.plan_levels();
        self.registry = DataRegistry::new();
        self.index_producers();
        self.seed_initial_data();
        // Streams start over too: live channel state rewinds (pending
        // send/recv events are stale-guarded by epoch and generation),
        // cumulative counters keep what already flowed.
        for ch in self.channels.values_mut() {
            ch.reset_live_state();
        }
        self.stream_sites.clear();
        // The registry was rebuilt from scratch: all verdicts stale.
        self.inval_all_epoch += 1;
        Ok(())
    }

    // ---- elasticity --------------------------------------------------------

    fn on_elastic_tick(&mut self, now: VirtualTime) -> Result<(), RuntimeError> {
        let Some(mut cfg) = self.options.elastic.take() else {
            return Ok(());
        };
        let zone = cfg.zone;
        let zone_nodes: Vec<NodeId> = self.platform.zone(zone).node_ids().to_vec();
        let alive: Vec<NodeId> = zone_nodes
            .iter()
            .copied()
            .filter(|n| self.nodes[n.index()].is_alive())
            .collect();
        let idle = alive
            .iter()
            .filter(|n| self.nodes[n.index()].is_idle())
            .count();
        let ready = self.run.ready_tasks().len();
        use continuum_platform::ElasticAction;
        match cfg
            .policy
            .evaluate(now.as_seconds(), alive.len(), ready, idle)
        {
            ElasticAction::Grow(n) => {
                for _ in 0..n {
                    // Prefer resurrecting a released node of the zone.
                    let dead = zone_nodes
                        .iter()
                        .copied()
                        .find(|id| !self.nodes[id.index()].is_alive());
                    let node = match dead {
                        Some(id) => Some(id),
                        None => {
                            let added = self.platform.grow_zone(zone);
                            if let Some(id) = added {
                                debug_assert_eq!(id.index(), self.nodes.len());
                                let mut st = NodeState::new_at(
                                    self.platform.node(id).expect("just added"),
                                    now,
                                );
                                st.set_idle_accounting(!self.options.power_off_idle);
                                // Joins after the provisioning delay.
                                st.fail(now);
                                self.nodes.push(st);
                                Some(id)
                            } else {
                                None
                            }
                        }
                    };
                    if let Some(id) = node {
                        self.queue.push(
                            now.after(cfg.provision_delay_s),
                            Event::NodeJoin { node: id },
                        );
                    }
                }
            }
            ElasticAction::Shrink(n) => {
                let mut released = 0;
                for id in alive {
                    if released == n {
                        break;
                    }
                    if self.nodes[id.index()].is_idle() {
                        self.nodes[id.index()].fail(now);
                        released += 1;
                    }
                }
            }
            ElasticAction::Hold => {}
        }
        self.queue.push_after(cfg.period_s, Event::ElasticTick);
        self.options.elastic = Some(cfg);
        self.schedule_round(now)
    }

    // ---- scheduling --------------------------------------------------------

    fn schedule_round(&mut self, now: VirtualTime) -> Result<(), RuntimeError> {
        if self.options.telemetry.enabled() {
            self.options.telemetry.record(TelemetryEvent::Counter {
                key: CounterKey::QueueDepth,
                at_us: micros_from_seconds(now.as_seconds()),
                value: self.run.ready_tasks().len() as f64,
            });
        }
        // Partition the ready set once per round. Verdicts and the
        // partition are stable within a round: no completions happen
        // mid-round, and transfers started by placements only add
        // replicas of already-available data, so nothing can flip an
        // `inputs_ready` answer until the next event.
        let mut ready = std::mem::take(&mut self.ready_scratch);
        let mut single = std::mem::take(&mut self.single_scratch);
        let mut multi = std::mem::take(&mut self.multi_scratch);
        ready.clear();
        single.clear();
        multi.clear();
        ready.extend(self.run.ready_tasks().iter());
        let mut waiting_on_replay = false;
        for &task in &ready {
            if self.options.barrier_levels
                && self.slots[task.index()].level as usize != self.current_level
            {
                continue;
            }
            if !self.inputs_ready_cached(task, now)? {
                waiting_on_replay = true;
                continue;
            }
            if self
                .workload
                .profile(task)
                .constraints_ref()
                .is_multi_node()
            {
                multi.push(task);
            } else {
                single.push(task);
            }
        }
        let offered = single.len() + multi.len();
        let mut placed_total = 0usize;
        // Rigid multi-node tasks: engine-managed placement. One offer
        // each — node capacity only shrinks within a round, so a
        // failed multi placement cannot succeed until the next event.
        for &task in &multi {
            if self.try_start_multi(task, now, false)? {
                placed_total += 1;
            }
        }
        // Single-node tasks: re-offer the shrinking scratch buffer
        // until the scheduler stops placing (placements may have freed
        // per-round budgets).
        let mut assignments = std::mem::take(&mut self.placement_scratch);
        while !single.is_empty() {
            let view =
                PlacementView::new(&self.workload, &self.nodes, &self.registry, &self.platform)
                    .with_uplink_state(&self.zone_uplink_busy, now)
                    .with_stream_sites(&self.stream_sites);
            assignments.clear();
            self.scheduler.place_into(&view, &single, &mut assignments);
            let mut placed_any = false;
            for &(task, node) in &assignments {
                if self.run.state(task) != Some(TaskState::Ready) {
                    continue; // scheduler returned a stale/duplicate id
                }
                if self.try_start_single(task, node, now)? {
                    placed_any = true;
                    placed_total += 1;
                }
            }
            if !placed_any {
                break;
            }
            // Drop placed tasks; `retain` keeps the ascending-id order
            // of the ready set.
            let run = &self.run;
            single.retain(|&t| run.state(t) == Some(TaskState::Ready));
        }
        if placed_total == 0 && waiting_on_replay {
            // Nothing placed and at least one task blocked solely on
            // an in-flight lineage replay: a replay stall, not true
            // unschedulability.
            self.replay_stall_rounds += 1;
            if self.options.telemetry.enabled() {
                self.options.telemetry.record(TelemetryEvent::Counter {
                    key: CounterKey::ReplayStallRounds,
                    at_us: micros_from_seconds(now.as_seconds()),
                    value: self.replay_stall_rounds as f64,
                });
            }
        }
        if offered > 0 && self.options.telemetry.enabled() {
            // Virtual-duration span: scheduling is instantaneous in
            // virtual time (wall-clock overhead is measured by the
            // scheduling macro-bench, not recorded here, to keep
            // traces of identical runs byte-identical).
            let at_us = micros_from_seconds(now.as_seconds());
            self.options.telemetry.record(TelemetryEvent::Span {
                track: Track::Run,
                name: "scheduler-round".into(),
                phase: TaskPhase::Scheduled,
                start_us: at_us,
                dur_us: 0,
                ctx: None,
            });
            self.options.telemetry.record(TelemetryEvent::Counter {
                key: CounterKey::SchedulerTasksOffered,
                at_us,
                value: offered as f64,
            });
            self.options.telemetry.record(TelemetryEvent::Counter {
                key: CounterKey::SchedulerTasksPlaced,
                at_us,
                value: placed_total as f64,
            });
        }
        self.ready_scratch = ready;
        self.single_scratch = single;
        self.multi_scratch = multi;
        self.placement_scratch = assignments;
        Ok(())
    }

    /// `inputs_ready` behind the dirty-tracked verdict cache: a hit
    /// costs one epoch comparison; a miss recomputes and may trigger
    /// lineage replays exactly like the uncached path always did.
    fn inputs_ready_cached(
        &mut self,
        task: TaskId,
        now: VirtualTime,
    ) -> Result<bool, RuntimeError> {
        let cell = self.slots[task.index()].verdict;
        if cell.all_epoch == self.inval_all_epoch
            && (cell.ready || cell.add_epoch == self.inval_add_epoch)
        {
            return Ok(cell.ready);
        }
        let ready = self.inputs_ready(task, now)?;
        self.slots[task.index()].verdict = VerdictCell {
            all_epoch: self.inval_all_epoch,
            add_epoch: self.inval_add_epoch,
            ready,
        };
        Ok(ready)
    }

    /// Checks input availability; triggers lineage replays for lost
    /// data. Returns `true` if every input can be read right now.
    fn inputs_ready(&mut self, task: TaskId, now: VirtualTime) -> Result<bool, RuntimeError> {
        let mut consumed = std::mem::take(&mut self.consumed_scratch);
        consumed.clear();
        consumed.extend(
            self.workload
                .graph()
                .node(task)
                .expect("task in graph")
                .consumed(),
        );
        let mut all = true;
        for &vd in &consumed {
            if !self.ensure_available(vd, now)? {
                all = false;
            }
        }
        self.consumed_scratch = consumed;
        Ok(all)
    }

    fn ensure_available(
        &mut self,
        vd: VersionedData,
        now: VirtualTime,
    ) -> Result<bool, RuntimeError> {
        if vd.version.is_initial() {
            return Ok(true); // external inputs are durable
        }
        let record = self.registry.get(vd);
        if record.is_some_and(|r| r.is_available()) {
            return Ok(true);
        }
        match self.options.data_loss {
            DataLossMode::Replay => {}
            _ => return Ok(false), // restart/fail handled at loss time
        }
        let Some(producer) = record.and_then(|r| r.producer()) else {
            return Ok(false);
        };
        let slot = &self.slots[producer.index()];
        if slot.replaying || slot.flight_epoch != 0 {
            return Ok(false); // regeneration in flight
        }
        // Recursively make sure the producer's own inputs exist.
        let mut deps_ok = true;
        let deps: Vec<VersionedData> = self
            .workload
            .graph()
            .node(producer)
            .expect("producer in graph")
            .consumed()
            .collect();
        for dep in deps {
            if !self.ensure_available(dep, now)? {
                deps_ok = false;
            }
        }
        if deps_ok {
            self.start_replay(producer, now)?;
        }
        Ok(false)
    }

    fn start_replay(&mut self, task: TaskId, now: VirtualTime) -> Result<(), RuntimeError> {
        // First-fit placement for replays.
        let req = self.workload.profile(task).constraints_ref();
        if req.is_multi_node() {
            self.slots[task.index()].replaying = true;
            if !self.try_start_multi(task, now, true)? {
                self.slots[task.index()].replaying = false;
            }
            return Ok(());
        }
        let node = self.nodes.iter().find(|n| n.can_host(req)).map(|n| n.id());
        if let Some(node) = node {
            self.slots[task.index()].replaying = true;
            self.begin_execution(task, [node].into_iter().collect(), now);
        }
        Ok(())
    }

    fn try_start_single(
        &mut self,
        task: TaskId,
        node: NodeId,
        now: VirtualTime,
    ) -> Result<bool, RuntimeError> {
        let req = self.workload.profile(task).constraints_ref();
        if !self.nodes[node.index()].can_host(req) {
            return Ok(false);
        }
        self.run.mark_running(task)?;
        self.begin_execution(task, [node].into_iter().collect(), now);
        Ok(true)
    }

    fn try_start_multi(
        &mut self,
        task: TaskId,
        now: VirtualTime,
        replay: bool,
    ) -> Result<bool, RuntimeError> {
        let req = self.workload.profile(task).constraints_ref();
        let want = req.required_nodes() as usize;
        let hosts: Hosts = self
            .nodes
            .iter()
            .filter(|n| n.is_alive() && n.is_idle() && n.total_capacity().satisfies(req))
            .map(|n| n.id())
            .take(want)
            .collect();
        if hosts.len() < want {
            return Ok(false);
        }
        if !replay {
            self.run.mark_running(task)?;
        }
        self.begin_execution(task, hosts, now);
        Ok(true)
    }

    /// Starts the task on its host nodes: reserves resources, plans
    /// input transfers, schedules the completion event.
    fn begin_execution(&mut self, task: TaskId, hosts: Hosts, now: VirtualTime) {
        let head = hosts[0];
        if self.options.telemetry.enabled() {
            self.options.telemetry.record(TelemetryEvent::Instant {
                track: Track::Node(head.index() as u32),
                name: self.task_name(task),
                phase: TaskPhase::Scheduled,
                at_us: micros_from_seconds(now.as_seconds()),
            });
        }
        let transfer_s = self.plan_input_transfers(task, head, now);
        let duration_s = self.workload.profile(task).duration_s();
        for host in &hosts {
            let state = &mut self.nodes[host.index()];
            let req = reservation(&self.workload, task, hosts.len(), state);
            let ok = state.try_start(task, &req, now);
            debug_assert!(ok, "placement validated before start");
        }
        let slowest = hosts
            .iter()
            .map(|h| self.nodes[h.index()].speed())
            .fold(f64::INFINITY, f64::min);
        let exec_s = duration_s / slowest;
        self.epoch += 1;
        let epoch = self.epoch;
        let slot = &mut self.slots[task.index()];
        if slot.started_once && !slot.replaying {
            self.reexecutions += 1;
        }
        slot.started_once = true;
        slot.flight_epoch = epoch;
        slot.start_s = now.as_seconds();
        slot.stall_s = transfer_s;
        slot.hosts = hosts;
        let replaying = slot.replaying;
        self.queue.push(
            now.after(transfer_s + exec_s),
            Event::TaskDone { task, epoch },
        );
        if !self.channels.is_empty() && !replaying {
            self.start_stream_endpoints(task, head, now.after(transfer_s), exec_s, epoch);
        }
    }

    // ---- stream edges ------------------------------------------------------

    /// Opens the task's stream endpoints as it starts executing:
    /// producers get their element sends scheduled as discrete events
    /// spaced evenly across the execution window (the last element
    /// strictly before completion, so first-element release precedes
    /// the completion event even for a single element), consumers
    /// immediately absorb any backlog queued before their admission.
    /// Replayed attempts regenerate versioned data only and never
    /// reach here — their stream consumers ran long ago.
    fn start_stream_endpoints(
        &mut self,
        task: TaskId,
        node: NodeId,
        exec_start: VirtualTime,
        exec_s: f64,
        epoch: u64,
    ) {
        let spec = self
            .workload
            .graph()
            .node(task)
            .expect("task in graph")
            .spec();
        let elems = self.workload.profile(task).stream_elements_count();
        for data in spec.stream_writes() {
            self.stream_sites.insert(data, node);
            for k in 0..elems {
                let at = exec_start.after(exec_s * (k as f64 + 1.0) / (elems as f64 + 1.0));
                self.queue.push(at, Event::StreamSend { task, data, epoch });
            }
        }
        let generation = self.restarts;
        for data in spec.stream_reads() {
            let ch = self
                .channels
                .get_mut(&data)
                .expect("channel for stream datum");
            ch.consumers_running += 1;
            for _ in 0..ch.occupancy {
                self.queue
                    .push(exec_start, Event::StreamRecv { data, generation });
            }
            if ch.occupancy == 0 && ch.open_writers > 0 && ch.waiting_since.is_none() {
                ch.waiting_since = Some(exec_start);
            }
        }
    }

    /// Closes the task's stream endpoints at completion: a producer
    /// deregisters as an open writer (last close ends any consumer
    /// wait), a consumer drains whatever is still queued and stops
    /// absorbing future sends.
    fn finish_stream_endpoints(&mut self, task: TaskId, now: VirtualTime) {
        let Ok(record) = self.workload.graph().node(task) else {
            return;
        };
        let spec = record.spec();
        for data in spec.stream_writes() {
            let ch = self
                .channels
                .get_mut(&data)
                .expect("channel for stream datum");
            ch.open_writers = ch.open_writers.saturating_sub(1);
            if ch.open_writers == 0 {
                if let Some(since) = ch.waiting_since.take() {
                    ch.blocked_recv_us += micros_from_seconds(now.since(since));
                }
            }
        }
        for data in spec.stream_reads() {
            let ch = self
                .channels
                .get_mut(&data)
                .expect("channel for stream datum");
            ch.consumers_running = ch.consumers_running.saturating_sub(1);
            if let Some(since) = ch.waiting_since.take() {
                ch.blocked_recv_us += micros_from_seconds(now.since(since));
            }
            if ch.consumers_running == 0 && ch.occupancy > 0 {
                // The departing consumer takes the remaining backlog
                // with it (bounded-window services drain at close).
                ch.occupancy = 0;
                if let Some(since) = ch.over_capacity_since.take() {
                    ch.blocked_send_us += micros_from_seconds(now.since(since));
                }
            }
        }
    }

    /// One element leaves `task` on stream `data`. The producer's
    /// *first* element releases every consumer gated on it (the
    /// defining semantics of a stream edge) and triggers a scheduling
    /// round so released consumers can be placed at this very instant.
    fn on_stream_send(
        &mut self,
        task: TaskId,
        data: DataId,
        epoch: u64,
        now: VirtualTime,
    ) -> Result<(), RuntimeError> {
        let live = self
            .slots
            .get(task.index())
            .is_some_and(|slot| slot.flight_epoch == epoch);
        if !live {
            return Ok(()); // stale: attempt lost to a fault or restart
        }
        let elem_bytes = self.workload.profile(task).stream_element_size();
        let generation = self.restarts;
        let ch = self
            .channels
            .get_mut(&data)
            .expect("channel for stream datum");
        ch.elements += 1;
        ch.bytes += elem_bytes;
        ch.occupancy += 1;
        ch.high_water = ch.high_water.max(ch.occupancy);
        if let Some(since) = ch.waiting_since.take() {
            ch.blocked_recv_us += micros_from_seconds(now.since(since));
        }
        if ch.consumers_running > 0 {
            // A running consumer absorbs the element; the receive is
            // its own discrete event so traces order send before recv.
            self.queue.push(now, Event::StreamRecv { data, generation });
        } else if ch.occupancy > SIM_STREAM_CAPACITY && ch.over_capacity_since.is_none() {
            ch.over_capacity_since = Some(now);
        }
        let high_water = ch.high_water;
        if self.options.telemetry.enabled() {
            // Occupancy sampled on the sim clock (monotone high-water,
            // so identical runs stay byte-identical under re-sorting).
            self.options.telemetry.record(TelemetryEvent::Counter {
                key: CounterKey::StreamOccupancyHighWater,
                at_us: micros_from_seconds(now.as_seconds()),
                value: high_water as f64,
            });
        }
        if !self.run.stream_released(task) {
            let released = self.run.stream_release(self.workload.graph(), task)?;
            if released > 0 {
                self.inval_add_epoch += 1;
                self.schedule_round(now)?;
            }
        }
        Ok(())
    }

    /// One element is absorbed by a consumer of stream `data`.
    fn on_stream_recv(&mut self, data: DataId, generation: usize, now: VirtualTime) {
        if generation != self.restarts {
            return; // scheduled before a from-scratch restart
        }
        let ch = self
            .channels
            .get_mut(&data)
            .expect("channel for stream datum");
        if ch.occupancy == 0 {
            return;
        }
        ch.occupancy -= 1;
        if ch.occupancy <= SIM_STREAM_CAPACITY {
            if let Some(since) = ch.over_capacity_since.take() {
                ch.blocked_send_us += micros_from_seconds(now.since(since));
            }
        }
        if ch.occupancy == 0 && ch.consumers_running > 0 && ch.open_writers > 0 {
            // Drained: the consumer now waits for the next element.
            ch.waiting_since = Some(now);
        }
    }

    /// Frees `task`'s reservation on every host that is still alive (a
    /// dead host lost the task, and its capacity was reset, when it
    /// failed).
    fn release_hosts(&mut self, task: TaskId, hosts: &[NodeId], now: VirtualTime) {
        for host in hosts {
            let state = &mut self.nodes[host.index()];
            if state.is_alive() {
                let req = reservation(&self.workload, task, hosts.len(), state);
                state.finish(task, &req, now);
            }
        }
    }

    /// Plans transfers for the task's inputs to `node`; returns the
    /// total stall seconds before execution can begin.
    fn plan_input_transfers(&mut self, task: TaskId, node: NodeId, now: VirtualTime) -> f64 {
        let mut consumed = std::mem::take(&mut self.transfer_scratch);
        consumed.clear();
        consumed.extend(
            self.workload
                .graph()
                .node(task)
                .expect("task in graph")
                .consumed(),
        );
        let mut total = 0.0;
        for &vd in &consumed {
            let bytes = if vd.version.is_initial() && !self.registry.is_known(vd) {
                self.workload.initial_size(vd.data)
            } else {
                self.registry.size_of(vd)
            };
            if self.data_is_local(vd, node) {
                if bytes > 0 {
                    self.ledger.record_local_hit(bytes);
                }
                continue;
            }
            if bytes == 0 {
                // Zero-sized control data: no transfer needed.
                self.registry.add_replica(vd, node);
                continue;
            }
            let src = self.cheapest_source(vd, node);
            match src {
                Some(src) => {
                    total += self.perform_transfer(vd, bytes, src, node, now, total);
                }
                None => {
                    // Persisted-only (or storage-homed initial) data:
                    // fetch from the storage *service*. Deliberately no
                    // liveness check on the home node — persistence
                    // models a replicated, always-available service
                    // (dataClay/Cassandra) that merely sits in that
                    // node's network position; compute-node liveness
                    // filtering (as in `cheapest_source`) does not
                    // apply to it.
                    if let Some(storage) = self.options.persistence {
                        total += self.perform_transfer(vd, bytes, storage, node, now, total);
                    }
                }
            }
        }
        self.transfer_scratch = consumed;
        total
    }

    /// Executes one blocking input transfer, serialising with other
    /// transfers on the same inter-zone link (the shared uplink is the
    /// bottleneck of the continuum; intra-zone fabrics are switched
    /// and contention-free). Returns the stall seconds added on top of
    /// `already_stalled`.
    fn perform_transfer(
        &mut self,
        vd: VersionedData,
        bytes: u64,
        src: NodeId,
        dst: NodeId,
        now: VirtualTime,
        already_stalled: f64,
    ) -> f64 {
        let secs = self.platform.transfer_seconds(bytes, src, dst);
        let src_zone = self.platform.node(src).expect("src in platform").zone();
        let dst_zone = self.platform.node(dst).expect("dst in platform").zone();
        let request_at = now.after(already_stalled);
        let (start, finish) = if src_zone == dst_zone {
            (request_at, request_at.after(secs))
        } else {
            let (a, b) = if src_zone <= dst_zone {
                (src_zone.index(), dst_zone.index())
            } else {
                (dst_zone.index(), src_zone.index())
            };
            let slot = &mut self.link_busy[a * self.num_zones + b];
            let free_at = (*slot).max(request_at);
            let finish = free_at.after(secs);
            *slot = finish;
            // Per-pair finish times are monotone, so the per-zone
            // running max stays equal to a scan over all pairs
            // touching the zone.
            self.zone_uplink_busy[a] = self.zone_uplink_busy[a].max(finish);
            self.zone_uplink_busy[b] = self.zone_uplink_busy[b].max(finish);
            (free_at, finish)
        };
        self.ledger.record(TransferRecord {
            from: src,
            to: dst,
            bytes,
            seconds: secs,
            start,
        });
        self.registry.add_replica(vd, dst);
        finish.since(request_at)
    }

    fn data_is_local(&self, vd: VersionedData, node: NodeId) -> bool {
        if self.registry.is_known(vd) {
            self.registry.is_on(vd, node)
        } else {
            // Unregistered initial data: staged everywhere.
            vd.version.is_initial()
        }
    }

    fn cheapest_source(&self, vd: VersionedData, node: NodeId) -> Option<NodeId> {
        // Allocation-free index probe; the sorted replica order makes
        // cost ties resolve to the lowest node id deterministically.
        self.registry
            .locations_iter(vd)
            .filter(|src| self.nodes[src.index()].is_alive())
            .min_by(|a, b| {
                let ta = self.platform.transfer_seconds(1_000_000, *a, node);
                let tb = self.platform.transfer_seconds(1_000_000, *b, node);
                ta.partial_cmp(&tb).expect("finite")
            })
    }
}

/// The reservation actually charged to `host` for one of `n_hosts`
/// hosts of `task`: the task's own constraints, except that a rigid
/// multi-node task occupies every core of each of its hosts.
fn reservation<'w>(
    workload: &'w SimWorkload,
    task: TaskId,
    n_hosts: usize,
    host: &NodeState,
) -> Cow<'w, Constraints> {
    let req = workload.profile(task).constraints_ref();
    if n_hosts <= 1 {
        return Cow::Borrowed(req);
    }
    Cow::Owned(
        Constraints::new()
            .compute_units(host.total_capacity().cores())
            .memory_mb(req.required_memory_mb()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TaskProfile;
    use crate::scheduler::{FifoScheduler, LocalityScheduler};
    use continuum_dag::TaskSpec;
    use continuum_platform::NodeSpec;
    use continuum_platform::PlatformBuilder;

    fn cluster(nodes: usize, cores: u32) -> Platform {
        PlatformBuilder::new()
            .cluster("c", nodes, NodeSpec::hpc(cores, 96_000))
            .build()
    }

    fn chain_workload(n: usize, dur: f64) -> SimWorkload {
        let mut w = SimWorkload::new();
        let d = w.data("x");
        w.task(TaskSpec::new("t0").output(d), TaskProfile::new(dur))
            .unwrap();
        for i in 1..n {
            w.task(
                TaskSpec::new(format!("t{i}")).inout(d),
                TaskProfile::new(dur),
            )
            .unwrap();
        }
        w
    }

    fn fan_workload(width: usize, dur: f64) -> SimWorkload {
        let mut w = SimWorkload::new();
        let outs = w.data_batch("o", width);
        for o in &outs {
            w.task(TaskSpec::new("w").output(*o), TaskProfile::new(dur))
                .unwrap();
        }
        w
    }

    fn run(
        w: &SimWorkload,
        p: Platform,
        opts: SimOptions,
        faults: &FaultPlan,
    ) -> Result<RunReport, RuntimeError> {
        SimRuntime::new(p, opts).run(w, &mut FifoScheduler::new(), faults)
    }

    #[test]
    fn chain_executes_sequentially() {
        let w = chain_workload(5, 10.0);
        let r = run(&w, cluster(4, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
        assert_eq!(r.tasks_completed, 5);
        assert!((r.makespan_s - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fan_executes_in_parallel() {
        let w = fan_workload(8, 10.0);
        // 2 nodes × 4 cores = 8 slots: one wave.
        let r = run(&w, cluster(2, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
        assert!((r.makespan_s - 10.0).abs() < 1e-9);
        // 1 node × 4 cores: two waves.
        let r = run(&w, cluster(1, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
        assert!((r.makespan_s - 20.0).abs() < 1e-9);
    }

    #[test]
    fn memory_constraints_limit_concurrency() {
        let mut w = SimWorkload::new();
        let outs = w.data_batch("o", 4);
        for o in &outs {
            w.task(
                TaskSpec::new("hungry").output(*o),
                TaskProfile::new(10.0).constraints(Constraints::new().memory_mb(60_000)),
            )
            .unwrap();
        }
        // One 96 GB node: only one 60 GB task at a time despite 48 cores.
        let r = run(&w, cluster(1, 48), SimOptions::default(), &FaultPlan::new()).unwrap();
        assert!((r.makespan_s - 40.0).abs() < 1e-9);
    }

    #[test]
    fn unschedulable_task_is_reported() {
        let mut w = SimWorkload::new();
        let d = w.data("d");
        w.task(
            TaskSpec::new("gpu").output(d),
            TaskProfile::new(1.0).constraints(Constraints::new().gpus(4)),
        )
        .unwrap();
        let err = run(&w, cluster(2, 4), SimOptions::default(), &FaultPlan::new()).unwrap_err();
        assert!(matches!(err, RuntimeError::Unschedulable { .. }), "{err}");
    }

    #[test]
    fn transfers_are_planned_and_locality_hits_counted() {
        let mut w = SimWorkload::new();
        let a = w.data("a");
        let b = w.data("b");
        w.task(
            TaskSpec::new("p").output(a),
            TaskProfile::new(1.0).outputs_bytes(100_000_000),
        )
        .unwrap();
        w.task(TaskSpec::new("c").input(a).output(b), TaskProfile::new(1.0))
            .unwrap();
        // Locality scheduler: consumer runs where the data is.
        let p = cluster(2, 1);
        let r = SimRuntime::new(p, SimOptions::default())
            .run(&w, &mut LocalityScheduler::new(), &FaultPlan::new())
            .unwrap();
        assert_eq!(r.transfer_count, 0);
        assert_eq!(r.locality_hits, 1);
        assert!((r.makespan_s - 2.0).abs() < 1e-6);
    }

    #[test]
    fn remote_input_costs_transfer_time() {
        let mut w = SimWorkload::new();
        // Pin 120 MB of initial data to node 0 of a 2-zone platform and
        // force the consumer onto the remote zone via constraints.
        let raw = w.initial_data("raw", 120_000_000, Some(NodeId::from_raw(0)));
        let out = w.data("out");
        w.task(
            TaskSpec::new("consume").input(raw).output(out),
            TaskProfile::new(1.0).constraints(Constraints::new().software("cloud-only")),
        )
        .unwrap();
        let p = PlatformBuilder::new()
            .cluster("hpc", 1, NodeSpec::hpc(4, 96_000))
            .cloud(
                "cloud",
                1,
                NodeSpec::cloud_vm(4, 16_000).with_software(["cloud-only"]),
            )
            .build();
        let r = run(&w, p, SimOptions::default(), &FaultPlan::new()).unwrap();
        assert_eq!(r.transfer_count, 1);
        assert_eq!(r.transfer_bytes, 120_000_000);
        // ~1 s WAN transfer + 1 s execution.
        assert!(
            r.makespan_s > 1.9,
            "transfer must delay start, got {}",
            r.makespan_s
        );
    }

    #[test]
    fn barrier_mode_is_slower_on_imbalanced_levels() {
        // Two pipelines with alternating heavy/light stages: dataflow
        // overlaps them, barriers serialise the waves.
        let mut w = SimWorkload::new();
        for i in 0..2 {
            let a = w.data(format!("a{i}"));
            let b = w.data(format!("b{i}"));
            let heavy = if i == 0 { 10.0 } else { 1.0 };
            let light = if i == 0 { 1.0 } else { 10.0 };
            w.task(TaskSpec::new("s1").output(a), TaskProfile::new(heavy))
                .unwrap();
            w.task(
                TaskSpec::new("s2").input(a).output(b),
                TaskProfile::new(light),
            )
            .unwrap();
        }
        let dataflow = run(&w, cluster(2, 1), SimOptions::default(), &FaultPlan::new()).unwrap();
        let barrier = run(
            &w,
            cluster(2, 1),
            SimOptions {
                barrier_levels: true,
                ..SimOptions::default()
            },
            &FaultPlan::new(),
        )
        .unwrap();
        assert!((dataflow.makespan_s - 11.0).abs() < 1e-9);
        assert!((barrier.makespan_s - 20.0).abs() < 1e-9);
    }

    #[test]
    fn multi_node_task_occupies_full_nodes() {
        let mut w = SimWorkload::new();
        let sim = w.data("sim");
        let o = w.data("o");
        w.task(
            TaskSpec::new("mpi").output(sim),
            TaskProfile::new(10.0).constraints(Constraints::new().nodes(2)),
        )
        .unwrap();
        w.task(
            TaskSpec::new("post").input(sim).output(o),
            TaskProfile::new(1.0),
        )
        .unwrap();
        let r = run(&w, cluster(2, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
        assert_eq!(r.tasks_completed, 2);
        assert!((r.makespan_s - 11.0).abs() < 1e-9);
        // Both nodes were fully busy during the MPI step.
        assert!(r.node_usage[0].busy_core_seconds >= 40.0 - 1e-9);
        assert!(r.node_usage[1].busy_core_seconds >= 40.0 - 1e-9);
    }

    #[test]
    fn multi_node_task_waits_for_enough_idle_nodes() {
        let mut w = SimWorkload::new();
        let f = w.data("filler");
        let sim = w.data("sim");
        w.task(TaskSpec::new("filler").output(f), TaskProfile::new(5.0))
            .unwrap();
        w.task(
            TaskSpec::new("mpi").output(sim),
            TaskProfile::new(10.0).constraints(Constraints::new().nodes(2)),
        )
        .unwrap();
        let r = run(&w, cluster(2, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
        // MPI can only start once the filler frees node 0 at t=5.
        assert!((r.makespan_s - 15.0).abs() < 1e-9);
    }

    #[test]
    fn failure_requeues_running_tasks() {
        let w = fan_workload(4, 10.0);
        let faults = FaultPlan::new()
            .fail_at(5.0, NodeId::from_raw(0))
            .recover_at(7.0, NodeId::from_raw(0));
        let r = run(&w, cluster(2, 2), SimOptions::default(), &faults).unwrap();
        assert_eq!(r.tasks_completed, 4);
        assert!(r.tasks_reexecuted >= 1, "tasks on the dead node rerun");
        assert!(r.makespan_s > 10.0);
    }

    #[test]
    fn lost_data_is_replayed_via_lineage() {
        // p -> c, where p's output lives only on node 0, which dies
        // after p completes but before c starts (c is held busy).
        let mut w = SimWorkload::new();
        let a = w.data("a");
        let blocker = w.data("blk");
        let out = w.data("out");
        w.task(
            TaskSpec::new("p").output(a),
            TaskProfile::new(1.0).outputs_bytes(1_000),
        )
        .unwrap();
        w.task(
            TaskSpec::new("blocker").output(blocker),
            TaskProfile::new(20.0),
        )
        .unwrap();
        // Consumer needs both, so it cannot start before t=20.
        w.task(
            TaskSpec::new("c").input(a).input(blocker).output(out),
            TaskProfile::new(1.0),
        )
        .unwrap();
        // 2 × 1-core nodes: p and blocker run in parallel at t=0.
        let faults = FaultPlan::new()
            .fail_at(5.0, NodeId::from_raw(0))
            .recover_at(6.0, NodeId::from_raw(0));
        let r = run(&w, cluster(2, 1), SimOptions::default(), &faults).unwrap();
        assert_eq!(r.tasks_completed, 3);
        assert!(r.tasks_reexecuted >= 1, "p replayed to regenerate `a`");
    }

    #[test]
    fn persisted_data_survives_failures_without_replay() {
        let mut w = SimWorkload::new();
        let a = w.data("a");
        let blocker = w.data("blk");
        let out = w.data("out");
        w.task(
            TaskSpec::new("p").output(a),
            TaskProfile::new(1.0).outputs_bytes(1_000),
        )
        .unwrap();
        w.task(
            TaskSpec::new("blocker").output(blocker),
            TaskProfile::new(20.0),
        )
        .unwrap();
        w.task(
            TaskSpec::new("c").input(a).input(blocker).output(out),
            TaskProfile::new(1.0),
        )
        .unwrap();
        let faults = FaultPlan::new()
            .fail_at(5.0, NodeId::from_raw(0))
            .recover_at(6.0, NodeId::from_raw(0));
        let opts = SimOptions {
            persistence: Some(NodeId::from_raw(1)),
            ..SimOptions::default()
        };
        let r = run(&w, cluster(2, 1), opts, &faults).unwrap();
        assert_eq!(r.tasks_completed, 3);
        assert_eq!(r.tasks_reexecuted, 0, "persisted output needs no replay");
    }

    #[test]
    fn restart_mode_reruns_everything() {
        let mut w = SimWorkload::new();
        let a = w.data("a");
        let blocker = w.data("blk");
        let out = w.data("out");
        w.task(
            TaskSpec::new("p").output(a),
            TaskProfile::new(1.0).outputs_bytes(1_000),
        )
        .unwrap();
        w.task(
            TaskSpec::new("blocker").output(blocker),
            TaskProfile::new(20.0),
        )
        .unwrap();
        w.task(
            TaskSpec::new("c").input(a).input(blocker).output(out),
            TaskProfile::new(1.0),
        )
        .unwrap();
        let faults = FaultPlan::new()
            .fail_at(5.0, NodeId::from_raw(0))
            .recover_at(6.0, NodeId::from_raw(0));
        let opts = SimOptions {
            data_loss: DataLossMode::Restart,
            ..SimOptions::default()
        };
        let r = run(&w, cluster(2, 1), opts, &faults).unwrap();
        assert_eq!(r.tasks_completed, 3);
        // The completed producer counts as re-executed after restart.
        assert!(r.tasks_reexecuted >= 1);
        assert!(
            r.makespan_s > 21.0,
            "restart pushes completion well past 21 s"
        );
    }

    #[test]
    fn fail_mode_errors_on_needed_loss() {
        let mut w = SimWorkload::new();
        let a = w.data("a");
        let blocker = w.data("blk");
        let out = w.data("out");
        w.task(
            TaskSpec::new("p").output(a),
            TaskProfile::new(1.0).outputs_bytes(1_000),
        )
        .unwrap();
        w.task(
            TaskSpec::new("blocker").output(blocker),
            TaskProfile::new(20.0),
        )
        .unwrap();
        w.task(
            TaskSpec::new("c").input(a).input(blocker).output(out),
            TaskProfile::new(1.0),
        )
        .unwrap();
        let faults = FaultPlan::new().fail_at(5.0, NodeId::from_raw(0));
        let opts = SimOptions {
            data_loss: DataLossMode::Fail,
            ..SimOptions::default()
        };
        let err = run(&w, cluster(2, 1), opts, &faults).unwrap_err();
        assert!(matches!(err, RuntimeError::Stuck { .. }), "{err}");
    }

    #[test]
    fn heterogeneous_speed_scales_durations() {
        let mut w = SimWorkload::new();
        let d = w.data("d");
        w.task(TaskSpec::new("t").output(d), TaskProfile::new(10.0))
            .unwrap();
        let p = PlatformBuilder::new()
            .cluster("fast", 1, NodeSpec::hpc(4, 96_000).with_speed(2.0))
            .build();
        let r = run(&w, p, SimOptions::default(), &FaultPlan::new()).unwrap();
        assert!((r.makespan_s - 5.0).abs() < 1e-9);
    }

    #[test]
    fn elastic_pool_grows_under_backlog() {
        let w = fan_workload(32, 100.0);
        let p = PlatformBuilder::new()
            .elastic_cloud("ec2", 1, 8, NodeSpec::cloud_vm(1, 16_000))
            .build();
        let opts = SimOptions {
            elastic: Some(ElasticConfig {
                zone: p.zones()[0].id(),
                policy: ElasticityPolicy::new(1, 8).cooldown_s(0.0).max_step(4),
                period_s: 10.0,
                provision_delay_s: 5.0,
            }),
            ..SimOptions::default()
        };
        let fixed = run(&w, p.clone(), SimOptions::default(), &FaultPlan::new()).unwrap();
        let elastic = run(&w, p, opts, &FaultPlan::new()).unwrap();
        assert_eq!(elastic.tasks_completed, 32);
        assert!(
            elastic.makespan_s < fixed.makespan_s / 2.0,
            "elastic {} vs fixed {}",
            elastic.makespan_s,
            fixed.makespan_s
        );
        assert!(elastic.node_usage.len() > 1, "pool actually grew");
    }

    #[test]
    fn power_off_idle_removes_idle_energy() {
        let w = chain_workload(2, 10.0);
        let on = run(&w, cluster(4, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
        let off = run(
            &w,
            cluster(4, 4),
            SimOptions {
                power_off_idle: true,
                ..SimOptions::default()
            },
            &FaultPlan::new(),
        )
        .unwrap();
        assert!(off.energy.idle_joules < 1e-9);
        assert!(on.energy.idle_joules > 0.0);
        assert!(off.energy.total_joules() < on.energy.total_joules());
    }

    #[test]
    fn inter_zone_transfers_contend_intra_zone_do_not() {
        // N tasks each pulling 120 MB of pinned data to a remote zone
        // over a shared WAN: transfers serialise, so makespan grows
        // linearly with N.
        let build = |n: usize| {
            let mut w = SimWorkload::new();
            for i in 0..n {
                let raw = w.initial_data(format!("raw{i}"), 120_000_000, Some(NodeId::from_raw(0)));
                let out = w.data(format!("out{i}"));
                w.task(
                    TaskSpec::new("consume").input(raw).output(out),
                    TaskProfile::new(1.0).constraints(Constraints::new().software("cloud")),
                )
                .unwrap();
            }
            w
        };
        let platform = |vms: usize| {
            PlatformBuilder::new()
                .cluster("hpc", 1, NodeSpec::hpc(4, 96_000))
                .cloud(
                    "dc",
                    vms,
                    NodeSpec::cloud_vm(4, 16_000).with_software(["cloud"]),
                )
                .build()
        };
        // 1 task: ~1 s WAN transfer + 1 s exec.
        let one = run(
            &build(1),
            platform(4),
            SimOptions::default(),
            &FaultPlan::new(),
        )
        .unwrap();
        // 8 tasks on ample cloud slots: transfers serialise on the WAN.
        let eight = run(
            &build(8),
            platform(4),
            SimOptions::default(),
            &FaultPlan::new(),
        )
        .unwrap();
        assert!(
            eight.makespan_s > 7.0 * (one.makespan_s - 1.0),
            "8 WAN transfers must serialise: {} vs single {}",
            eight.makespan_s,
            one.makespan_s
        );
        // Same data, same zone: intra-cluster fabric does not contend.
        let mut w = SimWorkload::new();
        for i in 0..8 {
            let raw = w.initial_data(format!("raw{i}"), 120_000_000, Some(NodeId::from_raw(0)));
            let out = w.data(format!("out{i}"));
            w.task(
                TaskSpec::new("consume").input(raw).output(out),
                TaskProfile::new(1.0),
            )
            .unwrap();
        }
        let p = PlatformBuilder::new()
            .cluster("hpc", 4, NodeSpec::hpc(4, 96_000))
            .build();
        let intra = run(&w, p, SimOptions::default(), &FaultPlan::new()).unwrap();
        assert!(
            intra.makespan_s < 2.0,
            "intra-cluster transfers are contention-free: {}",
            intra.makespan_s
        );
    }

    #[test]
    fn stream_consumer_overlaps_producer() {
        // sensor ──stream──▶ sink, both 10 s. A completion edge would
        // serialise them (makespan 20 s); the stream edge releases the
        // sink at the sensor's first element (10/11 s in), so the two
        // stages overlap almost entirely.
        let mut w = SimWorkload::new();
        let s = w.data("frames");
        w.task(
            TaskSpec::new("sensor").stream_out(s),
            TaskProfile::new(10.0).stream_elements(10),
        )
        .unwrap();
        w.task(TaskSpec::new("sink").stream_in(s), TaskProfile::new(10.0))
            .unwrap();
        let r = run(&w, cluster(2, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
        assert_eq!(r.tasks_completed, 2);
        assert!(
            r.makespan_s < 12.0,
            "streamed stages must overlap, got {}",
            r.makespan_s
        );
        assert!(r.makespan_s > 10.0, "sink still finishes after the sensor");
    }

    #[test]
    fn empty_stream_releases_consumer_at_completion() {
        // A producer that closes without sending a single element must
        // still free its consumer — at completion, per the close
        // protocol.
        let mut w = SimWorkload::new();
        let s = w.data("s");
        w.task(
            TaskSpec::new("mute").stream_out(s),
            TaskProfile::new(10.0).stream_elements(0),
        )
        .unwrap();
        w.task(TaskSpec::new("sink").stream_in(s), TaskProfile::new(5.0))
            .unwrap();
        let r = run(&w, cluster(2, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
        assert!((r.makespan_s - 15.0).abs() < 1e-9);
    }

    #[test]
    fn stream_backlog_is_counted_and_published() {
        use crate::TraceBuffer;
        // One 1-core node: the producer occupies the only core, so the
        // released consumer cannot be admitted until the producer
        // completes — every element queues, and the backlog shows up
        // as the occupancy high-water mark in the published counters.
        let mut w = SimWorkload::new();
        let s = w.data("s");
        w.task(
            TaskSpec::new("burst").stream_out(s),
            TaskProfile::new(10.0)
                .stream_elements(8)
                .stream_element_bytes(1_000),
        )
        .unwrap();
        w.task(TaskSpec::new("sink").stream_in(s), TaskProfile::new(1.0))
            .unwrap();
        let (buffer, telemetry) = TraceBuffer::collector();
        let opts = SimOptions {
            telemetry,
            ..SimOptions::default()
        };
        let r = run(&w, cluster(1, 1), opts, &FaultPlan::new()).unwrap();
        assert!((r.makespan_s - 11.0).abs() < 1e-9);
        let events = buffer.events();
        let last = |key: CounterKey| {
            events.iter().rev().find_map(|e| match e {
                TelemetryEvent::Counter { key: k, value, .. } if *k == key => Some(*value),
                _ => None,
            })
        };
        assert_eq!(last(CounterKey::StreamElements), Some(8.0));
        assert_eq!(last(CounterKey::StreamBytes), Some(8_000.0));
        assert_eq!(
            last(CounterKey::StreamOccupancyHighWater),
            Some(8.0),
            "all 8 elements queued before the consumer was admitted"
        );
        assert_eq!(
            last(CounterKey::StreamBlockedSendMicros),
            Some(0.0),
            "backlog of 8 stays within the nominal capacity of 16"
        );
    }

    #[test]
    fn stream_consumer_records_recv_wait() {
        use crate::TraceBuffer;
        // Two cores: the consumer is admitted at the first element and
        // then waits ~10/11 s between arrivals; those gaps accumulate
        // as blocked-recv micros.
        let mut w = SimWorkload::new();
        let s = w.data("s");
        w.task(
            TaskSpec::new("slow_sensor").stream_out(s),
            TaskProfile::new(10.0).stream_elements(10),
        )
        .unwrap();
        w.task(TaskSpec::new("sink").stream_in(s), TaskProfile::new(10.0))
            .unwrap();
        let (buffer, telemetry) = TraceBuffer::collector();
        let opts = SimOptions {
            telemetry,
            ..SimOptions::default()
        };
        run(&w, cluster(1, 2), opts, &FaultPlan::new()).unwrap();
        let recv_us = buffer
            .events()
            .iter()
            .rev()
            .find_map(|e| match e {
                TelemetryEvent::Counter {
                    key: CounterKey::StreamBlockedRecvMicros,
                    value,
                    ..
                } => Some(*value),
                _ => None,
            })
            .expect("stream counters published");
        assert!(
            recv_us > 1_000_000.0,
            "inter-arrival waits must accumulate, got {recv_us}"
        );
    }

    #[test]
    fn stream_runs_are_deterministic() {
        let build = || {
            let mut w = SimWorkload::new();
            let s = w.data("s");
            let t = w.data("t");
            let out = w.data("out");
            w.task(
                TaskSpec::new("sensor").stream_out(s),
                TaskProfile::new(8.0).stream_elements(5),
            )
            .unwrap();
            w.task(
                TaskSpec::new("featurize").stream_in(s).stream_out(t),
                TaskProfile::new(8.0).stream_elements(5),
            )
            .unwrap();
            w.task(
                TaskSpec::new("sink").stream_in(t).output(out),
                TaskProfile::new(8.0),
            )
            .unwrap();
            w
        };
        let a = run(
            &build(),
            cluster(2, 2),
            SimOptions::default(),
            &FaultPlan::new(),
        )
        .unwrap();
        let b = run(
            &build(),
            cluster(2, 2),
            SimOptions::default(),
            &FaultPlan::new(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn determinism_same_inputs_same_report() {
        let w = chain_workload(20, 1.0);
        let faults = FaultPlan::churn(3, (0..4).map(NodeId::from_raw), 40.0, 5.0, 60.0);
        let a = run(&w, cluster(4, 2), SimOptions::default(), &faults).unwrap();
        let b = run(&w, cluster(4, 2), SimOptions::default(), &faults).unwrap();
        assert_eq!(a, b);
    }

    // ---- lazy materialization ------------------------------------------

    /// A pipeline of `n` unit tasks materialized one step ahead of the
    /// frontier: stage `i+1` is emitted when stage `i` completes, and
    /// each intermediate datum is closed as soon as its one consumer
    /// exists.
    struct LazyChain {
        n: usize,
        dur: f64,
        emitted: usize,
        prev: Option<DataId>,
    }

    impl LazyChain {
        fn new(n: usize, dur: f64) -> Self {
            LazyChain {
                n,
                dur,
                emitted: 0,
                prev: None,
            }
        }

        fn emit_next(&mut self, sink: &mut dyn ExpandSink<TaskProfile>) -> Result<(), DagError> {
            let out = sink.data(&format!("d{}", self.emitted));
            let spec = match self.prev {
                Some(prev) => TaskSpec::new(format!("t{}", self.emitted))
                    .input(prev)
                    .output(out),
                None => TaskSpec::new("t0").output(out),
            };
            sink.submit(spec, TaskProfile::new(self.dur))?;
            if let Some(prev) = self.prev {
                // The one consumer of `prev` is now materialized.
                sink.close_data(prev);
            }
            self.prev = Some(out);
            self.emitted += 1;
            Ok(())
        }
    }

    impl GraphSource<TaskProfile> for LazyChain {
        fn prime(&mut self, sink: &mut dyn ExpandSink<TaskProfile>) -> Result<(), DagError> {
            self.emit_next(sink)
        }

        fn on_task_complete(
            &mut self,
            _task: TaskId,
            sink: &mut dyn ExpandSink<TaskProfile>,
        ) -> Result<(), DagError> {
            if self.emitted < self.n {
                self.emit_next(sink)?;
            }
            Ok(())
        }

        fn total_tasks(&self) -> Option<u64> {
            Some(self.n as u64)
        }
    }

    fn eager_chain(n: usize, dur: f64) -> SimWorkload {
        // Same shape as LazyChain: n stages, each with its own datum.
        let mut w = SimWorkload::new();
        let mut prev: Option<DataId> = None;
        for i in 0..n {
            let out = w.data(format!("d{i}"));
            let spec = match prev {
                Some(p) => TaskSpec::new(format!("t{i}")).input(p).output(out),
                None => TaskSpec::new("t0").output(out),
            };
            w.task(spec, TaskProfile::new(dur)).unwrap();
            prev = Some(out);
        }
        w
    }

    #[test]
    fn lazy_chain_matches_eager_and_retires() {
        let n = 50;
        let rt = SimRuntime::new(cluster(2, 2), SimOptions::default());
        let (eager_report, eager_trace) = rt
            .run_traced(
                &eager_chain(n, 1.0),
                &mut FifoScheduler::new(),
                &FaultPlan::new(),
            )
            .unwrap();
        let mut source = LazyChain::new(n, 1.0);
        let out = rt
            .run_lazy(&mut source, &mut FifoScheduler::new(), &FaultPlan::new())
            .unwrap();
        assert_eq!(out.report, eager_report);
        assert_eq!(out.trace, eager_trace);
        assert_eq!(out.total_tasks, n);
        // Every stage but the frontier retires: peak resident stays
        // O(1) while the campaign is O(n).
        assert!(out.peak_materialized_tasks <= 3, "{out:?}");
        assert_eq!(out.retired_tasks, n - 1);
        // All data but the last (never closed) retire.
        assert_eq!(out.retired_values, (n - 1) as u64);
        assert!(out.peak_live_values <= 3);
        assert_eq!(out.events_processed, n as u64);
    }

    #[test]
    fn lazy_rejects_unsupported_modes() {
        let barrier = SimOptions {
            barrier_levels: true,
            ..Default::default()
        };
        let rt = SimRuntime::new(cluster(1, 2), barrier);
        let mut source = LazyChain::new(3, 1.0);
        let err = rt
            .run_lazy(&mut source, &mut FifoScheduler::new(), &FaultPlan::new())
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Stuck { .. }));

        let restart = SimOptions {
            data_loss: DataLossMode::Restart,
            ..Default::default()
        };
        let rt = SimRuntime::new(cluster(1, 2), restart);
        let mut source = LazyChain::new(3, 1.0);
        let err = rt
            .run_lazy(&mut source, &mut FifoScheduler::new(), &FaultPlan::new())
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Stuck { .. }));
    }
}
