//! The simulated execution engine: runs cost-modelled workloads on
//! simulated platforms under a pluggable scheduler, with data
//! transfers, locality, persistence, failures, lineage recovery and
//! elasticity.

mod lazy;
mod place;
mod recovery;
mod stream;
mod transfer;

use crate::data::DataRegistry;
use crate::error::{lint_verdict, RuntimeError};
use crate::profile::TaskProfile;
use crate::scheduler::Scheduler;
use crate::workload::SimWorkload;
use continuum_analyze::LintMode;
use continuum_dag::{
    DataId, GraphAnalysis, GraphRun, GraphSource, InlineVec, Label, SegVec, TaskId, VersionedData,
};
use continuum_platform::{ElasticityPolicy, NodeId, Platform, ZoneId};
use continuum_sim::{
    EventQueue, ExecutionTrace, FaultKind, FaultPlan, NodeState, RunReport, TraceRecord,
    TransferRecord, VirtualTime,
};
use continuum_telemetry::{
    micros_from_seconds, CounterKey, Event as TelemetryEvent, RecorderHandle, TaskPhase, Track,
};
use lazy::{LazyState, WorkloadRef};
use place::TaskSlot;
use stream::Streams;
use transfer::Transfers;

pub use lazy::LazyRunOutcome;

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
    /// exists. Default: `Off`. Lazy runs reject any other value (the
    /// lint needs the full graph up front).
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
    transfers: Transfers,
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
    value_scratch: Vec<VersionedData>,
    placement_scratch: Vec<(TaskId, NodeId)>,
    streams: Streams,
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
    /// * [`RuntimeError::Stuck`] if progress stops (e.g. the event
    ///   queue drained, or the virtual-time limit hit).
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
        let lint = || workload.lint_bundle(&self.platform).verify();
        let warnings = lint_verdict(self.options.strict_lints, lint)?;
        warnings.iter().for_each(|d| eprintln!("{d}"));
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
    /// Barrier-level execution, [`DataLossMode::Restart`] and
    /// [`SimOptions::strict_lints`] are not supported in lazy mode: all
    /// three assume the full graph up front.
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
        let options = &self.options;
        let unsupported = [
            (options.barrier_levels, "barrier_levels"),
            (
                options.data_loss == DataLossMode::Restart,
                "DataLossMode::Restart",
            ),
            (options.strict_lints != LintMode::Off, "strict_lints"),
        ];
        if let Some((_, option)) = unsupported.into_iter().find(|(set, _)| *set) {
            return Err(RuntimeError::Stuck {
                completed: 0,
                remaining: 0,
                reason: format!("{option} is not supported with lazy materialization"),
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
        let transfers = Transfers::new(platform.zones().len());
        let num_tasks = graph.len();
        let run = GraphRun::new(graph);
        let mut streams = Streams::default();
        for node in graph.nodes() {
            streams.open(node.spec());
        }
        let mut engine = Engine {
            workload,
            scheduler,
            options,
            platform,
            run,
            nodes,
            registry: DataRegistry::new(),
            transfers,
            queue: EventQueue::new(),
            slots: (0..num_tasks).map(|_| TaskSlot::default()).collect(),
            epoch: 0,
            reexecutions: 0,
            current_level: 0,
            level_remaining: Vec::new(),
            last_completion: VirtualTime::ZERO,
            restarts: 0,
            trace: ExecutionTrace::new(),
            inval_all_epoch: 1,
            inval_add_epoch: 1,
            replay_stall_rounds: 0,
            ready_scratch: Vec::new(),
            single_scratch: Vec::new(),
            multi_scratch: Vec::new(),
            value_scratch: Vec::new(),
            placement_scratch: Vec::new(),
            streams,
            lazy: source.map(LazyState::new),
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
                return Err(self.stall_error("event queue drained"));
            };
            self.events_processed += 1;
            if now.as_seconds() > self.options.max_virtual_seconds {
                return Err(self.stall_error("virtual time limit exceeded"));
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
        for n in &mut self.nodes {
            if n.is_alive() {
                n.advance(makespan);
            }
        }
        let telemetry = &self.options.telemetry;
        if telemetry.enabled() {
            let end_us = micros_from_seconds(makespan.as_seconds());
            telemetry.record(TelemetryEvent::Span {
                track: Track::Run,
                name: "sim-run".into(),
                phase: TaskPhase::Executing,
                start_us: 0,
                dur_us: end_us,
                ctx: None,
            });
            telemetry.run_end_counters(
                end_us,
                self.transfers.ledger.total_bytes(),
                micros_from_seconds(self.trace.total_transfer_stall_s()),
                self.reexecutions as u64,
            );
            for (key, value) in [
                (
                    CounterKey::MaterializedTasksHighWater,
                    self.peak_materialized,
                ),
                (CounterKey::LiveValuesHighWater, self.peak_live_values),
                (CounterKey::EventQueueHighWater, self.queue_high_water),
            ] {
                telemetry.counter(key, end_us, value as f64);
            }
            self.streams.publish_run_end(telemetry, makespan);
        }
        Ok(RunReport::from_parts(
            makespan.as_seconds(),
            self.run.completed_count(),
            self.reexecutions,
            self.trace.total_transfer_stall_s(),
            &self.nodes,
            &self.transfers.ledger,
        ))
    }

    fn stall_error(&self, reason: &str) -> RuntimeError {
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
                return RuntimeError::Unschedulable {
                    task,
                    reason: "no node in the platform satisfies its constraints".into(),
                };
            }
        }
        RuntimeError::Stuck {
            completed,
            remaining,
            reason: reason.to_string(),
        }
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
        if !was_replay && !self.streams.is_empty() {
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
        let telemetry = &self.options.telemetry;
        if telemetry.enabled() {
            for event in record.to_events(&self.task_name(task), None) {
                telemetry.record(event);
            }
        }
        telemetry.counter(
            CounterKey::TransferStallMicros,
            micros_from_seconds(now.as_seconds()),
            micros_from_seconds(self.trace.total_transfer_stall_s() + stall_s) as f64,
        );
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
        let outputs = self.workload.task_node(task);
        for (i, vd) in outputs.produced().enumerate() {
            let bytes = self.workload.profile(task).output_size(i);
            self.registry.record_production(vd, node, bytes);
            if let Some(storage) = self.options.persistence {
                self.registry.persist(vd);
                if bytes > 0 && storage != node {
                    // Asynchronous: logged, but it neither stalls the
                    // task nor contends for a link.
                    let secs = self.platform.transfer_seconds(bytes, node, storage);
                    self.transfers.ledger.record(TransferRecord {
                        from: node,
                        to: storage,
                        bytes,
                        seconds: secs,
                        start: now,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
