//! Lazy materialization: the source expands the graph as tasks
//! complete, and values, tasks and task segments retire as soon as
//! nothing materialized still needs them.

use super::place::TaskSlot;
use super::Engine;
use crate::data::Settle;
use crate::error::RuntimeError;
use crate::profile::TaskProfile;
use crate::workload::SimWorkload;
use continuum_dag::{DagError, DataId, ExpandSink, GraphSource, TaskId, TaskSpec, VersionedData};
use continuum_sim::{ExecutionTrace, RunReport, VirtualTime};
use continuum_telemetry::{micros_from_seconds, Event as TelemetryEvent, TaskPhase, Track};
use std::fmt;
use std::ops::Deref;

/// The engine's view of its workload: borrowed for eager runs (the
/// caller keeps the workload and can re-run it under different
/// configurations), owned for lazy runs (the engine grows it through
/// the expansion sink as the [`GraphSource`] materializes subgraphs).
pub(super) enum WorkloadRef<'w> {
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
    /// The workload a lazy run grows and retires.
    fn owned_mut(&mut self) -> &mut SimWorkload {
        match self {
            WorkloadRef::Owned(w) => w,
            WorkloadRef::Borrowed(_) => unreachable!("lazy runs own their workload"),
        }
    }
}

/// Lazy-materialization state (`None` for eager runs). Value liveness
/// lives in the registry's records and the closed flags beside the
/// workload's catalog; what is left here is the source and the two
/// buffers each expansion reports through.
pub(super) struct LazyState<'s> {
    source: &'s mut dyn GraphSource<TaskProfile>,
    /// Initial data registered by the current expansion.
    new_initial: Vec<(DataId, u64)>,
    /// Data closed by the current expansion.
    closed: Vec<DataId>,
}

impl<'s> LazyState<'s> {
    pub(super) fn new(source: &'s mut dyn GraphSource<TaskProfile>) -> Self {
        LazyState {
            source,
            new_initial: Vec::new(),
            closed: Vec::new(),
        }
    }
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

/// What [`SimRuntime::run_lazy`](super::SimRuntime::run_lazy) returns
/// beyond the usual report: the execution trace plus the scale counters
/// that quantify how well lazy materialization bounded the resident
/// frontier.
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

impl Engine<'_, '_> {
    /// Asks the lazy source to expand (prime when `completed` is
    /// `None`, react to a completion otherwise), integrates what it
    /// emitted into the run state, and applies its close notices. A
    /// no-op for eager runs.
    pub(super) fn expand(
        &mut self,
        completed: Option<TaskId>,
        now: VirtualTime,
    ) -> Result<(), RuntimeError> {
        let Some(lazy) = self.lazy.as_mut() else {
            return Ok(());
        };
        let w = self.workload.owned_mut();
        let tasks_before = w.graph().len();
        // Out of `lazy` until the end: settling what closed borrows
        // the whole engine.
        let mut closed_now = std::mem::take(&mut lazy.closed);
        let mut sink = LazySink {
            w,
            new_initial: &mut lazy.new_initial,
            closed: &mut closed_now,
        };
        match completed {
            Some(task) => lazy.source.on_task_complete(task, &mut sink)?,
            None => lazy.source.prime(&mut sink)?,
        }
        // Externally-provided data from this expansion: available
        // immediately, liveness-tracked like any produced value.
        for (data, bytes) in lazy.new_initial.drain(..) {
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
            let node = self.workload.task_node(id);
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
            self.streams.open(spec);
            if self.options.telemetry.enabled() {
                self.options.telemetry.record(TelemetryEvent::Instant {
                    track: Track::Run,
                    name: spec.name_label().clone(),
                    phase: TaskPhase::Submitted,
                    at_us,
                });
            }
        }
        let w = self.workload.owned_mut();
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
        if let Some(lazy) = self.lazy.as_mut() {
            lazy.closed = closed_now;
        }
        Ok(())
    }

    /// Settles value liveness after `task` completed in a lazy run:
    /// its inputs have one fewer pending reader, its outputs are now
    /// produced, and anything fully drained retires.
    pub(super) fn settle_retirement(&mut self, task: TaskId) {
        // Inputs, then outputs, in the one scratch buffer.
        let mut values = std::mem::take(&mut self.value_scratch);
        values.clear();
        let node = self.workload.task_node(task);
        values.extend(node.consumed());
        let inputs = values.len();
        values.extend(node.produced());
        for &vd in &values[..inputs] {
            self.settle_value(vd, Settle::ReaderDone);
        }
        for &vd in &values[inputs..] {
            self.settle_value(vd, Settle::Produced);
        }
        if values.len() == inputs {
            // No outputs means no value retirement can ever cascade
            // into this task: retire it directly.
            self.retire_task(task);
        }
        self.value_scratch = values;
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
            self.workload.owned_mut().retire_data(vd.data);
        }
    }

    /// Retires a completed task none of whose outputs is live any
    /// more: frees its graph payload, and whatever that does to its
    /// task segment — evacuated, dropped — is done to every per-task
    /// column.
    fn retire_task(&mut self, task: TaskId) {
        let Ok(outcome) = self.workload.owned_mut().retire_task_payload(task) else {
            return;
        };
        self.retired_tasks += 1;
        self.slots.follow(&outcome);
        self.run.follow(&outcome);
        self.peak_evacuated_slots = self
            .peak_evacuated_slots
            .max(self.workload.graph().evacuated_slots());
    }
}
