//! Placement: the scheduling round over the ready set, the cached
//! input-readiness verdicts it filters by, and the start of an
//! execution on its hosts.

use super::{Engine, Event, Hosts};
use crate::error::RuntimeError;
use crate::scheduler::PlacementView;
use crate::workload::SimWorkload;
use continuum_dag::{TaskId, TaskState};
use continuum_platform::{Constraints, NodeId};
use continuum_sim::{NodeState, VirtualTime};
use continuum_telemetry::{
    micros_from_seconds, CounterKey, Event as TelemetryEvent, TaskPhase, Track,
};
use std::borrow::Cow;

/// Everything the engine keeps per task, indexed by task id in a
/// [`SegVec`](continuum_dag::SegVec) whose segments are evacuated and
/// dropped together with the graph's (see `Engine::retire_task`).
#[derive(Debug, Clone, Default)]
pub(super) struct TaskSlot {
    /// Cached `inputs_ready` verdict (dirty tracking). A cell is valid
    /// while `all_epoch` matches; a *false* verdict additionally
    /// requires `add_epoch` to match, because data arrivals
    /// (completions, node joins/recoveries) can flip it true, while
    /// only removals (failures, restarts) can flip true to false.
    pub(super) verdict: VerdictCell,
    /// Epoch of the in-flight execution, 0 while the task is not
    /// running (epochs start at 1). Stale `TaskDone`/`StreamSend`
    /// events carry another epoch and are ignored.
    pub(super) flight_epoch: u64,
    /// Start and transfer-stall seconds of the in-flight execution.
    pub(super) start_s: f64,
    pub(super) stall_s: f64,
    /// Nodes hosting the in-flight execution.
    pub(super) hosts: Hosts,
    /// Values this task produced that are not retired yet (lazy runs);
    /// reaching zero retires the task.
    pub(super) outstanding: u32,
    /// DAG level (barrier mode only).
    pub(super) level: u32,
    /// The task started at least once (a later start that is not a
    /// replay is a re-execution).
    pub(super) started_once: bool,
    /// A completed task being re-run to regenerate lost data.
    pub(super) replaying: bool,
}

/// Cached `inputs_ready` verdict for one task, validated against the
/// engine's invalidation epochs (see the fields on [`Engine`]).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct VerdictCell {
    all_epoch: u64,
    add_epoch: u64,
    ready: bool,
}

impl Engine<'_, '_> {
    pub(super) fn schedule_round(&mut self, now: VirtualTime) -> Result<(), RuntimeError> {
        let at_us = micros_from_seconds(now.as_seconds());
        let telemetry = &self.options.telemetry;
        telemetry.counter(
            CounterKey::QueueDepth,
            at_us,
            self.run.ready_tasks().len() as f64,
        );
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
            let req = self.workload.profile(task).constraints_ref();
            if req.is_multi_node() {
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
                    .with_uplink_state(&self.transfers.zone_uplink_busy, now)
                    .with_stream_sites(&self.streams.sites);
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
        let telemetry = &self.options.telemetry;
        if placed_total == 0 && waiting_on_replay {
            // Nothing placed and at least one task blocked solely on
            // an in-flight lineage replay: a replay stall, not true
            // unschedulability.
            self.replay_stall_rounds += 1;
            telemetry.counter(
                CounterKey::ReplayStallRounds,
                at_us,
                self.replay_stall_rounds as f64,
            );
        }
        if offered > 0 && telemetry.enabled() {
            // Virtual-duration span: scheduling is instantaneous in
            // virtual time (wall-clock overhead is measured by the
            // scheduling macro-bench, not recorded here, to keep
            // traces of identical runs byte-identical).
            telemetry.record(TelemetryEvent::Span {
                track: Track::Run,
                name: "scheduler-round".into(),
                phase: TaskPhase::Scheduled,
                start_us: at_us,
                dur_us: 0,
                ctx: None,
            });
            telemetry.counter(CounterKey::SchedulerTasksOffered, at_us, offered as f64);
            telemetry.counter(CounterKey::SchedulerTasksPlaced, at_us, placed_total as f64);
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
        let mut consumed = std::mem::take(&mut self.value_scratch);
        consumed.clear();
        let node = self.workload.task_node(task);
        consumed.extend(node.consumed());
        let mut all = true;
        for &vd in &consumed {
            if !self.ensure_available(vd, now)? {
                all = false;
            }
        }
        self.value_scratch = consumed;
        Ok(all)
    }

    pub(super) fn try_start_single(
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

    pub(super) fn try_start_multi(
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
    pub(super) fn begin_execution(&mut self, task: TaskId, hosts: Hosts, now: VirtualTime) {
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
        if !self.streams.is_empty() && !replaying {
            self.start_stream_endpoints(task, head, now.after(transfer_s), exec_s, epoch);
        }
    }

    /// Frees `task`'s reservation on every host that is still alive (a
    /// dead host lost the task, and its capacity was reset, when it
    /// failed).
    pub(super) fn release_hosts(&mut self, task: TaskId, hosts: &[NodeId], now: VirtualTime) {
        for host in hosts {
            let state = &mut self.nodes[host.index()];
            if state.is_alive() {
                let req = reservation(&self.workload, task, hosts.len(), state);
                state.finish(task, &req, now);
            }
        }
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
