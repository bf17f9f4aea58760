//! The task dependency graph and task lifecycle tracking.

use crate::error::DagError;
use crate::ids::{TaskId, VersionedData};
use crate::inline_vec::InlineVec;
use crate::ready::ReadySet;
use crate::seg_vec::{Retired, SegVec};
use crate::spec::TaskSpec;
use serde::{Deserialize, Serialize};

/// Lifecycle state of a task in the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskState {
    /// Waiting for one or more predecessors to complete.
    Pending,
    /// All predecessors completed; eligible for scheduling.
    Ready,
    /// Dispatched to a resource and executing.
    Running,
    /// Finished successfully.
    Completed,
    /// Execution failed (e.g. its host node died); may be re-queued.
    Failed,
}

impl TaskState {
    /// Returns `true` if the task has reached a terminal success state.
    pub fn is_completed(self) -> bool {
        matches!(self, TaskState::Completed)
    }
}

/// Dependency and access lists of a node: one entry fits inline, which
/// covers every stage of a linear pipeline.
type IdList = InlineVec<TaskId, 1>;
type ValueList = InlineVec<VersionedData, 1>;

/// First-element (stream) edges of a task. Boxed on the node because
/// most tasks have none.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct StreamEdges {
    /// Producers of streams this task consumes. Unlike `preds`, these
    /// edges release at the producer's *first element* (or completion,
    /// whichever comes first), not at completion.
    preds: IdList,
    /// Consumers of streams this task produces.
    succs: IdList,
}

/// One task in the graph: its spec, dependency wiring and state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskNode {
    id: TaskId,
    spec: TaskSpec,
    state: TaskState,
    /// Whether this task has released its stream consumers (set at its
    /// first element sent on any of its output streams, or at
    /// completion). Per task, not per stream: one release frees every
    /// stream successor.
    released: bool,
    unfinished_preds: u32,
    /// Stream predecessors that have not yet released.
    unreleased_streams: u32,
    preds: IdList,
    succs: IdList,
    streams: Option<Box<StreamEdges>>,
    consumed: ValueList,
    produced: ValueList,
}

impl TaskNode {
    /// The task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The task's spec (name, parameter accesses).
    pub fn spec(&self) -> &TaskSpec {
        &self.spec
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TaskState {
        self.state
    }

    /// Direct predecessors (tasks this one depends on).
    pub fn predecessors(&self) -> &[TaskId] {
        &self.preds
    }

    /// Direct successors (tasks depending on this one).
    pub fn successors(&self) -> &[TaskId] {
        &self.succs
    }

    /// Versioned data this task reads.
    pub fn consumed(&self) -> &[VersionedData] {
        &self.consumed
    }

    /// Versioned data this task produces.
    pub fn produced(&self) -> &[VersionedData] {
        &self.produced
    }

    /// Number of predecessors not yet completed.
    pub fn unfinished_predecessors(&self) -> usize {
        self.unfinished_preds as usize
    }

    /// Producers of streams this task consumes (first-element edges).
    pub fn stream_predecessors(&self) -> &[TaskId] {
        self.streams.as_ref().map_or(&[], |s| &s.preds)
    }

    /// Consumers of streams this task produces.
    pub fn stream_successors(&self) -> &[TaskId] {
        self.streams.as_ref().map_or(&[], |s| &s.succs)
    }

    /// Number of stream predecessors that have not released yet.
    pub fn unreleased_streams(&self) -> usize {
        self.unreleased_streams as usize
    }

    /// Whether this task has released its stream consumers.
    pub fn stream_released(&self) -> bool {
        self.released
    }

    fn streams_mut(&mut self) -> &mut StreamEdges {
        self.streams.get_or_insert_with(Box::default)
    }
}

/// A task dependency graph with ready-set maintenance.
///
/// The graph is append-only with respect to structure (tasks and edges
/// are added by the access processor) while task *states* evolve as a
/// runtime executes them. Completing a task releases its successors;
/// the newly-ready successors are returned so schedulers can react
/// incrementally without rescanning the graph.
///
/// Nodes live in a [`SegVec`]: ids are dense and never reissued, but a
/// segment nearly all of whose tasks were
/// [retired](TaskGraph::retire_payload) gives up its block, after
/// which [`TaskGraph::node`] reports the retired ids as unknown.
/// Graphs that never retire keep every node.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TaskGraph {
    nodes: SegVec<TaskNode>,
    ready: ReadySet,
    completed_count: usize,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id the next added task will receive.
    pub(crate) fn next_task_id(&self) -> TaskId {
        TaskId(self.nodes.len() as u64)
    }

    /// Adds a task with the given dependency wiring. Called by the
    /// access processor, which guarantees `preds` and `stream_preds`
    /// are deduped, sorted and refer to earlier tasks (so the graph is
    /// acyclic by construction). A predecessor that is no longer held
    /// was retired, so it is necessarily completed and wires no edge.
    pub(crate) fn add_task(
        &mut self,
        spec: TaskSpec,
        preds: IdList,
        stream_preds: IdList,
        consumed: ValueList,
        produced: ValueList,
    ) -> TaskId {
        let id = self.next_task_id();
        let mut unfinished = 0;
        for p in &preds {
            if let Some(pred) = self.nodes.get_mut(p.index()) {
                unfinished += u32::from(!pred.state.is_completed());
                pred.succs.push(id);
            }
        }
        // A producer that has already released (first element sent) or
        // completed does not gate a late-submitted consumer.
        let mut unreleased = 0;
        for p in &stream_preds {
            if let Some(pred) = self.nodes.get_mut(p.index()) {
                unreleased += u32::from(!pred.released && !pred.state.is_completed());
                pred.streams_mut().succs.push(id);
            }
        }
        let state = if unfinished == 0 && unreleased == 0 {
            self.ready.insert(id);
            TaskState::Ready
        } else {
            TaskState::Pending
        };
        let streams = (!stream_preds.is_empty()).then(|| {
            Box::new(StreamEdges {
                preds: stream_preds,
                succs: IdList::new(),
            })
        });
        self.nodes.push(TaskNode {
            id,
            spec,
            state,
            released: false,
            unfinished_preds: unfinished,
            unreleased_streams: unreleased,
            preds,
            succs: IdList::new(),
            streams,
            consumed,
            produced,
        });
        id
    }

    /// Number of task ids issued (retired tasks included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of completed tasks.
    pub fn completed_count(&self) -> usize {
        self.completed_count
    }

    /// Returns `true` once every task has completed.
    pub fn all_completed(&self) -> bool {
        self.completed_count == self.nodes.len()
    }

    /// Total number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.preds.len()).sum()
    }

    /// Total number of stream (first-element) edges.
    pub fn stream_edge_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.stream_predecessors().len())
            .sum()
    }

    /// Looks up a task node.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownTask`] for ids not in the graph,
    /// including retired ids whose segment was dropped or evacuated.
    pub fn node(&self, id: TaskId) -> Result<&TaskNode, DagError> {
        self.nodes.get(id.index()).ok_or(DagError::UnknownTask(id))
    }

    fn node_mut(&mut self, id: TaskId) -> Result<&mut TaskNode, DagError> {
        self.nodes
            .get_mut(id.index())
            .ok_or(DagError::UnknownTask(id))
    }

    /// Iterates over all resident task nodes in submission order.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = &TaskNode> {
        self.nodes.iter()
    }

    /// Node segments currently resident (see [`SegVec`]).
    pub fn resident_segments(&self) -> usize {
        self.nodes.resident_segments()
    }

    /// Live nodes kept on behalf of evacuated segments (see
    /// [`SegVec::evacuated_slots`]).
    pub fn evacuated_slots(&self) -> usize {
        self.nodes.evacuated_slots()
    }

    /// Direct predecessors of a task. Panics on unknown ids are avoided
    /// by returning an empty slice.
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        self.nodes.get(id.index()).map_or(&[], |n| &n.preds)
    }

    /// Direct successors of a task.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        self.nodes.get(id.index()).map_or(&[], |n| &n.succs)
    }

    /// The current set of ready (dependency-free, unscheduled) tasks.
    pub fn ready_tasks(&self) -> &ReadySet {
        &self.ready
    }

    /// Removes and returns an arbitrary (lowest-id) ready task.
    pub fn pop_ready(&mut self) -> Option<TaskId> {
        let id = self.ready.first()?;
        self.ready.remove(&id);
        Some(id)
    }

    /// Marks a ready task as running.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::InvalidTransition`] unless the task is
    /// currently `Ready`, and [`DagError::UnknownTask`] for unknown ids.
    pub fn mark_running(&mut self, id: TaskId) -> Result<(), DagError> {
        let node = self.node_mut(id)?;
        if node.state != TaskState::Ready {
            return Err(DagError::InvalidTransition {
                task: id,
                detail: format!("mark_running from {:?}", node.state),
            });
        }
        node.state = TaskState::Running;
        self.ready.remove(&id);
        Ok(())
    }

    /// Idempotent form of [`TaskGraph::mark_running`]: promotes a
    /// `Ready` task to `Running` and leaves an already-`Running` task
    /// untouched. Poll-based executors use this because a task that
    /// parked and was re-polled (possibly on a different worker)
    /// transitions to `Running` only on its *first* dispatch, while the
    /// failure path may fire on any later poll.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::InvalidTransition`] unless the task is
    /// `Ready` or `Running`, and [`DagError::UnknownTask`] for unknown
    /// ids.
    pub fn ensure_running(&mut self, id: TaskId) -> Result<(), DagError> {
        let node = self.node_mut(id)?;
        match node.state {
            TaskState::Running => Ok(()),
            TaskState::Ready => {
                node.state = TaskState::Running;
                self.ready.remove(&id);
                Ok(())
            }
            other => Err(DagError::InvalidTransition {
                task: id,
                detail: format!("ensure_running from {other:?}"),
            }),
        }
    }

    /// Marks a running task as completed and releases its successors.
    /// Returns the successors that became ready.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::InvalidTransition`] unless the task is
    /// `Running` (or `Ready`, which is accepted so single-threaded
    /// drivers may skip the explicit running transition).
    pub fn complete(&mut self, id: TaskId) -> Result<Vec<TaskId>, DagError> {
        let mut newly_ready = Vec::new();
        self.complete_into(id, &mut newly_ready)?;
        Ok(newly_ready)
    }

    /// Allocation-free variant of [`TaskGraph::complete`]: newly-ready
    /// successors are appended to the caller-provided buffer instead of
    /// a fresh `Vec`, and the successor list is walked in place rather
    /// than cloned. Hot executors call this with a pooled buffer so a
    /// steady-state completion performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TaskGraph::complete`].
    pub fn complete_into(
        &mut self,
        id: TaskId,
        newly_ready: &mut Vec<TaskId>,
    ) -> Result<(), DagError> {
        let node = self.node_mut(id)?;
        match node.state {
            TaskState::Running => {}
            TaskState::Ready => {
                self.ready.remove(&id);
            }
            other => {
                return Err(DagError::InvalidTransition {
                    task: id,
                    detail: format!("complete from {other:?}"),
                });
            }
        }
        self.nodes[id.index()].state = TaskState::Completed;
        self.completed_count += 1;
        // Index-walk the successor list so releasing edges re-borrows
        // per iteration instead of cloning the list.
        for k in 0..self.nodes[id.index()].succs.len() {
            let s = self.nodes[id.index()].succs[k];
            let sn = &mut self.nodes[s.index()];
            sn.unfinished_preds -= 1;
            if sn.unfinished_preds == 0
                && sn.unreleased_streams == 0
                && sn.state == TaskState::Pending
            {
                sn.state = TaskState::Ready;
                self.ready.insert(s);
                newly_ready.push(s);
            }
        }
        // Completion is also a release: a producer that never sent an
        // element (empty stream) must still free its consumers.
        if !self.nodes[id.index()].released {
            self.release_walk(id, newly_ready);
        }
        Ok(())
    }

    /// Marks `id` as having released its stream consumers — called by
    /// engines at the producer's first element — and promotes any
    /// consumer that was waiting only on this release. Idempotent:
    /// releasing twice (or after completion) is a no-op. Newly-ready
    /// consumers are appended to `newly_ready`.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownTask`] for ids not in the graph.
    pub fn stream_release_into(
        &mut self,
        id: TaskId,
        newly_ready: &mut Vec<TaskId>,
    ) -> Result<(), DagError> {
        if !self.node(id)?.released {
            self.release_walk(id, newly_ready);
        }
        Ok(())
    }

    /// Allocating convenience form of [`TaskGraph::stream_release_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`TaskGraph::stream_release_into`].
    pub fn stream_release(&mut self, id: TaskId) -> Result<Vec<TaskId>, DagError> {
        let mut newly_ready = Vec::new();
        self.stream_release_into(id, &mut newly_ready)?;
        Ok(newly_ready)
    }

    /// Sets the released flag and walks the stream successors. Caller
    /// checks the flag first.
    fn release_walk(&mut self, id: TaskId, newly_ready: &mut Vec<TaskId>) {
        self.nodes[id.index()].released = true;
        for k in 0..self.nodes[id.index()].stream_successors().len() {
            let s = self.nodes[id.index()].stream_successors()[k];
            let sn = &mut self.nodes[s.index()];
            sn.unreleased_streams -= 1;
            if sn.unfinished_preds == 0
                && sn.unreleased_streams == 0
                && sn.state == TaskState::Pending
            {
                sn.state = TaskState::Ready;
                self.ready.insert(s);
                newly_ready.push(s);
            }
        }
    }

    /// Marks a running task as failed (e.g. its node died).
    ///
    /// # Errors
    ///
    /// Returns [`DagError::InvalidTransition`] unless the task is
    /// `Running`.
    pub fn mark_failed(&mut self, id: TaskId) -> Result<(), DagError> {
        let node = self.node_mut(id)?;
        if node.state != TaskState::Running {
            return Err(DagError::InvalidTransition {
                task: id,
                detail: format!("mark_failed from {:?}", node.state),
            });
        }
        node.state = TaskState::Failed;
        Ok(())
    }

    /// Re-queues a failed task as ready (used by recovery after a node
    /// failure once its inputs are available again).
    ///
    /// # Errors
    ///
    /// Returns [`DagError::InvalidTransition`] unless the task is
    /// `Failed`.
    pub fn requeue_failed(&mut self, id: TaskId) -> Result<(), DagError> {
        let node = self.node_mut(id)?;
        if node.state != TaskState::Failed {
            return Err(DagError::InvalidTransition {
                task: id,
                detail: format!("requeue_failed from {:?}", node.state),
            });
        }
        node.state = TaskState::Ready;
        self.ready.insert(id);
        Ok(())
    }

    /// Retires a finished task: frees its heap payload — spec,
    /// dependency and data-access lists — at once, and marks its slot
    /// retired (see [`SegVec::retire`]). The id stays valid (ids never
    /// shift) while its segment is resident; once the segment is down
    /// to a few live tasks it is evacuated, and dropped with the last
    /// of them — from then on [`TaskGraph::node`] reports the retired
    /// ids as unknown. The result says which happened, so the caller
    /// can make the columns it keeps beside the graph
    /// [follow](SegVec::follow). Lazily-materialized runs call this
    /// once a task *and every value it produced* have been retired:
    /// nothing will traverse it again, so resident memory is bounded
    /// by the live tasks instead of the whole campaign. Retiring twice
    /// is a no-op.
    ///
    /// Completion is the *caller's* claim: engines that track run
    /// state outside the graph (see [`GraphRun`]) leave node states
    /// frozen at submission values, so no graph-level state check is
    /// possible here. Retiring a task that will be traversed again is
    /// a logic error.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownTask`] for unknown ids.
    pub fn retire_payload(&mut self, id: TaskId) -> Result<Retired, DagError> {
        let node = self.node_mut(id)?;
        node.spec = TaskSpec::new("");
        node.preds.clear();
        node.succs.clear();
        node.streams = None;
        node.consumed.clear();
        node.produced.clear();
        Ok(self.nodes.retire(id.index()))
    }

    /// Topological order of all tasks (submission order is already
    /// topological because edges only point forward, but this validates
    /// the invariant and is used by static schedulers).
    pub fn topological_order(&self) -> Vec<TaskId> {
        // Kahn's algorithm over the full graph — completion and stream
        // edges alike — independent of states.
        let mut indeg = vec![0usize; self.nodes.len()];
        let mut queue = Vec::new();
        for n in self.nodes.iter() {
            let d = n.preds.len() + n.stream_predecessors().len();
            indeg[n.id.index()] = d;
            if d == 0 {
                queue.push(n.id);
            }
        }
        let mut order = Vec::with_capacity(queue.len());
        while let Some(id) = queue.pop() {
            order.push(id);
            let n = &self.nodes[id.index()];
            for &s in n.succs.iter().chain(n.stream_successors()) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        debug_assert_eq!(
            order.len(),
            self.nodes.iter().count(),
            "graph must be acyclic"
        );
        order
    }
}

/// Per-task run state of a [`GraphRun`].
#[derive(Debug, Clone, Copy)]
struct RunSlot {
    state: TaskState,
    released: bool,
    unfinished: u32,
    stream_unreleased: u32,
}

/// Mutable execution state over a borrowed, structurally-immutable
/// [`TaskGraph`].
///
/// Cloning a whole `TaskGraph` to run it copies every spec string and
/// dependency list — several heap allocations per task that the run
/// never mutates. `GraphRun` snapshots only the evolving part (task
/// states, unfinished-predecessor counts, the ready set) so an engine
/// can execute the same graph repeatedly against a shared immutable
/// structure. State transitions mirror [`TaskGraph`]'s exactly,
/// including the error conditions.
#[derive(Debug, Clone)]
pub struct GraphRun {
    slots: SegVec<RunSlot>,
    ready: ReadySet,
    completed_count: usize,
}

impl GraphRun {
    /// Snapshots the current lifecycle state of `graph`.
    pub fn new(graph: &TaskGraph) -> Self {
        debug_assert_eq!(
            graph.nodes.iter().count(),
            graph.len(),
            "a run starts from a graph that retired nothing"
        );
        GraphRun {
            slots: graph
                .nodes
                .iter()
                .map(|n| RunSlot {
                    state: n.state,
                    released: n.released,
                    unfinished: n.unfinished_preds,
                    stream_unreleased: n.unreleased_streams,
                })
                .collect(),
            ready: graph.ready.clone(),
            completed_count: graph.completed_count,
        }
    }

    /// Current lifecycle state of a task, or `None` for unknown ids
    /// (including retired ids the run no longer holds, see
    /// [`GraphRun::follow`]).
    pub fn state(&self, id: TaskId) -> Option<TaskState> {
        self.slots.get(id.index()).map(|s| s.state)
    }

    /// Number of tasks this run tracks (the graph length at creation
    /// or the last [`GraphRun::grow`]).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the run tracks no tasks.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Extends the run to cover tasks appended to `graph` since this
    /// run was created or last grown (lazy materialization). Returns
    /// how many tasks were added.
    ///
    /// Readiness of new tasks is computed from the **run's** states —
    /// not the graph's, which stay frozen while an engine executes
    /// through a `GraphRun` — so a consumer materialized after its
    /// producer completed in this run starts `Ready`. Dependency edges
    /// only point backward, and the new nodes are scanned in id order,
    /// so every predecessor's run state exists by the time it is read;
    /// a predecessor the run no longer holds is necessarily completed.
    pub fn grow(&mut self, graph: &TaskGraph) -> usize {
        let old = self.slots.len();
        for node in graph.nodes.iter_from(old) {
            let unfinished = node
                .preds
                .iter()
                .filter(|p| {
                    self.slots
                        .get(p.index())
                        .is_some_and(|s| !s.state.is_completed())
                })
                .count();
            let unreleased = node
                .stream_predecessors()
                .iter()
                .filter(|p| {
                    self.slots
                        .get(p.index())
                        .is_some_and(|s| !s.released && !s.state.is_completed())
                })
                .count();
            let state = if unfinished == 0 && unreleased == 0 {
                self.ready.insert(node.id);
                TaskState::Ready
            } else {
                TaskState::Pending
            };
            self.slots.push(RunSlot {
                state,
                released: false,
                unfinished: unfinished as u32,
                stream_unreleased: unreleased as u32,
            });
        }
        self.slots.len() - old
    }

    /// Does to the run state what a [`TaskGraph::retire_payload`] did
    /// to the graph's nodes.
    pub fn follow(&mut self, outcome: &Retired) {
        self.slots.follow(outcome);
    }

    /// Tasks whose dependencies are satisfied, in ascending id order.
    pub fn ready_tasks(&self) -> &ReadySet {
        &self.ready
    }

    /// Number of completed tasks.
    pub fn completed_count(&self) -> usize {
        self.completed_count
    }

    /// Returns `true` once every task has completed.
    pub fn all_completed(&self) -> bool {
        self.completed_count == self.slots.len()
    }

    fn slot_mut(&mut self, id: TaskId) -> Result<&mut RunSlot, DagError> {
        self.slots
            .get_mut(id.index())
            .ok_or(DagError::UnknownTask(id))
    }

    /// Marks a ready task as running (see [`TaskGraph::mark_running`]).
    ///
    /// # Errors
    ///
    /// Returns [`DagError::InvalidTransition`] unless the task is
    /// currently `Ready`, and [`DagError::UnknownTask`] for unknown ids.
    pub fn mark_running(&mut self, id: TaskId) -> Result<(), DagError> {
        let slot = self.slot_mut(id)?;
        if slot.state != TaskState::Ready {
            return Err(DagError::InvalidTransition {
                task: id,
                detail: format!("mark_running from {:?}", slot.state),
            });
        }
        slot.state = TaskState::Running;
        self.ready.remove(&id);
        Ok(())
    }

    /// Marks a running task as completed and releases its successors
    /// (read from `graph`, which must be the graph this run was built
    /// from). Returns how many successors became ready — unlike
    /// [`TaskGraph::complete`] no list is built, keeping completions
    /// allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::InvalidTransition`] unless the task is
    /// `Running` (or `Ready`, accepted so single-threaded drivers may
    /// skip the explicit running transition).
    pub fn complete(&mut self, graph: &TaskGraph, id: TaskId) -> Result<usize, DagError> {
        let slot = self.slot_mut(id)?;
        match slot.state {
            TaskState::Running => {}
            TaskState::Ready => {
                self.ready.remove(&id);
            }
            other => {
                return Err(DagError::InvalidTransition {
                    task: id,
                    detail: format!("complete from {other:?}"),
                });
            }
        }
        let slot = &mut self.slots[id.index()];
        slot.state = TaskState::Completed;
        let released = slot.released;
        self.completed_count += 1;
        let mut newly_ready = 0;
        for &s in graph.successors(id) {
            newly_ready += self.release_edge(s, false);
        }
        // Completion releases any consumers still gated on this
        // producer's first element (see `TaskGraph::complete_into`).
        if !released {
            newly_ready += self.release_walk(graph, id);
        }
        Ok(newly_ready)
    }

    /// Releases one incoming edge of `id` — a completion edge, or a
    /// stream (first-element) edge — and promotes the task if nothing
    /// is left to wait for; returns how many tasks became ready (0 or
    /// 1).
    fn release_edge(&mut self, id: TaskId, stream: bool) -> usize {
        let slot = &mut self.slots[id.index()];
        if stream {
            slot.stream_unreleased -= 1;
        } else {
            slot.unfinished -= 1;
        }
        if slot.unfinished == 0 && slot.stream_unreleased == 0 && slot.state == TaskState::Pending {
            slot.state = TaskState::Ready;
            self.ready.insert(id);
            return 1;
        }
        0
    }

    /// Marks `id` as having released its stream consumers and promotes
    /// consumers waiting only on this release; returns how many became
    /// ready. Idempotent, mirroring [`TaskGraph::stream_release_into`].
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownTask`] for ids not in the run.
    pub fn stream_release(&mut self, graph: &TaskGraph, id: TaskId) -> Result<usize, DagError> {
        if self.slot_mut(id)?.released {
            return Ok(0);
        }
        Ok(self.release_walk(graph, id))
    }

    /// Whether `id` has released its stream consumers in this run.
    pub fn stream_released(&self, id: TaskId) -> bool {
        self.slots.get(id.index()).is_some_and(|s| s.released)
    }

    fn release_walk(&mut self, graph: &TaskGraph, id: TaskId) -> usize {
        self.slots[id.index()].released = true;
        let mut newly_ready = 0;
        let consumers = graph
            .nodes
            .get(id.index())
            .map_or(&[][..], TaskNode::stream_successors);
        for &s in consumers {
            newly_ready += self.release_edge(s, true);
        }
        newly_ready
    }

    /// Marks a running task as failed (see [`TaskGraph::mark_failed`]).
    ///
    /// # Errors
    ///
    /// Returns [`DagError::InvalidTransition`] unless the task is
    /// `Running`.
    pub fn mark_failed(&mut self, id: TaskId) -> Result<(), DagError> {
        let slot = self.slot_mut(id)?;
        if slot.state != TaskState::Running {
            return Err(DagError::InvalidTransition {
                task: id,
                detail: format!("mark_failed from {:?}", slot.state),
            });
        }
        slot.state = TaskState::Failed;
        Ok(())
    }

    /// Re-queues a failed task as ready (see
    /// [`TaskGraph::requeue_failed`]).
    ///
    /// # Errors
    ///
    /// Returns [`DagError::InvalidTransition`] unless the task is
    /// `Failed`.
    pub fn requeue_failed(&mut self, id: TaskId) -> Result<(), DagError> {
        let slot = self.slot_mut(id)?;
        if slot.state != TaskState::Failed {
            return Err(DagError::InvalidTransition {
                task: id,
                detail: format!("requeue_failed from {:?}", slot.state),
            });
        }
        slot.state = TaskState::Ready;
        self.ready.insert(id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessProcessor;
    use crate::spec::TaskSpec;

    /// Nodes are the bulk of a resident graph; a field that grows one
    /// shows here before it shows in a heap profile.
    #[test]
    fn node_and_spec_did_not_grow() {
        assert_eq!(std::mem::size_of::<TaskSpec>(), 88);
        assert_eq!(std::mem::size_of::<TaskNode>(), 232);
    }

    /// Builds the diamond: a -> {b, c} -> d.
    fn diamond() -> (AccessProcessor, [TaskId; 4]) {
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        let y = ap.new_data("y");
        let z = ap.new_data("z");
        let out = ap.new_data("out");
        let a = ap.register(TaskSpec::new("a").output(x)).unwrap();
        let b = ap.register(TaskSpec::new("b").input(x).output(y)).unwrap();
        let c = ap.register(TaskSpec::new("c").input(x).output(z)).unwrap();
        let d = ap
            .register(TaskSpec::new("d").input(y).input(z).output(out))
            .unwrap();
        (ap, [a, b, c, d])
    }

    #[test]
    fn ready_set_evolves_with_completions() {
        let (mut ap, [a, b, c, d]) = diamond();
        let g = ap.graph_mut();
        assert_eq!(g.ready_tasks().iter().collect::<Vec<_>>(), vec![a]);
        g.mark_running(a).unwrap();
        let newly = g.complete(a).unwrap();
        assert_eq!(newly, vec![b, c]);
        g.mark_running(b).unwrap();
        g.mark_running(c).unwrap();
        assert!(g.complete(b).unwrap().is_empty());
        assert_eq!(g.complete(c).unwrap(), vec![d]);
        g.mark_running(d).unwrap();
        g.complete(d).unwrap();
        assert!(g.all_completed());
        assert_eq!(g.completed_count(), 4);
    }

    #[test]
    fn complete_from_ready_is_accepted() {
        let (mut ap, [a, ..]) = diamond();
        let g = ap.graph_mut();
        assert!(g.complete(a).is_ok());
    }

    #[test]
    fn invalid_transitions_rejected() {
        let (mut ap, [a, b, ..]) = diamond();
        let g = ap.graph_mut();
        assert!(g.mark_running(b).is_err(), "b is pending, not ready");
        g.mark_running(a).unwrap();
        assert!(g.mark_running(a).is_err(), "already running");
        g.complete(a).unwrap();
        assert!(g.complete(a).is_err(), "already completed");
        assert!(g.mark_failed(a).is_err(), "completed tasks cannot fail");
    }

    #[test]
    fn failure_and_requeue() {
        let (mut ap, [a, ..]) = diamond();
        let g = ap.graph_mut();
        g.mark_running(a).unwrap();
        g.mark_failed(a).unwrap();
        assert!(!g.ready_tasks().contains(&a));
        g.requeue_failed(a).unwrap();
        assert!(g.ready_tasks().contains(&a));
        assert!(g.requeue_failed(a).is_err(), "no longer failed");
    }

    #[test]
    fn graph_run_mirrors_task_graph_lifecycle() {
        let (ap, [a, b, c, d]) = diamond();
        let graph = ap.graph();
        let mut run = GraphRun::new(graph);
        // Mirror `ready_set_evolves_with_completions` without cloning
        // or mutating the structure.
        assert_eq!(run.ready_tasks().iter().collect::<Vec<_>>(), vec![a]);
        run.mark_running(a).unwrap();
        assert_eq!(run.complete(graph, a).unwrap(), 2, "b and c released");
        assert_eq!(run.state(a), Some(TaskState::Completed));
        run.mark_running(b).unwrap();
        run.mark_running(c).unwrap();
        assert_eq!(run.complete(graph, b).unwrap(), 0);
        assert_eq!(run.complete(graph, c).unwrap(), 1, "d released");
        // Complete-from-ready shortcut, invalid transitions, failure
        // and requeue all behave as on TaskGraph.
        assert!(run.mark_running(d).is_ok());
        run.mark_failed(d).unwrap();
        assert!(!run.ready_tasks().contains(&d));
        run.requeue_failed(d).unwrap();
        assert!(run.ready_tasks().contains(&d));
        assert!(run.requeue_failed(d).is_err(), "no longer failed");
        assert!(run.complete(graph, d).is_ok(), "complete from ready");
        assert!(run.complete(graph, d).is_err(), "already completed");
        assert!(run.all_completed());
        assert_eq!(run.completed_count(), 4);
        // The underlying graph never changed.
        assert_eq!(graph.completed_count(), 0);
        assert!(graph.ready_tasks().contains(&a));
    }

    #[test]
    fn pop_ready_returns_lowest_id() {
        let mut ap = AccessProcessor::new();
        let d0 = ap.new_data("d0");
        let d1 = ap.new_data("d1");
        let t0 = ap.register(TaskSpec::new("t0").output(d0)).unwrap();
        let t1 = ap.register(TaskSpec::new("t1").output(d1)).unwrap();
        let g = ap.graph_mut();
        assert_eq!(g.pop_ready(), Some(t0));
        assert_eq!(g.pop_ready(), Some(t1));
        assert_eq!(g.pop_ready(), None);
    }

    #[test]
    fn topological_order_respects_edges() {
        let (ap, _) = diamond();
        let order = ap.graph().topological_order();
        assert_eq!(order.len(), 4);
        let pos: Vec<usize> = (0..4)
            .map(|i| {
                order
                    .iter()
                    .position(|t| t.index() == i)
                    .expect("all tasks present")
            })
            .collect();
        assert!(pos[0] < pos[1] && pos[0] < pos[2]);
        assert!(pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn edge_count_matches_structure() {
        let (ap, _) = diamond();
        assert_eq!(ap.graph().edge_count(), 4); // a->b, a->c, b->d, c->d
    }

    #[test]
    fn late_submission_after_completion_is_immediately_ready() {
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        let a = ap.register(TaskSpec::new("a").output(x)).unwrap();
        ap.graph_mut().mark_running(a).unwrap();
        ap.graph_mut().complete(a).unwrap();
        // A reader submitted after the producer finished must be ready.
        let r = ap.register(TaskSpec::new("r").input(x)).unwrap();
        assert!(ap.graph().ready_tasks().contains(&r));
        assert_eq!(ap.graph().node(r).unwrap().unfinished_predecessors(), 0);
    }

    #[test]
    fn unknown_task_errors() {
        let g = TaskGraph::new();
        assert!(g.node(TaskId::from_raw(0)).is_err());
        assert!(g.predecessors(TaskId::from_raw(5)).is_empty());
        let mut g = TaskGraph::new();
        assert!(g.stream_release(TaskId::from_raw(0)).is_err());
    }

    /// Builds sensor -(stream s)-> feat -(stream f)-> sink.
    fn stream_chain() -> (AccessProcessor, [TaskId; 3]) {
        let mut ap = AccessProcessor::new();
        let s = ap.new_data("s");
        let f = ap.new_data("f");
        let sensor = ap.register(TaskSpec::new("sensor").stream_out(s)).unwrap();
        let feat = ap
            .register(TaskSpec::new("feat").stream_in(s).stream_out(f))
            .unwrap();
        let sink = ap.register(TaskSpec::new("sink").stream_in(f)).unwrap();
        (ap, [sensor, feat, sink])
    }

    #[test]
    fn graph_run_mirrors_stream_release() {
        let (ap, [sensor, feat, sink]) = stream_chain();
        let graph = ap.graph();
        let mut run = GraphRun::new(graph);
        assert_eq!(run.ready_tasks().iter().collect::<Vec<_>>(), vec![sensor]);
        run.mark_running(sensor).unwrap();
        // First element propagates readiness down the chain as each
        // stage sends, all three stages concurrently running.
        assert_eq!(run.stream_release(graph, sensor).unwrap(), 1);
        assert!(!run.stream_released(feat));
        run.mark_running(feat).unwrap();
        assert_eq!(run.stream_release(graph, feat).unwrap(), 1);
        assert!(run.stream_released(feat));
        run.mark_running(sink).unwrap();
        // Idempotent.
        assert_eq!(run.stream_release(graph, sensor).unwrap(), 0);
        // Completions in pipeline order; no further releases pending.
        assert_eq!(run.complete(graph, sensor).unwrap(), 0);
        assert_eq!(run.complete(graph, feat).unwrap(), 0);
        assert_eq!(run.complete(graph, sink).unwrap(), 0);
        assert!(run.all_completed());
        assert!(run.stream_release(graph, TaskId::from_raw(9)).is_err());
        // The borrowed graph never changed.
        assert!(!graph.node(sensor).unwrap().stream_released());
    }

    #[test]
    fn graph_run_completion_releases_unstarted_streams() {
        let (ap, [sensor, feat, sink]) = stream_chain();
        let graph = ap.graph();
        let mut run = GraphRun::new(graph);
        // Sensor completes without sending: feat becomes ready; feat
        // completes without sending: sink becomes ready.
        assert_eq!(run.complete(graph, sensor).unwrap(), 1);
        assert_eq!(run.complete(graph, feat).unwrap(), 1);
        assert_eq!(run.complete(graph, sink).unwrap(), 0);
        assert!(run.all_completed());
    }

    #[test]
    fn topological_order_includes_stream_edges() {
        let (ap, [sensor, feat, sink]) = stream_chain();
        let order = ap.graph().topological_order();
        let pos = |t: TaskId| order.iter().position(|x| *x == t).unwrap();
        assert!(pos(sensor) < pos(feat) && pos(feat) < pos(sink));
        assert_eq!(ap.graph().edge_count(), 0);
        assert_eq!(ap.graph().stream_edge_count(), 2);
    }

    #[test]
    fn mixed_completion_and_stream_gating() {
        // A consumer with both a versioned input and a stream input
        // needs the input produced *and* the stream released.
        let mut ap = AccessProcessor::new();
        let model = ap.new_data("model");
        let s = ap.new_data("s");
        let train = ap.register(TaskSpec::new("train").output(model)).unwrap();
        let sensor = ap.register(TaskSpec::new("sensor").stream_out(s)).unwrap();
        let infer = ap
            .register(TaskSpec::new("infer").input(model).stream_in(s))
            .unwrap();
        let g = ap.graph_mut();
        assert!(!g.ready_tasks().contains(&infer));
        g.stream_release(sensor).unwrap();
        assert!(!g.ready_tasks().contains(&infer), "model still missing");
        assert_eq!(g.complete(train).unwrap(), vec![infer]);
        let n = g.node(infer).unwrap();
        assert_eq!(n.predecessors(), &[train]);
        assert_eq!(n.stream_predecessors(), &[sensor]);
        assert_eq!(n.unreleased_streams(), 0);
    }
}
