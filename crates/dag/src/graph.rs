//! The task dependency graph, which holds no run state, and
//! [`GraphRun`], the one task lifecycle both engines drive over it.

mod node;

use crate::error::DagError;
use crate::ids::TaskId;
use crate::ready::ReadySet;
use crate::seg_vec::{Retired, SegVec};
use crate::spec::TaskSpec;
pub(crate) use node::EDGES_INLINE;
use node::{EdgeList, IdList, Listed, VersionList};
pub use node::{NodeEdges, NodePayload, TaskNode};
use std::collections::BTreeMap;

/// Lifecycle state of a task in a [`GraphRun`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// A task dependency graph: tasks, their completion and stream edges,
/// and the versioned data each reads and writes.
///
/// The graph is append-only (tasks and edges are added by the access
/// processor) and holds no run state: what has run, what is ready and
/// what waits on what lives in a [`GraphRun`] over the graph, so one
/// graph can be executed, analysed and serialized without a lifecycle
/// riding along.
///
/// Each task is kept in two [`SegVec`] columns: its edges
/// ([`NodeEdges`], what a [`GraphRun`] walks) and its payload
/// ([`NodePayload`]: spec and resolved versions, what an engine reads
/// to set the task up). [`TaskGraph::node`] reads both as one
/// [`TaskNode`]. Ids are dense and never reissued. An engine that has
/// set a task up [retires its payload](TaskGraph::retire_spec) and
/// keeps walking its edges; one done with a task
/// [retires it](TaskGraph::retire_payload) in both columns, after
/// which a segment nearly all of whose tasks went gives up its blocks
/// and [`TaskGraph::node`] reports the retired ids as unknown. Graphs
/// that never retire keep every node whole.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    edges: SegVec<NodeEdges>,
    payload: SegVec<NodePayload>,
    /// By task index, access lists read from JSON that the task's spec
    /// does not resolve to.
    listed: BTreeMap<usize, Listed>,
}

impl TaskGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id the next added task will receive.
    pub(crate) fn next_task_id(&self) -> TaskId {
        TaskId(self.edges.len() as u64)
    }

    /// Adds a task with the given dependency wiring. Called by the
    /// access processor, which guarantees `preds` and `stream_preds`
    /// are deduped, sorted and refer to earlier tasks (so the graph is
    /// acyclic by construction). A predecessor that is no longer held
    /// was retired, so it is necessarily completed and wires no edge.
    pub(crate) fn add_task(
        &mut self,
        spec: TaskSpec,
        preds: EdgeList,
        stream_preds: IdList,
        versions: VersionList,
    ) -> TaskId {
        let id = self.next_task_id();
        for p in &preds {
            if let Some(pred) = self.edges.get_mut(p.index()) {
                pred.push_successor(id);
            }
        }
        for p in &stream_preds {
            if let Some(pred) = self.edges.get_mut(p.index()) {
                pred.push_stream_successor(id);
            }
        }
        self.edges.push(NodeEdges::new(preds, stream_preds));
        self.payload.push(NodePayload { spec, versions });
        id
    }

    /// Number of task ids issued (retired tasks included).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Total number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(|e| e.predecessors().len()).sum()
    }

    /// Total number of stream (first-element) edges.
    pub fn stream_edge_count(&self) -> usize {
        self.edges
            .iter()
            .map(|e| e.stream_predecessors().len())
            .sum()
    }

    /// Looks up a task node.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownTask`] for ids not in the graph,
    /// including retired ids whose segment was dropped or evacuated.
    pub fn node(&self, id: TaskId) -> Result<TaskNode<'_>, DagError> {
        let edges = self
            .edges
            .get(id.index())
            .ok_or(DagError::UnknownTask(id))?;
        Ok(self.view(id.index(), edges))
    }

    /// Iterates over all resident task nodes in submission order.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = TaskNode<'_>> {
        self.edges
            .indexed_from(0)
            .map(|(i, edges)| self.view(i, edges))
    }

    /// Structure segments currently resident (see [`SegVec`]).
    pub fn resident_segments(&self) -> usize {
        self.edges.resident_segments()
    }

    /// Payload segments currently resident: as many as the structure's
    /// while the graph retires whole tasks or nothing, one or two for
    /// an engine that retires each payload once it set its task up.
    pub fn resident_payload_segments(&self) -> usize {
        self.payload.resident_segments()
    }

    /// Live nodes kept on behalf of evacuated segments (see
    /// [`SegVec::evacuated_slots`]).
    pub fn evacuated_slots(&self) -> usize {
        self.edges.evacuated_slots()
    }

    /// Direct predecessors of a task. Panics on unknown ids are avoided
    /// by returning an empty slice.
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        self.edges
            .get(id.index())
            .map_or(&[], NodeEdges::predecessors)
    }

    /// Direct successors of a task.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        self.edges
            .get(id.index())
            .map_or(&[], NodeEdges::successors)
    }

    /// Retires a finished task in both columns: frees its heap
    /// payload — spec, dependency and data-access lists — at once, and
    /// marks its slot retired (see [`SegVec::retire`]). The id stays
    /// valid (ids never shift) while its segment is resident; once the
    /// segment is down to a few live tasks it is evacuated, and dropped
    /// with the last of them — from then on [`TaskGraph::node`]
    /// reports the retired ids as unknown. The payload column follows
    /// the structure's, and the result says what happened, so the
    /// caller can make the columns it keeps beside the graph
    /// [follow](SegVec::follow) too. Lazily-materialized runs call
    /// this once a task *and every value it produced* have been
    /// retired: nothing will traverse it again, so resident memory is
    /// bounded by the live tasks instead of the whole campaign.
    /// Retiring twice is a no-op.
    ///
    /// Completion is the *caller's* claim: the graph holds no run
    /// state (see [`GraphRun`]), so no state check is possible here.
    /// Retiring a task that will be traversed again is a logic error.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownTask`] for unknown ids.
    pub fn retire_payload(&mut self, id: TaskId) -> Result<Retired, DagError> {
        let edges = self
            .edges
            .get_mut(id.index())
            .ok_or(DagError::UnknownTask(id))?;
        edges.clear();
        self.listed.remove(&id.index());
        if let Some(payload) = self.payload.get_mut(id.index()) {
            *payload = NodePayload::default();
        }
        let outcome = self.edges.retire(id.index());
        self.payload.follow(&outcome);
        Ok(outcome)
    }

    /// Retires a task's payload — its spec and the versions it read
    /// and wrote — and keeps its edges: the task reads an empty spec
    /// and empty access lists from now on, while a [`GraphRun`] still
    /// walks it and [`TaskGraph::node`] still knows it. For an engine
    /// that has set the task up and reads nothing of it but its edges
    /// after that. Payload segments whose every task went are dropped
    /// and their blocks reused; no other column follows them.
    /// Retiring twice is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownTask`] for unknown ids.
    pub fn retire_spec(&mut self, id: TaskId) -> Result<(), DagError> {
        if self.edges.get(id.index()).is_none() {
            return Err(DagError::UnknownTask(id));
        }
        self.listed.remove(&id.index());
        if let Some(payload) = self.payload.get_mut(id.index()) {
            *payload = NodePayload::default();
        }
        // No column is kept in lockstep with the payload, so whatever
        // the retirement did to its segment has nobody to follow it.
        let _ = self.payload.retire(id.index());
        Ok(())
    }

    /// Topological order of all tasks (submission order is already
    /// topological because edges only point forward, but this validates
    /// the invariant and is used by static schedulers).
    pub fn topological_order(&self) -> Vec<TaskId> {
        // Kahn's algorithm over the full graph — completion and stream
        // edges alike.
        let mut indeg = vec![0usize; self.edges.len()];
        let mut queue = Vec::new();
        for (index, n) in self.edges.indexed_from(0) {
            let d = n.predecessors().len() + n.stream_predecessors().len();
            indeg[index] = d;
            if d == 0 {
                queue.push(TaskId(index as u64));
            }
        }
        let mut order = Vec::with_capacity(queue.len());
        while let Some(id) = queue.pop() {
            order.push(id);
            let n = &self.edges[id.index()];
            for &s in n.successors().iter().chain(n.stream_successors()) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        debug_assert_eq!(
            order.len(),
            self.edges.iter().count(),
            "graph must be acyclic"
        );
        order
    }
}

/// Per-task run state of a [`GraphRun`].
#[derive(Debug, Clone, Copy)]
struct RunSlot {
    state: TaskState,
    /// Whether this task has released its stream consumers (set at its
    /// first element sent on any of its output streams, or at
    /// completion). Per task, not per stream: one release frees every
    /// stream successor.
    released: bool,
    /// Completion predecessors not yet completed.
    unfinished: u32,
    /// Stream predecessors that have not released yet.
    stream_unreleased: u32,
}

/// The task lifecycle over a borrowed [`TaskGraph`]: Pending → Ready →
/// Running → Completed (or Failed and re-queued), with stream
/// consumers released at their producer's first element.
///
/// The graph holds no run state; this is the one state machine both
/// engines drive — the simulator over a graph it may materialize
/// lazily, the local executor over one that gains a task at every
/// submission. Either way tasks enter through [`GraphRun::grow`], and
/// completion and stream edges are released by one walker, which reads
/// the graph's edges and nothing of its payload. Nothing of the
/// structure is copied, so one graph can be run repeatedly.
#[derive(Debug, Clone, Default)]
pub struct GraphRun {
    slots: SegVec<RunSlot>,
    ready: ReadySet,
    completed_count: usize,
}

impl GraphRun {
    /// A run over every task of `graph`, none of them started: a
    /// [`GraphRun::grow`] from empty.
    pub fn new(graph: &TaskGraph) -> Self {
        debug_assert_eq!(
            graph.edges.iter().count(),
            graph.len(),
            "a run starts from a graph that retired nothing"
        );
        let mut run = Self::default();
        run.grow(graph);
        run
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
    /// run was created or last grown (a submission, or lazy
    /// materialization). Returns how many tasks were added.
    ///
    /// Readiness of a new task is computed from this run's states, so
    /// a reader added after its producer completed — or a stream
    /// consumer added after its producer released — starts `Ready`.
    /// Dependency edges only point backward, and the new nodes are
    /// scanned in id order, so every predecessor's run state exists by
    /// the time it is read; a predecessor the run no longer holds is
    /// necessarily completed.
    pub fn grow(&mut self, graph: &TaskGraph) -> usize {
        let old = self.slots.len();
        for (index, node) in graph.edges.indexed_from(old) {
            let unfinished = node
                .predecessors()
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
                self.ready.insert(TaskId(index as u64));
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

    /// Marks a ready task as running.
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

    /// Idempotent form of [`GraphRun::mark_running`]: promotes a
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
        if self.state(id) == Some(TaskState::Running) {
            return Ok(());
        }
        self.mark_running(id)
    }

    /// Marks a running task as completed and releases its successors
    /// (read from `graph`, the graph this run was created and grown
    /// from). Returns how many tasks became ready; no list is built,
    /// keeping completions allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::InvalidTransition`] unless the task is
    /// `Running` (or `Ready`, accepted so single-threaded drivers may
    /// skip the explicit running transition).
    pub fn complete(&mut self, graph: &TaskGraph, id: TaskId) -> Result<usize, DagError> {
        let mut newly_ready = 0;
        self.complete_walk(graph, id, &mut |_| newly_ready += 1)?;
        Ok(newly_ready)
    }

    /// [`GraphRun::complete`] for executors that dispatch what it
    /// frees: the tasks that became ready are appended to
    /// `newly_ready` — completion successors in edge order, then
    /// stream consumers. With a pooled buffer a steady-state
    /// completion performs no heap allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphRun::complete`].
    pub fn complete_into(
        &mut self,
        graph: &TaskGraph,
        id: TaskId,
        newly_ready: &mut Vec<TaskId>,
    ) -> Result<(), DagError> {
        self.complete_walk(graph, id, &mut |t| newly_ready.push(t))
    }

    /// Marks `id` as having released its stream consumers — called by
    /// engines at the producer's first element — and promotes consumers
    /// waiting only on this release; returns how many became ready.
    /// Idempotent: releasing twice (or after completion) is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownTask`] for ids not in the run.
    pub fn stream_release(&mut self, graph: &TaskGraph, id: TaskId) -> Result<usize, DagError> {
        let mut newly_ready = 0;
        self.stream_release_walk(graph, id, &mut |_| newly_ready += 1)?;
        Ok(newly_ready)
    }

    /// [`GraphRun::stream_release`] that appends the consumers which
    /// became ready to `newly_ready`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GraphRun::stream_release`].
    pub fn stream_release_into(
        &mut self,
        graph: &TaskGraph,
        id: TaskId,
        newly_ready: &mut Vec<TaskId>,
    ) -> Result<(), DagError> {
        self.stream_release_walk(graph, id, &mut |t| newly_ready.push(t))
    }

    /// Whether `id` has released its stream consumers in this run.
    pub fn stream_released(&self, id: TaskId) -> bool {
        self.slots.get(id.index()).is_some_and(|s| s.released)
    }

    /// The completion behind both forms of [`GraphRun::complete`];
    /// `on_ready` sees each task that became ready.
    fn complete_walk(
        &mut self,
        graph: &TaskGraph,
        id: TaskId,
        on_ready: &mut impl FnMut(TaskId),
    ) -> Result<(), DagError> {
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
        for &s in graph.successors(id) {
            self.release_edge(s, false, on_ready);
        }
        // Completion is also a release: a producer that never sent an
        // element (empty stream) must still free its consumers.
        if !released {
            self.release_walk(graph, id, on_ready);
        }
        Ok(())
    }

    /// The release behind both forms of [`GraphRun::stream_release`].
    fn stream_release_walk(
        &mut self,
        graph: &TaskGraph,
        id: TaskId,
        on_ready: &mut impl FnMut(TaskId),
    ) -> Result<(), DagError> {
        if !self.slot_mut(id)?.released {
            self.release_walk(graph, id, on_ready);
        }
        Ok(())
    }

    /// Sets the released flag and walks the stream successors. Caller
    /// checks the flag first.
    fn release_walk(&mut self, graph: &TaskGraph, id: TaskId, on_ready: &mut impl FnMut(TaskId)) {
        self.slots[id.index()].released = true;
        let consumers = graph
            .edges
            .get(id.index())
            .map_or(&[][..], NodeEdges::stream_successors);
        for &s in consumers {
            self.release_edge(s, true, on_ready);
        }
    }

    /// Releases one incoming edge of `id` — a completion edge, or a
    /// stream (first-element) edge — and promotes the task, telling
    /// `on_ready`, if nothing is left to wait for.
    fn release_edge(&mut self, id: TaskId, stream: bool, on_ready: &mut impl FnMut(TaskId)) {
        let slot = &mut self.slots[id.index()];
        if stream {
            slot.stream_unreleased -= 1;
        } else {
            slot.unfinished -= 1;
        }
        if slot.unfinished == 0 && slot.stream_unreleased == 0 && slot.state == TaskState::Pending {
            slot.state = TaskState::Ready;
            self.ready.insert(id);
            on_ready(id);
        }
    }

    /// Marks a running task as failed (e.g. its node died).
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

    /// Re-queues a failed task as ready (used by recovery after a node
    /// failure once its inputs are available again).
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

    /// Nodes are the bulk of a resident graph and slots of a run; a
    /// field that grows one shows here before it shows in a heap
    /// profile.
    #[test]
    fn node_and_spec_did_not_grow() {
        assert_eq!(std::mem::size_of::<TaskSpec>(), 88);
        assert_eq!(std::mem::size_of::<NodeEdges>(), 56);
        assert_eq!(std::mem::size_of::<NodePayload>(), 120);
        assert_eq!(std::mem::size_of::<RunSlot>(), 12);
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
        let (ap, [a, b, c, d]) = diamond();
        let g = ap.graph();
        let mut run = GraphRun::new(g);
        assert_eq!(run.ready_tasks().iter().collect::<Vec<_>>(), vec![a]);
        run.mark_running(a).unwrap();
        let mut newly = Vec::new();
        run.complete_into(g, a, &mut newly).unwrap();
        assert_eq!(newly, vec![b, c]);
        run.mark_running(b).unwrap();
        run.mark_running(c).unwrap();
        assert_eq!(run.complete(g, b).unwrap(), 0);
        assert_eq!(run.complete(g, c).unwrap(), 1, "d released");
        assert_eq!(run.state(d), Some(TaskState::Ready));
        run.mark_running(d).unwrap();
        run.complete(g, d).unwrap();
        assert!(run.all_completed());
        assert_eq!(run.completed_count(), 4);
    }

    #[test]
    fn complete_from_ready_is_accepted() {
        let (ap, [a, ..]) = diamond();
        let mut run = GraphRun::new(ap.graph());
        assert!(run.complete(ap.graph(), a).is_ok());
        assert!(!run.ready_tasks().contains(&a));
    }

    #[test]
    fn invalid_transitions_rejected() {
        let (ap, [a, b, ..]) = diamond();
        let g = ap.graph();
        let mut run = GraphRun::new(g);
        assert!(run.mark_running(b).is_err(), "b is pending, not ready");
        assert!(
            run.ensure_running(b).is_err(),
            "nor can it start idempotently"
        );
        run.mark_running(a).unwrap();
        assert!(run.mark_running(a).is_err(), "already running");
        run.ensure_running(a).unwrap();
        run.complete(g, a).unwrap();
        assert!(run.complete(g, a).is_err(), "already completed");
        assert!(run.ensure_running(a).is_err(), "completed tasks cannot run");
        assert!(run.mark_failed(a).is_err(), "completed tasks cannot fail");
    }

    #[test]
    fn failure_and_requeue() {
        let (ap, [a, ..]) = diamond();
        let mut run = GraphRun::new(ap.graph());
        run.ensure_running(a).unwrap();
        run.mark_failed(a).unwrap();
        assert!(!run.ready_tasks().contains(&a));
        run.requeue_failed(a).unwrap();
        assert!(run.ready_tasks().contains(&a));
        assert!(run.requeue_failed(a).is_err(), "no longer failed");
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
        let mut run = GraphRun::new(ap.graph());
        run.mark_running(a).unwrap();
        run.complete(ap.graph(), a).unwrap();
        // A reader submitted after the producer finished must be ready.
        let r = ap.register(TaskSpec::new("r").input(x)).unwrap();
        assert_eq!(run.grow(ap.graph()), 1);
        assert!(run.ready_tasks().contains(&r));
        assert_eq!(ap.graph().predecessors(r), &[a], "the edge is recorded");
        assert_eq!(run.complete(ap.graph(), r).unwrap(), 0);
        assert!(run.all_completed());
    }

    #[test]
    fn unknown_task_errors() {
        let g = TaskGraph::new();
        assert!(g.node(TaskId::from_raw(0)).is_err());
        assert!(g.predecessors(TaskId::from_raw(5)).is_empty());
        let mut run = GraphRun::new(&g);
        assert_eq!(run.state(TaskId::from_raw(0)), None);
        assert!(run.mark_running(TaskId::from_raw(0)).is_err());
        assert!(run.stream_release(&g, TaskId::from_raw(0)).is_err());
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
    fn stream_release_walks_a_pipeline() {
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
        let mut newly = Vec::new();
        run.stream_release_into(graph, feat, &mut newly).unwrap();
        assert_eq!(newly, vec![sink]);
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
    }

    #[test]
    fn completion_releases_unstarted_streams() {
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
        let g = ap.graph();
        let mut run = GraphRun::new(g);
        assert!(!run.ready_tasks().contains(&infer));
        run.stream_release(g, sensor).unwrap();
        assert!(!run.ready_tasks().contains(&infer), "model still missing");
        let mut newly = Vec::new();
        run.complete_into(g, train, &mut newly).unwrap();
        assert_eq!(newly, vec![infer]);
        let n = g.node(infer).unwrap();
        assert_eq!(n.predecessors(), &[train]);
        assert_eq!(n.stream_predecessors(), &[sensor]);
    }
}
