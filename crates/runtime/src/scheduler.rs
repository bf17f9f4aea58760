//! Pluggable task schedulers for the simulated engine.
//!
//! Each scheduling round the engine offers the current ready set and a
//! [`PlacementView`] of the machine; the scheduler returns task→node
//! assignments. Provided policies:
//!
//! * [`FifoScheduler`] — submission order, first node that fits;
//! * [`LocalityScheduler`] — maximise input bytes already resident on
//!   the chosen node (the SRI-`locations`-driven placement of §VI-A1);
//! * [`HeftScheduler`] — classic static HEFT baseline computed from
//!   *estimated* durations before execution starts;
//! * [`EnergyScheduler`] — consolidating bin-packing that avoids
//!   waking idle nodes.

mod view;

pub use view::{InputScratch, PlacementView};

use crate::workload::SimWorkload;
use continuum_dag::{GraphAnalysis, TaskId};
use continuum_platform::{Constraints, NodeId, Platform};
use continuum_sim::NodeState;
use std::cmp::Ordering;

/// A task placement policy.
///
/// Implementations must be deterministic for reproducible simulations.
/// Returned assignments the engine cannot honour (capacity changed,
/// node died) are skipped for the round; the task stays ready.
pub trait Scheduler: Send {
    /// Short policy name used in reports.
    fn name(&self) -> &str;

    /// Chooses placements for (a subset of) the ready tasks.
    fn place(&mut self, view: &PlacementView<'_>, ready: &[TaskId]) -> Vec<(TaskId, NodeId)>;

    /// [`Scheduler::place`] appending to a caller-owned buffer, which
    /// is what the engine calls with one buffer reused across rounds.
    /// The built-in policies implement this natively and derive
    /// `place` from it; a policy that only implements `place` gets the
    /// obvious default.
    fn place_into(
        &mut self,
        view: &PlacementView<'_>,
        ready: &[TaskId],
        out: &mut Vec<(TaskId, NodeId)>,
    ) {
        out.extend(self.place(view, ready));
    }
}

/// `place` in terms of a native `place_into`.
fn collect_placements<S: Scheduler + ?Sized>(
    scheduler: &mut S,
    view: &PlacementView<'_>,
    ready: &[TaskId],
) -> Vec<(TaskId, NodeId)> {
    let mut out = Vec::new();
    scheduler.place_into(view, ready, &mut out);
    out
}

/// Per-node same-round assignment counters, kept inside each scheduler
/// and reused across rounds so the placement loop allocates nothing
/// after warm-up. Also tracks how many nodes can still take at least
/// one more minimum-size (1-compute-unit) task, so a full machine ends
/// the round after a single node sweep instead of O(ready × nodes).
///
/// Starting a round costs O(assignments of the previous round), not
/// O(nodes): only the counters that were touched are cleared, and the
/// open-node count is skipped for a one-task round, where it cannot
/// save a sweep.
#[derive(Debug, Clone, Default)]
struct RoundScratch {
    extra: Vec<u32>,
    /// Indices of the non-zero entries of `extra`.
    touched: Vec<usize>,
    /// Nodes that can still accept a 1-unit task; `None` when not
    /// tracked this round.
    open: Option<usize>,
}

impl RoundScratch {
    /// One placement round, the skeleton every round-based policy
    /// shares: offer `tasks` in order, each with its constraints and
    /// compute units (≥ 1), to the policy's `pick`; commit and emit the
    /// node it picks, skip the task if it picks none, and stop once no
    /// node can take even a 1-unit task. `pick` sees the round so far
    /// through `self`.
    fn run<P>(
        &mut self,
        view: &PlacementView<'_>,
        tasks: &[TaskId],
        out: &mut Vec<(TaskId, NodeId)>,
        mut pick: P,
    ) where
        P: FnMut(&RoundScratch, TaskId, &Constraints, u32) -> Option<NodeId>,
    {
        self.reset(view.nodes(), tasks.len());
        for &task in tasks {
            if self.exhausted() {
                break;
            }
            let req = view.workload().profile(task).constraints_ref();
            let cu = req.required_compute_units().max(1);
            if let Some(node) = pick(self, task, req, cu) {
                self.commit(view.nodes(), node);
                out.push((task, node));
            }
        }
    }

    /// Resets the counters for a round offering `ready` tasks over
    /// `nodes`.
    fn reset(&mut self, nodes: &[NodeState], ready: usize) {
        for idx in self.touched.drain(..) {
            self.extra[idx] = 0;
        }
        // Elastic zones grow the node list between rounds.
        self.extra.resize(nodes.len(), 0);
        // With a single task on offer the early exit in `run` can only
        // replace the one sweep that would find no node anyway.
        self.open = (ready > 1).then(|| {
            nodes
                .iter()
                .filter(|st| st.free_capacity().cores() > 0)
                .count()
        });
    }

    /// Assignments already made to `node` this round.
    fn extra(&self, node: NodeId) -> u32 {
        self.extra[node.index()]
    }

    /// Whether a node in state `st` has the cores for one more task of
    /// `cu` compute units beside this round's assignments to it.
    fn fits(&self, st: &NodeState, cu: u32) -> bool {
        st.free_capacity().cores() >= self.extra(st.id()) * cu + cu
    }

    /// Whether this round has placed a task yet.
    fn placed_any(&self) -> bool {
        !self.touched.is_empty()
    }

    /// Commits one assignment to `node`.
    fn commit(&mut self, nodes: &[NodeState], node: NodeId) {
        let idx = node.index();
        if self.extra[idx] == 0 {
            self.touched.push(idx);
        }
        self.extra[idx] += 1;
        // Every budget check requires free >= extra*cu + cu with
        // cu >= 1, so a node stops accepting once free <= extra.
        if let Some(open) = &mut self.open {
            if nodes[idx].free_capacity().cores() <= self.extra[idx] {
                *open -= 1;
            }
        }
    }

    /// `true` when no node can accept even a 1-unit task: since
    /// compute-unit requirements are clamped to >= 1, none of the
    /// remaining ready tasks can pass any budget check, so the round
    /// can stop early without changing what gets placed.
    fn exhausted(&self) -> bool {
        self.open == Some(0)
    }
}

/// First-come, first-served with first-fit placement.
#[derive(Debug, Clone, Default)]
pub struct FifoScheduler {
    cursor: usize,
    scratch: RoundScratch,
}

impl FifoScheduler {
    /// Creates a FIFO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FifoScheduler {
    fn name(&self) -> &str {
        "fifo"
    }

    fn place(&mut self, view: &PlacementView<'_>, ready: &[TaskId]) -> Vec<(TaskId, NodeId)> {
        collect_placements(self, view, ready)
    }

    fn place_into(
        &mut self,
        view: &PlacementView<'_>,
        ready: &[TaskId],
        out: &mut Vec<(TaskId, NodeId)>,
    ) {
        let nodes = view.nodes();
        let n = nodes.len();
        let cursor = &mut self.cursor;
        // The first node from the cursor on that fits, counting what
        // this round already handed out so one fat node is not
        // over-assigned; the cursor moves past it.
        self.scratch.run(view, ready, out, |round, _, req, cu| {
            let idx = (0..n)
                .map(|off| (*cursor + off) % n)
                .find(|&idx| nodes[idx].can_host(req) && round.fits(&nodes[idx], cu))?;
            *cursor = (idx + 1) % n;
            Some(nodes[idx].id())
        });
    }
}

/// Locality-aware placement with *delay scheduling*: choose the
/// feasible node holding the most input bytes; a data-bound task whose
/// data-holding nodes are all momentarily full is **deferred** to a
/// later round rather than executed remotely (Zaharia et al.'s delay
/// scheduling, the behaviour `getLocations` enables in the paper) —
/// unless the machine is otherwise idle, in which case running remote
/// beats waiting.
#[derive(Debug, Clone, Default)]
pub struct LocalityScheduler {
    strict: bool,
    scratch: RoundScratch,
    inputs: InputScratch,
}

impl LocalityScheduler {
    /// Creates a balanced locality scheduler: waits for a data-local
    /// slot only when fetching would cost a meaningful fraction of the
    /// task's runtime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a strict data-gravity scheduler: a task with resident
    /// input data *always* waits for a slot on a data-holding node
    /// while the machine is busy, minimising bytes moved at some
    /// makespan cost (useful when the network is the scarce resource).
    pub fn data_gravity() -> Self {
        LocalityScheduler {
            strict: true,
            ..Self::default()
        }
    }
}

/// The best feasible node for `task` among `candidates` (visited in
/// ascending id order), with its resident input bytes. Ranking: resident
/// input bytes, then stream-endpoint affinity (co-locate with the
/// producer feeding this task's stream edges — streams carry no resident
/// bytes), then load; the first of equals wins. The task's inputs are
/// resolved into `inputs`.
fn best_local_node<'n>(
    view: &PlacementView<'_>,
    round: &RoundScratch,
    inputs: &InputScratch,
    (task, req, cu): (TaskId, &Constraints, u32),
    candidates: impl Iterator<Item = &'n NodeState>,
) -> Option<(u64, NodeId)> {
    let sited = view.stream_sites.is_some_and(|sites| !sites.is_empty());
    let mut best: Option<(u64, u32, i64, NodeId)> = None;
    for st in candidates {
        let node = st.id();
        if !st.can_host(req) || !round.fits(st, cu) {
            continue;
        }
        let local = inputs.local_bytes(node);
        let affinity = if sited {
            view.stream_affinity(task, node)
        } else {
            0
        };
        let load = -(st.running_count() as i64 + round.extra(node) as i64);
        let candidate = (local, affinity, load, node);
        if best.is_none_or(|b| (candidate.0, candidate.1, candidate.2) > (b.0, b.1, b.2)) {
            best = Some(candidate);
        }
    }
    best.map(|(local, _, _, node)| (local, node))
}

impl Scheduler for LocalityScheduler {
    fn name(&self) -> &str {
        "locality"
    }

    fn place(&mut self, view: &PlacementView<'_>, ready: &[TaskId]) -> Vec<(TaskId, NodeId)> {
        collect_placements(self, view, ready)
    }

    fn place_into(
        &mut self,
        view: &PlacementView<'_>,
        ready: &[TaskId],
        out: &mut Vec<(TaskId, NodeId)>,
    ) {
        let machine_busy = view.nodes().iter().any(|n| n.running_count() > 0);
        let (strict, inputs) = (self.strict, &mut self.inputs);
        self.scratch.run(view, ready, out, |round, task, req, cu| {
            inputs.resolve(view, task, false);
            // A node holding a replica of a non-empty, non-ubiquitous
            // input has strictly more local bytes than any node
            // holding none, so if one of the (few) holders is feasible
            // the winner is among them — visited in the same ascending
            // order, the same one wins. The full sweep is needed only
            // when no holder is feasible (it then skips them all
            // again, changing nothing).
            let nodes = view.nodes();
            let holders = inputs.holders.iter().map(|h| &nodes[h.index()]);
            let at = (task, req, cu);
            let (local, node) = best_local_node(view, round, inputs, at, holders)
                .or_else(|| best_local_node(view, round, inputs, at, nodes.iter()))?;
            // Delay scheduling: if the task has data somewhere, the
            // best slot right now holds none of it, *and* fetching the
            // data would cost a meaningful fraction of the task's own
            // duration, wait for a local slot — other completions will
            // free one soon. Only defer while the machine is busy, so
            // progress is guaranteed; on fast fabrics (transfer cheap
            // relative to compute) running remote immediately wins.
            let busy_now = machine_busy || round.placed_any();
            if local == 0 && busy_now && inputs.has_local_potential(view, req) {
                let fetch_s = view.estimated_transfer_seconds(task, node);
                let exec_s = view.workload().profile(task).duration_s();
                if strict || fetch_s > 0.25 * exec_s {
                    return None;
                }
            }
            Some(node)
        });
    }
}

/// Static HEFT baseline: the full schedule is computed once from
/// *estimated* task durations; at run time each task may only start on
/// its pre-assigned node. When actual durations deviate from the
/// estimates (the common case in scientific workflows), the static
/// plan leaves resources idle — the gap dynamic runtimes exploit.
#[derive(Debug, Clone)]
pub struct HeftScheduler {
    mapping: Vec<NodeId>,
}

impl HeftScheduler {
    /// Plans the schedule for `workload` on `platform` using the
    /// estimate function (seconds per task, speed-1.0 reference).
    /// Use `|t| workload.profile(t).duration_s()` for oracle estimates.
    pub fn plan<F: Fn(TaskId) -> f64>(
        workload: &SimWorkload,
        platform: &Platform,
        estimate: F,
    ) -> Self {
        let graph = workload.graph();
        let analysis = GraphAnalysis::new(graph);
        let n_nodes = platform.num_nodes().max(1);
        // Mean speed for the bottom-level weights.
        let mean_speed: f64 = platform
            .nodes()
            .iter()
            .map(|n| n.spec().speed())
            .sum::<f64>()
            / n_nodes as f64;
        let bl = analysis.bottom_levels(|t| estimate(t) / mean_speed);
        let mut order: Vec<TaskId> = graph.nodes().map(|n| n.id()).collect();
        order.sort_by(|a, b| {
            bl[b.index()]
                .partial_cmp(&bl[a.index()])
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(b))
        });

        let mut node_free_at = vec![0.0f64; n_nodes];
        let mut task_finish = vec![0.0f64; graph.len()];
        let mut task_node = vec![0usize; graph.len()];
        let mut mapping = vec![NodeId::from_raw(0); graph.len()];
        for task in order {
            let mut best: Option<(f64, usize)> = None;
            for (idx, node) in platform.nodes().iter().enumerate() {
                if !node
                    .capacity()
                    .satisfies(workload.profile(task).constraints_ref())
                {
                    continue;
                }
                // Earliest start: node free AND inputs arrived.
                let mut ready_at = node_free_at[idx];
                for pred in graph.predecessors(task) {
                    let mut arrive = task_finish[pred.index()];
                    if task_node[pred.index()] != idx {
                        let record = workload.task_node(task);
                        let bytes: u64 = record
                            .consumed()
                            .map(|vd| workload.initial_size(vd.data).max(1024))
                            .sum();
                        arrive += platform.transfer_seconds(
                            bytes,
                            platform.node_by_index(task_node[pred.index()]).id(),
                            platform.node_by_index(idx).id(),
                        );
                    }
                    ready_at = ready_at.max(arrive);
                }
                let finish = ready_at + estimate(task) / node.spec().speed();
                if best.is_none_or(|(bf, _)| finish < bf) {
                    best = Some((finish, idx));
                }
            }
            let (finish, idx) = best.unwrap_or((node_free_at[0], 0));
            node_free_at[idx] = finish;
            task_finish[task.index()] = finish;
            task_node[task.index()] = idx;
            mapping[task.index()] = NodeId::from_raw(idx as u32);
        }
        HeftScheduler { mapping }
    }

    /// The planned node of a task.
    pub fn planned_node(&self, task: TaskId) -> NodeId {
        self.mapping[task.index()]
    }
}

impl Scheduler for HeftScheduler {
    fn name(&self) -> &str {
        "heft"
    }

    fn place(&mut self, view: &PlacementView<'_>, ready: &[TaskId]) -> Vec<(TaskId, NodeId)> {
        collect_placements(self, view, ready)
    }

    fn place_into(
        &mut self,
        view: &PlacementView<'_>,
        ready: &[TaskId],
        out: &mut Vec<(TaskId, NodeId)>,
    ) {
        for &task in ready {
            let node = self.mapping[task.index()];
            if view.can_host(node, task) {
                out.push((task, node));
            }
            // Otherwise: wait for the planned node — static schedules
            // do not migrate.
        }
    }
}

/// Dynamic list scheduling: the runtime counterpart of HEFT. Ready
/// tasks are considered in bottom-level priority order (computed once
/// from duration *estimates*), but placement happens at run time on
/// the node minimising estimated finish (transfer + execution at the
/// node's speed, plus a queueing wave penalty) given the machine's
/// *actual* state — so stragglers and surprises are routed around
/// instead of being waited out, which is exactly the "dynamic
/// fashion" the paper demands of intelligent runtimes.
#[derive(Debug, Clone)]
pub struct ListScheduler {
    priority: Vec<f64>,
    ordered: Vec<TaskId>,
    scratch: RoundScratch,
    inputs: InputScratch,
}

impl ListScheduler {
    /// Computes task priorities from a duration-estimate function.
    pub fn plan<F: Fn(TaskId) -> f64>(workload: &SimWorkload, estimate: F) -> Self {
        let analysis = GraphAnalysis::new(workload.graph());
        ListScheduler {
            priority: analysis.bottom_levels(estimate),
            ordered: Vec::new(),
            scratch: RoundScratch::default(),
            inputs: InputScratch::default(),
        }
    }
}

impl Scheduler for ListScheduler {
    fn name(&self) -> &str {
        "dynamic-list"
    }

    fn place(&mut self, view: &PlacementView<'_>, ready: &[TaskId]) -> Vec<(TaskId, NodeId)> {
        collect_placements(self, view, ready)
    }

    fn place_into(
        &mut self,
        view: &PlacementView<'_>,
        ready: &[TaskId],
        out: &mut Vec<(TaskId, NodeId)>,
    ) {
        self.ordered.clear();
        self.ordered.extend_from_slice(ready);
        let priority = &self.priority;
        // The comparator is total (priority, then id), so the unstable
        // sort is deterministic and allocation-free.
        self.ordered.sort_unstable_by(|a, b| {
            priority[b.index()]
                .partial_cmp(&priority[a.index()])
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(b))
        });
        let inputs = &mut self.inputs;
        self.scratch
            .run(view, &self.ordered, out, |round, task, req, cu| {
                let duration = view.workload().profile(task).duration_s();
                // Transfer costs depend only on the (source zone, dest
                // zone) pair, so resolve each input's cheapest per-zone
                // fetch once and score all N nodes against the table.
                inputs.resolve(view, task, true);
                let mut best: Option<(f64, NodeId)> = None;
                for st in view.nodes() {
                    let node = st.id();
                    if !st.can_host(req) || !round.fits(st, cu) {
                        continue;
                    }
                    let slots = (st.free_capacity().cores() / cu).max(1);
                    let waves = (round.extra(node) / slots) as f64;
                    let zone = view.platform().node_by_index(node.index()).zone();
                    let score =
                        inputs.transfer_seconds(node, zone) + (waves + 1.0) * duration / st.speed();
                    if best.is_none_or(|(s, _)| score < s) {
                        best = Some((score, node));
                    }
                }
                best.map(|(_, node)| node)
            });
    }
}

/// Energy-first consolidation: pack tasks onto already-busy nodes and
/// only wake an idle node when nothing busy fits.
#[derive(Debug, Clone, Default)]
pub struct EnergyScheduler {
    scratch: RoundScratch,
}

impl EnergyScheduler {
    /// Creates an energy-aware scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for EnergyScheduler {
    fn name(&self) -> &str {
        "energy"
    }

    fn place(&mut self, view: &PlacementView<'_>, ready: &[TaskId]) -> Vec<(TaskId, NodeId)> {
        collect_placements(self, view, ready)
    }

    fn place_into(
        &mut self,
        view: &PlacementView<'_>,
        ready: &[TaskId],
        out: &mut Vec<(TaskId, NodeId)>,
    ) {
        self.scratch.run(view, ready, out, |round, _, req, cu| {
            // Prefer busy nodes, most-loaded first (tightest packing);
            // wake idle nodes only as a last resort, lowest index first.
            let mut best: Option<(bool, i64, NodeId)> = None;
            for st in view.nodes() {
                let node = st.id();
                if !st.can_host(req) || !round.fits(st, cu) {
                    continue;
                }
                let extra = round.extra(node);
                let busy = st.running_count() > 0 || extra > 0;
                let load = st.running_count() as i64 + extra as i64;
                // Rank: busy first, then higher load, then lower index.
                let candidate = (busy, load, node);
                let better = match best {
                    None => true,
                    Some((bb, bload, bnode)) => {
                        (busy, load, std::cmp::Reverse(node))
                            > (bb, bload, std::cmp::Reverse(bnode))
                    }
                };
                if better {
                    best = Some(candidate);
                }
            }
            best.map(|(_, _, node)| node)
        });
    }
}

#[cfg(test)]
mod tests;
