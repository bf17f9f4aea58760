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

use crate::data::DataRegistry;
use crate::workload::SimWorkload;
use continuum_dag::{DataId, GraphAnalysis, TaskId};
use continuum_platform::{NodeId, Platform, ZoneId};
use continuum_sim::{NodeState, VirtualTime};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Read-only view of the machine offered to schedulers.
#[derive(Debug)]
pub struct PlacementView<'a> {
    pub(crate) workload: &'a SimWorkload,
    pub(crate) nodes: &'a [NodeState],
    pub(crate) registry: &'a DataRegistry,
    pub(crate) platform: &'a Platform,
    /// Worst busy-until time of any inter-zone link touching each zone
    /// (indexed by [`ZoneId::index`]), maintained by the engine as a
    /// running max so queries are O(1) instead of a link-map scan.
    pub(crate) zone_uplink_busy: Option<&'a [VirtualTime]>,
    pub(crate) now: VirtualTime,
    /// Node hosting the producer of each stream datum (the engine's
    /// locality index for stream edges). Stream edges carry no
    /// resident bytes, so they contribute placement *affinity* rather
    /// than locality byte counts.
    pub(crate) stream_sites: Option<&'a HashMap<DataId, NodeId>>,
}

impl<'a> PlacementView<'a> {
    /// Creates a view (used by the engine; exposed for custom
    /// scheduler tests).
    pub fn new(
        workload: &'a SimWorkload,
        nodes: &'a [NodeState],
        registry: &'a DataRegistry,
        platform: &'a Platform,
    ) -> Self {
        PlacementView {
            workload,
            nodes,
            registry,
            platform,
            zone_uplink_busy: None,
            now: VirtualTime::ZERO,
            stream_sites: None,
        }
    }

    /// Attaches the engine's stream-site index (producer node per
    /// stream datum), enabling [`PlacementView::stream_affinity`].
    pub fn with_stream_sites(mut self, sites: &'a HashMap<DataId, NodeId>) -> Self {
        self.stream_sites = Some(sites);
        self
    }

    /// Attaches the engine's per-zone uplink occupancy (worst
    /// busy-until per zone) and the current virtual time, enabling
    /// contention-aware scoring.
    pub fn with_uplink_state(
        mut self,
        zone_uplink_busy: &'a [VirtualTime],
        now: VirtualTime,
    ) -> Self {
        self.zone_uplink_busy = Some(zone_uplink_busy);
        self.now = now;
        self
    }

    /// Seconds until every uplink into `dst` is free (worst pair), or
    /// 0 when no link state is attached. Cross-zone transfers started
    /// now queue behind this.
    pub fn pending_uplink_seconds_to(&self, dst: ZoneId) -> f64 {
        let Some(busy) = self.zone_uplink_busy else {
            return 0.0;
        };
        busy.get(dst.index()).map_or(0.0, |t| t.since(self.now))
    }

    /// The data registry backing locality queries (for custom
    /// schedulers and equivalence tests).
    pub fn registry(&self) -> &DataRegistry {
        self.registry
    }

    /// The node states, indexed by node id.
    pub fn nodes(&self) -> &[NodeState] {
        self.nodes
    }

    /// The platform description.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// The workload being executed.
    pub fn workload(&self) -> &SimWorkload {
        self.workload
    }

    /// Returns `true` if `node` can host `task` right now.
    pub fn can_host(&self, node: NodeId, task: TaskId) -> bool {
        self.nodes[node.index()].can_host(self.workload.profile(task).constraints_ref())
    }

    /// Number of `task`'s stream endpoints whose peer endpoint is
    /// sited on `node`: stream-in data whose producer runs (or ran)
    /// there, and stream-out data whose channel is already sited there
    /// by an earlier producer. Zero when no site index is attached.
    ///
    /// Stream edges move elements continuously for the lifetime of
    /// both endpoints, so co-locating them keeps that traffic on the
    /// node fabric — but unlike versioned inputs there are no resident
    /// bytes to count, hence a separate affinity signal.
    pub fn stream_affinity(&self, task: TaskId, node: NodeId) -> u32 {
        let Some(sites) = self.stream_sites else {
            return 0;
        };
        if sites.is_empty() {
            return 0;
        }
        let spec = self.workload.task_node(task).spec();
        spec.stream_reads()
            .chain(spec.stream_writes())
            .filter(|d| sites.get(d) == Some(&node))
            .count() as u32
    }

    /// Input bytes of `task` already resident on `node`.
    pub fn local_input_bytes(&self, task: TaskId, node: NodeId) -> u64 {
        let record = self.workload.task_node(task);
        record
            .consumed()
            .filter(|vd| self.registry.is_on(*vd, node))
            .map(|vd| self.registry.size_of(vd))
            .sum()
    }

    /// Total input bytes of `task`.
    pub fn total_input_bytes(&self, task: TaskId) -> u64 {
        let record = self.workload.task_node(task);
        record.consumed().map(|vd| self.registry.size_of(vd)).sum()
    }

    /// Estimated seconds to move `task`'s remote inputs to `node`.
    pub fn estimated_transfer_seconds(&self, task: TaskId, node: NodeId) -> f64 {
        let record = self.workload.task_node(task);
        let mut total = 0.0;
        for vd in record.consumed() {
            if self.registry.is_on(vd, node) {
                continue;
            }
            let bytes = self.registry.size_of(vd);
            if bytes == 0 {
                continue;
            }
            // Cheapest live source (allocation-free index probe).
            let best = self
                .registry
                .locations_iter(vd)
                .map(|src| self.platform.transfer_seconds(bytes, src, node))
                .fold(f64::INFINITY, f64::min);
            if best.is_finite() {
                total += best;
            }
        }
        total
    }
}

/// A task's inputs resolved once for repeated per-node scoring.
///
/// Scoring a task against every node with [`PlacementView`] probes the
/// registry's hash map per (node, input) pair; at 100 nodes that is
/// thousands of hash lookups per task. `InputScratch` resolves each
/// input exactly once — bytes, ubiquity, replica list, and (optionally)
/// the cheapest fetch cost into every zone — and then answers per-node
/// queries from that: resident bytes are accumulated per node while
/// resolving (one addition per replica, however many nodes there are),
/// transfer estimates binary-search at most a handful of replicas.
///
/// The struct owns its buffers (replica ids are copied, not borrowed)
/// so schedulers keep one instance across rounds and reuse it
/// allocation-free after warm-up. All query methods reproduce the
/// corresponding [`PlacementView`] computation bit-for-bit: the same
/// inputs are visited in the same order with the same floating-point
/// operations.
#[derive(Debug, Clone, Default)]
pub struct InputScratch {
    items: Vec<InputItem>,
    replicas: Vec<NodeId>,
    /// `items.len() × zones` row-major: cheapest seconds to fetch input
    /// `i` from any live replica into zone `z` (`INFINITY` when the
    /// input has no live replica). Filled by [`InputScratch::resolve`]
    /// only when `with_costs` is set.
    zone_cost: Vec<f64>,
    zones: usize,
    /// Bytes of non-ubiquitous inputs resident on each node (indexed by
    /// [`NodeId::index`]); `holders` lists the non-zero entries.
    resident: Vec<u64>,
    /// Nodes holding a replica of a non-empty, non-ubiquitous input,
    /// ascending: the only nodes whose [`InputScratch::local_bytes`]
    /// exceeds what every node gets from ubiquitous inputs.
    holders: Vec<NodeId>,
    /// Total bytes of ubiquitous inputs (resident on every node).
    ubiquitous_bytes: u64,
}

#[derive(Debug, Clone, Copy)]
struct InputItem {
    bytes: u64,
    ubiquitous: bool,
    /// Range of this input's replicas within `InputScratch::replicas`.
    lo: u32,
    hi: u32,
}

impl InputItem {
    fn on(&self, replicas: &[NodeId], node: NodeId) -> bool {
        self.ubiquitous
            || replicas[self.lo as usize..self.hi as usize]
                .binary_search(&node)
                .is_ok()
    }
}

impl InputScratch {
    /// Resolves `task`'s inputs from the view's registry. With
    /// `with_costs`, also fills the per-zone cheapest-fetch table used
    /// by [`InputScratch::transfer_seconds`].
    pub fn resolve(&mut self, view: &PlacementView<'_>, task: TaskId, with_costs: bool) {
        self.items.clear();
        self.replicas.clear();
        self.zone_cost.clear();
        self.zones = view.platform.zones().len();
        for holder in self.holders.drain(..) {
            self.resident[holder.index()] = 0;
        }
        self.resident.resize(view.nodes.len(), 0);
        self.ubiquitous_bytes = 0;
        let record = view.workload.task_node(task);
        for vd in record.consumed() {
            // One probe answers size, replicas and ubiquity.
            let (bytes, locs, ubiquitous) = match view.registry.get(vd) {
                Some(rec) => (rec.bytes(), rec.replicas(), rec.is_ubiquitous()),
                None => (0, &[][..], false),
            };
            if ubiquitous {
                self.ubiquitous_bytes += bytes;
            } else if bytes > 0 {
                for holder in locs {
                    if let Some(resident) = self.resident.get_mut(holder.index()) {
                        if *resident == 0 {
                            self.holders.push(*holder);
                        }
                        *resident += bytes;
                    }
                }
            }
            let lo = self.replicas.len() as u32;
            self.replicas.extend_from_slice(locs);
            self.items.push(InputItem {
                bytes,
                ubiquitous,
                lo,
                hi: self.replicas.len() as u32,
            });
            if with_costs {
                // Identical fold to the per-node path in
                // `PlacementView::estimated_transfer_seconds`: within a
                // destination zone the candidate costs depend only on
                // the source zone, and the replica order is the same
                // sorted sequence, so the minima are bitwise equal.
                let network = view.platform.network();
                for z in 0..self.zones {
                    let zone = ZoneId::from_index(z);
                    let best = locs
                        .iter()
                        .map(|src| {
                            let src_zone = view.platform.node_by_index(src.index()).zone();
                            network.transfer_seconds(bytes, src_zone, zone)
                        })
                        .fold(f64::INFINITY, f64::min);
                    self.zone_cost.push(best);
                }
            }
        }
        self.holders.sort_unstable();
    }

    /// Input bytes already resident on `node`; equals
    /// [`PlacementView::local_input_bytes`].
    pub fn local_bytes(&self, node: NodeId) -> u64 {
        self.ubiquitous_bytes + self.resident.get(node.index()).copied().unwrap_or(0)
    }

    /// Estimated seconds to move the remote inputs to `node` (which
    /// lives in zone `zone`); equals
    /// [`PlacementView::estimated_transfer_seconds`]. Requires
    /// `resolve(.., with_costs: true)`.
    pub fn transfer_seconds(&self, node: NodeId, zone: ZoneId) -> f64 {
        let mut total = 0.0;
        for (i, item) in self.items.iter().enumerate() {
            if item.on(&self.replicas, node) || item.bytes == 0 {
                continue;
            }
            let best = self.zone_cost[i * self.zones + zone.index()];
            if best.is_finite() {
                total += best;
            }
        }
        total
    }

    /// Returns `true` if some *alive* node both holds input bytes of
    /// the resolved task and satisfies `req` at full capacity; equals
    /// the node scan `∃ node: alive ∧ satisfies ∧ local_bytes > 0`
    /// (distributing the existential over inputs).
    pub fn has_local_potential(
        &self,
        view: &PlacementView<'_>,
        req: &continuum_platform::Constraints,
    ) -> bool {
        let eligible = |st: &NodeState| st.is_alive() && st.total_capacity().satisfies(req);
        self.items.iter().any(|item| {
            if item.bytes == 0 {
                return false;
            }
            if item.ubiquitous {
                // Resident everywhere: any eligible node counts.
                return view.nodes.iter().any(eligible);
            }
            self.replicas[item.lo as usize..item.hi as usize]
                .iter()
                .any(|r| eligible(&view.nodes[r.index()]))
        })
    }
}

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
    /// Resets the counters for a round offering `ready` tasks over
    /// `nodes`.
    fn reset(&mut self, nodes: &[NodeState], ready: usize) {
        for idx in self.touched.drain(..) {
            self.extra[idx] = 0;
        }
        // Elastic zones grow the node list between rounds.
        self.extra.resize(nodes.len(), 0);
        // With a single task on offer the early exit below can only
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
        let n = view.nodes().len();
        if n == 0 {
            return;
        }
        // Track capacity we hand out within this round so one fat node
        // is not over-assigned.
        self.scratch.reset(view.nodes(), ready.len());
        for &task in ready {
            if self.scratch.exhausted() {
                break;
            }
            let req = view.workload().profile(task).constraints_ref();
            let cu = req.required_compute_units().max(1);
            for off in 0..n {
                let idx = (self.cursor + off) % n;
                let node = view.nodes()[idx].id();
                if !view.can_host(node, task) {
                    continue;
                }
                // Budget check against same-round assignments.
                let already = self.scratch.extra(node);
                let cores_left = view.nodes()[idx]
                    .free_capacity()
                    .cores()
                    .saturating_sub(already * cu);
                if cores_left < cu {
                    continue;
                }
                self.scratch.commit(view.nodes(), node);
                out.push((task, node));
                self.cursor = (idx + 1) % n;
                break;
            }
        }
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

impl LocalityScheduler {
    /// The best feasible node for `task` among `candidates` (visited
    /// in ascending id order), with its ranking key. Ranking: resident
    /// input bytes, then stream-endpoint affinity (co-locate with the
    /// producer feeding this task's stream edges — streams carry no
    /// resident bytes), then load; the first of equals wins. Inputs
    /// were resolved into `self.inputs` by the caller.
    fn best_node<'n>(
        &self,
        view: &PlacementView<'_>,
        task: TaskId,
        candidates: impl Iterator<Item = &'n NodeState>,
    ) -> Option<(u64, u32, i64, NodeId)> {
        let req = view.workload().profile(task).constraints_ref();
        let cu = req.required_compute_units().max(1);
        let sited = view.stream_sites.is_some_and(|sites| !sites.is_empty());
        let mut best: Option<(u64, u32, i64, NodeId)> = None;
        for st in candidates {
            let node = st.id();
            if !st.can_host(req) {
                continue;
            }
            let extra = self.scratch.extra(node);
            if st.free_capacity().cores() < extra * cu + cu {
                continue;
            }
            let local = self.inputs.local_bytes(node);
            let affinity = if sited {
                view.stream_affinity(task, node)
            } else {
                0
            };
            let load = -(st.running_count() as i64 + extra as i64);
            let candidate = (local, affinity, load, node);
            if best.is_none_or(|b| (candidate.0, candidate.1, candidate.2) > (b.0, b.1, b.2)) {
                best = Some(candidate);
            }
        }
        best
    }
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
        self.scratch.reset(view.nodes(), ready.len());
        let placed_before = out.len();
        let machine_busy = view.nodes().iter().any(|n| n.running_count() > 0);
        for &task in ready {
            if self.scratch.exhausted() {
                break;
            }
            let req = view.workload().profile(task).constraints_ref();
            self.inputs.resolve(view, task, false);
            // A node holding a replica of a non-empty, non-ubiquitous
            // input has strictly more local bytes than any node
            // holding none, so if one of the (few) holders is feasible
            // the winner is among them — visited in the same ascending
            // order, the same one wins. The full sweep is needed only
            // when no holder is feasible (it then skips them all
            // again, changing nothing).
            let nodes = view.nodes();
            let holders = self.inputs.holders.iter().map(|h| &nodes[h.index()]);
            let best = self
                .best_node(view, task, holders)
                .or_else(|| self.best_node(view, task, nodes.iter()));
            let Some((local, _, _, node)) = best else {
                continue;
            };
            // Delay scheduling: if the task has data somewhere, the
            // best slot right now holds none of it, *and* fetching the
            // data would cost a meaningful fraction of the task's own
            // duration, wait for a local slot — other completions will
            // free one soon. Only defer while the machine is busy, so
            // progress is guaranteed; on fast fabrics (transfer cheap
            // relative to compute) running remote immediately wins.
            let busy_now = machine_busy || out.len() > placed_before;
            if local == 0 && busy_now && self.inputs.has_local_potential(view, req) {
                let fetch_s = view.estimated_transfer_seconds(task, node);
                let exec_s = view.workload().profile(task).duration_s();
                if self.strict || fetch_s > 0.25 * exec_s {
                    continue;
                }
            }
            self.scratch.commit(view.nodes(), node);
            out.push((task, node));
        }
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
        self.scratch.reset(view.nodes(), ready.len());
        for &task in &self.ordered {
            if self.scratch.exhausted() {
                break;
            }
            let req = view.workload().profile(task).constraints_ref();
            let duration = view.workload().profile(task).duration_s();
            let cu = req.required_compute_units().max(1);
            // Transfer costs depend only on the (source zone, dest
            // zone) pair, so resolve each input's cheapest per-zone
            // fetch once and score all N nodes against the table.
            self.inputs.resolve(view, task, true);
            let mut best: Option<(f64, NodeId)> = None;
            for st in view.nodes() {
                let node = st.id();
                if !view.can_host(node, task) {
                    continue;
                }
                let extra = self.scratch.extra(node);
                if st.free_capacity().cores() < extra * cu + cu {
                    continue;
                }
                let slots = (st.free_capacity().cores() / cu).max(1);
                let waves = (extra / slots) as f64;
                let zone = view.platform().node_by_index(node.index()).zone();
                let score = self.inputs.transfer_seconds(node, zone)
                    + (waves + 1.0) * duration / st.speed();
                if best.is_none_or(|(s, _)| score < s) {
                    best = Some((score, node));
                }
            }
            if let Some((_, node)) = best {
                self.scratch.commit(view.nodes(), node);
                out.push((task, node));
            }
        }
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
        self.scratch.reset(view.nodes(), ready.len());
        for &task in ready {
            if self.scratch.exhausted() {
                break;
            }
            let req = view.workload().profile(task).constraints_ref();
            let cu = req.required_compute_units().max(1);
            // Prefer busy nodes, most-loaded first (tightest packing);
            // wake idle nodes only as a last resort, lowest index first.
            let mut best: Option<(bool, i64, NodeId)> = None;
            for st in view.nodes() {
                let node = st.id();
                if !view.can_host(node, task) {
                    continue;
                }
                let extra = self.scratch.extra(node);
                if st.free_capacity().cores() < extra * cu + cu {
                    continue;
                }
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
            if let Some((_, _, node)) = best {
                self.scratch.commit(view.nodes(), node);
                out.push((task, node));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TaskProfile;
    use continuum_dag::TaskSpec;
    use continuum_platform::{NodeSpec, PlatformBuilder};

    fn simple_workload() -> SimWorkload {
        let mut w = SimWorkload::new();
        let d = w.data_batch("d", 4);
        for (i, id) in d.iter().enumerate() {
            w.task(
                TaskSpec::new(format!("t{i}")).output(*id),
                TaskProfile::new(1.0),
            )
            .unwrap();
        }
        w
    }

    /// The workload's ready tasks before anything ran, lowest id first.
    fn initially_ready(w: &SimWorkload) -> Vec<TaskId> {
        continuum_dag::GraphRun::new(w.graph())
            .ready_tasks()
            .iter()
            .collect()
    }

    fn cluster(nodes: usize, cores: u32) -> Platform {
        PlatformBuilder::new()
            .cluster("c", nodes, NodeSpec::hpc(cores, 96_000))
            .build()
    }

    fn states(p: &Platform) -> Vec<NodeState> {
        p.nodes().iter().map(NodeState::new).collect()
    }

    #[test]
    fn fifo_spreads_across_nodes() {
        let w = simple_workload();
        let p = cluster(4, 1);
        let nodes = states(&p);
        let reg = DataRegistry::new();
        let view = PlacementView::new(&w, &nodes, &reg, &p);
        let ready = initially_ready(&w);
        let mut s = FifoScheduler::new();
        let placed = s.place(&view, &ready);
        assert_eq!(placed.len(), 4);
        let used: std::collections::HashSet<NodeId> = placed.iter().map(|(_, n)| *n).collect();
        assert_eq!(used.len(), 4, "1-core nodes force a spread");
    }

    #[test]
    fn fifo_respects_round_budget() {
        let w = simple_workload();
        let p = cluster(1, 2);
        let nodes = states(&p);
        let reg = DataRegistry::new();
        let view = PlacementView::new(&w, &nodes, &reg, &p);
        let ready = initially_ready(&w);
        let mut s = FifoScheduler::new();
        let placed = s.place(&view, &ready);
        assert_eq!(placed.len(), 2, "2 cores => at most 2 tasks this round");
    }

    /// Regression: a task declaring `compute_units(0)` (clamped to 1 by
    /// [`Constraints`]) must consume exactly one core of the per-round
    /// budget — the normalized `cu` is used on *both* sides of the
    /// budget check, so the round neither stalls nor overcommits.
    #[test]
    fn fifo_zero_cu_constraint_counts_as_one_core() {
        let mut w = SimWorkload::new();
        let d = w.data_batch("d", 4);
        for (i, id) in d.iter().enumerate() {
            w.task(
                TaskSpec::new(format!("t{i}")).output(*id),
                TaskProfile::new(1.0)
                    .constraints(continuum_platform::Constraints::new().compute_units(0)),
            )
            .unwrap();
        }
        let p = cluster(1, 2);
        let nodes = states(&p);
        let reg = DataRegistry::new();
        let view = PlacementView::new(&w, &nodes, &reg, &p);
        let ready = initially_ready(&w);
        let mut s = FifoScheduler::new();
        let placed = s.place(&view, &ready);
        assert_eq!(placed.len(), 2, "0-cu tasks occupy one core each");
    }

    #[test]
    fn locality_prefers_node_with_data() {
        let mut w = SimWorkload::new();
        let big = w.data("big");
        let out = w.data("out");
        let producer = w
            .task(
                TaskSpec::new("p").output(big),
                TaskProfile::new(1.0).outputs_bytes(1_000_000),
            )
            .unwrap();
        let consumer = w
            .task(
                TaskSpec::new("c").input(big).output(out),
                TaskProfile::new(1.0),
            )
            .unwrap();
        let p = cluster(3, 4);
        let mut nodes = states(&p);
        let mut reg = DataRegistry::new();
        // Simulate: producer ran on node 2 and its output lives there.
        let vd = w.graph().node(producer).unwrap().produced().next().unwrap();
        reg.record_production(vd, NodeId::from_raw(2), 1_000_000);
        nodes[0].advance(continuum_sim::VirtualTime::ZERO);
        let view = PlacementView::new(&w, &nodes, &reg, &p);
        let mut s = LocalityScheduler::new();
        let placed = s.place(&view, &[consumer]);
        assert_eq!(placed, vec![(consumer, NodeId::from_raw(2))]);
    }

    #[test]
    fn locality_colocates_stream_consumer_with_producer_site() {
        let mut w = SimWorkload::new();
        let s = w.data("s");
        let producer = w
            .task(TaskSpec::new("p").stream_out(s), TaskProfile::new(10.0))
            .unwrap();
        let consumer = w
            .task(TaskSpec::new("c").stream_in(s), TaskProfile::new(10.0))
            .unwrap();
        let _ = producer;
        let p = cluster(3, 4);
        let nodes = states(&p);
        let reg = DataRegistry::new();
        // The engine sited the producer on node 2.
        let mut sites = HashMap::new();
        sites.insert(s, NodeId::from_raw(2));
        let view = PlacementView::new(&w, &nodes, &reg, &p).with_stream_sites(&sites);
        assert_eq!(view.stream_affinity(consumer, NodeId::from_raw(2)), 1);
        assert_eq!(view.stream_affinity(consumer, NodeId::from_raw(0)), 0);
        let mut sched = LocalityScheduler::new();
        let placed = sched.place(&view, &[consumer]);
        assert_eq!(
            placed,
            vec![(consumer, NodeId::from_raw(2))],
            "no resident bytes anywhere: stream affinity must break the tie"
        );
    }

    #[test]
    fn locality_spreads_when_no_data_gravity() {
        let w = simple_workload();
        let p = cluster(2, 4);
        let nodes = states(&p);
        let reg = DataRegistry::new();
        let view = PlacementView::new(&w, &nodes, &reg, &p);
        let ready = initially_ready(&w);
        let mut s = LocalityScheduler::new();
        let placed = s.place(&view, &ready);
        assert_eq!(placed.len(), 4);
        let on0 = placed.iter().filter(|(_, n)| n.index() == 0).count();
        assert_eq!(on0, 2, "ties break toward least-loaded => even split");
    }

    #[test]
    fn heft_plans_every_task_and_respects_constraints() {
        let mut w = SimWorkload::new();
        let d0 = w.data("d0");
        let d1 = w.data("d1");
        w.task(
            TaskSpec::new("gpu").output(d0),
            TaskProfile::new(10.0).constraints(continuum_platform::Constraints::new().gpus(1)),
        )
        .unwrap();
        w.task(TaskSpec::new("cpu").output(d1), TaskProfile::new(10.0))
            .unwrap();
        let p = PlatformBuilder::new()
            .cluster("cpu", 1, NodeSpec::hpc(4, 96_000))
            .cluster("gpu", 1, NodeSpec::hpc(4, 96_000).with_gpus(2))
            .build();
        let s = HeftScheduler::plan(&w, &p, |t| w.profile(t).duration_s());
        assert_eq!(s.planned_node(TaskId::from_raw(0)), NodeId::from_raw(1));
    }

    #[test]
    fn heft_balances_independent_tasks() {
        let w = simple_workload();
        let p = cluster(2, 48);
        let s = HeftScheduler::plan(&w, &p, |t| w.profile(t).duration_s());
        let on0 = (0..4)
            .filter(|i| s.planned_node(TaskId::from_raw(*i)) == NodeId::from_raw(0))
            .count();
        assert_eq!(on0, 2, "equal tasks split across equal nodes");
    }

    #[test]
    fn heft_waits_for_planned_node() {
        let w = simple_workload();
        let p = cluster(2, 48);
        let mut s = HeftScheduler::plan(&w, &p, |t| w.profile(t).duration_s());
        let mut nodes = states(&p);
        // Kill node 1: tasks planned there must NOT migrate.
        nodes[1].fail(continuum_sim::VirtualTime::ZERO);
        let reg = DataRegistry::new();
        let view = PlacementView::new(&w, &nodes, &reg, &p);
        let ready = initially_ready(&w);
        let placed = s.place(&view, &ready);
        assert_eq!(placed.len(), 2, "only the tasks planned on node 0");
        assert!(placed.iter().all(|(_, n)| n.index() == 0));
    }

    #[test]
    fn energy_consolidates_on_one_node() {
        let w = simple_workload();
        let p = cluster(4, 48);
        let nodes = states(&p);
        let reg = DataRegistry::new();
        let view = PlacementView::new(&w, &nodes, &reg, &p);
        let ready = initially_ready(&w);
        let mut s = EnergyScheduler::new();
        let placed = s.place(&view, &ready);
        assert_eq!(placed.len(), 4);
        let used: std::collections::HashSet<NodeId> = placed.iter().map(|(_, n)| *n).collect();
        assert_eq!(used.len(), 1, "all four fit on one 48-core node");
    }

    #[test]
    fn energy_wakes_second_node_when_first_full() {
        let w = simple_workload();
        let p = cluster(4, 2);
        let nodes = states(&p);
        let reg = DataRegistry::new();
        let view = PlacementView::new(&w, &nodes, &reg, &p);
        let ready = initially_ready(&w);
        let mut s = EnergyScheduler::new();
        let placed = s.place(&view, &ready);
        assert_eq!(placed.len(), 4);
        let used: std::collections::HashSet<NodeId> = placed.iter().map(|(_, n)| *n).collect();
        assert_eq!(used.len(), 2, "2-core nodes: exactly two nodes needed");
    }

    #[test]
    fn view_transfer_estimates() {
        let mut w = SimWorkload::new();
        let big = w.data("big");
        let out = w.data("out");
        let producer = w
            .task(
                TaskSpec::new("p").output(big),
                TaskProfile::new(1.0).outputs_bytes(120_000_000),
            )
            .unwrap();
        let consumer = w
            .task(
                TaskSpec::new("c").input(big).output(out),
                TaskProfile::new(1.0),
            )
            .unwrap();
        let p = PlatformBuilder::new()
            .cluster("a", 1, NodeSpec::hpc(4, 96_000))
            .cloud("b", 1, NodeSpec::cloud_vm(4, 16_000))
            .build();
        let nodes = states(&p);
        let mut reg = DataRegistry::new();
        let vd = w.graph().node(producer).unwrap().produced().next().unwrap();
        reg.record_production(vd, NodeId::from_raw(0), 120_000_000);
        let view = PlacementView::new(&w, &nodes, &reg, &p);
        assert_eq!(
            view.estimated_transfer_seconds(consumer, NodeId::from_raw(0)),
            0.0
        );
        let cross = view.estimated_transfer_seconds(consumer, NodeId::from_raw(1));
        assert!(cross > 0.5, "120 MB over 120 MB/s WAN ≈ 1 s, got {cross}");
        assert_eq!(
            view.local_input_bytes(consumer, NodeId::from_raw(0)),
            120_000_000
        );
        assert_eq!(view.total_input_bytes(consumer), 120_000_000);
    }
}
