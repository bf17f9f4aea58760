//! What a placement policy sees of the machine: the read-only
//! [`PlacementView`] the engine offers each round, and the
//! [`InputScratch`] a policy resolves a task's inputs into once to score
//! it against every node.

use crate::data::DataRegistry;
use crate::workload::SimWorkload;
use continuum_dag::{DataId, TaskId};
use continuum_platform::{NodeId, Platform, ZoneId};
use continuum_sim::{NodeState, VirtualTime};
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
    pub(super) holders: Vec<NodeId>,
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
