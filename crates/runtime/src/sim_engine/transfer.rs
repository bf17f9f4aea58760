//! Input transfers: where a task's inputs come from, what moving them
//! costs, and the contention of the shared inter-zone uplinks.

use super::Engine;
use continuum_dag::TaskId;
use continuum_platform::{NodeId, Platform};
use continuum_sim::{TransferLedger, TransferRecord, VirtualTime};

/// The network state of one run: every transfer so far, and when each
/// shared inter-zone link becomes free.
pub(super) struct Transfers {
    pub(super) ledger: TransferLedger,
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
    pub(super) zone_uplink_busy: Vec<VirtualTime>,
}

impl Transfers {
    pub(super) fn new(num_zones: usize) -> Self {
        Transfers {
            ledger: TransferLedger::new(),
            num_zones,
            link_busy: vec![VirtualTime::ZERO; num_zones * num_zones],
            zone_uplink_busy: vec![VirtualTime::ZERO; num_zones],
        }
    }

    /// Executes one blocking transfer requested at `request_at`,
    /// serialising with other transfers on the same inter-zone link
    /// (the shared uplink is the bottleneck of the continuum;
    /// intra-zone fabrics are switched and contention-free). Returns
    /// the seconds from the request to the transfer's end.
    pub(super) fn transfer(
        &mut self,
        platform: &Platform,
        bytes: u64,
        src: NodeId,
        dst: NodeId,
        request_at: VirtualTime,
    ) -> f64 {
        let secs = platform.transfer_seconds(bytes, src, dst);
        // Sources are replica holders or the storage home and
        // destinations are hosts, all nodes of the run's platform.
        let src_zone = platform.node_by_index(src.index()).zone();
        let dst_zone = platform.node_by_index(dst.index()).zone();
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
        finish.since(request_at)
    }
}

impl Engine<'_, '_> {
    /// Plans transfers for the task's inputs to `node`; returns the
    /// total stall seconds before execution can begin.
    pub(super) fn plan_input_transfers(
        &mut self,
        task: TaskId,
        node: NodeId,
        now: VirtualTime,
    ) -> f64 {
        let inputs = self.workload.task_node(task);
        let mut total = 0.0;
        for vd in inputs.consumed() {
            let known = self.registry.is_known(vd);
            let bytes = if vd.version.is_initial() && !known {
                self.workload.initial_size(vd.data)
            } else {
                self.registry.size_of(vd)
            };
            // Unregistered initial data is staged everywhere.
            let local = if known {
                self.registry.is_on(vd, node)
            } else {
                vd.version.is_initial()
            };
            if local {
                if bytes > 0 {
                    self.transfers.ledger.record_local_hit(bytes);
                }
                continue;
            }
            if bytes == 0 {
                // Zero-sized control data: no transfer needed.
                self.registry.add_replica(vd, node);
                continue;
            }
            // The cheapest live replica; the sorted replica order
            // makes cost ties resolve to the lowest node id.
            let cost = |src: &NodeId| self.platform.transfer_seconds(1_000_000, *src, node);
            let src = self
                .registry
                .locations_iter(vd)
                .filter(|src| self.nodes[src.index()].is_alive())
                .min_by(|a, b| cost(a).total_cmp(&cost(b)))
                // Persisted-only (or storage-homed initial) data comes
                // from the storage *service*. Deliberately no liveness
                // check on the home node: persistence models a
                // replicated, always-available service
                // (dataClay/Cassandra) that merely sits in that node's
                // network position.
                .or(self.options.persistence);
            if let Some(src) = src {
                let request_at = now.after(total);
                total += self
                    .transfers
                    .transfer(&self.platform, bytes, src, node, request_at);
                self.registry.add_replica(vd, node);
            }
        }
        total
    }
}
