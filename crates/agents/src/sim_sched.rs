//! Continuum-aware scheduler for the simulated engine: the offloading
//! policies of §VI-B expressed as a [`Scheduler`], used by the
//! paper-scale fog-to-cloud experiments.

use continuum_dag::TaskId;
use continuum_platform::{DeviceClass, Node, NodeId};
use continuum_runtime::{PlacementView, Scheduler};
use std::collections::HashMap;

/// Placement policy over the continuum layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContinuumPolicy {
    /// Use only fog/edge devices (no offloading).
    FogOnly,
    /// Offload everything to cloud/HPC nodes.
    CloudOnly,
    /// Per task, pick the node minimising estimated transfer time plus
    /// execution time — offloads compute-heavy work when the network
    /// is fast, keeps data-heavy work local when it is slow.
    LatencyAware,
}

impl ContinuumPolicy {
    fn allows(self, class: DeviceClass) -> bool {
        match self {
            ContinuumPolicy::FogOnly => {
                matches!(
                    class,
                    DeviceClass::Fog | DeviceClass::Edge | DeviceClass::Sensor
                )
            }
            ContinuumPolicy::CloudOnly => {
                matches!(class, DeviceClass::CloudVm | DeviceClass::Hpc)
            }
            ContinuumPolicy::LatencyAware => true,
        }
    }
}

/// A [`Scheduler`] that places tasks across fog and cloud layers
/// according to a [`ContinuumPolicy`].
#[derive(Debug, Clone)]
pub struct ContinuumScheduler {
    policy: ContinuumPolicy,
}

impl ContinuumScheduler {
    /// Creates a scheduler with the given policy.
    pub fn new(policy: ContinuumPolicy) -> Self {
        ContinuumScheduler { policy }
    }

    /// The active policy.
    pub fn policy(&self) -> ContinuumPolicy {
        self.policy
    }
}

impl Scheduler for ContinuumScheduler {
    fn name(&self) -> &str {
        match self.policy {
            ContinuumPolicy::FogOnly => "fog-only",
            ContinuumPolicy::CloudOnly => "cloud-only",
            ContinuumPolicy::LatencyAware => "latency-aware",
        }
    }

    fn place(&mut self, view: &PlacementView<'_>, ready: &[TaskId]) -> Vec<(TaskId, NodeId)> {
        // Virtual queue per node: every task *commits* to its best
        // node, even beyond current capacity (deferring execution to a
        // later round), so later tasks see realistic queue depths
        // instead of spilling to the next-best layer the moment a node
        // fills up.
        let mut committed: HashMap<NodeId, u32> = HashMap::new();
        // Accepted this round (bounded by free capacity).
        let mut accepted: HashMap<NodeId, u32> = HashMap::new();
        // Estimated seconds of cross-zone transfer already accepted
        // toward each destination zone: the shared uplink serialises,
        // so later offloads queue behind earlier ones.
        let mut uplink_backlog: HashMap<u16, f64> = HashMap::new();
        let mut out = Vec::new();
        for &task in ready {
            let req = view.workload().profile(task).constraints_ref();
            let cu = req.required_compute_units().max(1);
            let duration = view.workload().profile(task).duration_s();
            let mut best: Option<(f64, &Node, f64)> = None;
            for st in view.nodes() {
                let node = st.id();
                // INVARIANT: the view's node states are the platform's
                // own nodes, indexed alike, so every id is in it.
                let pnode = view.platform().node(node).expect("node in platform");
                if !self.policy.allows(pnode.spec().device_class()) {
                    continue;
                }
                if !st.is_alive() || !st.total_capacity().satisfies(req) {
                    continue;
                }
                let queue = *committed.get(&node).unwrap_or(&0);
                let (score, transfer) = match self.policy {
                    ContinuumPolicy::LatencyAware => {
                        // Queueing penalty in *waves*: a node with S
                        // slots absorbs S queued tasks per round of
                        // completions.
                        let slots = (st.total_capacity().cores() / cu).max(1);
                        let waves = (queue / slots) as f64;
                        let transfer = view.estimated_transfer_seconds(task, node);
                        let zone = pnode.zone();
                        let backlog = if transfer > 0.0 {
                            // In-flight occupancy of the uplink plus
                            // what this round already committed to it.
                            view.pending_uplink_seconds_to(zone)
                                + *uplink_backlog.get(&(zone.index() as u16)).unwrap_or(&0.0)
                        } else {
                            0.0
                        };
                        (
                            backlog + transfer + (waves + 1.0) * duration / st.speed(),
                            transfer,
                        )
                    }
                    // Class-restricted policies balance by load.
                    _ => (st.running_count() as f64 + queue as f64, 0.0),
                };
                if best.is_none_or(|(s, _, _)| score < s) {
                    best = Some((score, pnode, transfer));
                }
            }
            if let Some((_, pnode, transfer)) = best {
                let node = pnode.id();
                *committed.entry(node).or_insert(0) += 1;
                // Emit only what actually fits right now; the rest of
                // the queue stays ready and is re-offered next round.
                let used = *accepted.get(&node).unwrap_or(&0);
                let st = &view.nodes()[node.index()];
                if st.can_host(req) && st.free_capacity().cores() >= used * cu + cu {
                    *accepted.entry(node).or_insert(0) += 1;
                    if transfer > 0.0 {
                        let zone = pnode.zone();
                        *uplink_backlog.entry(zone.index() as u16).or_insert(0.0) += transfer;
                    }
                    out.push((task, node));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_dag::TaskSpec;
    use continuum_platform::{NodeSpec, PlatformBuilder};
    use continuum_runtime::{SimOptions, SimRuntime, SimWorkload, TaskProfile};
    use continuum_sim::FaultPlan;

    /// Edge sensors produce data in the fog zone; tasks process it.
    fn fog_cloud_platform() -> continuum_platform::Platform {
        PlatformBuilder::new()
            .fog_area("campus", 2, NodeSpec::fog(2, 4_000))
            .cloud("dc", 2, NodeSpec::cloud_vm(8, 16_000).with_speed(4.0))
            .link_zones(0, 1, continuum_platform::LinkSpec::wireless())
            .build()
    }

    fn sensor_workload(tasks: usize, input_mb: u64) -> SimWorkload {
        let mut w = SimWorkload::new();
        for i in 0..tasks {
            // Sensor data homed on fog node 0/1.
            let raw = w.initial_data(
                format!("raw{i}"),
                input_mb * 1_000_000,
                Some(NodeId::from_raw((i % 2) as u32)),
            );
            let out = w.data(format!("out{i}"));
            w.task(
                TaskSpec::new("analyze").input(raw).output(out),
                TaskProfile::new(20.0),
            )
            .unwrap();
        }
        w
    }

    fn run(policy: ContinuumPolicy, input_mb: u64) -> continuum_sim::RunReport {
        let rt = SimRuntime::new(fog_cloud_platform(), SimOptions::default());
        rt.run(
            &sensor_workload(4, input_mb),
            &mut ContinuumScheduler::new(policy),
            &FaultPlan::new(),
        )
        .unwrap()
    }

    #[test]
    fn fog_only_never_transfers() {
        let r = run(ContinuumPolicy::FogOnly, 50);
        assert_eq!(r.transfer_count, 0, "data and compute co-located in fog");
    }

    #[test]
    fn cloud_only_ships_all_input_data() {
        let r = run(ContinuumPolicy::CloudOnly, 50);
        assert_eq!(r.transfer_count, 4);
        assert_eq!(r.transfer_bytes, 4 * 50_000_000);
    }

    #[test]
    fn cloud_wins_on_light_data_fog_wins_on_heavy_data() {
        // Light inputs: 4× faster cloud cores dominate.
        let cloud_light = run(ContinuumPolicy::CloudOnly, 1);
        let fog_light = run(ContinuumPolicy::FogOnly, 1);
        assert!(cloud_light.makespan_s < fog_light.makespan_s);
        // Heavy inputs over the fog↔cloud WAN: shipping dominates.
        let cloud_heavy = run(ContinuumPolicy::CloudOnly, 500);
        let fog_heavy = run(ContinuumPolicy::FogOnly, 500);
        assert!(fog_heavy.makespan_s < cloud_heavy.makespan_s);
    }

    #[test]
    fn latency_aware_tracks_the_better_side() {
        for mb in [1u64, 500] {
            let adaptive = run(ContinuumPolicy::LatencyAware, mb);
            let fog = run(ContinuumPolicy::FogOnly, mb);
            let cloud = run(ContinuumPolicy::CloudOnly, mb);
            let best = fog.makespan_s.min(cloud.makespan_s);
            assert!(
                adaptive.makespan_s <= best * 1.05 + 1.0,
                "{mb} MB: adaptive {} vs best {best}",
                adaptive.makespan_s
            );
        }
    }

    #[test]
    fn policy_allows_classes() {
        assert!(ContinuumPolicy::FogOnly.allows(DeviceClass::Fog));
        assert!(!ContinuumPolicy::FogOnly.allows(DeviceClass::CloudVm));
        assert!(ContinuumPolicy::CloudOnly.allows(DeviceClass::Hpc));
        assert!(!ContinuumPolicy::CloudOnly.allows(DeviceClass::Edge));
        assert!(ContinuumPolicy::LatencyAware.allows(DeviceClass::Sensor));
    }
}
