//! The offloading rule of §VI-B, one for both engines: a
//! [`ContinuumScheduler`] places simulated tasks as a [`Scheduler`] and
//! picks executing agents as an [`OffloadPolicy`], and both fill the
//! same candidate view and score it with [`ContinuumPolicy::pick`].

use crate::agent::{AgentId, AgentInfo, AgentStatus};
use crate::offload::OffloadPolicy;
use crate::orchestrator::AppTask;
use continuum_dag::TaskId;
use continuum_platform::{DeviceClass, LinkSpec, Node, NodeId};
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

/// A place a task could run — a simulated node or a live agent — as
/// the rule sees it: its class, the tasks running there and those this
/// scheduler has already committed to it, how many it runs at once, its
/// relative speed, and the estimated seconds to bring the inputs there.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    class: DeviceClass,
    running: u32,
    queued: u32,
    slots: u32,
    speed: f64,
    transfer_s: f64,
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

    /// The rule both engines place by: among `candidates`, in id order,
    /// the first strict minimum of the score. The class policies keep
    /// their classes and balance by load; latency-aware weighs transfer
    /// against queueing in *waves* — a candidate with S slots absorbs S
    /// queued tasks per round of completions. `pin`, when set, replaces
    /// the policy's class filter.
    fn pick<K>(
        self,
        pin: Option<DeviceClass>,
        duration_s: f64,
        candidates: impl IntoIterator<Item = (K, Candidate)>,
    ) -> Option<K> {
        let mut best: Option<(f64, K)> = None;
        for (key, c) in candidates {
            if !pin.map_or(self.allows(c.class), |p| c.class == p) {
                continue;
            }
            let score = match self {
                ContinuumPolicy::LatencyAware => {
                    c.transfer_s + ((c.queued / c.slots) as f64 + 1.0) * duration_s / c.speed
                }
                _ => c.running as f64 + c.queued as f64,
            };
            if best.as_ref().is_none_or(|(s, _)| score < *s) {
                best = Some((score, key));
            }
        }
        best.map(|(_, key)| key)
    }
}

/// Places tasks across fog and cloud layers according to a
/// [`ContinuumPolicy`], in the simulator and among live agents alike.
#[derive(Debug, Clone)]
pub struct ContinuumScheduler {
    policy: ContinuumPolicy,
    /// Dispatches made to each agent, by agent index: the agents'
    /// queue depth, counted here so dispatches made before any reply
    /// see each other.
    dispatched: Vec<u32>,
}

impl ContinuumScheduler {
    /// Creates a scheduler with the given policy.
    pub fn new(policy: ContinuumPolicy) -> Self {
        ContinuumScheduler {
            policy,
            dispatched: Vec::new(),
        }
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
        let latency_aware = self.policy == ContinuumPolicy::LatencyAware;
        let mut out = Vec::new();
        for &task in ready {
            let req = view.workload().profile(task).constraints_ref();
            let cu = req.required_compute_units().max(1);
            let duration = view.workload().profile(task).duration_s();
            let candidates = view
                .nodes()
                .iter()
                .filter(|st| st.is_alive() && st.total_capacity().satisfies(req))
                .map(|st| {
                    let node = st.id();
                    // The view's node states are the platform's own
                    // nodes, indexed alike.
                    let pnode = view.platform().node_by_index(node.index());
                    let transfer = if latency_aware {
                        view.estimated_transfer_seconds(task, node)
                    } else {
                        0.0
                    };
                    let backlog = if transfer > 0.0 {
                        // In-flight occupancy of the uplink plus what
                        // this round already committed to it.
                        let zone = pnode.zone();
                        view.pending_uplink_seconds_to(zone)
                            + *uplink_backlog.get(&(zone.index() as u16)).unwrap_or(&0.0)
                    } else {
                        0.0
                    };
                    let candidate = Candidate {
                        class: pnode.spec().device_class(),
                        running: st.running_count() as u32,
                        queued: *committed.get(&node).unwrap_or(&0),
                        slots: (st.total_capacity().cores() / cu).max(1),
                        speed: st.speed(),
                        transfer_s: backlog + transfer,
                    };
                    ((pnode, transfer), candidate)
                });
            let best: Option<(&Node, f64)> = self.policy.pick(None, duration, candidates);
            if let Some((pnode, transfer)) = best {
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

impl OffloadPolicy for ContinuumScheduler {
    fn name(&self) -> &str {
        Scheduler::name(self)
    }

    /// Agents run one task at a time at speed 1, and an [`AppTask`]
    /// declares no duration, so each counts 1 s. Its input hint crosses
    /// the platform's WAN preset to reach a cloud agent and nothing to
    /// reach a fog one.
    fn choose(&mut self, task: &AppTask, agents: &[AgentInfo]) -> Option<AgentId> {
        let wan_s = match task.input_bytes_hint {
            0 => 0.0,
            hint => LinkSpec::wan().transfer_seconds(hint),
        };
        let dispatched = &self.dispatched;
        let candidates = agents
            .iter()
            .filter(|a| a.status == AgentStatus::Alive)
            .map(|a| {
                let fog_side = ContinuumPolicy::FogOnly.allows(a.class);
                let candidate = Candidate {
                    class: a.class,
                    running: 0,
                    queued: dispatched.get(a.id.index()).copied().unwrap_or(0),
                    slots: 1,
                    speed: 1.0,
                    transfer_s: if fog_side { 0.0 } else { wan_s },
                };
                (a.id, candidate)
            });
        let id = self.policy.pick(task.preferred_class, 1.0, candidates)?;
        if self.dispatched.len() <= id.index() {
            self.dispatched.resize(id.index() + 1, 0);
        }
        self.dispatched[id.index()] += 1;
        Some(id)
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

/// Equal snapshots give equal choices in both engines: one-core nodes
/// or agents of random class at speed 1, 1-s tasks without input bytes,
/// nothing running, and no more tasks than the policy has candidates,
/// so every choice fits and the simulator emits it.
#[cfg(test)]
mod one_rule {
    use super::*;
    use continuum_dag::TaskSpec;
    use continuum_platform::{NodeSpec, PlatformBuilder};
    use continuum_runtime::{DataRegistry, SimWorkload, TaskProfile};
    use continuum_sim::NodeState;
    use proptest::prelude::*;

    const CLASSES: [DeviceClass; 5] = [
        DeviceClass::Hpc,
        DeviceClass::CloudVm,
        DeviceClass::Fog,
        DeviceClass::Edge,
        DeviceClass::Sensor,
    ];

    /// The node index each task goes to in one simulated round.
    fn sim(policy: ContinuumPolicy, classes: &[DeviceClass], tasks: usize) -> Vec<Option<usize>> {
        let platform = (classes.iter().enumerate())
            .fold(PlatformBuilder::new(), |b, (i, &class)| {
                b.cluster(&format!("n{i}"), 1, NodeSpec::new(class, 1, 1_000))
            })
            .build();
        let mut w = SimWorkload::new();
        let ready: Vec<TaskId> = (0..tasks)
            // A task that failed to register would leave `ready`, and
            // the simulator's list, shorter than the agents'.
            .filter_map(|i| {
                let spec = TaskSpec::new("t").output(w.data(format!("out{i}")));
                w.task(spec, TaskProfile::new(1.0)).ok()
            })
            .collect();
        let nodes: Vec<NodeState> = platform.nodes().iter().map(NodeState::new).collect();
        let registry = DataRegistry::new();
        let view = PlacementView::new(&w, &nodes, &registry, &platform);
        let placed = ContinuumScheduler::new(policy).place(&view, &ready);
        let node_of = |task| {
            placed
                .iter()
                .find(|(t, _)| *t == task)
                .map(|(_, n)| n.index())
        };
        ready.into_iter().map(node_of).collect()
    }

    /// The agent index each task goes to, dispatched one by one.
    fn agents(
        policy: ContinuumPolicy,
        classes: &[DeviceClass],
        tasks: usize,
    ) -> Vec<Option<usize>> {
        let infos: Vec<AgentInfo> = (classes.iter().enumerate())
            .map(|(i, &class)| AgentInfo {
                id: AgentId(i as u32),
                name: format!("a{i}"),
                class,
                status: AgentStatus::Alive,
                executed: 0,
            })
            .collect();
        let mut scheduler = ContinuumScheduler::new(policy);
        let task = AppTask::new("t", vec![], "out");
        (0..tasks)
            .map(|_| scheduler.choose(&task, &infos).map(AgentId::index))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn equal_snapshots_give_equal_choices(
            picks in proptest::collection::vec(0..CLASSES.len(), 1..7usize),
            wanted in 1..7usize,
        ) {
            let classes: Vec<DeviceClass> = picks.iter().map(|&i| CLASSES[i]).collect();
            for policy in [ContinuumPolicy::FogOnly, ContinuumPolicy::CloudOnly, ContinuumPolicy::LatencyAware] {
                // A policy without candidates gets one task, which
                // neither side places.
                let candidates = classes.iter().filter(|&&c| policy.allows(c)).count();
                let tasks = wanted.min(candidates).max(1);
                let on_sim = sim(policy, &classes, tasks);
                prop_assert_eq!(&on_sim, &agents(policy, &classes, tasks), "{:?} on {:?}", policy, classes);
                prop_assert_eq!(on_sim.iter().all(Option::is_some), candidates > 0);
            }
        }
    }
}
