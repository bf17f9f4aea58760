//! Offloading policies: which agent runs the next task.
//!
//! The paper frames fog-to-cloud (and cloud-to-fog) offloading as a
//! trade-off between device capability, network cost and energy.
//! Policies here choose among *live* agents; the latency-aware policy
//! keeps data-heavy tasks near the fog (data gravity) and ships
//! compute-heavy, data-light tasks to the cloud.

use crate::agent::{AgentId, AgentInfo, AgentStatus};
use crate::orchestrator::AppTask;
use continuum_platform::DeviceClass;

/// Chooses the agent for a task; `None` means no live candidate.
pub trait OffloadPolicy: Send {
    /// Short policy name used in reports.
    fn name(&self) -> &str;

    /// Picks an agent among `agents` (snapshot, includes dead ones).
    fn choose(&mut self, task: &AppTask, agents: &[AgentInfo]) -> Option<AgentId>;
}

fn alive(agents: &[AgentInfo]) -> impl Iterator<Item = &AgentInfo> {
    agents.iter().filter(|a| a.status == AgentStatus::Alive)
}

/// Rotates over live agents regardless of class.
#[derive(Debug, Clone, Default)]
pub struct RoundRobinOffload {
    cursor: usize,
}

impl RoundRobinOffload {
    /// Creates a round-robin policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl OffloadPolicy for RoundRobinOffload {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn choose(&mut self, _task: &AppTask, agents: &[AgentInfo]) -> Option<AgentId> {
        // Two passes over the snapshot instead of a list of the live:
        // a choice allocates nothing, whatever the fleet size.
        let live = alive(agents).count();
        let pick = alive(agents).nth(self.cursor.checked_rem(live)?)?.id;
        self.cursor = self.cursor.wrapping_add(1);
        Some(pick)
    }
}

/// Prefers device classes in the given order (e.g. fog-first for
/// data-local execution, cloud-first for compute offloading); within a
/// class, picks the least-used live agent.
#[derive(Debug, Clone)]
pub struct PreferClass {
    order: Vec<DeviceClass>,
    label: &'static str,
}

impl PreferClass {
    /// Fog devices first, then cloud (fog-to-fog before fog-to-cloud).
    pub fn fog_first() -> Self {
        PreferClass {
            order: vec![
                DeviceClass::Fog,
                DeviceClass::Edge,
                DeviceClass::CloudVm,
                DeviceClass::Hpc,
            ],
            label: "fog-first",
        }
    }

    /// Cloud first (offload everything).
    pub fn cloud_first() -> Self {
        PreferClass {
            order: vec![
                DeviceClass::CloudVm,
                DeviceClass::Hpc,
                DeviceClass::Fog,
                DeviceClass::Edge,
            ],
            label: "cloud-first",
        }
    }

    /// A custom class order.
    pub fn custom(order: Vec<DeviceClass>) -> Self {
        PreferClass {
            order,
            label: "custom-order",
        }
    }
}

impl OffloadPolicy for PreferClass {
    fn name(&self) -> &str {
        self.label
    }

    fn choose(&mut self, task: &AppTask, agents: &[AgentInfo]) -> Option<AgentId> {
        // A task may pin a class (e.g. sensors produce only locally).
        if let Some(pinned) = task.preferred_class {
            return alive(agents)
                .filter(|a| a.class == pinned)
                .min_by_key(|a| (a.executed, a.id))
                .map(|a| a.id);
        }
        for class in &self.order {
            if let Some(agent) = alive(agents)
                .filter(|a| a.class == *class)
                .min_by_key(|a| (a.executed, a.id))
            {
                return Some(agent.id);
            }
        }
        alive(agents).map(|a| a.id).next()
    }
}

/// Latency-aware offloading: tasks whose input volume exceeds the
/// threshold stay on fog/edge devices (shipping the data to the cloud
/// would dominate); lighter tasks are offloaded to the cloud.
#[derive(Debug, Clone)]
pub struct LatencyAwareOffload {
    /// Input-bytes threshold above which the task stays in the fog.
    pub data_gravity_bytes: u64,
}

impl LatencyAwareOffload {
    /// Creates the policy with the given data-gravity threshold.
    pub fn new(data_gravity_bytes: u64) -> Self {
        LatencyAwareOffload { data_gravity_bytes }
    }
}

impl OffloadPolicy for LatencyAwareOffload {
    fn name(&self) -> &str {
        "latency-aware"
    }

    fn choose(&mut self, task: &AppTask, agents: &[AgentInfo]) -> Option<AgentId> {
        let heavy = task.input_bytes_hint > self.data_gravity_bytes;
        let (preferred, fallback): (Vec<DeviceClass>, Vec<DeviceClass>) = if heavy {
            (
                vec![DeviceClass::Fog, DeviceClass::Edge],
                vec![DeviceClass::CloudVm, DeviceClass::Hpc],
            )
        } else {
            (
                vec![DeviceClass::CloudVm, DeviceClass::Hpc],
                vec![DeviceClass::Fog, DeviceClass::Edge],
            )
        };
        for classes in [preferred, fallback] {
            if let Some(agent) = alive(agents)
                .filter(|a| classes.contains(&a.class))
                .min_by_key(|a| (a.executed, a.id))
            {
                return Some(agent.id);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infos() -> Vec<AgentInfo> {
        let mk = |i: u32, class, status, executed| AgentInfo {
            id: AgentId(i),
            name: format!("a{i}"),
            class,
            status,
            executed,
        };
        vec![
            mk(0, DeviceClass::Fog, AgentStatus::Alive, 5),
            mk(1, DeviceClass::Fog, AgentStatus::Alive, 2),
            mk(2, DeviceClass::CloudVm, AgentStatus::Alive, 0),
            mk(3, DeviceClass::CloudVm, AgentStatus::Dead, 0),
        ]
    }

    fn task(bytes: u64) -> AppTask {
        AppTask::new("op", vec![], "out").input_bytes_hint(bytes)
    }

    #[test]
    fn round_robin_skips_dead() {
        let mut p = RoundRobinOffload::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..6 {
            let id = p.choose(&task(0), &infos()).unwrap();
            assert_ne!(id, AgentId(3), "dead agent never chosen");
            seen.insert(id);
        }
        assert_eq!(seen.len(), 3, "rotates over all live agents");
    }

    #[test]
    fn fog_first_prefers_least_used_fog() {
        let mut p = PreferClass::fog_first();
        assert_eq!(p.choose(&task(0), &infos()), Some(AgentId(1)));
    }

    #[test]
    fn cloud_first_prefers_live_cloud() {
        let mut p = PreferClass::cloud_first();
        assert_eq!(p.choose(&task(0), &infos()), Some(AgentId(2)));
    }

    #[test]
    fn pinned_class_wins_over_order() {
        let mut p = PreferClass::cloud_first();
        let pinned = AppTask::new("op", vec![], "out").prefer_class(DeviceClass::Fog);
        assert_eq!(p.choose(&pinned, &infos()), Some(AgentId(1)));
    }

    #[test]
    fn latency_aware_splits_by_data_volume() {
        let mut p = LatencyAwareOffload::new(1_000_000);
        // Light task: cloud.
        assert_eq!(p.choose(&task(10), &infos()), Some(AgentId(2)));
        // Heavy task: fog.
        let heavy = p.choose(&task(10_000_000), &infos()).unwrap();
        assert!(heavy == AgentId(0) || heavy == AgentId(1));
    }

    #[test]
    fn no_live_agents_returns_none() {
        let mut dead = infos();
        for a in &mut dead {
            a.status = AgentStatus::Dead;
        }
        assert_eq!(RoundRobinOffload::new().choose(&task(0), &dead), None);
        assert_eq!(PreferClass::fog_first().choose(&task(0), &dead), None);
        assert_eq!(LatencyAwareOffload::new(0).choose(&task(0), &dead), None);
    }

    #[test]
    fn fallback_to_other_layer_when_preferred_empty() {
        let mut only_cloud = infos();
        only_cloud[0].status = AgentStatus::Dead;
        only_cloud[1].status = AgentStatus::Dead;
        let mut p = LatencyAwareOffload::new(100);
        // Heavy task prefers fog, but only cloud is alive.
        assert_eq!(p.choose(&task(1_000), &only_cloud), Some(AgentId(2)));
    }
}
