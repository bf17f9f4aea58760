//! Offloading policies: which agent runs the next task.
//!
//! The paper frames fog-to-cloud (and cloud-to-fog) offloading as a
//! trade-off between device capability, network cost and energy. The
//! policies of §VI-B are [`ContinuumScheduler`](crate::ContinuumScheduler),
//! the same rule the simulator places by; [`RoundRobinOffload`] is the
//! class-blind baseline. Every policy chooses among *live* agents, and
//! only among those of a task's pinned class when it has one.

use crate::agent::{AgentId, AgentInfo, AgentStatus};
use crate::orchestrator::AppTask;

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

/// Rotates over live agents regardless of class, save a task's pin.
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

    fn choose(&mut self, task: &AppTask, agents: &[AgentInfo]) -> Option<AgentId> {
        // Two passes over the snapshot instead of a list of the live:
        // a choice allocates nothing, whatever the fleet size.
        let eligible = |a: &&AgentInfo| task.preferred_class.is_none_or(|c| a.class == c);
        let live = alive(agents).filter(eligible).count();
        let pick = alive(agents)
            .filter(eligible)
            .nth(self.cursor.checked_rem(live)?)?
            .id;
        self.cursor = self.cursor.wrapping_add(1);
        Some(pick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ContinuumPolicy, ContinuumScheduler};
    use continuum_platform::DeviceClass;

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
    fn round_robin_keeps_a_pin() {
        // One fog and one cloud agent: four fog-pinned tasks, all fog.
        let (mut p, fleet) = (RoundRobinOffload::new(), &infos()[1..3]);
        let pinned = task(0).prefer_class(DeviceClass::Fog);
        let picks: Vec<_> = (0..4).map(|_| p.choose(&pinned, fleet)).collect();
        assert_eq!(picks, [Some(AgentId(1)); 4]);
        let hpc = task(0).prefer_class(DeviceClass::Hpc);
        assert_eq!(p.choose(&hpc, fleet), None, "no live agent of the pin");
    }

    #[test]
    fn class_policies_balance_by_their_own_dispatches() {
        // The agents report `executed` 5 and 2; the rule counts what it
        // dispatched itself, which moves before any reply.
        let mut fog = ContinuumScheduler::new(ContinuumPolicy::FogOnly);
        let picks: Vec<_> = (0..3).map(|_| fog.choose(&task(0), &infos())).collect();
        assert_eq!(picks, [0, 1, 0].map(|i| Some(AgentId(i))));
        // Agent 3 is dead, and a pin replaces the policy's classes.
        let mut cloud = ContinuumScheduler::new(ContinuumPolicy::CloudOnly);
        let pinned = task(0).prefer_class(DeviceClass::Fog);
        let picks = [task(0), task(0), pinned].map(|t| cloud.choose(&t, &infos()));
        assert_eq!(picks, [2, 2, 0].map(|i| Some(AgentId(i))));
    }

    #[test]
    fn latency_aware_weighs_the_wan_against_the_queue() {
        let mut p = ContinuumScheduler::new(ContinuumPolicy::LatencyAware);
        // Without input bytes every agent ties at 1 s: the first wins.
        assert_eq!(p.choose(&task(0), &infos()), Some(AgentId(0)));
        // 1 MB crosses the WAN in 0.03 s, less than a queued task on
        // fog-0 (1 s) but more than nothing on fog-1.
        assert_eq!(p.choose(&task(1_000_000), &infos()), Some(AgentId(1)));
        assert_eq!(p.choose(&task(1_000_000), &infos()), Some(AgentId(2)));
        // 1 GB keeps to the fog behind a queue of one.
        assert_eq!(p.choose(&task(1_000_000_000), &infos()), Some(AgentId(0)));
        // With the fog gone, the cloud takes it whatever the bytes.
        let only_cloud = &infos()[2..];
        assert_eq!(p.choose(&task(1_000_000_000), only_cloud), Some(AgentId(2)));
    }

    #[test]
    fn no_live_agents_returns_none() {
        let mut dead = infos();
        for a in &mut dead {
            a.status = AgentStatus::Dead;
        }
        assert_eq!(RoundRobinOffload::new().choose(&task(0), &dead), None);
        for policy in [
            ContinuumPolicy::FogOnly,
            ContinuumPolicy::CloudOnly,
            ContinuumPolicy::LatencyAware,
        ] {
            let mut p = ContinuumScheduler::new(policy);
            assert_eq!(p.choose(&task(0), &dead), None);
        }
    }
}
