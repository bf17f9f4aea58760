//! Recovery and elasticity: node faults, lineage replay of lost data,
//! restart from scratch, and the elastic pool's grow/shrink ticks.

use super::{DataLossMode, Engine, Event};
use crate::data::DataRegistry;
use crate::error::RuntimeError;
use continuum_dag::{GraphRun, TaskId, TaskState, VersionedData};
use continuum_platform::{ElasticAction, NodeId};
use continuum_sim::{FaultKind, NodeState, VirtualTime};

impl Engine<'_, '_> {
    pub(super) fn on_fault(
        &mut self,
        node: NodeId,
        kind: FaultKind,
        now: VirtualTime,
    ) -> Result<(), RuntimeError> {
        if node.index() >= self.nodes.len() {
            return Ok(()); // fault for a node that never joined
        }
        match kind {
            FaultKind::Recover => {
                self.nodes[node.index()].recover(now);
                // Recovered capacity may unblock pending replays.
                self.inval_add_epoch += 1;
            }
            FaultKind::Fail => {
                // Data may have been removed: every cached verdict is
                // stale, true ones included.
                self.inval_all_epoch += 1;
                let lost_tasks = self.nodes[node.index()].fail(now);
                // Tasks running on the dead node (and their co-hosts
                // for rigid tasks) are lost.
                for task in lost_tasks {
                    let slot = &mut self.slots[task.index()];
                    let was_replay = std::mem::take(&mut slot.replaying);
                    if std::mem::take(&mut slot.flight_epoch) != 0 {
                        // Rigid tasks: free the surviving co-hosts.
                        let hosts = std::mem::take(&mut slot.hosts);
                        self.release_hosts(task, &hosts, now);
                    }
                    if !was_replay {
                        self.run.mark_failed(task)?;
                        self.run.requeue_failed(task)?;
                    }
                }
                // Replay regenerates lost data on demand (see
                // `ensure_available`); restart starts over at once.
                let lost_data = self.registry.drop_node(node);
                if self.options.data_loss == DataLossMode::Restart
                    && lost_data.iter().any(|vd| self.still_needed(*vd))
                {
                    self.restart(now);
                }
            }
        }
        self.schedule_round(now)
    }

    fn still_needed(&self, vd: VersionedData) -> bool {
        // A datum is needed if any non-completed task consumes it.
        self.workload.graph().nodes().any(|n| {
            self.run.state(n.id()) != Some(TaskState::Completed) && n.consumed().any(|c| c == vd)
        })
    }

    /// Restart-from-scratch recovery: every completed task is counted
    /// as a re-execution and the whole graph starts over.
    fn restart(&mut self, now: VirtualTime) {
        // Lazy runs reject `DataLossMode::Restart` at entry: a
        // restarted source would have to replay its expansion history.
        debug_assert!(self.lazy.is_none(), "lazy runs never restart");
        self.restarts += 1;
        self.reexecutions += self.run.completed_count();
        // Cancel in-flight work (in task-id order) and forget every
        // task's history; clearing the flight epochs also stale-guards
        // all pending TaskDone events.
        for idx in 0..self.slots.len() {
            let slot = std::mem::take(&mut self.slots[idx]);
            if slot.flight_epoch != 0 {
                self.release_hosts(TaskId::from_raw(idx as u64), &slot.hosts, now);
            }
        }
        self.run = GraphRun::new(self.workload.graph());
        self.plan_levels();
        self.registry = DataRegistry::new();
        self.index_producers();
        self.seed_initial_data();
        self.streams.restart();
        // The registry was rebuilt from scratch: all verdicts stale.
        self.inval_all_epoch += 1;
    }

    /// Whether `vd` can be read right now. Under lineage replay, a lost
    /// value starts the replay of its producer (once the producer's own
    /// inputs are available, recursively).
    pub(super) fn ensure_available(
        &mut self,
        vd: VersionedData,
        now: VirtualTime,
    ) -> Result<bool, RuntimeError> {
        if vd.version.is_initial() {
            return Ok(true); // external inputs are durable
        }
        let record = self.registry.get(vd);
        if record.is_some_and(|r| r.is_available()) {
            return Ok(true);
        }
        if self.options.data_loss != DataLossMode::Replay {
            return Ok(false); // restart is handled at loss time
        }
        let Some(producer) = record.and_then(|r| r.producer()) else {
            return Ok(false);
        };
        let slot = &self.slots[producer.index()];
        if slot.replaying || slot.flight_epoch != 0 {
            return Ok(false); // regeneration in flight
        }
        // Recursively make sure the producer's own inputs exist.
        let mut deps_ok = true;
        let node = self.workload.task_node(producer);
        let deps: Vec<VersionedData> = node.consumed().collect();
        for dep in deps {
            if !self.ensure_available(dep, now)? {
                deps_ok = false;
            }
        }
        if deps_ok {
            self.start_replay(producer, now)?;
        }
        Ok(false)
    }

    fn start_replay(&mut self, task: TaskId, now: VirtualTime) -> Result<(), RuntimeError> {
        // First-fit placement for replays.
        let req = self.workload.profile(task).constraints_ref();
        if req.is_multi_node() {
            self.slots[task.index()].replaying = true;
            if !self.try_start_multi(task, now, true)? {
                self.slots[task.index()].replaying = false;
            }
            return Ok(());
        }
        let node = self.nodes.iter().find(|n| n.can_host(req)).map(|n| n.id());
        if let Some(node) = node {
            self.slots[task.index()].replaying = true;
            self.begin_execution(task, [node].into_iter().collect(), now);
        }
        Ok(())
    }

    pub(super) fn on_elastic_tick(&mut self, now: VirtualTime) -> Result<(), RuntimeError> {
        let Some(mut cfg) = self.options.elastic.take() else {
            return Ok(());
        };
        let zone = cfg.zone;
        let zone_nodes: Vec<NodeId> = self.platform.zone(zone).node_ids().to_vec();
        let alive: Vec<NodeId> = zone_nodes
            .iter()
            .copied()
            .filter(|n| self.nodes[n.index()].is_alive())
            .collect();
        let idle = alive
            .iter()
            .filter(|n| self.nodes[n.index()].is_idle())
            .count();
        let ready = self.run.ready_tasks().len();
        match cfg
            .policy
            .evaluate(now.as_seconds(), alive.len(), ready, idle)
        {
            ElasticAction::Grow(n) => {
                for _ in 0..n {
                    // Prefer resurrecting a released node of the zone.
                    let dead = zone_nodes
                        .iter()
                        .copied()
                        .find(|id| !self.nodes[id.index()].is_alive());
                    let node = match dead {
                        Some(id) => Some(id),
                        None => {
                            let added = self.platform.grow_zone(zone);
                            if let Some(id) = added {
                                debug_assert_eq!(id.index(), self.nodes.len());
                                let mut st =
                                    NodeState::new_at(self.platform.node_by_index(id.index()), now);
                                st.set_idle_accounting(!self.options.power_off_idle);
                                // Joins after the provisioning delay.
                                st.fail(now);
                                self.nodes.push(st);
                                Some(id)
                            } else {
                                None
                            }
                        }
                    };
                    if let Some(id) = node {
                        self.queue.push(
                            now.after(cfg.provision_delay_s),
                            Event::NodeJoin { node: id },
                        );
                    }
                }
            }
            ElasticAction::Shrink(n) => {
                let mut released = 0;
                for id in alive {
                    if released == n {
                        break;
                    }
                    if self.nodes[id.index()].is_idle() {
                        self.nodes[id.index()].fail(now);
                        released += 1;
                    }
                }
            }
            ElasticAction::Hold => {}
        }
        self.queue.push_after(cfg.period_s, Event::ElasticTick);
        self.options.elastic = Some(cfg);
        self.schedule_round(now)
    }
}
