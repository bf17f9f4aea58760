//! Per-node simulation state: occupancy, utilisation and energy over
//! virtual time.

use crate::time::VirtualTime;
use continuum_dag::TaskId;
use continuum_platform::{Constraints, EnergyAccount, Node, NodeCapacity, NodeId, PowerModel};

/// Dynamic state of one simulated node.
///
/// The state integrates core-utilisation and the linear power model
/// over virtual time: every mutation first calls `advance`, which
/// accounts the elapsed interval at the utilisation that held during
/// it.
#[derive(Debug, Clone)]
pub struct NodeState {
    id: NodeId,
    total: NodeCapacity,
    free: NodeCapacity,
    speed: f64,
    power: PowerModel,
    alive: bool,
    /// Ascending; a node runs a handful of tasks at once, and the
    /// buffer keeps its capacity as tasks come and go.
    running: Vec<TaskId>,
    cores_in_use: u32,
    last_update: VirtualTime,
    busy_core_seconds: f64,
    alive_seconds: f64,
    energy: EnergyAccount,
    account_idle: bool,
}

impl NodeState {
    /// Creates the state for a platform node, alive and idle at t=0.
    pub fn new(node: &Node) -> Self {
        NodeState {
            id: node.id(),
            total: node.capacity().clone(),
            free: node.capacity().clone(),
            speed: node.spec().speed(),
            power: node.spec().power(),
            alive: true,
            running: Vec::new(),
            cores_in_use: 0,
            last_update: VirtualTime::ZERO,
            busy_core_seconds: 0.0,
            alive_seconds: 0.0,
            energy: EnergyAccount::new(),
            account_idle: true,
        }
    }

    /// Creates the state for a node that joins the platform at `now`
    /// (elastic provisioning): no alive time is accounted before then.
    pub fn new_at(node: &Node, now: VirtualTime) -> Self {
        let mut st = Self::new(node);
        st.last_update = now;
        st
    }

    /// Controls whether idle (powered-on) time consumes idle power.
    /// Disabling models aggressive power management: idle nodes are
    /// suspended and draw nothing (used by energy-aware experiments).
    pub fn set_idle_accounting(&mut self, account_idle: bool) {
        self.account_idle = account_idle;
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether the node is currently alive.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// The node's full capacity.
    pub fn total_capacity(&self) -> &NodeCapacity {
        &self.total
    }

    /// The node's currently free capacity.
    pub fn free_capacity(&self) -> &NodeCapacity {
        &self.free
    }

    /// Tasks currently running here.
    pub fn running_tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.running.iter().copied()
    }

    /// Number of tasks currently running here.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Returns `true` if nothing is running.
    pub fn is_idle(&self) -> bool {
        self.running.is_empty()
    }

    /// Relative speed factor of the node.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Wall-clock duration of a task with the given reference duration
    /// on this node.
    pub fn effective_duration(&self, reference_seconds: f64) -> f64 {
        reference_seconds / self.speed
    }

    /// Integrates utilisation/energy up to `now`. Idempotent for equal
    /// times; called implicitly by every mutation.
    pub fn advance(&mut self, now: VirtualTime) {
        let dt = now.since(self.last_update);
        if dt > 0.0 && self.alive {
            let total_cores = self.total.cores().max(1) as f64;
            let u = self.cores_in_use as f64 / total_cores;
            self.busy_core_seconds += self.cores_in_use as f64 * dt;
            self.alive_seconds += dt;
            if self.cores_in_use > 0 {
                self.energy.add_busy(self.power, dt, u);
            } else if self.account_idle {
                self.energy.add_idle(self.power, dt);
            }
        }
        self.last_update = self.last_update.max(now);
    }

    /// Returns `true` if the node is alive and has capacity for `req`.
    pub fn can_host(&self, req: &Constraints) -> bool {
        self.alive && self.free.satisfies(req)
    }

    /// Attempts to start a task; returns `false` (without side effects)
    /// if the node is dead or lacks capacity.
    pub fn try_start(&mut self, task: TaskId, req: &Constraints, now: VirtualTime) -> bool {
        if !self.can_host(req) {
            return false;
        }
        self.advance(now);
        self.free.allocate(req);
        self.cores_in_use += req.required_compute_units();
        if let Err(at) = self.running.binary_search(&task) {
            self.running.insert(at, task);
        }
        true
    }

    /// Finishes a task, releasing its resources.
    ///
    /// # Panics
    ///
    /// Panics if the task is not running here.
    pub fn finish(&mut self, task: TaskId, req: &Constraints, now: VirtualTime) {
        match self.running.binary_search(&task) {
            Ok(at) => self.running.remove(at),
            Err(_) => panic!("task {task} not running on {}", self.id),
        };
        self.advance(now);
        self.free.release(req);
        self.cores_in_use -= req.required_compute_units();
    }

    /// Kills the node: all running tasks are lost and returned so the
    /// engine can re-queue them. Capacity resets for the eventual
    /// recovery.
    pub fn fail(&mut self, now: VirtualTime) -> Vec<TaskId> {
        self.advance(now);
        self.alive = false;
        self.cores_in_use = 0;
        self.free = self.total.clone();
        std::mem::take(&mut self.running)
    }

    /// Brings a failed node back, idle.
    pub fn recover(&mut self, now: VirtualTime) {
        self.advance(now);
        self.alive = true;
    }

    /// Core-seconds spent running tasks.
    pub fn busy_core_seconds(&self) -> f64 {
        self.busy_core_seconds
    }

    /// Seconds the node has been powered on (alive).
    pub fn alive_seconds(&self) -> f64 {
        self.alive_seconds
    }

    /// Mean core utilisation over the node's alive time, in `[0, 1]`.
    pub fn utilisation(&self) -> f64 {
        if self.alive_seconds <= 0.0 {
            return 0.0;
        }
        self.busy_core_seconds / (self.total.cores().max(1) as f64 * self.alive_seconds)
    }

    /// Accumulated energy account.
    pub fn energy(&self) -> &EnergyAccount {
        &self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_platform::NodeSpec;

    fn node(cores: u32, mem: u64) -> Node {
        let platform = continuum_platform::PlatformBuilder::new()
            .cluster("c", 1, NodeSpec::hpc(cores, mem))
            .build();
        platform.node_by_index(0).clone()
    }

    fn t(s: f64) -> VirtualTime {
        VirtualTime::from_seconds(s)
    }

    #[test]
    fn start_and_finish_track_occupancy() {
        let mut st = NodeState::new(&node(4, 1000));
        let task = TaskId::from_raw(0);
        let req = Constraints::new().compute_units(2).memory_mb(500);
        assert!(st.try_start(task, &req, t(0.0)));
        assert_eq!(st.running_count(), 1);
        assert_eq!(st.free_capacity().cores(), 2);
        assert_eq!(st.free_capacity().memory_mb(), 500);
        st.finish(task, &req, t(10.0));
        assert!(st.is_idle());
        assert_eq!(st.free_capacity().cores(), 4);
        assert_eq!(st.busy_core_seconds(), 20.0, "2 cores × 10 s");
    }

    #[test]
    fn rejects_over_capacity() {
        let mut st = NodeState::new(&node(2, 100));
        let big = Constraints::new().compute_units(4);
        assert!(!st.try_start(TaskId::from_raw(0), &big, t(0.0)));
        let hungry = Constraints::new().memory_mb(200);
        assert!(!st.try_start(TaskId::from_raw(1), &hungry, t(0.0)));
        assert!(st.is_idle());
    }

    #[test]
    fn utilisation_integrates_over_time() {
        let mut st = NodeState::new(&node(4, 1000));
        let req = Constraints::new().compute_units(4);
        st.try_start(TaskId::from_raw(0), &req, t(0.0));
        st.finish(TaskId::from_raw(0), &req, t(5.0));
        st.advance(t(10.0));
        // Busy 5 s at 100%, idle 5 s: utilisation = 0.5.
        assert!((st.utilisation() - 0.5).abs() < 1e-9);
        assert_eq!(st.alive_seconds(), 10.0);
    }

    #[test]
    fn energy_splits_busy_and_idle() {
        let mut st = NodeState::new(&node(1, 100));
        let req = Constraints::new();
        st.try_start(TaskId::from_raw(0), &req, t(0.0));
        st.finish(TaskId::from_raw(0), &req, t(10.0));
        st.advance(t(20.0));
        let e = st.energy();
        assert!(e.busy_joules > 0.0);
        assert!(e.idle_joules > 0.0);
        assert_eq!(e.busy_seconds, 10.0);
        assert_eq!(e.idle_seconds, 10.0);
    }

    #[test]
    fn failure_drops_tasks_and_stops_accounting() {
        let mut st = NodeState::new(&node(4, 1000));
        let req = Constraints::new();
        st.try_start(TaskId::from_raw(0), &req, t(0.0));
        st.try_start(TaskId::from_raw(1), &req, t(0.0));
        let lost = st.fail(t(5.0));
        assert_eq!(lost.len(), 2);
        assert!(!st.is_alive());
        assert!(!st.can_host(&req));
        let alive_before = st.alive_seconds();
        st.advance(t(50.0));
        assert_eq!(st.alive_seconds(), alive_before, "dead time not counted");
        st.recover(t(50.0));
        assert!(st.can_host(&req));
        assert!(st.try_start(TaskId::from_raw(2), &req, t(50.0)));
    }

    #[test]
    #[should_panic(expected = "not running")]
    fn finishing_unknown_task_panics() {
        let mut st = NodeState::new(&node(1, 100));
        st.finish(TaskId::from_raw(9), &Constraints::new(), t(0.0));
    }

    #[test]
    fn effective_duration_scales_with_speed() {
        let platform = continuum_platform::PlatformBuilder::new()
            .cluster("c", 1, NodeSpec::hpc(4, 1000).with_speed(2.0))
            .build();
        let st = NodeState::new(platform.node_by_index(0));
        assert_eq!(st.effective_duration(10.0), 5.0);
    }

    #[test]
    fn advance_is_idempotent_for_equal_times() {
        let mut st = NodeState::new(&node(2, 100));
        st.advance(t(5.0));
        let a = st.alive_seconds();
        st.advance(t(5.0));
        assert_eq!(st.alive_seconds(), a);
        // Advancing "backwards" is a no-op, not a panic.
        st.advance(t(1.0));
        assert_eq!(st.alive_seconds(), a);
    }
}
