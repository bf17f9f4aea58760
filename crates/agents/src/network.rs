//! A network of agents sharing an operation registry and a persistent
//! store (the deployment of paper Fig. 6).

use crate::agent::{Agent, AgentId, AgentInfo, ExecReply};
use crate::error::AgentError;
use crate::offload::OffloadPolicy;
use crate::ops::OpRegistry;
use crate::orchestrator::{AppReport, AppTask, Application};
use continuum_platform::oneshot::{self, OneshotReceiver};
use continuum_platform::DeviceClass;
use continuum_storage::StorageRuntime;
use std::fmt;
use std::sync::mpsc::Sender;
use std::sync::Arc;

/// Shared state of a network: what agents, the orchestrator and the
/// REST-style verbs operate on.
pub(crate) struct NetworkInner {
    pub(crate) agents: parking_lot::RwLock<Vec<Agent>>,
    pub(crate) ops: OpRegistry,
    pub(crate) store: Arc<dyn StorageRuntime>,
}

impl NetworkInner {
    pub(crate) fn infos(&self) -> Vec<AgentInfo> {
        self.agents.read().iter().map(Agent::info).collect()
    }

    pub(crate) fn sender_of(&self, id: AgentId) -> Result<Sender<crate::agent::Msg>, AgentError> {
        let agents = self.agents.read();
        agents
            .get(id.index())
            .map(Agent::sender)
            .ok_or_else(|| AgentError::UnknownAgent(id.to_string()))
    }
}

/// A pending agent execution reply: the future returned by
/// [`AgentNetwork::execute_async`]. Resolves to `None` only if the
/// agent thread vanished before answering.
pub type ExecFuture = OneshotReceiver<ExecReply>;

/// A set of deployed agents plus the shared store and code registry.
///
/// # Example
///
/// ```
/// use continuum_agents::{AgentNetwork, OpRegistry};
/// use continuum_platform::{DeviceClass, NodeId};
/// use continuum_storage::{KvStore, KvConfig};
/// use std::sync::Arc;
///
/// let store = Arc::new(KvStore::new(
///     (0..2).map(NodeId::from_raw).collect(),
///     KvConfig { replication: 1 },
/// )?);
/// let net = AgentNetwork::new(store, OpRegistry::new());
/// let fog = net.deploy("fog-0", DeviceClass::Fog);
/// let cloud = net.deploy("cloud-0", DeviceClass::CloudVm);
/// assert_eq!(net.infos().len(), 2);
/// assert_ne!(fog, cloud);
/// # Ok::<(), continuum_storage::StorageError>(())
/// ```
pub struct AgentNetwork {
    inner: Arc<NetworkInner>,
}

impl fmt::Debug for AgentNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AgentNetwork")
            .field("agents", &self.inner.agents.read().len())
            .finish()
    }
}

impl AgentNetwork {
    /// Creates an empty network over a shared store and code registry.
    pub fn new(store: Arc<dyn StorageRuntime>, ops: OpRegistry) -> Self {
        AgentNetwork {
            inner: Arc::new(NetworkInner {
                agents: parking_lot::RwLock::new(Vec::new()),
                ops,
                store,
            }),
        }
    }

    /// Deploys a new agent on a device of the given class.
    pub fn deploy(&self, name: impl Into<String>, class: DeviceClass) -> AgentId {
        self.deploy_with_telemetry(name, class, continuum_telemetry::RecorderHandle::noop())
    }

    /// Deploys an agent with its own telemetry sink: the agent records
    /// its local task spans (transfer + execute, parented under the
    /// inbound offload hop's span context) against its own clock.
    /// Export each agent's buffer to a separate trace file and join
    /// them with `continuum_telemetry::merge_traces`.
    pub fn deploy_with_telemetry(
        &self,
        name: impl Into<String>,
        class: DeviceClass,
        telemetry: continuum_telemetry::RecorderHandle,
    ) -> AgentId {
        let mut agents = self.inner.agents.write();
        let id = AgentId(agents.len() as u32);
        agents.push(Agent::spawn(
            id,
            name.into(),
            class,
            self.inner.ops.clone(),
            Arc::clone(&self.inner.store),
            Arc::downgrade(&self.inner),
            telemetry,
        ));
        id
    }

    /// The shared operation registry.
    pub fn ops(&self) -> &OpRegistry {
        &self.inner.ops
    }

    /// The shared store.
    pub fn store(&self) -> &Arc<dyn StorageRuntime> {
        &self.inner.store
    }

    /// Number of deployed agents.
    pub fn len(&self) -> usize {
        self.inner.agents.read().len()
    }

    /// Returns `true` if no agents are deployed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Kills an agent (device churn).
    ///
    /// # Errors
    ///
    /// Returns [`AgentError::UnknownAgent`] for ids not in the network.
    pub fn kill(&self, id: AgentId) -> Result<(), AgentError> {
        let agents = self.inner.agents.read();
        let agent = agents
            .get(id.index())
            .ok_or_else(|| AgentError::UnknownAgent(id.to_string()))?;
        agent.kill();
        Ok(())
    }

    /// Revives a dead agent.
    ///
    /// # Errors
    ///
    /// Returns [`AgentError::UnknownAgent`] for ids not in the network.
    pub fn revive(&self, id: AgentId) -> Result<(), AgentError> {
        let agents = self.inner.agents.read();
        let agent = agents
            .get(id.index())
            .ok_or_else(|| AgentError::UnknownAgent(id.to_string()))?;
        agent.revive();
        Ok(())
    }

    /// Probe snapshots of every agent.
    pub fn infos(&self) -> Vec<AgentInfo> {
        self.inner.infos()
    }

    /// Probes one agent through its message interface (the REST
    /// *probe* verb; unlike [`AgentNetwork::infos`] this round-trips
    /// through the agent's inbox, so it also verifies the agent thread
    /// is responsive).
    ///
    /// # Errors
    ///
    /// Returns [`AgentError::UnknownAgent`] if the id is not deployed
    /// or its thread is gone.
    pub fn probe(&self, id: AgentId) -> Result<AgentInfo, AgentError> {
        let (tx, rx) = oneshot::channel();
        self.sender_of(id)?
            .send(crate::agent::Msg::Probe { reply: tx })
            .map_err(|_| AgentError::UnknownAgent(id.to_string()))?;
        rx.wait()
            .ok_or_else(|| AgentError::UnknownAgent(id.to_string()))
    }

    /// The REST *execute* verb, asynchronously: ships one operation to
    /// agent `on` and returns a future resolving to the outcome. The
    /// awaiting caller parks — one waker clone, no blocked thread —
    /// until the agent replies, which is how a workflow task offloading
    /// to the continuum yields its worker for the round-trip. The
    /// future resolves to `None` if the agent's thread is gone before
    /// it answers (e.g. the network is dropped mid-call); a *dead but
    /// responsive* agent answers [`ExecReply::Lost`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`AgentError::UnknownAgent`] if the id is not deployed
    /// or its inbox is disconnected.
    ///
    /// # Example
    ///
    /// ```no_run
    /// # use continuum_agents::{AgentNetwork, AppTask, OpRegistry};
    /// # use continuum_storage::ObjectKey;
    /// # fn demo(net: &AgentNetwork, fog: continuum_agents::AgentId) {
    /// let task = AppTask::new("double", vec![ObjectKey::new("in")], "out");
    /// let pending = net.execute_async(fog, &task).unwrap();
    /// // ... inside an async task body: `pending.await`
    /// # }
    /// ```
    pub fn execute_async(&self, on: AgentId, task: &AppTask) -> Result<ExecFuture, AgentError> {
        let (reply, rx) = oneshot::channel();
        self.sender_of(on)?
            .send(crate::agent::Msg::Execute {
                op: task.op.clone(),
                inputs: task.inputs.clone(),
                output: task.output.clone(),
                output_class: task.output_class.clone(),
                ctx: None,
                reply,
            })
            .map_err(|_| AgentError::UnknownAgent(on.to_string()))?;
        Ok(rx)
    }

    /// The REST *Start Application* verb (paper Fig. 6): asks the given
    /// agent to orchestrate `app` itself — a fog device deploying and
    /// coordinating an application over its peers (fog-to-fog), or a
    /// cloud agent using fog devices as workers. Blocks until the
    /// application finishes.
    ///
    /// # Errors
    ///
    /// * [`AgentError::UnknownAgent`] if the agent does not exist or
    ///   its thread is gone;
    /// * [`AgentError::NoAgentAvailable`] if the orchestrating agent is
    ///   dead;
    /// * any orchestration error the application run produces.
    pub fn start_application(
        &self,
        on: AgentId,
        app: Application,
        policy: Box<dyn OffloadPolicy>,
    ) -> Result<AppReport, AgentError> {
        self.start_application_traced(on, app, policy, None)
    }

    /// [`AgentNetwork::start_application`] with an inbound span
    /// context: the agent-side orchestration (and every hop it makes)
    /// nests under `ctx` instead of opening a fresh trace, so a
    /// workflow can delegate a sub-application to an agent and keep
    /// one causal trace.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`AgentNetwork::start_application`].
    pub fn start_application_traced(
        &self,
        on: AgentId,
        app: Application,
        policy: Box<dyn OffloadPolicy>,
        ctx: Option<continuum_telemetry::SpanContext>,
    ) -> Result<AppReport, AgentError> {
        let (tx, rx) = oneshot::channel();
        self.sender_of(on)?
            .send(crate::agent::Msg::StartApplication {
                app,
                policy,
                ctx,
                reply: tx,
            })
            .map_err(|_| AgentError::UnknownAgent(on.to_string()))?;
        rx.wait()
            .ok_or_else(|| AgentError::UnknownAgent(on.to_string()))?
    }

    pub(crate) fn sender_of(&self, id: AgentId) -> Result<Sender<crate::agent::Msg>, AgentError> {
        self.inner.sender_of(id)
    }

    pub(crate) fn inner(&self) -> &Arc<NetworkInner> {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentStatus;
    use continuum_platform::NodeId;
    use continuum_storage::{KvConfig, KvStore};

    fn network() -> AgentNetwork {
        let store = Arc::new(
            KvStore::new(
                (0..2).map(NodeId::from_raw).collect(),
                KvConfig { replication: 1 },
            )
            .unwrap(),
        );
        AgentNetwork::new(store, OpRegistry::new())
    }

    #[test]
    fn deploy_and_probe() {
        let net = network();
        assert!(net.is_empty());
        let a = net.deploy("fog-0", DeviceClass::Fog);
        let b = net.deploy("cloud-0", DeviceClass::CloudVm);
        assert_eq!(net.len(), 2);
        let infos = net.infos();
        assert_eq!(infos[a.index()].class, DeviceClass::Fog);
        assert_eq!(infos[b.index()].class, DeviceClass::CloudVm);
    }

    #[test]
    fn probe_round_trips_through_inbox() {
        let net = network();
        let a = net.deploy("fog-0", DeviceClass::Fog);
        let info = net.probe(a).unwrap();
        assert_eq!(info.id, a);
        assert_eq!(info.status, AgentStatus::Alive);
        assert!(net.probe(AgentId(7)).is_err());
    }

    #[test]
    fn kill_and_revive() {
        let net = network();
        let a = net.deploy("fog-0", DeviceClass::Fog);
        net.kill(a).unwrap();
        assert_eq!(net.infos()[0].status, AgentStatus::Dead);
        net.revive(a).unwrap();
        assert_eq!(net.infos()[0].status, AgentStatus::Alive);
        assert!(net.kill(AgentId(9)).is_err());
    }
}
