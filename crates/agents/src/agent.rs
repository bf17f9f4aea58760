//! One agent: an autonomous runtime instance on one device.

use crate::network::NetworkInner;
use crate::offload::OffloadPolicy;
use crate::ops::OpRegistry;
use crate::orchestrator::{run_application, AppReport, Application};
use bytes::Bytes;
use continuum_platform::oneshot::OneshotSender;
use continuum_platform::sync::panic_message;
use continuum_platform::DeviceClass;
use continuum_storage::{ObjectKey, StorageRuntime, StoredValue};
use continuum_telemetry::{
    Event as TelemetryEvent, Label, RecorderHandle, SpanContext, TaskPhase, Track,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread;

/// Identifier of an agent within a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AgentId(pub(crate) u32);

impl AgentId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent{}", self.0)
    }
}

/// Liveness of an agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AgentStatus {
    /// Processing messages.
    Alive,
    /// Disappeared (battery, mobility): messages are answered with
    /// *lost* until revived.
    Dead,
}

/// Snapshot of an agent, as returned by the probe verb.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentInfo {
    /// The agent's id.
    pub id: AgentId,
    /// Human-readable name.
    pub name: String,
    /// Device layer the agent runs on.
    pub class: DeviceClass,
    /// Current liveness.
    pub status: AgentStatus,
    /// Tasks executed successfully so far.
    pub executed: u64,
}

/// Result of one task execution request (the reply of the REST
/// *execute* verb).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecReply {
    /// Output stored under the task's output key.
    Done,
    /// The agent died before the result could be committed.
    Lost,
    /// The operation is unknown, an input could not be read, or the
    /// operation panicked.
    Failed(String),
}

/// A request in an agent's inbox. Every verb that answers carries a
/// one-shot reply cell: an async caller awaits its receiver, a plain
/// thread `wait`s on it, and a reply dropped unanswered (the agent or
/// its orchestration thread died first) resolves the receiver to
/// `None` instead of stranding the caller.
pub(crate) enum Msg {
    Execute {
        op: String,
        inputs: Vec<ObjectKey>,
        output: ObjectKey,
        output_class: Option<String>,
        /// Causal context of the offload hop this execution serves; the
        /// agent parents its own transfer/execute spans under it.
        ctx: Option<SpanContext>,
        reply: OneshotSender<ExecReply>,
    },
    Probe {
        reply: OneshotSender<AgentInfo>,
    },
    StartApplication {
        app: Application,
        policy: Box<dyn OffloadPolicy>,
        /// Inbound causal context when the application is itself a
        /// remote dispatch (nested orchestration).
        ctx: Option<SpanContext>,
        reply: OneshotSender<Result<AppReport, crate::error::AgentError>>,
    },
    Shutdown,
}

/// An agent: a device-resident runtime with a message inbox, the
/// in-process equivalent of the paper's Docker-deployed agent with a
/// REST interface.
pub struct Agent {
    id: AgentId,
    name: String,
    class: DeviceClass,
    sender: Sender<Msg>,
    alive: Arc<AtomicBool>,
    executed: Arc<AtomicU64>,
    handle: Option<thread::JoinHandle<()>>,
}

impl fmt::Debug for Agent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Agent")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("class", &self.class)
            .field("alive", &self.alive.load(Ordering::SeqCst))
            .finish()
    }
}

impl Agent {
    pub(crate) fn spawn(
        id: AgentId,
        name: String,
        class: DeviceClass,
        ops: OpRegistry,
        store: Arc<dyn StorageRuntime>,
        network: std::sync::Weak<NetworkInner>,
        telemetry: RecorderHandle,
    ) -> Self {
        let (tx, rx) = mpsc::channel();
        let alive = Arc::new(AtomicBool::new(true));
        let executed = Arc::new(AtomicU64::new(0));
        let thread_alive = Arc::clone(&alive);
        let thread_executed = Arc::clone(&executed);
        let thread_name = name.clone();
        let handle = thread::Builder::new()
            .name(format!("agent-{id}"))
            .spawn(move || {
                agent_loop(
                    id,
                    thread_name,
                    class,
                    &rx,
                    &ops,
                    store.as_ref(),
                    &thread_alive,
                    &thread_executed,
                    &network,
                    &telemetry,
                );
            })
            .expect("spawn agent thread");
        Agent {
            id,
            name,
            class,
            sender: tx,
            alive,
            executed,
            handle: Some(handle),
        }
    }

    /// The agent's id.
    pub fn id(&self) -> AgentId {
        self.id
    }

    /// The agent's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The device class the agent runs on.
    pub fn class(&self) -> DeviceClass {
        self.class
    }

    /// Current liveness.
    pub fn status(&self) -> AgentStatus {
        if self.alive.load(Ordering::SeqCst) {
            AgentStatus::Alive
        } else {
            AgentStatus::Dead
        }
    }

    /// Tasks executed successfully.
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::SeqCst)
    }

    /// Simulates the device disappearing (low battery / out of range):
    /// in-flight and queued work is answered with *lost*.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }

    /// Brings the device back.
    pub fn revive(&self) {
        self.alive.store(true, Ordering::SeqCst);
    }

    /// Snapshot of the agent (the probe verb).
    pub fn info(&self) -> AgentInfo {
        AgentInfo {
            id: self.id,
            name: self.name.clone(),
            class: self.class,
            status: self.status(),
            executed: self.executed(),
        }
    }

    pub(crate) fn sender(&self) -> Sender<Msg> {
        self.sender.clone()
    }
}

impl Drop for Agent {
    fn drop(&mut self) {
        let _ = self.sender.send(Msg::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn agent_loop(
    id: AgentId,
    name: String,
    class: DeviceClass,
    rx: &Receiver<Msg>,
    ops: &OpRegistry,
    store: &dyn StorageRuntime,
    alive: &AtomicBool,
    executed: &AtomicU64,
    network: &std::sync::Weak<NetworkInner>,
    telemetry: &RecorderHandle,
) {
    // The agent's own clock origin: every span this agent records is
    // stamped relative to its spawn instant, deliberately independent
    // of every other agent's origin — the federated merge re-aligns
    // the clocks from the offload handshakes.
    let origin = std::time::Instant::now();
    let now_us = || origin.elapsed().as_micros() as u64;
    // Monotone per-agent sequence for derived child span ids.
    let mut span_seq: u64 = 0;
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Shutdown => break,
            Msg::StartApplication {
                app,
                mut policy,
                ctx,
                reply,
            } => {
                // The agent becomes the application's orchestrator
                // (fog-to-fog / cloud-to-fog, paper Fig. 6). The run is
                // handled on a separate thread so the agent can keep
                // executing tasks — including those of the application
                // it is orchestrating.
                if !alive.load(Ordering::SeqCst) {
                    let _ = reply.send(Err(crate::error::AgentError::NoAgentAvailable {
                        op: app.name().to_string(),
                    }));
                    continue;
                }
                let network = network.clone();
                let telemetry = telemetry.clone();
                thread::Builder::new()
                    .name(format!("agent-{id}-orchestrator"))
                    .spawn(move || {
                        let result = match network.upgrade() {
                            // The nested orchestration records into the
                            // agent's own trace with the agent's clock,
                            // parented under the inbound hop context.
                            Some(inner) => run_application(
                                &inner,
                                &app,
                                policy.as_mut(),
                                10,
                                &telemetry,
                                origin,
                                id.0,
                                ctx,
                            ),
                            None => Err(crate::error::AgentError::NoAgentAvailable {
                                op: app.name().to_string(),
                            }),
                        };
                        let _ = reply.send(result);
                    })
                    .expect("spawn orchestration thread");
            }
            Msg::Probe { reply } => {
                let _ = reply.send(AgentInfo {
                    id,
                    name: name.clone(),
                    class,
                    status: if alive.load(Ordering::SeqCst) {
                        AgentStatus::Alive
                    } else {
                        AgentStatus::Dead
                    },
                    executed: executed.load(Ordering::SeqCst),
                });
            }
            Msg::Execute {
                op,
                inputs,
                output,
                output_class,
                ctx,
                reply,
            } => {
                let dequeued_us = now_us();
                if !alive.load(Ordering::SeqCst) {
                    // A dead device leaves no trace — the hop shows up
                    // as pure network time on the submitter's side.
                    let _ = reply.send(ExecReply::Lost);
                    continue;
                }
                // The hop context parents everything this execution
                // records, so the task chains back to the submitting
                // workflow however many hops away it started.
                let exec_ctx = ctx.map(|c| {
                    span_seq += 1;
                    c.child(id.0, span_seq)
                });
                let fail = |reason: String, at_us: u64| {
                    if telemetry.enabled() {
                        telemetry.record(TelemetryEvent::Instant {
                            track: Track::Agent(id.0),
                            name: Label::shared(&op),
                            phase: TaskPhase::Failed,
                            at_us,
                        });
                    }
                    let _ = reply.send(ExecReply::Failed(reason));
                };
                let Some(f) = ops.get(&op) else {
                    fail(format!("unknown op `{op}`"), now_us());
                    continue;
                };
                let mut in_values: Vec<Bytes> = Vec::with_capacity(inputs.len());
                let mut failed = None;
                for key in &inputs {
                    match store.get(key) {
                        Ok(v) => in_values.push(v.payload),
                        Err(e) => {
                            failed = Some(format!("input `{key}`: {e}"));
                            break;
                        }
                    }
                }
                if let Some(msg) = failed {
                    fail(msg, now_us());
                    continue;
                }
                let fetched_us = now_us();
                // A panicking op is that op's failure, not the
                // device's: the agent answers and keeps serving.
                let result = match catch_unwind(AssertUnwindSafe(|| f(&in_values))) {
                    Ok(result) => result,
                    Err(payload) => {
                        let what = panic_message(payload.as_ref());
                        fail(format!("op `{op}` panicked: {what}"), now_us());
                        continue;
                    }
                };
                // The paper's recovery hinge: if the device died while
                // computing, the produced value never reaches the
                // store and the orchestrator re-submits elsewhere.
                if !alive.load(Ordering::SeqCst) {
                    let _ = reply.send(ExecReply::Lost);
                    continue;
                }
                let value = match output_class {
                    Some(c) => StoredValue::object(result, c),
                    None => StoredValue::blob(result),
                };
                match store.put(output, value, None) {
                    Ok(_) => {
                        executed.fetch_add(1, Ordering::SeqCst);
                        let done_us = now_us();
                        if telemetry.enabled() {
                            // Transfer = dequeue → inputs staged;
                            // execute = staged → output committed. Both
                            // carry the derived child context and sit
                            // strictly inside the submitter's
                            // [send, reply] hop interval.
                            let name = Label::shared(&op);
                            telemetry.record(TelemetryEvent::Span {
                                track: Track::Agent(id.0),
                                name: name.clone(),
                                phase: TaskPhase::Transferring,
                                start_us: dequeued_us,
                                dur_us: fetched_us - dequeued_us,
                                ctx: exec_ctx.map(Box::new),
                            });
                            telemetry.record(TelemetryEvent::Span {
                                track: Track::Agent(id.0),
                                name: name.clone(),
                                phase: TaskPhase::Executing,
                                start_us: fetched_us,
                                dur_us: done_us - fetched_us,
                                ctx: exec_ctx.map(Box::new),
                            });
                            telemetry.record(TelemetryEvent::Instant {
                                track: Track::Agent(id.0),
                                name,
                                phase: TaskPhase::Committed,
                                at_us: done_us,
                            });
                        }
                        let _ = reply.send(ExecReply::Done);
                    }
                    Err(e) => {
                        fail(format!("store put: {e}"), now_us());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_platform::NodeId;
    use continuum_storage::{KvConfig, KvStore};

    fn store() -> Arc<dyn StorageRuntime> {
        Arc::new(
            KvStore::new(
                (0..2).map(NodeId::from_raw).collect(),
                KvConfig { replication: 1 },
            )
            .unwrap(),
        )
    }

    fn exec(agent: &Agent, op: &str, inputs: Vec<ObjectKey>, output: ObjectKey) -> ExecReply {
        exec_traced(agent, op, inputs, output, None)
    }

    fn exec_traced(
        agent: &Agent,
        op: &str,
        inputs: Vec<ObjectKey>,
        output: ObjectKey,
        ctx: Option<SpanContext>,
    ) -> ExecReply {
        let (reply, rx) = continuum_platform::oneshot::channel();
        agent
            .sender()
            .send(Msg::Execute {
                op: op.to_string(),
                inputs,
                output,
                output_class: None,
                ctx,
                reply,
            })
            .unwrap();
        rx.wait().unwrap()
    }

    #[test]
    fn agent_executes_and_persists() {
        let ops = OpRegistry::new();
        ops.register("double", |ins| {
            Bytes::from(ins[0].iter().map(|b| b * 2).collect::<Vec<u8>>())
        });
        let st = store();
        st.put("in".into(), StoredValue::blob(vec![1, 2, 3]), None)
            .unwrap();
        let agent = Agent::spawn(
            AgentId(0),
            "fog-0".into(),
            DeviceClass::Fog,
            ops,
            Arc::clone(&st),
            std::sync::Weak::new(),
            RecorderHandle::noop(),
        );
        let reply = exec(&agent, "double", vec!["in".into()], "out".into());
        assert_eq!(reply, ExecReply::Done);
        assert_eq!(&st.get(&"out".into()).unwrap().payload[..], &[2, 4, 6]);
        assert_eq!(agent.executed(), 1);
    }

    #[test]
    fn traced_execution_parents_spans_under_inbound_hop() {
        use continuum_telemetry::TraceBuffer;
        let ops = OpRegistry::new();
        ops.register("double", |ins| {
            Bytes::from(ins[0].iter().map(|b| b * 2).collect::<Vec<u8>>())
        });
        let st = store();
        st.put("in".into(), StoredValue::blob(vec![1, 2, 3]), None)
            .unwrap();
        let (buffer, handle) = TraceBuffer::collector();
        let agent = Agent::spawn(
            AgentId(4),
            "fog-4".into(),
            DeviceClass::Fog,
            ops,
            Arc::clone(&st),
            std::sync::Weak::new(),
            handle,
        );
        let hop = SpanContext::root(77, 0).child(0, 1);
        let reply = exec_traced(&agent, "double", vec!["in".into()], "out".into(), Some(hop));
        assert_eq!(reply, ExecReply::Done);
        let spans: Vec<(TaskPhase, SpanContext)> = buffer
            .events()
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Span { phase, ctx, .. } => ctx.as_deref().map(|c| (*phase, *c)),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 2, "transfer + execute spans");
        assert_eq!(spans[0].0, TaskPhase::Transferring);
        assert_eq!(spans[1].0, TaskPhase::Executing);
        for (_, ctx) in &spans {
            assert_eq!(ctx.trace_id, hop.trace_id);
            assert_eq!(ctx.parent_span_id, Some(hop.span_id));
            assert_eq!(ctx.agent_id, 4);
        }
        assert_eq!(
            spans[0].1, spans[1].1,
            "both phases belong to one logical execution"
        );
    }

    #[test]
    fn dead_agent_loses_tasks() {
        let ops = OpRegistry::new();
        ops.register("nop", |_| Bytes::new());
        let st = store();
        let agent = Agent::spawn(
            AgentId(0),
            "fog-0".into(),
            DeviceClass::Fog,
            ops,
            Arc::clone(&st),
            std::sync::Weak::new(),
            RecorderHandle::noop(),
        );
        agent.kill();
        assert_eq!(agent.status(), AgentStatus::Dead);
        let reply = exec(&agent, "nop", vec![], "out".into());
        assert_eq!(reply, ExecReply::Lost);
        assert!(!st.contains(&"out".into()), "lost task must not commit");
        agent.revive();
        let reply = exec(&agent, "nop", vec![], "out".into());
        assert_eq!(reply, ExecReply::Done);
    }

    #[test]
    fn unknown_op_missing_input_and_panicking_op_fail() {
        let ops = OpRegistry::new();
        ops.register("use", |ins| ins[0].clone());
        ops.register("boom", |_| panic!("kaboom"));
        let st = store();
        let agent = Agent::spawn(
            AgentId(0),
            "a".into(),
            DeviceClass::CloudVm,
            ops,
            st,
            std::sync::Weak::new(),
            RecorderHandle::noop(),
        );
        assert!(matches!(
            exec(&agent, "ghost", vec![], "o".into()),
            ExecReply::Failed(_)
        ));
        assert!(matches!(
            exec(&agent, "use", vec!["missing".into()], "o".into()),
            ExecReply::Failed(_)
        ));
        // A panicking op fails its own request; the agent keeps serving.
        assert_eq!(
            exec(&agent, "boom", vec![], "o".into()),
            ExecReply::Failed("op `boom` panicked: kaboom".into())
        );
        assert!(matches!(
            exec(&agent, "ghost", vec![], "o".into()),
            ExecReply::Failed(_)
        ));
    }

    #[test]
    fn probe_returns_info() {
        let ops = OpRegistry::new();
        let agent = Agent::spawn(
            AgentId(3),
            "edge-3".into(),
            DeviceClass::Edge,
            ops,
            store(),
            std::sync::Weak::new(),
            RecorderHandle::noop(),
        );
        let (tx, rx) = continuum_platform::oneshot::channel();
        agent.sender().send(Msg::Probe { reply: tx }).unwrap();
        let info = rx.wait().unwrap();
        assert_eq!(info.id, AgentId(3));
        assert_eq!(info.class, DeviceClass::Edge);
        assert_eq!(info.status, AgentStatus::Alive);
        assert_eq!(info.executed, 0);
        assert_eq!(agent.info(), info);
    }

    #[test]
    fn drop_shuts_agent_down() {
        let ops = OpRegistry::new();
        let agent = Agent::spawn(
            AgentId(0),
            "a".into(),
            DeviceClass::Fog,
            ops,
            store(),
            std::sync::Weak::new(),
            RecorderHandle::noop(),
        );
        drop(agent); // must join without hanging
    }
}
