//! The orchestrating agent: drives an application's task list over
//! the network, offloading per policy and recovering lost tasks.

use crate::agent::{AgentId, ExecReply, Msg};
use crate::error::AgentError;
use crate::network::{AgentNetwork, NetworkInner};
use crate::offload::OffloadPolicy;
use continuum_platform::oneshot::{self, OneshotReceiver};
use continuum_platform::DeviceClass;
use continuum_storage::ObjectKey;
use continuum_telemetry::{
    CounterKey, Event as TelemetryEvent, Label, RecorderHandle, SpanContext, TaskPhase, Track,
};
use std::collections::{HashMap, HashSet};

/// One task of an agent application: an operation applied to stored
/// inputs, producing one stored output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppTask {
    /// Registered operation name.
    pub op: String,
    /// Input object keys (must exist in the store, or be produced by
    /// an earlier task).
    pub inputs: Vec<ObjectKey>,
    /// Output object key.
    pub output: ObjectKey,
    /// Class name for the stored output (active objects).
    pub output_class: Option<String>,
    /// Pin execution to a device class (e.g. sensor reads).
    pub preferred_class: Option<DeviceClass>,
    /// Rough input volume, consumed by latency-aware policies.
    pub input_bytes_hint: u64,
}

impl AppTask {
    /// Creates a task.
    pub fn new(
        op: impl Into<String>,
        inputs: Vec<ObjectKey>,
        output: impl Into<ObjectKey>,
    ) -> Self {
        AppTask {
            op: op.into(),
            inputs,
            output: output.into(),
            output_class: None,
            preferred_class: None,
            input_bytes_hint: 0,
        }
    }

    /// Tags the output with an active-object class.
    pub fn output_class(mut self, class: impl Into<String>) -> Self {
        self.output_class = Some(class.into());
        self
    }

    /// Pins the task to a device class.
    pub fn prefer_class(mut self, class: DeviceClass) -> Self {
        self.preferred_class = Some(class);
        self
    }

    /// Declares the rough input volume for offload policies.
    pub fn input_bytes_hint(mut self, bytes: u64) -> Self {
        self.input_bytes_hint = bytes;
        self
    }
}

/// A named list of tasks; dependencies are implied by output→input
/// key chains.
#[derive(Debug, Clone, Default)]
pub struct Application {
    name: String,
    tasks: Vec<AppTask>,
}

impl Application {
    /// Creates an empty application.
    pub fn new(name: impl Into<String>) -> Self {
        Application {
            name: name.into(),
            tasks: Vec::new(),
        }
    }

    /// Appends a task.
    pub fn task(mut self, task: AppTask) -> Self {
        self.tasks.push(task);
        self
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task list.
    pub fn tasks(&self) -> &[AppTask] {
        &self.tasks
    }
}

/// Outcome of one application run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppReport {
    /// Tasks completed.
    pub completed: usize,
    /// Executions lost to dead agents and re-submitted elsewhere.
    pub reexecutions: usize,
    /// Successful executions per agent.
    pub executions_per_agent: HashMap<AgentId, usize>,
}

/// The agent that starts and supervises an application (the paper's
/// *Start Application* verb plus monitoring).
#[derive(Debug)]
pub struct Orchestrator<'n> {
    network: &'n AgentNetwork,
    max_attempts: usize,
    telemetry: RecorderHandle,
}

impl<'n> Orchestrator<'n> {
    /// Creates an orchestrator over a network; a task is retried on a
    /// different agent up to 10 times before giving up.
    pub fn new(network: &'n AgentNetwork) -> Self {
        Orchestrator {
            network,
            max_attempts: 10,
            telemetry: RecorderHandle::noop(),
        }
    }

    /// Sets the per-task attempt budget.
    pub fn max_attempts(mut self, attempts: usize) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Plugs in a telemetry sink: per-task submit/reply spans on the
    /// executing agent's track, stamped with wall-clock microseconds
    /// since the run started.
    pub fn telemetry(mut self, telemetry: RecorderHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Runs an application to completion: submits tasks whose inputs
    /// exist, in waves, re-submitting tasks lost to agent churn.
    ///
    /// # Errors
    ///
    /// * [`AgentError::InvalidApplication`] if a task reads a key that
    ///   neither pre-exists nor is produced by any task;
    /// * [`AgentError::NoAgentAvailable`] if no live agent can take a
    ///   ready task;
    /// * [`AgentError::RetriesExhausted`] if a task keeps getting
    ///   lost or keeps failing (unreadable input, panicking operation);
    /// * [`AgentError::UnknownOp`] if an agent reports an unknown
    ///   operation.
    pub fn run(
        &self,
        app: &Application,
        policy: &mut dyn OffloadPolicy,
    ) -> Result<AppReport, AgentError> {
        run_application(
            self.network.inner(),
            app,
            policy,
            self.max_attempts,
            &self.telemetry,
            std::time::Instant::now(),
            SpanContext::COORDINATOR,
            None,
        )
    }
}

/// Derives a stable trace id for a fresh distributed trace from the
/// application's shape (name + task count). Stable ids keep repeated
/// runs of the same app comparable; uniqueness across a merge set only
/// matters per-merge, where traces come from one run.
fn derive_trace_id(app: &Application) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a
    for b in app.name().bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h ^ app.tasks().len() as u64
}

/// Orchestration core, shared by the external [`Orchestrator`] and by
/// agents handling the *Start Application* verb: runs an application to
/// completion over the network's agents, re-submitting tasks lost to
/// churn.
///
/// `origin` is the clock every telemetry timestamp is relative to (the
/// orchestrating agent's own origin for nested runs, so all of one
/// agent's spans share a timebase). `self_agent` identifies the
/// recording side in span contexts ([`SpanContext::COORDINATOR`] for an
/// external driver). `parent_ctx` nests the orchestration under an
/// inbound hop; when `None` and telemetry is on, the run opens a fresh
/// distributed trace and emits its root span.
///
/// # Errors
///
/// Same failure modes as [`Orchestrator::run`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_application(
    network: &NetworkInner,
    app: &Application,
    policy: &mut dyn OffloadPolicy,
    max_attempts: usize,
    telemetry: &RecorderHandle,
    origin: std::time::Instant,
    self_agent: u32,
    parent_ctx: Option<SpanContext>,
) -> Result<AppReport, AgentError> {
    validate(network, app)?;
    let now_us = || origin.elapsed().as_micros() as u64;
    let run_start_us = now_us();
    // The orchestration's own span context: a child of the inbound hop
    // for nested runs, or the root of a fresh distributed trace.
    let run_ctx = if telemetry.enabled() {
        Some(match parent_ctx {
            Some(parent) => parent.child(self_agent, 0),
            None => SpanContext::root(derive_trace_id(app), self_agent),
        })
    } else {
        None
    };
    let mut hop_seq: u64 = 0;
    let total = app.tasks().len();
    let mut done: HashSet<usize> = HashSet::new();
    let mut attempts: Vec<usize> = vec![0; total];
    let mut reexecutions = 0usize;
    let mut per_agent: HashMap<AgentId, usize> = HashMap::new();

    while done.len() < total {
        // A wave: submit every task whose inputs are in the store.
        type InFlight = (
            usize,
            AgentId,
            u64,
            Option<SpanContext>,
            OneshotReceiver<ExecReply>,
        );
        let mut in_flight: Vec<InFlight> = Vec::new();
        for (idx, task) in app.tasks().iter().enumerate() {
            if done.contains(&idx) {
                continue;
            }
            let ready = task.inputs.iter().all(|k| network.store.contains(k));
            if !ready {
                continue;
            }
            let infos = network.infos();
            let Some(agent) = policy.choose(task, &infos) else {
                return Err(AgentError::NoAgentAvailable {
                    op: task.op.clone(),
                });
            };
            attempts[idx] += 1;
            if attempts[idx] > max_attempts {
                return Err(AgentError::RetriesExhausted {
                    op: task.op.clone(),
                    attempts: attempts[idx] - 1,
                });
            }
            let (reply, rx) = oneshot::channel();
            // One span context per offload hop, shipped with the
            // message so the executing agent parents its work under
            // this dispatch. `sent_us` is taken *before* the send: the
            // hop interval must bracket everything the remote side
            // records against the hop's clock handshake.
            let hop_ctx = run_ctx.map(|c| {
                hop_seq += 1;
                c.child(self_agent, hop_seq)
            });
            let sent_us = now_us();
            network
                .sender_of(agent)?
                .send(Msg::Execute {
                    op: task.op.clone(),
                    inputs: task.inputs.clone(),
                    output: task.output.clone(),
                    output_class: task.output_class.clone(),
                    ctx: hop_ctx,
                    reply,
                })
                .map_err(|_| AgentError::UnknownAgent(agent.to_string()))?;
            if telemetry.enabled() {
                telemetry.record(TelemetryEvent::Instant {
                    track: Track::Agent(agent.index() as u32),
                    name: Label::shared(&task.op),
                    phase: TaskPhase::Submitted,
                    at_us: sent_us,
                });
            }
            in_flight.push((idx, agent, sent_us, hop_ctx, rx));
        }
        if telemetry.enabled() {
            telemetry.record(TelemetryEvent::Counter {
                key: CounterKey::RunningTasks,
                at_us: now_us(),
                value: in_flight.len() as f64,
            });
        }
        if in_flight.is_empty() {
            return Err(AgentError::InvalidApplication(format!(
                "no progress: {} of {total} tasks stuck waiting for inputs",
                total - done.len()
            )));
        }
        for (idx, agent, sent_us, hop_ctx, rx) in in_flight {
            let reply = rx.wait();
            let outcome = match &reply {
                Some(ExecReply::Done) => TaskPhase::Committed,
                Some(ExecReply::Lost) | None => TaskPhase::Replayed,
                Some(ExecReply::Failed(_)) => TaskPhase::Failed,
            };
            if telemetry.enabled() {
                let op = app.tasks()[idx].op.clone();
                let track = Track::Agent(agent.index() as u32);
                let end_us = now_us();
                // The offload hop as seen from the submitter: the
                // whole submit→reply interval. The executing agent's
                // own Transferring/Executing spans (children of
                // `hop_ctx`) refine it; the clock-alignment pass in
                // `merge_traces` uses the pair as its handshake.
                telemetry.record(TelemetryEvent::Span {
                    track,
                    name: format!("offload:{op}").into(),
                    phase: TaskPhase::Offloading,
                    start_us: sent_us,
                    dur_us: end_us.saturating_sub(sent_us),
                    ctx: hop_ctx.map(Box::new),
                });
                telemetry.record(TelemetryEvent::Instant {
                    track,
                    name: op.into(),
                    phase: outcome,
                    at_us: end_us,
                });
            }
            match reply {
                Some(ExecReply::Done) => {
                    done.insert(idx);
                    *per_agent.entry(agent).or_insert(0) += 1;
                }
                // Lost with its device, or the agent thread itself is
                // gone: re-submitted next wave.
                Some(ExecReply::Lost) | None => reexecutions += 1,
                Some(ExecReply::Failed(msg)) => {
                    if msg.starts_with("unknown op") {
                        return Err(AgentError::UnknownOp(app.tasks()[idx].op.clone()));
                    }
                    // Input unavailable (e.g. store replica down) or
                    // the op panicked: retry next wave counts against
                    // the budget.
                    reexecutions += 1;
                }
            }
        }
    }
    if telemetry.enabled() {
        // The orchestration span itself — root of the distributed
        // trace (or child of the inbound hop for nested runs). Every
        // offload hop above is its child.
        let end_us = now_us();
        telemetry.record(TelemetryEvent::Span {
            track: Track::Run,
            name: app.name().to_string().into(),
            phase: TaskPhase::Executing,
            start_us: run_start_us,
            dur_us: end_us.saturating_sub(run_start_us),
            ctx: run_ctx.map(Box::new),
        });
    }
    Ok(AppReport {
        completed: done.len(),
        reexecutions,
        executions_per_agent: per_agent,
    })
}

/// Checks every input key is either pre-stored or produced.
fn validate(network: &NetworkInner, app: &Application) -> Result<(), AgentError> {
    let produced: HashSet<&ObjectKey> = app.tasks().iter().map(|t| &t.output).collect();
    for task in app.tasks() {
        for input in &task.inputs {
            if !produced.contains(input) && !network.store.contains(input) {
                return Err(AgentError::InvalidApplication(format!(
                    "task `{}` reads `{input}`, which nothing produces",
                    task.op
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::{PreferClass, RoundRobinOffload};
    use crate::ops::OpRegistry;
    use bytes::Bytes;
    use continuum_platform::NodeId;
    use continuum_storage::{KvConfig, KvStore, StoredValue};
    use std::sync::Arc;

    fn pipeline_ops() -> OpRegistry {
        let ops = OpRegistry::new();
        ops.register("sense", |_| Bytes::from(vec![1u8; 100]));
        ops.register("filter", |ins| {
            Bytes::from(
                ins[0]
                    .iter()
                    .filter(|b| **b > 0)
                    .copied()
                    .collect::<Vec<u8>>(),
            )
        });
        ops.register("aggregate", |ins| {
            let sum: u64 = ins.iter().flat_map(|b| b.iter()).map(|b| *b as u64).sum();
            Bytes::copy_from_slice(&sum.to_le_bytes())
        });
        ops
    }

    fn network(fogs: usize, clouds: usize) -> AgentNetwork {
        let store = Arc::new(
            KvStore::new(
                (0..4).map(NodeId::from_raw).collect(),
                KvConfig { replication: 2 },
            )
            .unwrap(),
        );
        let net = AgentNetwork::new(store, pipeline_ops());
        for i in 0..fogs {
            net.deploy(format!("fog-{i}"), DeviceClass::Fog);
        }
        for i in 0..clouds {
            net.deploy(format!("cloud-{i}"), DeviceClass::CloudVm);
        }
        net
    }

    fn fan(n: usize) -> Application {
        (0..n).fold(Application::new("fan"), |app, i| {
            app.task(AppTask::new("sense", vec![], format!("out{i}")))
        })
    }

    fn pipeline() -> Application {
        Application::new("sense-filter-aggregate")
            .task(AppTask::new("sense", vec![], "raw"))
            .task(AppTask::new("filter", vec!["raw".into()], "clean"))
            .task(AppTask::new("aggregate", vec!["clean".into()], "result"))
    }

    #[test]
    fn pipeline_completes_and_result_is_correct() {
        let net = network(2, 1);
        let report = Orchestrator::new(&net)
            .run(&pipeline(), &mut RoundRobinOffload::new())
            .unwrap();
        assert_eq!(report.completed, 3);
        assert_eq!(report.reexecutions, 0);
        let result = net.store().get(&"result".into()).unwrap();
        let sum = u64::from_le_bytes(result.payload[..8].try_into().unwrap());
        assert_eq!(sum, 100);
    }

    #[test]
    fn telemetry_captures_message_bus_events() {
        use continuum_telemetry::TraceBuffer;
        let net = network(2, 1);
        let (buffer, handle) = TraceBuffer::collector();
        Orchestrator::new(&net)
            .telemetry(handle)
            .run(&pipeline(), &mut RoundRobinOffload::new())
            .unwrap();
        let events = buffer.events();
        let submits = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TelemetryEvent::Instant {
                        phase: TaskPhase::Submitted,
                        ..
                    }
                )
            })
            .count();
        let commits = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TelemetryEvent::Instant {
                        phase: TaskPhase::Committed,
                        ..
                    }
                )
            })
            .count();
        let hops = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TelemetryEvent::Span {
                        phase: TaskPhase::Offloading,
                        ..
                    }
                )
            })
            .count();
        let roots = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TelemetryEvent::Span {
                        track: Track::Run,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(submits, 3, "one submit marker per task");
        assert_eq!(commits, 3, "every task commits");
        assert_eq!(hops, 3, "one offload-hop span per dispatch");
        assert_eq!(roots, 1, "one orchestration root span per run");
        // Every hop is a distinct child of the run's root context.
        let root_ctx = events
            .iter()
            .find_map(|e| match e {
                TelemetryEvent::Span {
                    track: Track::Run,
                    ctx,
                    ..
                } => ctx.as_deref().copied(),
                _ => None,
            })
            .expect("root span carries a context");
        let hop_ctxs: Vec<SpanContext> = events
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Span {
                    phase: TaskPhase::Offloading,
                    ctx,
                    ..
                } => ctx.as_deref().copied(),
                _ => None,
            })
            .collect();
        assert_eq!(hop_ctxs.len(), 3, "every hop span carries a context");
        for hop in &hop_ctxs {
            assert_eq!(hop.trace_id, root_ctx.trace_id);
            assert_eq!(hop.parent_span_id, Some(root_ctx.span_id));
        }
        let distinct: std::collections::HashSet<u64> = hop_ctxs.iter().map(|c| c.span_id).collect();
        assert_eq!(distinct.len(), 3, "hop span ids are distinct");
        assert!(
            events.iter().all(|e| !matches!(
                e,
                TelemetryEvent::Span {
                    track: Track::Node(_) | Track::Worker(_),
                    ..
                } | TelemetryEvent::Instant {
                    track: Track::Node(_) | Track::Worker(_),
                    ..
                }
            )),
            "agent runs only touch agent tracks"
        );
    }

    #[test]
    fn fog_first_policy_uses_fog_agents() {
        let net = network(2, 1);
        let report = Orchestrator::new(&net)
            .run(&pipeline(), &mut PreferClass::fog_first())
            .unwrap();
        let infos = net.infos();
        let fog_execs: usize = report
            .executions_per_agent
            .iter()
            .filter(|(id, _)| infos[id.index()].class == DeviceClass::Fog)
            .map(|(_, n)| *n)
            .sum();
        assert_eq!(fog_execs, 3, "everything fits in the fog layer");
    }

    #[test]
    fn churn_recovery_resubmits_elsewhere() {
        let net = network(2, 1);
        // Kill fog-0 before the run: every task it receives is lost
        // once, then the orchestrator routes around it.
        net.kill(AgentId(0)).unwrap();
        let report = Orchestrator::new(&net)
            .run(&pipeline(), &mut RoundRobinOffload::new())
            .unwrap();
        assert_eq!(report.completed, 3);
        assert!(
            !report.executions_per_agent.contains_key(&AgentId(0)),
            "dead agent executed nothing"
        );
        assert!(net.store().contains(&"result".into()));
    }

    #[test]
    fn agent_killed_mid_wave_yields_a_reexecution() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc::channel;
        let net = network(1, 1);
        // The first `sense` announces itself and holds its agent until
        // the test has killed that agent under it.
        let (started_tx, started_rx) = channel();
        let (resume_tx, resume_rx) = channel::<()>();
        let resume_rx = parking_lot::Mutex::new(resume_rx);
        let first = AtomicBool::new(true);
        net.ops().register("sense", move |_| {
            if first.swap(false, Ordering::SeqCst) {
                started_tx.send(()).unwrap();
                resume_rx.lock().recv().unwrap();
            }
            Bytes::from(vec![1u8; 100])
        });
        let net = &net;
        let report = std::thread::scope(|scope| {
            scope.spawn(move || {
                started_rx.recv().unwrap();
                net.kill(AgentId(0)).unwrap();
                resume_tx.send(()).unwrap();
            });
            Orchestrator::new(net)
                .run(&pipeline(), &mut PreferClass::fog_first())
                .unwrap()
        });
        assert_eq!(report.completed, 3);
        assert_eq!(
            report.reexecutions, 1,
            "the value computed on the dead device is lost"
        );
        assert!(!report.executions_per_agent.contains_key(&AgentId(0)));
    }

    #[test]
    fn panicking_op_exhausts_its_retries_and_the_fleet_survives() {
        use crate::agent::AgentStatus;
        let net = network(2, 1);
        net.ops().register("boom", |_| panic!("kaboom"));
        let app = Application::new("bad").task(AppTask::new("boom", vec![], "o"));
        let err = Orchestrator::new(&net)
            .max_attempts(4)
            .run(&app, &mut RoundRobinOffload::new())
            .unwrap_err();
        assert!(
            matches!(&err, AgentError::RetriesExhausted { op, attempts: 4 } if op == "boom"),
            "{err}"
        );
        // Every agent thread still answers its inbox and executes.
        for id in 0..3 {
            let info = net.probe(AgentId(id)).unwrap();
            assert_eq!(info.status, AgentStatus::Alive);
        }
        let app = fan(9);
        let report = Orchestrator::new(&net)
            .run(&app, &mut RoundRobinOffload::new())
            .unwrap();
        assert_eq!(report.completed, 9);
        assert_eq!(report.executions_per_agent.len(), 3, "all agents used");
    }

    #[test]
    fn all_dead_reports_no_agent() {
        let net = network(1, 0);
        net.kill(AgentId(0)).unwrap();
        let err = Orchestrator::new(&net)
            .run(&pipeline(), &mut RoundRobinOffload::new())
            .unwrap_err();
        assert!(matches!(err, AgentError::NoAgentAvailable { .. }), "{err}");
    }

    #[test]
    fn invalid_application_rejected() {
        let net = network(1, 0);
        let app = Application::new("bad").task(AppTask::new("filter", vec!["ghost".into()], "o"));
        let err = Orchestrator::new(&net)
            .run(&app, &mut RoundRobinOffload::new())
            .unwrap_err();
        assert!(matches!(err, AgentError::InvalidApplication(_)), "{err}");
    }

    #[test]
    fn unknown_op_surfaces() {
        let net = network(1, 0);
        let app = Application::new("bad").task(AppTask::new("ghost-op", vec![], "o"));
        let err = Orchestrator::new(&net)
            .run(&app, &mut RoundRobinOffload::new())
            .unwrap_err();
        assert!(matches!(err, AgentError::UnknownOp(_)), "{err}");
    }

    #[test]
    fn start_application_verb_runs_on_an_agent() {
        // A fog device orchestrates the whole application itself — the
        // paper's fog-to-fog deployment (Fig. 6) — while still acting
        // as a worker for its own tasks.
        let net = network(2, 1);
        let fog0 = AgentId(0);
        let report = net
            .start_application(fog0, pipeline(), Box::new(PreferClass::fog_first()))
            .unwrap();
        assert_eq!(report.completed, 3);
        assert!(net.store().contains(&"result".into()));
        // The orchestrating agent also executed work (no deadlock on
        // self-submission).
        assert!(report.executions_per_agent.contains_key(&fog0));
    }

    #[test]
    fn dead_agent_refuses_start_application() {
        let net = network(1, 1);
        net.kill(AgentId(0)).unwrap();
        let err = net
            .start_application(AgentId(0), pipeline(), Box::new(RoundRobinOffload::new()))
            .unwrap_err();
        assert!(matches!(err, AgentError::NoAgentAvailable { .. }), "{err}");
        assert!(net
            .start_application(AgentId(9), pipeline(), Box::new(RoundRobinOffload::new()))
            .is_err());
    }

    /// A policy that panics kills the agent's orchestration thread
    /// before it answers: the dropped reply cell must surface as an
    /// error, not leave the caller waiting forever.
    #[test]
    fn a_policy_panicking_on_the_agent_fails_start_application_instead_of_hanging() {
        struct Panics;
        impl OffloadPolicy for Panics {
            fn name(&self) -> &str {
                "panics"
            }
            fn choose(&mut self, _: &AppTask, _: &[crate::agent::AgentInfo]) -> Option<AgentId> {
                panic!("policy gave up")
            }
        }
        let net = Arc::new(network(1, 1));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let caller = {
            let net = Arc::clone(&net);
            std::thread::spawn(move || {
                let result = net.start_application(AgentId(0), pipeline(), Box::new(Panics));
                done_tx.send(result).unwrap();
            })
        };
        let result = done_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("start_application hung after its orchestration thread panicked");
        caller.join().unwrap();
        assert!(
            matches!(&result, Err(AgentError::UnknownAgent(id)) if id == "agent0"),
            "{result:?}"
        );
        // The agent itself keeps serving.
        assert!(net.probe(AgentId(0)).is_ok());
    }

    #[test]
    fn pre_stored_inputs_satisfy_validation() {
        let net = network(1, 0);
        net.store()
            .put("raw".into(), StoredValue::blob(vec![3u8; 10]), None)
            .unwrap();
        let app = Application::new("from-store").task(AppTask::new(
            "filter",
            vec!["raw".into()],
            "clean",
        ));
        let report = Orchestrator::new(&net)
            .run(&app, &mut RoundRobinOffload::new())
            .unwrap();
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn wide_fan_out_distributes_over_agents() {
        let net = network(3, 0);
        let app = fan(9);
        let report = Orchestrator::new(&net)
            .run(&app, &mut RoundRobinOffload::new())
            .unwrap();
        assert_eq!(report.completed, 9);
        assert_eq!(report.executions_per_agent.len(), 3, "all agents used");
    }
}
