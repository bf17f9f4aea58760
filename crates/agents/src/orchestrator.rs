//! The orchestrating agent: drives an application's task list over
//! the network, offloading per policy and recovering lost tasks.

use crate::agent::{AgentId, AgentInfo, ExecReply, Msg};
use crate::error::AgentError;
use crate::network::{AgentNetwork, NetworkInner};
use crate::offload::OffloadPolicy;
use continuum_dag::{
    AccessProcessor, DagError, DataId, GraphRun, Param, TaskGraph, TaskId, TaskSpec, TaskState,
};
use continuum_platform::oneshot::ReplyQueue;
use continuum_platform::DeviceClass;
use continuum_storage::{ObjectKey, StorageRuntime};
use continuum_telemetry::{
    CounterKey, Event as TelemetryEvent, Label, RecorderHandle, SpanContext, TaskPhase, Track,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
///
/// Each task sits behind an `Arc`, which is what a dispatch ships to
/// the executing agent: sending a task costs a reference-count bump,
/// whatever its input list holds.
#[derive(Debug, Clone, Default)]
pub struct Application {
    name: String,
    tasks: Vec<Arc<AppTask>>,
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
        self.tasks.push(Arc::new(task));
        self
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task list.
    pub fn tasks(&self) -> &[Arc<AppTask>] {
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

/// How often, and how long each time, a run tries one task.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budget {
    /// Attempts per task before the run gives up.
    pub(crate) max_attempts: usize,
    /// How long one attempt may wait for its reply, from the send;
    /// `None` waits as long as the agent takes.
    pub(crate) reply_deadline: Option<Duration>,
}

impl Budget {
    /// Ten attempts, no deadline: an [`Orchestrator`] left at its
    /// defaults, and every nested *Start Application* run.
    pub(crate) const DEFAULT: Budget = Budget {
        max_attempts: 10,
        reply_deadline: None,
    };
}

/// The agent that starts and supervises an application (the paper's
/// *Start Application* verb plus monitoring).
#[derive(Debug)]
pub struct Orchestrator<'n> {
    network: &'n AgentNetwork,
    budget: Budget,
    telemetry: RecorderHandle,
}

impl<'n> Orchestrator<'n> {
    /// Creates an orchestrator over a network; a task is retried on a
    /// different agent up to 10 times before giving up, and each
    /// attempt waits for its reply as long as the agent takes.
    pub fn new(network: &'n AgentNetwork) -> Self {
        Orchestrator {
            network,
            budget: Budget::DEFAULT,
            telemetry: RecorderHandle::noop(),
        }
    }

    /// Sets the per-task attempt budget.
    pub fn max_attempts(mut self, attempts: usize) -> Self {
        self.budget.max_attempts = attempts.max(1);
        self
    }

    /// Bounds how long one attempt waits for its agent's reply,
    /// counted from the send, so it covers the time the task queues in
    /// the agent's inbox. An attempt past its deadline counts as a
    /// re-execution and the task is re-dispatched at once, as if its
    /// agent had been lost; a task whose every attempt times out ends
    /// the run in [`AgentError::DeadlineExceeded`]. The late agent is
    /// not stopped: its reply is discarded, but the output it stores
    /// still lands.
    pub fn reply_deadline(mut self, deadline: Duration) -> Self {
        self.budget.reply_deadline = Some(deadline);
        self
    }

    /// Plugs in a telemetry sink: per-task submit/reply spans on the
    /// executing agent's track, stamped with wall-clock microseconds
    /// since the run started.
    pub fn telemetry(mut self, telemetry: RecorderHandle) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Runs an application to completion as dataflow: a task goes out
    /// once the tasks writing its inputs are done, and a lost, failed
    /// or late attempt goes out again at once. The store holds one
    /// value per key, so only the first task in the list that takes a
    /// key may write it; a task reading a key that no task before it
    /// writes reads the stored value, which must exist, and which no
    /// later task may then write; and a task whose output is also an
    /// input updates it in place, as its one write.
    ///
    /// # Errors
    ///
    /// * [`AgentError::InvalidApplication`], before anything is
    ///   dispatched, if a task reads a key that no task listed before
    ///   it writes and the store does not hold, or writes a key that a
    ///   task listed before it reads or writes;
    /// * [`AgentError::NoAgentAvailable`] if no live agent can take a
    ///   ready task;
    /// * [`AgentError::RetriesExhausted`] if a task keeps getting
    ///   lost or keeps failing (unreadable input, panicking operation);
    /// * [`AgentError::DeadlineExceeded`] if every attempt of a task
    ///   outlives the [`reply_deadline`](Self::reply_deadline);
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
            self.budget,
            &self.telemetry,
            Instant::now(),
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
/// agents handling the *Start Application* verb: drives one
/// [`GraphRun`] over the application's task graph. Every reply comes
/// back on one [`ReplyQueue`] under its task and attempt, so the late
/// reply of an attempt sent again since is told apart and dropped.
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
    budget: Budget,
    telemetry: &RecorderHandle,
    origin: Instant,
    self_agent: u32,
    parent_ctx: Option<SpanContext>,
) -> Result<AppReport, AgentError> {
    let graph = task_graph(network.store.as_ref(), app)?;
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
    let mut run = GraphRun::new(&graph);
    let mut tries = vec![Tries::default(); app.tasks().len()];
    let replies = ReplyQueue::with_capacity(app.tasks().len());
    // Each attempt's deadline with its reply tag (the task's index, then
    // the attempt's number), in send order, which is deadline order.
    let mut deadlines: VecDeque<(Instant, u64)> = VecDeque::new();
    let (mut in_flight, mut reexecutions) = (0usize, 0usize);
    let mut per_agent: HashMap<AgentId, usize> = HashMap::new();
    // The fleet as the policy sees it, refreshed in place before each
    // choice: one vector per run, not one per dispatch.
    let mut infos: Vec<AgentInfo> = Vec::new();
    loop {
        while let Some(id) = run.ready_tasks().first() {
            run.mark_running(id).map_err(broken)?;
            let task = &app.tasks()[id.index()];
            network.infos_into(&mut infos);
            let Some(agent) = policy.choose(task, &infos) else {
                return Err(AgentError::NoAgentAvailable {
                    op: task.op.clone(),
                });
            };
            let tried = &mut tries[id.index()];
            tried.made += 1;
            if tried.made as usize > budget.max_attempts {
                let (op, attempts) = (task.op.clone(), budget.max_attempts);
                return Err(if tried.timed_out as usize == attempts {
                    AgentError::DeadlineExceeded { op, attempts }
                } else {
                    AgentError::RetriesExhausted { op, attempts }
                });
            }
            let tag = (id.index() as u64) << 32 | u64::from(tried.made);
            // One span context per offload hop, shipped with the
            // message so the executing agent parents its work under
            // this dispatch. `sent_us` is taken *before* the send: the
            // hop interval must bracket everything the remote side
            // records against the hop's clock handshake.
            tried.hop_ctx = run_ctx.map(|c| c.child(self_agent, tag));
            (tried.agent, tried.sent_us) = (agent.0, now_us());
            network.send(
                agent,
                Msg::Execute {
                    task: Arc::clone(task),
                    ctx: tried.hop_ctx,
                    reply: replies.sender(tag),
                },
            )?;
            // A deadline too far to add to the clock is none.
            let due = |d| Instant::now().checked_add(d).map(|due| (due, tag));
            deadlines.extend(budget.reply_deadline.and_then(due));
            in_flight += 1;
            if telemetry.enabled() {
                telemetry.record(TelemetryEvent::Instant {
                    track: Track::Agent(agent.index() as u32),
                    name: Label::shared(&task.op),
                    phase: TaskPhase::Submitted,
                    at_us: tried.sent_us,
                });
            }
        }
        telemetry.counter(CounterKey::RunningTasks, now_us(), in_flight as f64);
        if run.all_completed() {
            break;
        }
        // A reply, or `Err` for the attempt whose deadline, the
        // soonest, passed first: only a deadline ends the wait empty.
        let soonest = deadlines.front().map(|&(due, _)| due);
        let Some((tag, reply)) = (replies.wait_until(soonest))
            .map(|(tag, reply)| (tag, Ok(reply)))
            .or_else(|| deadlines.pop_front().map(|(_, tag)| (tag, Err(()))))
        else {
            continue;
        };
        // The late reply of an attempt sent again since, or the
        // deadline of one that answered in time: nothing to do.
        let id = TaskId::from_raw(tag >> 32);
        let tried = &mut tries[id.index()];
        if run.state(id) != Some(TaskState::Running) || tried.made != tag as u32 {
            continue;
        }
        in_flight -= 1;
        let op = &app.tasks()[id.index()].op;
        let outcome = match reply {
            Ok(Some(ExecReply::Done)) => {
                *per_agent.entry(AgentId(tried.agent)).or_insert(0) += 1;
                run.complete(&graph, id).map_err(broken)?;
                TaskPhase::Committed
            }
            Ok(Some(ExecReply::Failed(msg))) if msg.starts_with("unknown op") => {
                return Err(AgentError::UnknownOp(op.clone()));
            }
            // Lost with its device, the agent thread gone, an input
            // unreadable (e.g. store replica down), the op panicked, or
            // past its deadline: sent again at once, against the same
            // budget. A late agent is not stopped: its reply is dropped
            // when it lands, but the output it stores still lands.
            reply => {
                reexecutions += 1;
                tried.timed_out += u32::from(reply.is_err());
                run.mark_failed(id).map_err(broken)?;
                run.requeue_failed(id).map_err(broken)?;
                match reply {
                    Ok(Some(ExecReply::Failed(_))) => TaskPhase::Failed,
                    _ => TaskPhase::Replayed,
                }
            }
        };
        if telemetry.enabled() {
            let track = Track::Agent(tried.agent);
            let end_us = now_us();
            // The offload hop as seen from the submitter: the whole
            // submit→reply interval. The executing agent's own
            // Transferring/Executing spans (children of the hop's
            // context) refine it; the clock-alignment pass in
            // `merge_traces` uses the pair as its handshake.
            telemetry.record(TelemetryEvent::Span {
                track,
                name: format!("offload:{op}").into(),
                phase: TaskPhase::Offloading,
                start_us: tried.sent_us,
                dur_us: end_us.saturating_sub(tried.sent_us),
                ctx: tried.hop_ctx.map(Box::new),
            });
            telemetry.record(TelemetryEvent::Instant {
                track,
                name: op.clone().into(),
                phase: outcome,
                at_us: end_us,
            });
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
        completed: run.completed_count(),
        reexecutions,
        executions_per_agent: per_agent,
    })
}

/// The attempts made at one task: how many, how many of them outlived
/// their reply deadline, and the agent, send time and hop context of
/// the latest.
#[derive(Debug, Clone, Copy, Default)]
struct Tries {
    made: u32,
    timed_out: u32,
    agent: u32,
    sent_us: u64,
    hop_ctx: Option<SpanContext>,
}

/// The application's task graph, tasks in list order (id = index): an
/// `In` per input key's datum and an `Out` for the output, or an `InOut`
/// if it is also an input; refuses what [`Orchestrator::run`] says. The
/// map and buffer are sized once and data go nameless, so no allocation
/// grows with a task's fan-in.
fn task_graph(store: &dyn StorageRuntime, app: &Application) -> Result<TaskGraph, AgentError> {
    let (keys, widest) = app.tasks().iter().fold((0, 0), |(keys, widest), t| {
        (keys + t.inputs.len() + 1, widest.max(t.inputs.len() + 1))
    });
    // Each key's datum, and whether the first task to take it wrote it.
    let mut data: HashMap<&ObjectKey, (DataId, bool)> = HashMap::with_capacity(keys);
    let mut params: Vec<Param> = Vec::with_capacity(widest);
    let mut ap = AccessProcessor::new();
    for task in app.tasks() {
        let (op, output) = (&task.op, &task.output);
        let out = (!task.inputs.contains(output)).then_some((false, output));
        for (reads, key) in task.inputs.iter().map(|key| (true, key)).chain(out) {
            let (writes, written) = (key == output, data.get(key).map(|&(_, w)| w));
            let readable = || written == Some(true) || store.contains(key);
            if writes && written.is_some() || reads && !readable() {
                return Err(AgentError::InvalidApplication(format!(
                    "task `{op}` cannot take `{key}`: only the first task to take a key \
                     may write it, and one that reads it first needs it stored"
                )));
            }
            let datum = data
                .entry(key)
                .or_insert_with(|| (ap.new_data(""), writes))
                .0;
            params.push(match (reads, writes) {
                (true, false) => Param::input(datum),
                (true, true) => Param::inout(datum),
                (false, _) => Param::output(datum),
            });
        }
        ap.register(TaskSpec::new("app-task").params_from(params.drain(..)))
            .map_err(broken)?;
    }
    Ok(ap.into_parts().1)
}

/// A graph or run transition the orchestrator's bookkeeping rules out, or a
/// task list the access processor refuses.
fn broken(e: DagError) -> AgentError {
    AgentError::InvalidApplication(format!("task graph: {e}"))
}

#[cfg(test)]
mod tests;
