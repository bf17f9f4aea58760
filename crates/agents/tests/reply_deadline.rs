//! Reply deadlines: a slow or wedged agent costs its caller a bounded
//! wait, never a hang. The orchestrator retries a timed-out task
//! elsewhere and ends a run whose every attempt timed out in a typed
//! error; an async caller bounds its `execute_async` with
//! `TaskContext::timeout`; a probe of a busy agent gives up at its
//! deadline. Each scenario runs on a thread of its own
//! and the test thread holds a watchdog on it, so a regression fails
//! the test instead of stalling the suite.

use bytes::Bytes;
use continuum_agents::{
    AgentError, AgentNetwork, AppReport, AppTask, Application, OpRegistry, Orchestrator,
    RoundRobinOffload,
};
use continuum_dag::TaskSpec;
use continuum_platform::{Constraints, DeviceClass, NodeId};
use continuum_runtime::{LocalConfig, LocalRuntime, RuntimeError};
use continuum_storage::{KvConfig, KvStore, ObjectKey};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a scenario may take before the watchdog fails the test.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Runs `scenario` on its own thread and returns its result, failing
/// the test if it does not finish within [`WATCHDOG`].
fn watched<T: Send + 'static>(scenario: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = done_tx.send(scenario());
    });
    let out = done_rx
        .recv_timeout(WATCHDOG)
        .expect("the scenario hung past its watchdog");
    runner.join().expect("scenario thread");
    out
}

/// Two fog agents over a one-replica store, sharing `ops`.
fn network(ops: OpRegistry) -> AgentNetwork {
    let store = Arc::new(
        KvStore::new(
            (0..2).map(NodeId::from_raw).collect(),
            KvConfig { replication: 1 },
        )
        .unwrap(),
    );
    let net = AgentNetwork::new(store, ops);
    net.deploy("fog-0", DeviceClass::Fog);
    net.deploy("fog-1", DeviceClass::Fog);
    net
}

/// Registers `op` as an operation that blocks each call it is told to
/// on a gate: the calls that `wedged` selects wait for one `()` on the
/// returned sender each, in turn, before they answer.
fn gated(
    ops: &OpRegistry,
    op: &str,
    wedged: impl Fn() -> bool + Send + Sync + 'static,
) -> mpsc::Sender<()> {
    let (release, gate) = mpsc::channel::<()>();
    let gate = parking_lot::Mutex::new(gate);
    ops.register(op, move |_| {
        if wedged() {
            let _ = gate.lock().recv();
        }
        Bytes::from_static(b"reading")
    });
    release
}

#[test]
fn a_reply_past_its_deadline_is_retried_on_another_agent() {
    let (report, late_executions) = watched(|| {
        let ops = OpRegistry::new();
        let first = AtomicBool::new(true);
        let release = gated(&ops, "sense", move || first.swap(false, Ordering::SeqCst));
        let net = network(ops);
        let app = Application::new("slow-once").task(AppTask::new("sense", vec![], "out"));
        let report = Orchestrator::new(&net)
            .reply_deadline(Duration::from_millis(200))
            .run(&app, &mut RoundRobinOffload::new())
            .expect("the retry completes the run");
        // Unwedge the first call. The probe queues behind it: by the
        // time it answers, the late execution has committed its value,
        // which nothing stopped.
        release.send(()).unwrap();
        let late = net
            .probe(net.infos()[0].id, WATCHDOG)
            .expect("agent 0 answers");
        (report, late.executed)
    });
    assert_eq!(report.completed, 1);
    assert_eq!(
        report.reexecutions, 1,
        "the timed-out attempt is a re-execution"
    );
    assert_eq!(
        report.executions_per_agent.values().sum::<usize>(),
        1,
        "{report:?}"
    );
    assert!(
        !report.executions_per_agent.keys().any(|a| a.index() == 0),
        "the retry ran on the other agent: {report:?}"
    );
    assert_eq!(late_executions, 1, "the late agent's put still lands");
}

#[test]
fn a_task_whose_every_attempt_times_out_ends_the_run_in_deadline_exceeded() {
    let result = watched(|| {
        let ops = OpRegistry::new();
        let release = gated(&ops, "sense", || true);
        let net = network(ops);
        let app = Application::new("always-slow").task(AppTask::new("sense", vec![], "out"));
        let result: Result<AppReport, AgentError> = Orchestrator::new(&net)
            .max_attempts(2)
            .reply_deadline(Duration::from_millis(50))
            .run(&app, &mut RoundRobinOffload::new());
        // One wedged call per agent; free both so the network can shut
        // down.
        for _ in 0..2 {
            release.send(()).unwrap();
        }
        result
    });
    assert!(
        matches!(&result, Err(AgentError::DeadlineExceeded { op, attempts: 2 }) if op == "sense"),
        "{result:?}"
    );
}

#[test]
fn an_async_call_to_a_wedged_agent_ends_in_deadline_exceeded() {
    let (outcome, elapsed) = watched(|| {
        let ops = OpRegistry::new();
        let release = gated(&ops, "wedge", || true);
        let net = network(ops);
        let fog = net.infos()[0].id;
        let pending = net
            .execute_async(fog, &AppTask::new("wedge", vec![], ObjectKey::new("out")))
            .expect("agent inbox open");
        let rt = LocalRuntime::new(LocalConfig::with_workers(1));
        let out = rt.data::<(bool, Duration)>("outcome");
        rt.submit_async(
            TaskSpec::new("offload").output(out.id()),
            Constraints::new(),
            move |mut ctx| async move {
                let start = Instant::now();
                let reply = ctx.timeout(Duration::from_millis(100), pending).await;
                let timed_out = matches!(reply, Err(RuntimeError::DeadlineExceeded { .. }));
                ctx.set_output(0, (timed_out, start.elapsed()));
                ctx
            },
        )
        .unwrap();
        let outcome = *rt.get(&out).expect("the body finishes");
        rt.wait_all().unwrap();
        // Unwedge the agent so the network can shut down.
        release.send(()).unwrap();
        outcome
    });
    assert!(outcome, "the wait ended in DeadlineExceeded");
    assert!(
        elapsed < Duration::from_secs(1),
        "the deadline fired late: {elapsed:?}"
    );
}

#[test]
fn a_probe_of_a_wedged_agent_ends_in_deadline_exceeded() {
    let (timed_out, elapsed, after) = watched(|| {
        let ops = OpRegistry::new();
        let release = gated(&ops, "wedge", || true);
        let net = network(ops);
        let fog = net.infos()[0].id;
        // The agent takes the execution and sits in it: the probe
        // queues behind it in the inbox.
        let _pending = net
            .execute_async(fog, &AppTask::new("wedge", vec![], ObjectKey::new("out")))
            .expect("agent inbox open");
        let start = Instant::now();
        let timed_out = net.probe(fog, Duration::from_millis(100));
        let elapsed = start.elapsed();
        // Open the gate: the execution answers, and so does a probe.
        release.send(()).unwrap();
        let after = net.probe(fog, WATCHDOG);
        (timed_out, elapsed, after)
    });
    assert!(
        matches!(&timed_out, Err(AgentError::DeadlineExceeded { op, attempts: 1 }) if op == "probe"),
        "{timed_out:?}"
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "the deadline fired late: {elapsed:?}"
    );
    let info = after.expect("the agent answers once the gate opens");
    assert_eq!(info.executed, 1, "the wedged execution finished first");
}
