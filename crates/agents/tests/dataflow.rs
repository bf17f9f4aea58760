//! Applications run as dataflow: a task goes out when the tasks that
//! write its inputs have completed, not when a wave's slowest reply is
//! in; replies are matched to the attempt they answer; and a task list
//! the one-value-per-key store cannot run is refused before anything is
//! dispatched. Scenarios that could hang run on a thread of their own
//! under a watchdog; every verdict is an order or a count, never a
//! clock reading.

use bytes::Bytes;
use continuum_agents::{
    AgentError, AgentId, AgentInfo, AgentNetwork, AppTask, Application, OffloadPolicy, OpRegistry,
    Orchestrator, RoundRobinOffload,
};
use continuum_platform::{DeviceClass, NodeId};
use continuum_storage::{KvConfig, KvStore, StoredValue};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

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

/// `agents` fog agents over a one-replica store, sharing `ops`.
fn network(ops: OpRegistry, agents: usize) -> AgentNetwork {
    let store = KvStore::new(
        (0..2).map(NodeId::from_raw).collect(),
        KvConfig { replication: 1 },
    )
    .expect("store config");
    let net = AgentNetwork::new(Arc::new(store), ops);
    for i in 0..agents {
        net.deploy(format!("fog-{i}"), DeviceClass::Fog);
    }
    net
}

/// The order operations ran in, by name.
type Log = Arc<Mutex<Vec<&'static str>>>;

/// Registers `op` to append its name to `log` and store a few bytes.
fn logged(ops: &OpRegistry, log: &Log, op: &'static str) {
    let log = Arc::clone(log);
    ops.register(op, move |_| {
        log.lock().push(op);
        Bytes::from_static(b"value")
    });
}

/// A gate one operation opens and another waits at.
fn gate() -> (mpsc::Sender<()>, Mutex<mpsc::Receiver<()>>) {
    let (open, wait) = mpsc::channel();
    (open, Mutex::new(wait))
}

#[test]
fn a_chain_beside_a_slow_task_does_not_wait_for_it() {
    // C's op holds its agent until B's op has run. In waves, B goes out
    // only once C's reply is in, which never comes.
    let log = watched(|| {
        let ops = OpRegistry::new();
        let log = Log::default();
        logged(&ops, &log, "a");
        let (open, wait) = gate();
        let b_log = Arc::clone(&log);
        ops.register("b", move |_| {
            b_log.lock().push("b");
            let _ = open.send(());
            Bytes::from_static(b"value")
        });
        let c_log = Arc::clone(&log);
        ops.register("c", move |_| {
            let _ = wait.lock().recv();
            c_log.lock().push("c");
            Bytes::from_static(b"value")
        });
        let net = network(ops, 2);
        let app = Application::new("chain-beside-slow")
            .task(AppTask::new("a", vec![], "a-out"))
            .task(AppTask::new("b", vec!["a-out".into()], "b-out"))
            .task(AppTask::new("c", vec![], "c-out"));
        let report = Orchestrator::new(&net)
            .run(&app, &mut RoundRobinOffload::new())
            .expect("the run completes");
        assert_eq!((report.completed, report.reexecutions), (3, 0));
        let order = log.lock().clone();
        order
    });
    assert_eq!(log, ["a", "b", "c"]);
}

/// Sends the first `head` to agent 0 and every other dispatch to
/// agent 1, so agent 1 runs its tasks in the order they were sent.
#[derive(Default)]
struct HeadApart {
    head_sent: bool,
}

impl OffloadPolicy for HeadApart {
    fn name(&self) -> &str {
        "head-apart"
    }

    fn choose(&mut self, task: &AppTask, agents: &[AgentInfo]) -> Option<AgentId> {
        let first_head = task.op == "head" && !std::mem::replace(&mut self.head_sent, true);
        Some(agents[usize::from(!first_head)].id)
    }
}

#[test]
fn a_late_reply_at_the_head_does_not_hold_back_a_fast_tasks_successor() {
    // The head's first attempt answers only after the successor of the
    // fast task has run. In waves, the orchestrator waits out the
    // head's deadline first, then sends the head's retry to agent 1
    // ahead of the successor; as dataflow, the successor goes out when
    // the fast task's reply lands, and the head answers in time.
    let log = watched(|| {
        let ops = OpRegistry::new();
        let log = Log::default();
        logged(&ops, &log, "fast");
        let (open, wait) = gate();
        let successor_log = Arc::clone(&log);
        ops.register("successor", move |_| {
            successor_log.lock().push("successor");
            let _ = open.send(());
            Bytes::from_static(b"value")
        });
        let head_log = Arc::clone(&log);
        let first = AtomicBool::new(true);
        ops.register("head", move |_| {
            if first.swap(false, Ordering::SeqCst) {
                let _ = wait.lock().recv();
            }
            head_log.lock().push("head");
            Bytes::from_static(b"value")
        });
        let net = network(ops, 2);
        let app = Application::new("late-head")
            .task(AppTask::new("head", vec![], "head-out"))
            .task(AppTask::new("fast", vec![], "fast-out"))
            .task(AppTask::new("successor", vec!["fast-out".into()], "next"));
        Orchestrator::new(&net)
            .reply_deadline(Duration::from_secs(5))
            .run(&app, &mut HeadApart::default())
            .expect("the run completes");
        let order = log.lock().clone();
        order
    });
    let at = |op| log.iter().position(|o| *o == op);
    assert!(at("successor") < at("head"), "{log:?}");
}

#[test]
fn a_late_reply_landing_while_its_retry_runs_is_discarded() {
    // The first attempt is wedged past its deadline and the retry goes
    // to agent 1. The retry's op holds until the first attempt has
    // answered, so the late reply lands while the retry is in flight.
    let (report, retry_agent) = watched(|| {
        let ops = OpRegistry::new();
        let (free_first, first_gate) = gate();
        let (free_retry, retry_gate) = gate();
        let (retry_started, retry_running) = mpsc::channel();
        let calls = std::sync::atomic::AtomicUsize::new(0);
        ops.register("sense", move |_| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                let _ = first_gate.lock().recv();
            } else {
                let _ = retry_started.send(());
                let _ = retry_gate.lock().recv();
            }
            Bytes::from_static(b"reading")
        });
        let net = network(ops, 2);
        let [late_agent, retry_agent] = [0, 1].map(|i| net.infos()[i].id);
        let app = Application::new("late-reply").task(AppTask::new("sense", vec![], "out"));
        let net = &net;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                retry_running.recv().expect("the retry starts");
                free_first.send(()).expect("first attempt waits");
                // The probe queues behind the late execution, whose
                // reply is sent before the agent takes the probe.
                net.probe(late_agent, WATCHDOG).expect("agent 0 answers");
                free_retry.send(()).expect("retry waits");
            });
            // Long enough for the retry to answer within it too, the
            // probe's round trip included.
            let report = Orchestrator::new(net)
                .reply_deadline(Duration::from_secs(1))
                .run(&app, &mut RoundRobinOffload::new())
                .expect("the retry completes the run");
            (report, retry_agent)
        })
    });
    assert_eq!((report.completed, report.reexecutions), (1, 1));
    assert_eq!(
        report.executions_per_agent.into_iter().collect::<Vec<_>>(),
        [(retry_agent, 1)],
        "the late attempt's Done is no completion"
    );
}

/// The number of executions every agent of `net` reports.
fn executed(net: &AgentNetwork) -> u64 {
    net.infos().iter().map(|a| a.executed).sum()
}

#[test]
fn a_key_written_twice_is_refused_before_any_dispatch() {
    let ops = OpRegistry::new();
    logged(&ops, &Log::default(), "sense");
    let net = network(ops, 1);
    let app = Application::new("twice")
        .task(AppTask::new("sense", vec![], "x"))
        .task(AppTask::new("sense", vec![], "x"));
    refused(&net, &app);
    assert!(!net.store().contains(&"x".into()));
}

/// Runs `app` on `net` and checks it is refused before any dispatch.
fn refused(net: &AgentNetwork, app: &Application) {
    let err = Orchestrator::new(net).run(app, &mut RoundRobinOffload::new());
    assert!(
        matches!(&err, Err(AgentError::InvalidApplication(_))),
        "{err:?}"
    );
    assert_eq!(executed(net), 0);
}

#[test]
fn a_reader_listed_before_its_producer_needs_a_stored_value() {
    let ops = OpRegistry::new();
    logged(&ops, &Log::default(), "sense");
    logged(&ops, &Log::default(), "filter");
    let net = network(ops, 1);
    let app = Application::new("early-reader")
        .task(AppTask::new("filter", vec!["x".into()], "y"))
        .task(AppTask::new("sense", vec![], "x"));
    refused(&net, &app);
    assert!(!net.store().contains(&"y".into()));
}

#[test]
fn a_key_read_from_the_store_is_not_written_by_a_later_task() {
    // The writer of `x` would depend on nothing the reader does, so on
    // two agents it could overwrite `x` while the reader still has to
    // read it; the store keeps no older value, so the list is refused.
    let ops = OpRegistry::new();
    ops.register("copy", |ins| ins[0].clone());
    logged(&ops, &Log::default(), "sense");
    ops.register("write", |_| Bytes::from_static(b"new"));
    let net = network(ops, 2);
    net.store()
        .put("x".into(), StoredValue::blob(b"old".to_vec()), None)
        .expect("stored");
    let app = Application::new("write-after-read")
        .task(AppTask::new("copy", vec!["x".into()], "y"))
        .task(AppTask::new("sense", vec![], "p"))
        .task(AppTask::new("write", vec!["p".into()], "x"));
    refused(&net, &app);
    let x = net.store().get(&"x".into()).expect("x stored");
    assert_eq!(&x.payload[..], b"old");
    assert!(!net.store().contains(&"y".into()));
    // Reading the stored value, and only reading it, runs.
    let readers = Application::new("readers")
        .task(AppTask::new("copy", vec!["x".into()], "y"))
        .task(AppTask::new("copy", vec!["x".into()], "z"));
    let report = Orchestrator::new(&net).run(&readers, &mut RoundRobinOffload::new());
    assert_eq!(report.map(|r| r.completed).ok(), Some(2));
    let y = net.store().get(&"y".into()).expect("y stored");
    assert_eq!(&y.payload[..], b"old");
}

#[test]
fn a_task_updating_its_own_input_runs_once() {
    let ops = OpRegistry::new();
    ops.register("increment", |ins| {
        Bytes::from(ins[0].iter().map(|b| b + 1).collect::<Vec<u8>>())
    });
    let net = network(ops, 1);
    net.store()
        .put("x".into(), StoredValue::blob(vec![1, 2]), None)
        .expect("stored");
    let app = Application::new("in-place").task(AppTask::new("increment", vec!["x".into()], "x"));
    let report = Orchestrator::new(&net)
        .run(&app, &mut RoundRobinOffload::new())
        .expect("an in-place update runs");
    assert_eq!((report.completed, report.reexecutions), (1, 0));
    let value = net.store().get(&"x".into()).expect("x stored");
    assert_eq!(&value.payload[..], &[2, 3]);
}
