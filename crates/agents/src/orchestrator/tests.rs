use super::*;
use crate::offload::RoundRobinOffload;
use crate::ops::OpRegistry;
use crate::sim_sched::{ContinuumPolicy, ContinuumScheduler};
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
fn fog_only_policy_uses_fog_agents() {
    let net = network(2, 1);
    let report = Orchestrator::new(&net)
        .run(
            &pipeline(),
            &mut ContinuumScheduler::new(ContinuumPolicy::FogOnly),
        )
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
        // Every agent ties at 1 s, so the first pick is fog-0.
        let mut latency_aware = ContinuumScheduler::new(ContinuumPolicy::LatencyAware);
        Orchestrator::new(net)
            .run(&pipeline(), &mut latency_aware)
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
        let info = net.probe(AgentId(id), Duration::from_secs(10)).unwrap();
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
        .start_application(
            fog0,
            pipeline(),
            Box::new(ContinuumScheduler::new(ContinuumPolicy::FogOnly)),
            Duration::from_secs(30),
        )
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
    let start = |on| {
        let policy = Box::new(RoundRobinOffload::new());
        net.start_application(on, pipeline(), policy, Duration::from_secs(30))
    };
    let err = start(AgentId(0)).unwrap_err();
    assert!(matches!(err, AgentError::NoAgentAvailable { .. }), "{err}");
    assert!(start(AgentId(9)).is_err());
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
            let result = net.start_application(
                AgentId(0),
                pipeline(),
                Box::new(Panics),
                Duration::from_secs(30),
            );
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
    assert!(net.probe(AgentId(0), Duration::from_secs(10)).is_ok());
}

#[test]
fn pre_stored_inputs_satisfy_validation() {
    let net = network(1, 0);
    net.store()
        .put("raw".into(), StoredValue::blob(vec![3u8; 10]), None)
        .unwrap();
    let app =
        Application::new("from-store").task(AppTask::new("filter", vec!["raw".into()], "clean"));
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
