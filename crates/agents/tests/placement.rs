//! Where the offloading rule puts tasks on real agent threads. It counts
//! its own dispatches, so tasks sent before any reply still spread and
//! every placement below is a fixed number; a fog-only run without a
//! live fog agent ends in an error, never a hang.

use bytes::Bytes;
use continuum_agents::{
    AgentError, AgentNetwork, AppReport, AppTask, Application, ContinuumPolicy, ContinuumScheduler,
    OffloadPolicy, OpRegistry, Orchestrator, RoundRobinOffload,
};
use continuum_platform::{DeviceClass, NodeId};
use continuum_storage::{KvConfig, KvStore, StoredValue};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// `fogs` fog agents, then `clouds` cloud agents, over one store; every
/// operation stores a few bytes.
fn network(fogs: usize, clouds: usize) -> Result<AgentNetwork, AgentError> {
    let store = KvStore::new(
        (0..4).map(NodeId::from_raw).collect(),
        KvConfig { replication: 2 },
    )?;
    let ops = OpRegistry::new();
    for op in ["sense", "filter", "aggregate"] {
        ops.register(op, |_| Bytes::from_static(b"value"));
    }
    let net = AgentNetwork::new(Arc::new(store), ops);
    for i in 0..fogs {
        net.deploy(format!("fog-{i}"), DeviceClass::Fog);
    }
    for i in 0..clouds {
        net.deploy(format!("cloud-{i}"), DeviceClass::CloudVm);
    }
    Ok(net)
}

/// `n` independent `sense` tasks.
fn senses(n: usize) -> Application {
    (0..n).fold(Application::new("senses"), |app, i| {
        app.task(AppTask::new("sense", vec![], format!("out{i}")))
    })
}

/// Successful executions on fog agents and on cloud agents.
fn fog_cloud(net: &AgentNetwork, report: &AppReport) -> (usize, usize) {
    let on = |class| {
        let of_class = net.infos().into_iter().filter(|a| a.class == class);
        of_class
            .filter_map(|a| report.executions_per_agent.get(&a.id))
            .sum()
    };
    (on(DeviceClass::Fog), on(DeviceClass::CloudVm))
}

#[test]
fn fog_only_spreads_one_wave_over_the_fog() -> Result<(), AgentError> {
    // All four tasks go out before any reply, while the agents'
    // `executed` counts have not moved yet.
    let net = network(2, 1)?;
    let mut fog_only = ContinuumScheduler::new(ContinuumPolicy::FogOnly);
    let report = Orchestrator::new(&net).run(&senses(4), &mut fog_only)?;
    let fog = net.infos().into_iter().take(2).map(|a| (a.id, 2));
    assert_eq!(report.executions_per_agent, fog.collect::<HashMap<_, _>>());
    Ok(())
}

#[test]
fn fog_only_with_the_fog_dead_ends_in_no_agent_available() -> Result<(), AgentError> {
    let net = Arc::new(network(2, 1)?);
    for fog in net.infos().into_iter().take(2) {
        net.kill(fog.id)?;
    }
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = Arc::clone(&net);
    std::thread::spawn(move || {
        let mut fog_only = ContinuumScheduler::new(ContinuumPolicy::FogOnly);
        let result = Orchestrator::new(&runner).run(&senses(1), &mut fog_only);
        // A watchdog that gave up has failed the test already.
        done_tx.send(result).ok();
    });
    // `Err` here is the watchdog: the run hung, or died unanswered.
    let result = done_rx.recv_timeout(Duration::from_secs(20));
    assert!(
        matches!(&result, Ok(Err(AgentError::NoAgentAvailable { op })) if op == "sense"),
        "{result:?}"
    );
    Ok(())
}

#[test]
fn the_example_app_places_as_each_policy_says() -> Result<(), AgentError> {
    // The fog_offloading example's app: per sensor a fog-pinned `sense`
    // and a `filter` of its 512 KiB, then one 16 B `aggregate`.
    let mut app = Application::new("sense-filter-aggregate");
    for s in 0..6 {
        let raw = format!("raw{s}");
        let sense = AppTask::new("sense", vec![], raw.clone());
        let filter = AppTask::new("filter", vec![raw.into()], format!("clean{s}"));
        app = app.task(sense.prefer_class(DeviceClass::Fog));
        app = app.task(filter.input_bytes_hint(512 * 1024));
    }
    let cleaned = (0..6).map(|s| format!("clean{s}").into()).collect();
    let app = app.task(AppTask::new("aggregate", cleaned, "result").input_bytes_hint(16));
    // Each run sends the six senses first, then a filter as its sense
    // answers, then the aggregate. The filters are alike, so the order
    // they go out in does not move the placement.
    let net = network(4, 2)?;
    for key in (0..6).flat_map(|s| [format!("raw{s}"), format!("clean{s}")]) {
        net.store()
            .put(key.into(), StoredValue::blob(b"value".to_vec()), None)?;
    }
    let policies: [Box<dyn OffloadPolicy>; 4] = [
        Box::new(RoundRobinOffload::new()),
        Box::new(ContinuumScheduler::new(ContinuumPolicy::FogOnly)),
        Box::new(ContinuumScheduler::new(ContinuumPolicy::CloudOnly)),
        Box::new(ContinuumScheduler::new(ContinuumPolicy::LatencyAware)),
    ];
    let expected = [
        ("round-robin", (11, 2)),
        ("fog-only", (13, 0)),
        ("cloud-only", (6, 7)),
        ("latency-aware", (9, 4)),
    ];
    for (mut policy, want) in policies.into_iter().zip(expected) {
        let report = Orchestrator::new(&net).run(&app, policy.as_mut())?;
        assert_eq!((policy.name(), fog_cloud(&net, &report)), want);
    }
    Ok(())
}
