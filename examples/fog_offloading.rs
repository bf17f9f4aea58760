//! COMPSs agents on a fog-to-cloud platform (paper Figs. 5–6).
//!
//! Deploys one agent per device, runs a sense→filter→aggregate
//! application through the orchestrator under different offloading
//! policies, then demonstrates the §VI-B recovery story: a fog device
//! dies mid-application and, because every produced value is persisted
//! to the shared store, the orchestrator simply re-submits the lost
//! task to another device.
//!
//! ```text
//! cargo run --example fog_offloading
//! ```

use bytes::Bytes;
use continuum::agents::{
    AgentNetwork, AppTask, Application, ContinuumPolicy, ContinuumScheduler, OffloadPolicy,
    OpRegistry, Orchestrator, RoundRobinOffload,
};
use continuum::platform::{DeviceClass, NodeId};
use continuum::storage::{KvConfig, KvStore};
use std::sync::Arc;

fn ops() -> OpRegistry {
    let ops = OpRegistry::new();
    ops.register("sense", |_| {
        // Sensing takes a while — long enough for churn to strike.
        std::thread::sleep(std::time::Duration::from_millis(30));
        Bytes::from(vec![3u8; 512 * 1024])
    });
    ops.register("filter", |ins| {
        Bytes::from(
            ins[0]
                .iter()
                .filter(|b| **b > 1)
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

fn app(sensors: usize) -> Application {
    let mut app = Application::new("sense-filter-aggregate");
    let mut filtered = Vec::new();
    for s in 0..sensors {
        app = app
            .task(AppTask::new("sense", vec![], format!("raw{s}")).prefer_class(DeviceClass::Fog));
        app = app.task(
            AppTask::new(
                "filter",
                vec![format!("raw{s}").into()],
                format!("clean{s}"),
            )
            .input_bytes_hint(512 * 1024),
        );
        filtered.push(format!("clean{s}").into());
    }
    app.task(AppTask::new("aggregate", filtered, "result").input_bytes_hint(16))
}

fn main() {
    // The shared persistent store (the dataClay role), replicated over
    // four storage nodes.
    let store = Arc::new(
        KvStore::new(
            (0..4).map(NodeId::from_raw).collect(),
            KvConfig { replication: 2 },
        )
        .expect("valid store"),
    );
    let net = AgentNetwork::new(store, ops());
    let fog_ids: Vec<_> = (0..4)
        .map(|i| net.deploy(format!("fog-{i}"), DeviceClass::Fog))
        .collect();
    for i in 0..2 {
        net.deploy(format!("cloud-{i}"), DeviceClass::CloudVm);
    }
    println!("deployed {} agents (4 fog + 2 cloud)\n", net.len());

    let mut policies: Vec<Box<dyn OffloadPolicy>> = vec![
        Box::new(RoundRobinOffload::new()),
        Box::new(ContinuumScheduler::new(ContinuumPolicy::FogOnly)),
        Box::new(ContinuumScheduler::new(ContinuumPolicy::CloudOnly)),
        Box::new(ContinuumScheduler::new(ContinuumPolicy::LatencyAware)),
    ];
    for policy in policies.iter_mut() {
        let report = Orchestrator::new(&net)
            .run(&app(6), policy.as_mut())
            .expect("application completes");
        let by_class = |class: DeviceClass| -> usize {
            let infos = net.infos();
            report
                .executions_per_agent
                .iter()
                .filter(|(id, _)| infos[id.index()].class == class)
                .map(|(_, n)| *n)
                .sum()
        };
        println!(
            "policy {:<14} completed {:>2} tasks  fog {:>2} / cloud {:>2}  re-executed {}",
            policy.name(),
            report.completed,
            by_class(DeviceClass::Fog),
            by_class(DeviceClass::CloudVm),
            report.reexecutions
        );
    }

    // Churn recovery: two fog devices die *while the application is
    // running*; their in-flight tasks are lost, but every committed
    // value is already persistent, so the orchestrator re-submits only
    // the lost work to the surviving devices.
    println!("\nfog-0 and fog-1 will die mid-run (battery, paper §VI-B)...");
    let killer = {
        let f0 = fog_ids[0];
        let f1 = fog_ids[1];
        let net = &net;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                net.kill(f0).expect("fog-0 deployed");
                net.kill(f1).expect("fog-1 deployed");
            });
            Orchestrator::new(net)
                .run(&app(6), &mut RoundRobinOffload::new())
                .expect("application recovers")
        })
    };
    println!(
        "recovered: {} tasks completed, {} lost executions re-submitted to live devices",
        killer.completed, killer.reexecutions
    );

    // The REST "Start Application" verb (paper Fig. 6): a fog device
    // orchestrates the application itself, using its peers as workers.
    let report = net
        .start_application(
            fog_ids[2],
            app(4),
            Box::new(ContinuumScheduler::new(ContinuumPolicy::FogOnly)),
            std::time::Duration::from_secs(60),
        )
        .expect("fog-orchestrated application completes");
    println!(
        "\nfog-2 orchestrated the app itself (fog-to-fog): {} tasks done across {} agents",
        report.completed,
        report.executions_per_agent.len()
    );
}
