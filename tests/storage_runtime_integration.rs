//! Storage ↔ runtime ↔ agents integration: the full §VI-A1/§VI-B
//! stack working together — persistent objects, locality placement,
//! WAL-based recovery and the agent layer over one shared store.

use bytes::Bytes;
use continuum::agents::{
    AgentNetwork, AppTask, Application, ContinuumPolicy, ContinuumScheduler, OpRegistry,
    Orchestrator, RoundRobinOffload,
};
use continuum::dag::TaskSpec;
use continuum::platform::{DeviceClass, NodeId, NodeSpec, PlatformBuilder};
use continuum::runtime::{LocalityScheduler, SimOptions, SimRuntime, SimWorkload, TaskProfile};
use continuum::sim::FaultPlan;
use continuum::storage::{
    ActiveStore, ClassDef, KvConfig, KvStore, ObjectKey, StorageRuntime, StoredValue, WriteAheadLog,
};
use std::sync::Arc;

/// SRI locations drive placement end-to-end: partitions put into the
/// KV store are read locally by the simulated runtime's map tasks.
#[test]
fn kv_locations_feed_locality_scheduler() {
    let platform = PlatformBuilder::new()
        .cluster("dc", 4, NodeSpec::hpc(4, 16_000))
        .build();
    let store = KvStore::new(
        platform.nodes().iter().map(|n| n.id()).collect(),
        KvConfig { replication: 1 },
    )
    .unwrap();
    let mut w = SimWorkload::new();
    for i in 0..12 {
        let key: ObjectKey = format!("p{i}").into();
        store
            .put(key.clone(), StoredValue::blob(vec![0u8; 8]), None)
            .unwrap();
        let home = store.locations(&key).unwrap()[0];
        let part = w.initial_data(format!("p{i}"), 50_000_000, Some(home));
        let out = w.data(format!("o{i}"));
        w.task(
            TaskSpec::new("scan").input(part).output(out),
            TaskProfile::new(2.0),
        )
        .unwrap();
    }
    let report = SimRuntime::new(platform, SimOptions::default())
        .run(&w, &mut LocalityScheduler::new(), &FaultPlan::new())
        .expect("completes");
    assert_eq!(
        report.transfer_count, 0,
        "all scans ran on their partition's node"
    );
    assert_eq!(report.locality_hits, 12);
}

/// The write-ahead log restores a wiped store, and an active store
/// keeps serving methods after a replica failure.
#[test]
fn wal_restore_and_active_store_failover() {
    let nodes: Vec<NodeId> = (0..3).map(NodeId::from_raw).collect();
    let store = ActiveStore::new(nodes.clone(), 2).unwrap();
    store.register_class(ClassDef::new("Counter").method("len", |payload, _| {
        Bytes::copy_from_slice(&(payload.len() as u64).to_le_bytes())
    }));
    let wal = WriteAheadLog::new();

    // Write through: value goes to the store and the WAL.
    let value = StoredValue::object(vec![1u8; 1000], "Counter");
    wal.append("c1".into(), value.clone());
    let replicas = store.put("c1".into(), value, None).unwrap();

    // One replica dies: method execution still works.
    store.kv().fail_node(replicas[0]);
    let r = store.execute(&"c1".into(), "len", &[]).unwrap();
    assert_eq!(u64::from_le_bytes(r[..8].try_into().unwrap()), 1000);

    // Catastrophe: all replicas down. The WAL restores into a fresh
    // store and the class registry keeps working.
    store.kv().fail_node(replicas[1]);
    assert!(store.execute(&"c1".into(), "len", &[]).is_err());
    let fresh = ActiveStore::new(nodes, 2).unwrap();
    fresh.register_class(ClassDef::new("Counter").method("len", |payload, _| {
        Bytes::copy_from_slice(&(payload.len() as u64).to_le_bytes())
    }));
    assert_eq!(wal.restore_into(&fresh), 1);
    let r = fresh.execute(&"c1".into(), "len", &[]).unwrap();
    assert_eq!(u64::from_le_bytes(r[..8].try_into().unwrap()), 1000);
}

/// Agents, store and orchestrator survive the loss of the *storage*
/// replica holding an intermediate: replication keeps the application
/// running without re-execution.
#[test]
fn agent_app_survives_storage_replica_failure() {
    let store = Arc::new(
        KvStore::new(
            (0..4).map(NodeId::from_raw).collect(),
            KvConfig { replication: 2 },
        )
        .unwrap(),
    );
    let ops = OpRegistry::new();
    ops.register("produce", |_| Bytes::from(vec![5u8; 4096]));
    ops.register("consume", |ins| {
        Bytes::copy_from_slice(&(ins[0].len() as u64).to_le_bytes())
    });
    let net = AgentNetwork::new(Arc::clone(&store) as Arc<dyn StorageRuntime>, ops);
    net.deploy("fog-0", DeviceClass::Fog);
    net.deploy("fog-1", DeviceClass::Fog);

    // Stage 1 alone, so its output is committed before we break a
    // storage node.
    let stage1 = Application::new("produce").task(AppTask::new("produce", vec![], "mid"));
    Orchestrator::new(&net)
        .run(
            &stage1,
            &mut ContinuumScheduler::new(ContinuumPolicy::FogOnly),
        )
        .unwrap();
    let replicas = store.locations(&"mid".into()).unwrap();
    store.fail_node(replicas[0]);

    let stage2 =
        Application::new("consume").task(AppTask::new("consume", vec!["mid".into()], "result"));
    let report = Orchestrator::new(&net)
        .run(&stage2, &mut RoundRobinOffload::new())
        .unwrap();
    assert_eq!(report.completed, 1);
    let result = store.get(&"result".into()).unwrap();
    assert_eq!(
        u64::from_le_bytes(result.payload[..8].try_into().unwrap()),
        4096
    );
}

/// Persistence in the simulated engine exercises the storage-homed
/// fetch path: data produced before a failure is re-read from the
/// storage node, not recomputed.
#[test]
fn sim_persistence_reads_back_from_storage_home() {
    let platform = PlatformBuilder::new()
        .cluster("c", 2, NodeSpec::hpc(1, 8_000))
        .cloud("store", 1, NodeSpec::cloud_vm(1, 8_000))
        .build();
    let storage_node = NodeId::from_raw(2);
    let mut w = SimWorkload::new();
    let a = w.data("a");
    let blocker = w.data("blk");
    let out = w.data("out");
    w.task(
        TaskSpec::new("p").output(a),
        TaskProfile::new(1.0).outputs_bytes(10_000_000),
    )
    .unwrap();
    w.task(TaskSpec::new("blk").output(blocker), TaskProfile::new(30.0))
        .unwrap();
    w.task(
        TaskSpec::new("c").input(a).input(blocker).output(out),
        TaskProfile::new(1.0),
    )
    .unwrap();
    let faults = FaultPlan::new()
        .fail_at(5.0, NodeId::from_raw(0))
        .recover_at(6.0, NodeId::from_raw(0));
    let opts = SimOptions {
        persistence: Some(storage_node),
        ..SimOptions::default()
    };
    let report = SimRuntime::new(platform, opts)
        .run(&w, &mut LocalityScheduler::new(), &FaultPlan::new())
        .expect("no-fault run completes");
    assert_eq!(report.tasks_reexecuted, 0);
    // Now with the failure: still no re-execution thanks to storage.
    let platform = PlatformBuilder::new()
        .cluster("c", 2, NodeSpec::hpc(1, 8_000))
        .cloud("store", 1, NodeSpec::cloud_vm(1, 8_000))
        .build();
    let opts = SimOptions {
        persistence: Some(storage_node),
        ..SimOptions::default()
    };
    let report = SimRuntime::new(platform, opts)
        .run(&w, &mut LocalityScheduler::new(), &faults)
        .expect("faulted run completes");
    assert_eq!(
        report.tasks_reexecuted, 0,
        "persisted output needs no replay"
    );
    assert_eq!(report.tasks_completed, 3);
}
