//! The grand tour: one test that walks the paper's whole vision
//! end-to-end through the facade crate — a textual workflow parsed,
//! analysed, executed on a simulated continuum platform with faults
//! and persistence, its trace inspected; then the same ecosystem's
//! agent layer and ML library doing real work.

use continuum::agents::{AgentNetwork, AppTask, Application, OpRegistry, RoundRobinOffload};
use continuum::dislib::{DistMatrix, KMeans, Matrix, StandardScaler};
use continuum::platform::{DeviceClass, NodeId, NodeSpec, PlatformBuilder};
use continuum::runtime::{ListScheduler, LocalConfig, LocalRuntime, SimOptions, SimRuntime};
use continuum::sim::FaultPlan;
use continuum::storage::{KvConfig, KvStore};
use continuum::workflows::{parse_wdl, to_wdl};
use std::sync::Arc;
use std::time::Duration;

const CAMPAIGN: &str = "
data observations size=500M home=0
task curate in=observations out=clean dur=60 mem=4G out_bytes=250M group=prep
task split in=clean out=shard0,shard1,shard2 dur=10 out_bytes=80M group=prep
task analyze in=shard0 out=r0 dur=120 mem=2G out_bytes=10M group=analyze
task analyze in=shard1 out=r1 dur=130 mem=2G out_bytes=10M group=analyze
task analyze in=shard2 out=r2 dur=110 mem=2G out_bytes=10M group=analyze
task simulate in=r0,r1,r2 out=forecast dur=600 nodes=2 out_bytes=1G group=hpc
task report inout=forecast dur=30 group=publish
";

#[test]
fn textual_workflow_through_simulated_continuum_with_faults() {
    // Parse the textual modality and sanity-check the analysis.
    let workload = parse_wdl(CAMPAIGN).expect("valid campaign");
    let stats = workload.stats();
    assert_eq!(stats.tasks, 7);
    assert!(stats.critical_path_s > 600.0);

    // Round-trip through the serialiser.
    let again = parse_wdl(&to_wdl(&workload)).expect("round trip");
    assert_eq!(again.stats(), stats);

    // Execute on a small cluster + storage cloud, with a mid-run node
    // failure recovered via persistence, under the dynamic list
    // scheduler, collecting the trace.
    let platform = PlatformBuilder::new()
        .cluster("hpc", 3, NodeSpec::hpc(8, 64_000))
        .cloud("store", 1, NodeSpec::cloud_vm(4, 16_000))
        .build();
    let opts = SimOptions {
        persistence: Some(NodeId::from_raw(3)),
        ..SimOptions::default()
    };
    let faults = FaultPlan::new()
        .fail_at(100.0, NodeId::from_raw(1))
        .recover_at(160.0, NodeId::from_raw(1));
    let mut sched = ListScheduler::plan(&workload, |t| workload.profile(t).duration_s());
    let (report, trace) = SimRuntime::new(platform, opts)
        .run_traced(&workload, &mut sched, &faults)
        .expect("campaign completes despite the failure");
    assert_eq!(report.tasks_completed, 7);
    assert!(report.makespan_s >= stats.critical_path_s - 1e-6);
    assert_eq!(trace.records().len(), 7 + report.tasks_reexecuted);
    // The rigid MPI step really spanned two nodes' worth of cores.
    let busy: f64 = report.node_usage.iter().map(|u| u.busy_core_seconds).sum();
    assert!(
        busy >= 2.0 * 8.0 * 600.0 * 0.9,
        "rigid step occupied 2 full nodes"
    );
    // The gantt renders all nodes.
    let gantt = trace.gantt(4, 40);
    assert_eq!(gantt.lines().count(), 5);
}

#[test]
fn agents_and_dislib_share_the_same_ecosystem() {
    // Agents run a feature-extraction app against the shared store...
    let store = Arc::new(
        KvStore::new(
            (0..3).map(NodeId::from_raw).collect(),
            KvConfig { replication: 2 },
        )
        .expect("valid store"),
    );
    let ops = OpRegistry::new();
    ops.register("sample", |_| {
        // 64 interleaved 2-d points from two clusters.
        let mut out = Vec::new();
        for i in 0..64u8 {
            let base = if i % 2 == 0 { 10u8 } else { 200u8 };
            out.push(base + (i % 5));
            out.push(base + (i % 3));
        }
        bytes::Bytes::from(out)
    });
    let net = AgentNetwork::new(store, ops);
    net.deploy("edge-0", DeviceClass::Edge);
    net.deploy("fog-0", DeviceClass::Fog);
    let report = net
        .start_application(
            net.infos()[1].id,
            Application::new("acquire").task(AppTask::new("sample", vec![], "points")),
            Box::new(RoundRobinOffload::new()),
            Duration::from_secs(60),
        )
        .expect("acquisition completes");
    assert_eq!(report.completed, 1);

    // ... and dislib clusters the acquired bytes on the local runtime.
    let value = net.store().get(&"points".into()).expect("persisted");
    let rows: Vec<Vec<f64>> = value
        .payload
        .chunks(2)
        .map(|c| vec![c[0] as f64, c[1] as f64])
        .collect();
    let rt = LocalRuntime::new(LocalConfig::with_workers(2));
    let data = DistMatrix::from_matrix(&rt, &Matrix::from_rows(&rows), 16);
    let scaler = StandardScaler::fit(&rt, &data).expect("scaler");
    let scaled = scaler.transform(&rt, &data).expect("transform");
    let model = KMeans::new(2).seed(1).fit(&rt, &scaled).expect("kmeans");
    let labels = model.predict(&rt, &scaled).expect("predict");
    // The two interleaved clusters separate perfectly.
    assert!(labels.windows(2).all(|w| w[0] != w[1]));
    rt.wait_all().expect("all dataflow tasks complete");
}
