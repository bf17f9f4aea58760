use super::*;
use crate::profile::TaskProfile;
use crate::scheduler::{FifoScheduler, LocalityScheduler};
use continuum_dag::{DagError, ExpandSink, TaskSpec};
use continuum_platform::{Constraints, NodeSpec, PlatformBuilder};

fn cluster(nodes: usize, cores: u32) -> Platform {
    PlatformBuilder::new()
        .cluster("c", nodes, NodeSpec::hpc(cores, 96_000))
        .build()
}

fn chain_workload(n: usize, dur: f64) -> SimWorkload {
    let mut w = SimWorkload::new();
    let d = w.data("x");
    w.task(TaskSpec::new("t0").output(d), TaskProfile::new(dur))
        .unwrap();
    for i in 1..n {
        w.task(
            TaskSpec::new(format!("t{i}")).inout(d),
            TaskProfile::new(dur),
        )
        .unwrap();
    }
    w
}

fn fan_workload(width: usize, dur: f64) -> SimWorkload {
    let mut w = SimWorkload::new();
    let outs = w.data_batch("o", width);
    for o in &outs {
        w.task(TaskSpec::new("w").output(*o), TaskProfile::new(dur))
            .unwrap();
    }
    w
}

fn run(
    w: &SimWorkload,
    p: Platform,
    opts: SimOptions,
    faults: &FaultPlan,
) -> Result<RunReport, RuntimeError> {
    SimRuntime::new(p, opts).run(w, &mut FifoScheduler::new(), faults)
}

#[test]
fn chain_executes_sequentially() {
    let w = chain_workload(5, 10.0);
    let r = run(&w, cluster(4, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
    assert_eq!(r.tasks_completed, 5);
    assert!((r.makespan_s - 50.0).abs() < 1e-9);
}

#[test]
fn fan_executes_in_parallel() {
    let w = fan_workload(8, 10.0);
    // 2 nodes × 4 cores = 8 slots: one wave.
    let r = run(&w, cluster(2, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
    assert!((r.makespan_s - 10.0).abs() < 1e-9);
    // 1 node × 4 cores: two waves.
    let r = run(&w, cluster(1, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
    assert!((r.makespan_s - 20.0).abs() < 1e-9);
}

#[test]
fn memory_constraints_limit_concurrency() {
    let mut w = SimWorkload::new();
    let outs = w.data_batch("o", 4);
    for o in &outs {
        w.task(
            TaskSpec::new("hungry").output(*o),
            TaskProfile::new(10.0).constraints(Constraints::new().memory_mb(60_000)),
        )
        .unwrap();
    }
    // One 96 GB node: only one 60 GB task at a time despite 48 cores.
    let r = run(&w, cluster(1, 48), SimOptions::default(), &FaultPlan::new()).unwrap();
    assert!((r.makespan_s - 40.0).abs() < 1e-9);
}

#[test]
fn unschedulable_task_is_reported() {
    let mut w = SimWorkload::new();
    let d = w.data("d");
    w.task(
        TaskSpec::new("gpu").output(d),
        TaskProfile::new(1.0).constraints(Constraints::new().gpus(4)),
    )
    .unwrap();
    let err = run(&w, cluster(2, 4), SimOptions::default(), &FaultPlan::new()).unwrap_err();
    assert!(matches!(err, RuntimeError::Unschedulable { .. }), "{err}");
}

#[test]
fn transfers_are_planned_and_locality_hits_counted() {
    let mut w = SimWorkload::new();
    let a = w.data("a");
    let b = w.data("b");
    w.task(
        TaskSpec::new("p").output(a),
        TaskProfile::new(1.0).outputs_bytes(100_000_000),
    )
    .unwrap();
    w.task(TaskSpec::new("c").input(a).output(b), TaskProfile::new(1.0))
        .unwrap();
    // Locality scheduler: consumer runs where the data is.
    let p = cluster(2, 1);
    let r = SimRuntime::new(p, SimOptions::default())
        .run(&w, &mut LocalityScheduler::new(), &FaultPlan::new())
        .unwrap();
    assert_eq!(r.transfer_count, 0);
    assert_eq!(r.locality_hits, 1);
    assert!((r.makespan_s - 2.0).abs() < 1e-6);
}

#[test]
fn remote_input_costs_transfer_time() {
    let mut w = SimWorkload::new();
    // Pin 120 MB of initial data to node 0 of a 2-zone platform and
    // force the consumer onto the remote zone via constraints.
    let raw = w.initial_data("raw", 120_000_000, Some(NodeId::from_raw(0)));
    let out = w.data("out");
    w.task(
        TaskSpec::new("consume").input(raw).output(out),
        TaskProfile::new(1.0).constraints(Constraints::new().software("cloud-only")),
    )
    .unwrap();
    let p = PlatformBuilder::new()
        .cluster("hpc", 1, NodeSpec::hpc(4, 96_000))
        .cloud(
            "cloud",
            1,
            NodeSpec::cloud_vm(4, 16_000).with_software(["cloud-only"]),
        )
        .build();
    let r = run(&w, p, SimOptions::default(), &FaultPlan::new()).unwrap();
    assert_eq!(r.transfer_count, 1);
    assert_eq!(r.transfer_bytes, 120_000_000);
    // ~1 s WAN transfer + 1 s execution.
    assert!(
        r.makespan_s > 1.9,
        "transfer must delay start, got {}",
        r.makespan_s
    );
}

#[test]
fn barrier_mode_is_slower_on_imbalanced_levels() {
    // Two pipelines with alternating heavy/light stages: dataflow
    // overlaps them, barriers serialise the waves.
    let mut w = SimWorkload::new();
    for i in 0..2 {
        let a = w.data(format!("a{i}"));
        let b = w.data(format!("b{i}"));
        let heavy = if i == 0 { 10.0 } else { 1.0 };
        let light = if i == 0 { 1.0 } else { 10.0 };
        w.task(TaskSpec::new("s1").output(a), TaskProfile::new(heavy))
            .unwrap();
        w.task(
            TaskSpec::new("s2").input(a).output(b),
            TaskProfile::new(light),
        )
        .unwrap();
    }
    let dataflow = run(&w, cluster(2, 1), SimOptions::default(), &FaultPlan::new()).unwrap();
    let barrier = run(
        &w,
        cluster(2, 1),
        SimOptions {
            barrier_levels: true,
            ..SimOptions::default()
        },
        &FaultPlan::new(),
    )
    .unwrap();
    assert!((dataflow.makespan_s - 11.0).abs() < 1e-9);
    assert!((barrier.makespan_s - 20.0).abs() < 1e-9);
}

#[test]
fn multi_node_task_occupies_full_nodes() {
    let mut w = SimWorkload::new();
    let sim = w.data("sim");
    let o = w.data("o");
    w.task(
        TaskSpec::new("mpi").output(sim),
        TaskProfile::new(10.0).constraints(Constraints::new().nodes(2)),
    )
    .unwrap();
    w.task(
        TaskSpec::new("post").input(sim).output(o),
        TaskProfile::new(1.0),
    )
    .unwrap();
    let r = run(&w, cluster(2, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
    assert_eq!(r.tasks_completed, 2);
    assert!((r.makespan_s - 11.0).abs() < 1e-9);
    // Both nodes were fully busy during the MPI step.
    assert!(r.node_usage[0].busy_core_seconds >= 40.0 - 1e-9);
    assert!(r.node_usage[1].busy_core_seconds >= 40.0 - 1e-9);
}

#[test]
fn multi_node_task_waits_for_enough_idle_nodes() {
    let mut w = SimWorkload::new();
    let f = w.data("filler");
    let sim = w.data("sim");
    w.task(TaskSpec::new("filler").output(f), TaskProfile::new(5.0))
        .unwrap();
    w.task(
        TaskSpec::new("mpi").output(sim),
        TaskProfile::new(10.0).constraints(Constraints::new().nodes(2)),
    )
    .unwrap();
    let r = run(&w, cluster(2, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
    // MPI can only start once the filler frees node 0 at t=5.
    assert!((r.makespan_s - 15.0).abs() < 1e-9);
}

#[test]
fn failure_requeues_running_tasks() {
    let w = fan_workload(4, 10.0);
    let faults = FaultPlan::new()
        .fail_at(5.0, NodeId::from_raw(0))
        .recover_at(7.0, NodeId::from_raw(0));
    let r = run(&w, cluster(2, 2), SimOptions::default(), &faults).unwrap();
    assert_eq!(r.tasks_completed, 4);
    assert!(r.tasks_reexecuted >= 1, "tasks on the dead node rerun");
    assert!(r.makespan_s > 10.0);
}

#[test]
fn lost_data_is_replayed_via_lineage() {
    // p -> c, where p's output lives only on node 0, which dies
    // after p completes but before c starts (c is held busy).
    let mut w = SimWorkload::new();
    let a = w.data("a");
    let blocker = w.data("blk");
    let out = w.data("out");
    w.task(
        TaskSpec::new("p").output(a),
        TaskProfile::new(1.0).outputs_bytes(1_000),
    )
    .unwrap();
    w.task(
        TaskSpec::new("blocker").output(blocker),
        TaskProfile::new(20.0),
    )
    .unwrap();
    // Consumer needs both, so it cannot start before t=20.
    w.task(
        TaskSpec::new("c").input(a).input(blocker).output(out),
        TaskProfile::new(1.0),
    )
    .unwrap();
    // 2 × 1-core nodes: p and blocker run in parallel at t=0.
    let faults = FaultPlan::new()
        .fail_at(5.0, NodeId::from_raw(0))
        .recover_at(6.0, NodeId::from_raw(0));
    let r = run(&w, cluster(2, 1), SimOptions::default(), &faults).unwrap();
    assert_eq!(r.tasks_completed, 3);
    assert!(r.tasks_reexecuted >= 1, "p replayed to regenerate `a`");
}

#[test]
fn persisted_data_survives_failures_without_replay() {
    let mut w = SimWorkload::new();
    let a = w.data("a");
    let blocker = w.data("blk");
    let out = w.data("out");
    w.task(
        TaskSpec::new("p").output(a),
        TaskProfile::new(1.0).outputs_bytes(1_000),
    )
    .unwrap();
    w.task(
        TaskSpec::new("blocker").output(blocker),
        TaskProfile::new(20.0),
    )
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
        persistence: Some(NodeId::from_raw(1)),
        ..SimOptions::default()
    };
    let r = run(&w, cluster(2, 1), opts, &faults).unwrap();
    assert_eq!(r.tasks_completed, 3);
    assert_eq!(r.tasks_reexecuted, 0, "persisted output needs no replay");
}

#[test]
fn restart_mode_reruns_everything() {
    let mut w = SimWorkload::new();
    let a = w.data("a");
    let blocker = w.data("blk");
    let out = w.data("out");
    w.task(
        TaskSpec::new("p").output(a),
        TaskProfile::new(1.0).outputs_bytes(1_000),
    )
    .unwrap();
    w.task(
        TaskSpec::new("blocker").output(blocker),
        TaskProfile::new(20.0),
    )
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
        data_loss: DataLossMode::Restart,
        ..SimOptions::default()
    };
    let r = run(&w, cluster(2, 1), opts, &faults).unwrap();
    assert_eq!(r.tasks_completed, 3);
    // The completed producer counts as re-executed after restart.
    assert!(r.tasks_reexecuted >= 1);
    assert!(
        r.makespan_s > 21.0,
        "restart pushes completion well past 21 s"
    );
}

#[test]
fn heterogeneous_speed_scales_durations() {
    let mut w = SimWorkload::new();
    let d = w.data("d");
    w.task(TaskSpec::new("t").output(d), TaskProfile::new(10.0))
        .unwrap();
    let p = PlatformBuilder::new()
        .cluster("fast", 1, NodeSpec::hpc(4, 96_000).with_speed(2.0))
        .build();
    let r = run(&w, p, SimOptions::default(), &FaultPlan::new()).unwrap();
    assert!((r.makespan_s - 5.0).abs() < 1e-9);
}

#[test]
fn elastic_pool_grows_under_backlog() {
    let w = fan_workload(32, 100.0);
    let p = PlatformBuilder::new()
        .elastic_cloud("ec2", 1, 8, NodeSpec::cloud_vm(1, 16_000))
        .build();
    let opts = SimOptions {
        elastic: Some(ElasticConfig {
            zone: p.zones()[0].id(),
            policy: ElasticityPolicy::new(1, 8).cooldown_s(0.0).max_step(4),
            period_s: 10.0,
            provision_delay_s: 5.0,
        }),
        ..SimOptions::default()
    };
    let fixed = run(&w, p.clone(), SimOptions::default(), &FaultPlan::new()).unwrap();
    let elastic = run(&w, p, opts, &FaultPlan::new()).unwrap();
    assert_eq!(elastic.tasks_completed, 32);
    assert!(
        elastic.makespan_s < fixed.makespan_s / 2.0,
        "elastic {} vs fixed {}",
        elastic.makespan_s,
        fixed.makespan_s
    );
    assert!(elastic.node_usage.len() > 1, "pool actually grew");
}

#[test]
fn power_off_idle_removes_idle_energy() {
    let w = chain_workload(2, 10.0);
    let on = run(&w, cluster(4, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
    let off = run(
        &w,
        cluster(4, 4),
        SimOptions {
            power_off_idle: true,
            ..SimOptions::default()
        },
        &FaultPlan::new(),
    )
    .unwrap();
    assert!(off.energy.idle_joules < 1e-9);
    assert!(on.energy.idle_joules > 0.0);
    assert!(off.energy.total_joules() < on.energy.total_joules());
}

#[test]
fn inter_zone_transfers_contend_intra_zone_do_not() {
    // N tasks each pulling 120 MB of pinned data to a remote zone
    // over a shared WAN: transfers serialise, so makespan grows
    // linearly with N.
    let build = |n: usize| {
        let mut w = SimWorkload::new();
        for i in 0..n {
            let raw = w.initial_data(format!("raw{i}"), 120_000_000, Some(NodeId::from_raw(0)));
            let out = w.data(format!("out{i}"));
            w.task(
                TaskSpec::new("consume").input(raw).output(out),
                TaskProfile::new(1.0).constraints(Constraints::new().software("cloud")),
            )
            .unwrap();
        }
        w
    };
    let platform = |vms: usize| {
        PlatformBuilder::new()
            .cluster("hpc", 1, NodeSpec::hpc(4, 96_000))
            .cloud(
                "dc",
                vms,
                NodeSpec::cloud_vm(4, 16_000).with_software(["cloud"]),
            )
            .build()
    };
    // 1 task: ~1 s WAN transfer + 1 s exec.
    let one = run(
        &build(1),
        platform(4),
        SimOptions::default(),
        &FaultPlan::new(),
    )
    .unwrap();
    // 8 tasks on ample cloud slots: transfers serialise on the WAN.
    let eight = run(
        &build(8),
        platform(4),
        SimOptions::default(),
        &FaultPlan::new(),
    )
    .unwrap();
    assert!(
        eight.makespan_s > 7.0 * (one.makespan_s - 1.0),
        "8 WAN transfers must serialise: {} vs single {}",
        eight.makespan_s,
        one.makespan_s
    );
    // Same data, same zone: intra-cluster fabric does not contend.
    let mut w = SimWorkload::new();
    for i in 0..8 {
        let raw = w.initial_data(format!("raw{i}"), 120_000_000, Some(NodeId::from_raw(0)));
        let out = w.data(format!("out{i}"));
        w.task(
            TaskSpec::new("consume").input(raw).output(out),
            TaskProfile::new(1.0),
        )
        .unwrap();
    }
    let p = PlatformBuilder::new()
        .cluster("hpc", 4, NodeSpec::hpc(4, 96_000))
        .build();
    let intra = run(&w, p, SimOptions::default(), &FaultPlan::new()).unwrap();
    assert!(
        intra.makespan_s < 2.0,
        "intra-cluster transfers are contention-free: {}",
        intra.makespan_s
    );
}

#[test]
fn stream_consumer_overlaps_producer() {
    // sensor ──stream──▶ sink, both 10 s. A completion edge would
    // serialise them (makespan 20 s); the stream edge releases the
    // sink at the sensor's first element (10/11 s in), so the two
    // stages overlap almost entirely.
    let mut w = SimWorkload::new();
    let s = w.data("frames");
    w.task(
        TaskSpec::new("sensor").stream_out(s),
        TaskProfile::new(10.0).stream_elements(10),
    )
    .unwrap();
    w.task(TaskSpec::new("sink").stream_in(s), TaskProfile::new(10.0))
        .unwrap();
    let r = run(&w, cluster(2, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
    assert_eq!(r.tasks_completed, 2);
    assert!(
        r.makespan_s < 12.0,
        "streamed stages must overlap, got {}",
        r.makespan_s
    );
    assert!(r.makespan_s > 10.0, "sink still finishes after the sensor");
}

#[test]
fn empty_stream_releases_consumer_at_completion() {
    // A producer that closes without sending a single element must
    // still free its consumer — at completion, per the close
    // protocol.
    let mut w = SimWorkload::new();
    let s = w.data("s");
    w.task(
        TaskSpec::new("mute").stream_out(s),
        TaskProfile::new(10.0).stream_elements(0),
    )
    .unwrap();
    w.task(TaskSpec::new("sink").stream_in(s), TaskProfile::new(5.0))
        .unwrap();
    let r = run(&w, cluster(2, 4), SimOptions::default(), &FaultPlan::new()).unwrap();
    assert!((r.makespan_s - 15.0).abs() < 1e-9);
}

#[test]
fn stream_backlog_is_counted_and_published() {
    use crate::TraceBuffer;
    // One 1-core node: the producer occupies the only core, so the
    // released consumer cannot be admitted until the producer
    // completes — every element queues, and the backlog shows up
    // as the occupancy high-water mark in the published counters.
    let mut w = SimWorkload::new();
    let s = w.data("s");
    w.task(
        TaskSpec::new("burst").stream_out(s),
        TaskProfile::new(10.0)
            .stream_elements(8)
            .stream_element_bytes(1_000),
    )
    .unwrap();
    w.task(TaskSpec::new("sink").stream_in(s), TaskProfile::new(1.0))
        .unwrap();
    let (buffer, telemetry) = TraceBuffer::collector();
    let opts = SimOptions {
        telemetry,
        ..SimOptions::default()
    };
    let r = run(&w, cluster(1, 1), opts, &FaultPlan::new()).unwrap();
    assert!((r.makespan_s - 11.0).abs() < 1e-9);
    let events = buffer.events();
    let last = |key: CounterKey| {
        events.iter().rev().find_map(|e| match e {
            TelemetryEvent::Counter { key: k, value, .. } if *k == key => Some(*value),
            _ => None,
        })
    };
    assert_eq!(last(CounterKey::StreamElements), Some(8.0));
    assert_eq!(last(CounterKey::StreamBytes), Some(8_000.0));
    assert_eq!(
        last(CounterKey::StreamOccupancyHighWater),
        Some(8.0),
        "all 8 elements queued before the consumer was admitted"
    );
    assert_eq!(
        last(CounterKey::StreamBlockedSendMicros),
        Some(0.0),
        "backlog of 8 stays within the nominal capacity of 16"
    );
}

#[test]
fn stream_consumer_records_recv_wait() {
    use crate::TraceBuffer;
    // Two cores: the consumer is admitted at the first element and
    // then waits ~10/11 s between arrivals; those gaps accumulate
    // as blocked-recv micros.
    let mut w = SimWorkload::new();
    let s = w.data("s");
    w.task(
        TaskSpec::new("slow_sensor").stream_out(s),
        TaskProfile::new(10.0).stream_elements(10),
    )
    .unwrap();
    w.task(TaskSpec::new("sink").stream_in(s), TaskProfile::new(10.0))
        .unwrap();
    let (buffer, telemetry) = TraceBuffer::collector();
    let opts = SimOptions {
        telemetry,
        ..SimOptions::default()
    };
    run(&w, cluster(1, 2), opts, &FaultPlan::new()).unwrap();
    let recv_us = buffer
        .events()
        .iter()
        .rev()
        .find_map(|e| match e {
            TelemetryEvent::Counter {
                key: CounterKey::StreamBlockedRecvMicros,
                value,
                ..
            } => Some(*value),
            _ => None,
        })
        .expect("stream counters published");
    assert!(
        recv_us > 1_000_000.0,
        "inter-arrival waits must accumulate, got {recv_us}"
    );
}

#[test]
fn stream_runs_are_deterministic() {
    let build = || {
        let mut w = SimWorkload::new();
        let s = w.data("s");
        let t = w.data("t");
        let out = w.data("out");
        w.task(
            TaskSpec::new("sensor").stream_out(s),
            TaskProfile::new(8.0).stream_elements(5),
        )
        .unwrap();
        w.task(
            TaskSpec::new("featurize").stream_in(s).stream_out(t),
            TaskProfile::new(8.0).stream_elements(5),
        )
        .unwrap();
        w.task(
            TaskSpec::new("sink").stream_in(t).output(out),
            TaskProfile::new(8.0),
        )
        .unwrap();
        w
    };
    let a = run(
        &build(),
        cluster(2, 2),
        SimOptions::default(),
        &FaultPlan::new(),
    )
    .unwrap();
    let b = run(
        &build(),
        cluster(2, 2),
        SimOptions::default(),
        &FaultPlan::new(),
    )
    .unwrap();
    assert_eq!(a, b);
}

/// `prep` → `sensor` ⇝ `featurize` ⇝ `sink` (⇝ a stream edge,
/// `sink` also reading `prep`'s output) on three 2-core nodes, with
/// node 0 failing at `fail_at` s and recovering 1 s later. Returns
/// the report and the counters published at the end of the run.
fn streamed_run_under_fault(
    mode: DataLossMode,
    fail_at: f64,
) -> (RunReport, Vec<(CounterKey, f64)>) {
    use crate::TraceBuffer;
    let mut w = SimWorkload::new();
    let x = w.data("x");
    let s = w.data("s");
    let t = w.data("t");
    let out = w.data("out");
    w.task(
        TaskSpec::new("prep").output(x),
        TaskProfile::new(1.0).outputs_bytes(1_000),
    )
    .unwrap();
    w.task(
        TaskSpec::new("sensor").stream_out(s),
        TaskProfile::new(8.0).stream_elements(5),
    )
    .unwrap();
    w.task(
        TaskSpec::new("featurize").stream_in(s).stream_out(t),
        TaskProfile::new(8.0).stream_elements(5),
    )
    .unwrap();
    w.task(
        TaskSpec::new("sink").stream_in(t).input(x).output(out),
        TaskProfile::new(8.0),
    )
    .unwrap();
    let faults = FaultPlan::new()
        .fail_at(fail_at, NodeId::from_raw(0))
        .recover_at(fail_at + 1.0, NodeId::from_raw(0));
    let (buffer, telemetry) = TraceBuffer::collector();
    let opts = SimOptions {
        data_loss: mode,
        telemetry,
        ..SimOptions::default()
    };
    let report = run(&w, cluster(3, 2), opts, &faults).unwrap();
    let events = buffer.events();
    let run_end = events
        .iter()
        .rposition(|e| matches!(e, TelemetryEvent::Span { name, .. } if name == "sim-run"))
        .expect("run span recorded");
    let counters = events[run_end + 1..]
        .iter()
        .filter_map(|e| match e {
            TelemetryEvent::Counter { key, value, .. } => Some((*key, *value)),
            _ => None,
        })
        .collect();
    (report, counters)
}

#[test]
fn streamed_runs_under_faults_are_pinned() {
    use DataLossMode::{Replay, Restart};
    // (mode, fail at, re-executions, makespan, locality hits,
    // joules, node-hours, event-queue high water, blocked-recv µs,
    // stream elements); every run completes all 4 tasks and moves
    // no byte over the network.
    #[rustfmt::skip]
    let pinned = [
        (Replay, 1.0, 1, 10.666666666666666, 1, 7250.0, 0.008611111111111111, 14.0, 13333330.0, 10.0),
        (Replay, 3.0, 2, 12.0, 2, 7883.333333333334, 0.009722222222222222, 14.0, 13333330.0, 10.0),
        (Replay, 5.0, 2, 14.0, 2, 8983.333333333332, 0.01138888888888889, 14.0, 13333330.0, 10.0),
        (Replay, 7.5, 2, 16.5, 2, 10358.333333333334, 0.013472222222222222, 14.0, 13333330.0, 10.0),
        (Restart, 1.0, 1, 10.666666666666666, 1, 7250.0, 0.008611111111111111, 14.0, 13333330.0, 10.0),
        (Restart, 3.0, 1, 13.666666666666666, 2, 9100.0, 0.011111111111111112, 20.0, 14666663.0, 13.0),
        (Restart, 5.0, 1, 15.666666666666666, 2, 10600.0, 0.012777777777777779, 18.0, 17333329.0, 15.0),
        (Restart, 7.5, 1, 18.166666666666668, 2, 12475.0, 0.014861111111111111, 14.0, 22666661.0, 19.0),
    ];
    for (mode, fail_at, reexec, makespan, hits, joules, hours, queue_hw, recv_us, elements) in
        pinned
    {
        let (r, counters) = streamed_run_under_fault(mode, fail_at);
        let case = format!("{mode:?} at {fail_at} s");
        assert_eq!(r.tasks_completed, 4, "{case}");
        assert_eq!(r.tasks_reexecuted, reexec, "{case}");
        assert_eq!(r.makespan_s, makespan, "{case}");
        assert_eq!(r.locality_hits, hits, "{case}");
        assert_eq!(r.energy.total_joules(), joules, "{case}");
        assert_eq!(r.node_hours, hours, "{case}");
        assert_eq!(
            (r.transfer_count, r.transfer_bytes, r.transfer_stall_s),
            (0, 0, 0.0),
            "{case}"
        );
        let expected = vec![
            (CounterKey::TransferBytes, 0.0),
            (CounterKey::TransferStallMicros, 0.0),
            (CounterKey::LineageReplays, reexec as f64),
            (CounterKey::MaterializedTasksHighWater, 4.0),
            (CounterKey::LiveValuesHighWater, 1.0),
            (CounterKey::EventQueueHighWater, queue_hw),
            (CounterKey::StreamOccupancyHighWater, 1.0),
            (CounterKey::StreamBlockedSendMicros, 0.0),
            (CounterKey::StreamBlockedRecvMicros, recv_us),
            (CounterKey::StreamElements, elements),
            (CounterKey::StreamBytes, 0.0),
        ];
        assert_eq!(counters, expected, "{case}");
        assert_eq!(
            (r, counters),
            streamed_run_under_fault(mode, fail_at),
            "{case}"
        );
    }
}

#[test]
fn determinism_same_inputs_same_report() {
    let w = chain_workload(20, 1.0);
    let faults = FaultPlan::churn(3, (0..4).map(NodeId::from_raw), 40.0, 5.0, 60.0);
    let a = run(&w, cluster(4, 2), SimOptions::default(), &faults).unwrap();
    let b = run(&w, cluster(4, 2), SimOptions::default(), &faults).unwrap();
    assert_eq!(a, b);
}

// ---- lazy materialization ------------------------------------------

/// A pipeline of `n` unit tasks materialized one step ahead of the
/// frontier: stage `i+1` is emitted when stage `i` completes, and
/// each intermediate datum is closed as soon as its one consumer
/// exists.
struct LazyChain {
    n: usize,
    dur: f64,
    emitted: usize,
    prev: Option<DataId>,
}

impl LazyChain {
    fn new(n: usize, dur: f64) -> Self {
        LazyChain {
            n,
            dur,
            emitted: 0,
            prev: None,
        }
    }

    fn emit_next(&mut self, sink: &mut dyn ExpandSink<TaskProfile>) -> Result<(), DagError> {
        let out = sink.data(&format!("d{}", self.emitted));
        let spec = match self.prev {
            Some(prev) => TaskSpec::new(format!("t{}", self.emitted))
                .input(prev)
                .output(out),
            None => TaskSpec::new("t0").output(out),
        };
        sink.submit(spec, TaskProfile::new(self.dur))?;
        if let Some(prev) = self.prev {
            // The one consumer of `prev` is now materialized.
            sink.close_data(prev);
        }
        self.prev = Some(out);
        self.emitted += 1;
        Ok(())
    }
}

impl GraphSource<TaskProfile> for LazyChain {
    fn prime(&mut self, sink: &mut dyn ExpandSink<TaskProfile>) -> Result<(), DagError> {
        self.emit_next(sink)
    }

    fn on_task_complete(
        &mut self,
        _task: TaskId,
        sink: &mut dyn ExpandSink<TaskProfile>,
    ) -> Result<(), DagError> {
        if self.emitted < self.n {
            self.emit_next(sink)?;
        }
        Ok(())
    }

    fn total_tasks(&self) -> Option<u64> {
        Some(self.n as u64)
    }
}

fn eager_chain(n: usize, dur: f64) -> SimWorkload {
    // Same shape as LazyChain: n stages, each with its own datum.
    let mut w = SimWorkload::new();
    let mut prev: Option<DataId> = None;
    for i in 0..n {
        let out = w.data(format!("d{i}"));
        let spec = match prev {
            Some(p) => TaskSpec::new(format!("t{i}")).input(p).output(out),
            None => TaskSpec::new("t0").output(out),
        };
        w.task(spec, TaskProfile::new(dur)).unwrap();
        prev = Some(out);
    }
    w
}

#[test]
fn lazy_chain_matches_eager_and_retires() {
    let n = 50;
    let rt = SimRuntime::new(cluster(2, 2), SimOptions::default());
    let (eager_report, eager_trace) = rt
        .run_traced(
            &eager_chain(n, 1.0),
            &mut FifoScheduler::new(),
            &FaultPlan::new(),
        )
        .unwrap();
    let mut source = LazyChain::new(n, 1.0);
    let out = rt
        .run_lazy(&mut source, &mut FifoScheduler::new(), &FaultPlan::new())
        .unwrap();
    assert_eq!(out.report, eager_report);
    assert_eq!(out.trace, eager_trace);
    assert_eq!(out.total_tasks, n);
    // Every stage but the frontier retires: peak resident stays
    // O(1) while the campaign is O(n).
    assert!(out.peak_materialized_tasks <= 3, "{out:?}");
    assert_eq!(out.retired_tasks, n - 1);
    // All data but the last (never closed) retire.
    assert_eq!(out.retired_values, (n - 1) as u64);
    assert!(out.peak_live_values <= 3);
    assert_eq!(out.events_processed, n as u64);
}

#[test]
fn lazy_rejects_unsupported_modes() {
    let unsupported = [
        SimOptions {
            barrier_levels: true,
            ..Default::default()
        },
        SimOptions {
            data_loss: DataLossMode::Restart,
            ..Default::default()
        },
        SimOptions {
            strict_lints: LintMode::Warn,
            ..Default::default()
        },
        SimOptions {
            strict_lints: LintMode::Reject,
            ..Default::default()
        },
    ];
    for options in unsupported {
        let rt = SimRuntime::new(cluster(1, 2), options);
        let mut source = LazyChain::new(3, 1.0);
        let err = rt
            .run_lazy(&mut source, &mut FifoScheduler::new(), &FaultPlan::new())
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Stuck { .. }), "{err}");
    }
}
