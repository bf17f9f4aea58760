//! Integration tests of the telemetry subsystem against both engines:
//! the simulated engine must produce byte-identical Chrome traces for
//! identical runs (virtual clock), and the local engine's wall-clock
//! traces must be well-formed (every task span closed, nested inside
//! the run span, no impossible timings).

use continuum_dag::TaskSpec;
use continuum_platform::{Constraints, NodeSpec, PlatformBuilder};
use continuum_runtime::{
    FifoScheduler, LocalConfig, LocalRuntime, RingRecorder, SimOptions, SimRuntime, SimWorkload,
    TaskProfile, TraceBuffer,
};
use continuum_sim::FaultPlan;
use continuum_telemetry::{
    chrome_trace, micros_from_seconds, paraver_trace, CounterKey, Event, MetricsSnapshot,
    TaskPhase, Track,
};

/// A small diamond-heavy workload with transfers, so traces contain
/// `Transferring` spans as well as `Executing` spans.
fn sim_workload() -> SimWorkload {
    let mut w = SimWorkload::new();
    let src = w.data("src");
    w.task(
        TaskSpec::new("produce").output(src),
        TaskProfile::new(2.0).outputs_bytes(200_000_000),
    )
    .unwrap();
    let mut mids = Vec::new();
    for i in 0..6 {
        let mid = w.data(format!("mid{i}"));
        w.task(
            TaskSpec::new(format!("map{i}")).input(src).output(mid),
            TaskProfile::new(1.0 + i as f64 * 0.5).outputs_bytes(50_000_000),
        )
        .unwrap();
        mids.push(mid);
    }
    let out = w.data("out");
    let mut spec = TaskSpec::new("reduce").output(out);
    for mid in mids {
        spec = spec.input(mid);
    }
    w.task(spec, TaskProfile::new(3.0)).unwrap();
    w
}

fn sim_events() -> Vec<Event> {
    let platform = PlatformBuilder::new()
        .cluster("c", 3, NodeSpec::hpc(2, 96_000))
        .build();
    let (buffer, telemetry) = TraceBuffer::collector();
    let options = SimOptions {
        telemetry,
        ..SimOptions::default()
    };
    SimRuntime::new(platform, options)
        .run(
            &sim_workload(),
            &mut FifoScheduler::new(),
            &FaultPlan::new(),
        )
        .expect("completes");
    buffer.events()
}

#[test]
fn sim_traces_are_byte_identical_across_runs() {
    let a = sim_events();
    let b = sim_events();
    assert_eq!(chrome_trace(&a), chrome_trace(&b));
    assert_eq!(paraver_trace(&a), paraver_trace(&b));
}

/// FNV-1a, 64-bit: a checksum whose value does not depend on the Rust
/// release (`DefaultHasher` makes no such promise).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The Chrome export is a file format other tools and stored traces
/// depend on: its bytes for this fixed run are pinned (values taken
/// with the tree-building exporter the one-pass writer replaced).
#[test]
fn sim_trace_export_bytes_are_pinned() {
    let text = chrome_trace(&sim_events());
    assert_eq!(text.len(), 6234, "export length changed");
    assert_eq!(
        fnv1a(text.as_bytes()),
        0x6ce4_0bf8_6b3d_53dc,
        "export bytes changed"
    );
}

/// The engine publishes the cumulative transfer stall after every
/// completion from a running total; it must be, bit for bit, the sum
/// over the trace records so far (the total used to be recomputed from
/// the whole trace per completion).
#[test]
fn sim_transfer_stall_counters_are_prefix_sums_of_the_trace() {
    let platform = PlatformBuilder::new()
        .cluster("a", 2, NodeSpec::hpc(2, 96_000))
        .cloud("b", 2, NodeSpec::cloud_vm(2, 16_000))
        .build();
    let (buffer, telemetry) = TraceBuffer::collector();
    let options = SimOptions {
        telemetry,
        ..SimOptions::default()
    };
    let (report, trace) = SimRuntime::new(platform, options)
        .run_traced(
            &sim_workload(),
            &mut FifoScheduler::new(),
            &FaultPlan::new(),
        )
        .expect("completes");
    let published: Vec<f64> = buffer
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::Counter {
                key: CounterKey::TransferStallMicros,
                value,
                ..
            } => Some(*value),
            _ => None,
        })
        .collect();
    let records = trace.records();
    let mut expected: Vec<f64> = (1..=records.len())
        .map(|n| {
            let prefix: f64 = records[..n].iter().map(|r| r.transfer_stall_s).sum();
            micros_from_seconds(prefix) as f64
        })
        .collect();
    // One more at the end of the run, equal to the last.
    expected.push(micros_from_seconds(report.transfer_stall_s) as f64);
    assert!(report.transfer_stall_s > 0.0, "the workload must stall");
    assert_eq!(published, expected);
    let total: f64 = records.iter().map(|r| r.transfer_stall_s).sum();
    assert_eq!(report.transfer_stall_s.to_bits(), total.to_bits());
}

#[test]
fn sim_trace_covers_the_full_lifecycle() {
    let events = sim_events();
    let has = |phase: TaskPhase| {
        events.iter().any(|e| match e {
            Event::Span { phase: p, .. } | Event::Instant { phase: p, .. } => *p == phase,
            Event::Counter { .. } => false,
        })
    };
    assert!(has(TaskPhase::Submitted), "graph registration markers");
    assert!(has(TaskPhase::Scheduled), "placement markers");
    assert!(has(TaskPhase::Transferring), "input-stall spans");
    assert!(has(TaskPhase::Executing), "compute spans");
    assert!(has(TaskPhase::Committed), "completion markers");
    // The run span closes everything: it starts at 0 and no event
    // extends past its end.
    let run_end = events
        .iter()
        .find_map(|e| match e {
            Event::Span {
                track: Track::Run,
                name,
                start_us: 0,
                dur_us,
                ..
            } if name == "sim-run" => Some(*dur_us),
            _ => None,
        })
        .expect("sim-run span present");
    for e in &events {
        assert!(e.end_us() <= run_end, "event past run end: {e:?}");
    }
    // The snapshot agrees with the workload: 8 tasks committed.
    let snapshot = MetricsSnapshot::from_events(&events);
    assert_eq!(snapshot.instants.get(&TaskPhase::Committed), Some(&8));
}

/// The always-on flight recorder under a live run: four workers
/// record concurrently into a ring far smaller than the run's event
/// count, every task still completes, and the ring holds its capacity,
/// not the run.
#[test]
fn ring_recorder_stays_bounded_under_a_live_run() {
    const TASKS: usize = 300;
    let (ring, telemetry) = RingRecorder::collector(64);
    let rt = LocalRuntime::new(LocalConfig {
        workers: 4,
        telemetry,
        ..LocalConfig::default()
    });
    for (i, out) in rt.data_batch::<u64>("o", TASKS).iter().enumerate() {
        rt.submit(
            TaskSpec::new("w").output(out.id()),
            Constraints::new(),
            move |ctx| ctx.set_output(0, i as u64),
        )
        .unwrap();
    }
    rt.wait_all().unwrap();
    assert_eq!(rt.completed_count(), TASKS);
    drop(rt);
    assert_eq!(ring.len(), ring.capacity());
    assert!(ring.overwritten() > TASKS as u64, "{}", ring.overwritten());
}

#[test]
fn local_traces_are_well_formed() {
    let (buffer, telemetry) = TraceBuffer::collector();
    {
        let rt = LocalRuntime::new(LocalConfig {
            workers: 3,
            telemetry,
            ..LocalConfig::default()
        });
        let stage1 = rt.data_batch::<u64>("s1", 5);
        let total = rt.data::<u64>("total");
        for (i, d) in stage1.iter().enumerate() {
            rt.submit(
                TaskSpec::new(format!("gen{i}")).output(d.id()),
                Constraints::new(),
                move |ctx| ctx.set_output(0, i as u64 + 1),
            )
            .unwrap();
        }
        rt.submit(
            TaskSpec::new("sum")
                .inputs(stage1.iter().map(|d| d.id()))
                .output(total.id()),
            Constraints::new(),
            |ctx| {
                let s: u64 = (0..ctx.input_count()).map(|i| *ctx.input::<u64>(i)).sum();
                ctx.set_output(0, s);
            },
        )
        .unwrap();
        assert_eq!(*rt.get(&total).unwrap(), 15);
        rt.wait_all().unwrap();
    } // drop closes the run span
    let events = buffer.events();

    // The run span exists, starts at 0, and closes last.
    let run_end = events
        .iter()
        .find_map(|e| match e {
            Event::Span {
                track: Track::Run,
                name,
                start_us: 0,
                dur_us,
                ..
            } if name == "local-run" => Some(*dur_us),
            _ => None,
        })
        .expect("local-run span present");
    for e in &events {
        assert!(e.end_us() <= run_end, "event outside run span: {e:?}");
    }

    // Every task (worker-track) executing span has a matching commit
    // marker at its end and fits inside the run span; the unsigned
    // types make negative durations unrepresentable.
    let mut exec_spans = 0;
    for e in &events {
        if let Event::Span {
            track: track @ Track::Worker(_),
            name,
            phase: TaskPhase::Executing,
            start_us,
            dur_us,
            ctx: _,
        } = e
        {
            assert!(start_us + dur_us <= run_end);
            exec_spans += 1;
            let closed = events.iter().any(|m| {
                matches!(
                    m,
                    Event::Instant { track: t, name: n, phase: TaskPhase::Committed | TaskPhase::Failed, at_us }
                        if t == track && n == name && *at_us == start_us + dur_us
                )
            });
            assert!(closed, "span for `{name}` has no commit/fail marker");
        }
    }
    assert_eq!(exec_spans, 6, "one span per task");

    // One submission marker per task, on the engine track.
    let submitted = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::Instant {
                    track: Track::Run,
                    phase: TaskPhase::Submitted,
                    ..
                }
            )
        })
        .count();
    assert_eq!(submitted, 6);

    // The Chrome export of a wall-clock trace is still valid JSON.
    let json = serde::json::parse(&chrome_trace(&events)).expect("valid JSON");
    assert!(json.as_arr().is_some_and(|a| !a.is_empty()));
}

/// Both engines publish the same end-of-run counter set, so metrics
/// fields are populated (or explicitly zero) regardless of engine.
#[test]
fn both_engines_emit_the_unified_run_end_counters() {
    // Simulated engine: real transfer/replay numbers.
    let sim_snap = MetricsSnapshot::from_events(&sim_events());

    // Local engine: shared memory, so the same keys exist with zeros.
    let (buffer, telemetry) = TraceBuffer::collector();
    {
        let rt = LocalRuntime::new(LocalConfig {
            workers: 2,
            telemetry,
            ..LocalConfig::default()
        });
        let out = rt.data::<u64>("out");
        rt.submit(
            TaskSpec::new("one").output(out.id()),
            Constraints::new(),
            |ctx| ctx.set_output(0, 1u64),
        )
        .unwrap();
        rt.wait_all().unwrap();
    }
    let local_snap = MetricsSnapshot::from_events(&buffer.events());

    for key in [
        CounterKey::TransferBytes,
        CounterKey::TransferStallMicros,
        CounterKey::LineageReplays,
    ] {
        assert!(
            sim_snap.counters_last.contains_key(&key),
            "sim trace missing {}",
            key.as_str()
        );
        assert_eq!(
            local_snap.counters_last.get(&key),
            Some(&0.0),
            "local trace must carry an explicit zero for {}",
            key.as_str()
        );
    }
    // The diamond workload moves bytes and stalls on them.
    assert!(sim_snap.counters_last[&CounterKey::TransferBytes] > 0.0);
    assert!(sim_snap.counters_last[&CounterKey::TransferStallMicros] > 0.0);
}
