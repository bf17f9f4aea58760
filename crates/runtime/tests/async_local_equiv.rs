//! Checksum equivalence of the two task-body APIs: for arbitrary
//! layered dataflow graphs, running every task as a blocking closure
//! and running every task as an async body (with parking awaits
//! injected mid-computation) must produce **identical outputs** at
//! every worker count — the async path is a scheduling change, not a
//! semantic one. A companion check asserts the emitted telemetry is
//! well-formed: every submitted task commits exactly once and parked
//! intervals appear as `Parked` spans. A third races timer wakes
//! against parks, where a lost wakeup would hang the run.

use continuum_dag::TaskSpec;
use continuum_platform::Constraints;
use continuum_runtime::{LocalConfig, LocalRuntime, TraceBuffer};
use continuum_telemetry::{Event, TaskPhase};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// One generated workload: a layered graph `layers × width`, each task
/// reading every task of the previous layer (dense fan), mixing the
/// inputs with its own salt.
#[derive(Debug, Clone)]
struct Plan {
    layers: usize,
    width: usize,
    salt: u64,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn task_value(inputs: &[u64], salt: u64) -> u64 {
    let mut acc = salt;
    for v in inputs {
        acc = mix(acc ^ v);
    }
    acc
}

/// Runs the plan with blocking closures; returns the final layer's
/// outputs.
fn run_closures(workers: usize, plan: &Plan) -> Vec<u64> {
    let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
    let mut prev: Vec<continuum_runtime::DataHandle<u64>> = Vec::new();
    for layer in 0..plan.layers {
        let handles = rt.data_batch::<u64>(&format!("l{layer}-"), plan.width);
        for (i, h) in handles.iter().enumerate() {
            let salt = mix(plan.salt ^ ((layer * plan.width + i) as u64));
            let spec = TaskSpec::new("t")
                .inputs(prev.iter().map(|p| p.id()))
                .output(h.id());
            rt.submit(spec, Constraints::new(), move |ctx| {
                let inputs: Vec<u64> = (0..ctx.input_count())
                    .map(|j| *ctx.input::<u64>(j))
                    .collect();
                ctx.set_output(0, task_value(&inputs, salt));
            })
            .unwrap();
        }
        prev = handles;
    }
    let out = prev.iter().map(|h| *rt.get(h).unwrap()).collect();
    rt.wait_all().unwrap();
    out
}

/// Runs the same plan with async bodies: every task parks at least
/// once mid-computation (a timer await between reading inputs and
/// writing the output), so outputs are computed across a park/resume
/// boundary, possibly on a different worker.
fn run_async(workers: usize, plan: &Plan) -> Vec<u64> {
    let rt = LocalRuntime::new(
        LocalConfig::default()
            .worker_threads(workers)
            .reactor_tick(Duration::from_micros(100)),
    );
    let mut prev: Vec<continuum_runtime::DataHandle<u64>> = Vec::new();
    for layer in 0..plan.layers {
        let handles = rt.data_batch::<u64>(&format!("l{layer}-"), plan.width);
        for (i, h) in handles.iter().enumerate() {
            let salt = mix(plan.salt ^ ((layer * plan.width + i) as u64));
            let spec = TaskSpec::new("t")
                .inputs(prev.iter().map(|p| p.id()))
                .output(h.id());
            rt.submit_async(spec, Constraints::new(), move |mut ctx| async move {
                let inputs: Vec<u64> = (0..ctx.input_count())
                    .map(|j| *ctx.input::<u64>(j))
                    .collect();
                ctx.sleep(Duration::from_micros((salt % 400) + 50)).await;
                ctx.set_output(0, task_value(&inputs, salt));
                ctx
            })
            .unwrap();
        }
        prev = handles;
    }
    let out = prev.iter().map(|h| *rt.get(h).unwrap()).collect();
    rt.wait_all().unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn async_bodies_match_closures_bit_for_bit(
        layers in 1usize..4,
        width in 1usize..6,
        salt in 0u64..u64::MAX,
    ) {
        let plan = Plan { layers, width, salt };
        let reference = run_closures(1, &plan);
        for workers in [1usize, 2, 4, 8] {
            prop_assert_eq!(
                &run_closures(workers, &plan), &reference,
                "closure run diverged at {} workers", workers
            );
            prop_assert_eq!(
                &run_async(workers, &plan), &reference,
                "async run diverged at {} workers", workers
            );
        }
    }
}

#[test]
fn async_run_telemetry_is_well_formed() {
    const N: usize = 24;
    let (buffer, handle) = TraceBuffer::collector();
    {
        let rt = LocalRuntime::new(
            LocalConfig::default()
                .worker_threads(4)
                .reactor_tick(Duration::from_micros(200))
                .telemetry(handle),
        );
        let outs = rt.data_batch::<u64>("o", N);
        for (i, o) in outs.iter().enumerate() {
            rt.submit_async(
                TaskSpec::new(format!("task-{i}")).output(o.id()),
                Constraints::new(),
                move |mut ctx| async move {
                    ctx.sleep(Duration::from_millis(1)).await;
                    ctx.set_output(0, i as u64);
                    ctx
                },
            )
            .unwrap();
        }
        rt.wait_all().unwrap();
    }
    let events = buffer.events();
    let count_instants = |phase: TaskPhase| {
        events
            .iter()
            .filter(|e| matches!(e, Event::Instant { phase: p, .. } if *p == phase))
            .count()
    };
    let count_spans = |phase: TaskPhase| {
        events
            .iter()
            .filter(|e| matches!(e, Event::Span { phase: p, .. } if *p == phase))
            .count()
    };
    assert_eq!(count_instants(TaskPhase::Submitted), N);
    assert_eq!(count_instants(TaskPhase::Scheduled), N);
    assert_eq!(count_instants(TaskPhase::Committed), N);
    assert_eq!(count_instants(TaskPhase::Failed), 0);
    assert!(
        count_spans(TaskPhase::Parked) >= N,
        "every task awaited a timer at least once, parked spans = {}",
        count_spans(TaskPhase::Parked)
    );
    // Executing spans cover the final poll burst of each task.
    assert_eq!(count_spans(TaskPhase::Executing) - 1, N); // +1: local-run span
    let high_water = events.iter().find_map(|e| match e {
        Event::Counter { key, value, .. }
            if *key == continuum_telemetry::CounterKey::InflightTasksHighWater =>
        {
            Some(*value)
        }
        _ => None,
    });
    let hw = high_water.expect("run end reports the in-flight high-water counter");
    assert!(hw >= 1.0 && hw <= N as f64, "high water {hw} out of range");
}

/// Lost-wakeup stress for the park/wake handshake. Short sleeps on a
/// fine tick land reactor wakes while pollers are still between
/// `Poll::Pending` and `try_park`, taking both the Parked → Enqueue and
/// the NOTIFIED → MustRepoll paths; zero-length sleeps take the
/// refused-registration self-wake. A lost wakeup leaves a task parked
/// and the run hangs. `sched::task-cell` explores the same handshake
/// exhaustively at two threads; this runs it on four workers.
#[test]
fn timer_wakes_racing_parks_are_never_lost() {
    const ROUNDS: usize = 25;
    const TASKS: usize = 32;
    for round in 0..ROUNDS {
        let rt = LocalRuntime::new(
            LocalConfig::default()
                .worker_threads(4)
                .reactor_tick(Duration::from_micros(50)),
        );
        let outs = rt.data_batch::<u64>("o", TASKS);
        for (i, o) in outs.iter().enumerate() {
            let dur = Duration::from_micros(((round * TASKS + i) % 7) as u64 * 40);
            rt.submit_async(
                TaskSpec::new("racy").output(o.id()),
                Constraints::new(),
                move |mut ctx| async move {
                    // Three parks per task: each is a fresh race.
                    ctx.sleep(dur).await;
                    ctx.sleep(dur / 2).await;
                    ctx.sleep(Duration::ZERO).await;
                    ctx.set_output(0, i as u64);
                    ctx
                },
            )
            .unwrap();
        }
        let t0 = Instant::now();
        rt.wait_all().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "round {round} took pathologically long — suspected lost wakeup"
        );
        for (i, o) in outs.iter().enumerate() {
            assert_eq!(*rt.get(o).unwrap(), i as u64);
        }
        assert_eq!(rt.parked_count(), 0, "round {round} left a task parked");
    }
}
