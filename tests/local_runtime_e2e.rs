//! End-to-end integration tests of the local runtime through the
//! `continuum` facade: realistic multi-stage applications exercising
//! dependency detection, constraints, failure surfacing and typed data
//! handles together.

use continuum::dag::TaskSpec;
use continuum::platform::Constraints;
use continuum::runtime::{LocalConfig, LocalRuntime, RuntimeError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A little ETL pipeline: extract → 4 parallel transforms → load, with
/// a side branch computing statistics from the raw extract.
#[test]
fn etl_pipeline_with_side_branch() {
    let rt = LocalRuntime::new(LocalConfig::with_workers(4));
    let raw = rt.data::<Vec<i64>>("raw");
    let transformed = rt.data_batch::<Vec<i64>>("tr", 4);
    let loaded = rt.data::<i64>("loaded");
    let stats = rt.data::<(i64, i64)>("stats");

    rt.submit(
        TaskSpec::new("extract").output(raw.id()),
        Constraints::new(),
        |ctx| ctx.set_output(0, (1..=100i64).collect::<Vec<i64>>()),
    )
    .unwrap();

    for (i, t) in transformed.iter().enumerate() {
        rt.submit(
            TaskSpec::new(format!("transform{i}"))
                .input(raw.id())
                .output(t.id()),
            Constraints::new(),
            move |ctx| {
                let v: &Vec<i64> = ctx.input(0);
                let n = v.len() / 4;
                ctx.set_output(
                    0,
                    v[i * n..(i + 1) * n]
                        .iter()
                        .map(|x| x * 10)
                        .collect::<Vec<i64>>(),
                );
            },
        )
        .unwrap();
    }

    rt.submit(
        TaskSpec::new("load")
            .inputs(transformed.iter().map(|t| t.id()))
            .output(loaded.id()),
        Constraints::new(),
        |ctx| {
            let mut total = 0i64;
            for i in 0..ctx.input_count() {
                total += ctx.input::<Vec<i64>>(i).iter().sum::<i64>();
            }
            ctx.set_output(0, total);
        },
    )
    .unwrap();

    rt.submit(
        TaskSpec::new("stats").input(raw.id()).output(stats.id()),
        Constraints::new(),
        |ctx| {
            let v: &Vec<i64> = ctx.input(0);
            ctx.set_output(0, (*v.iter().min().unwrap(), *v.iter().max().unwrap()));
        },
    )
    .unwrap();

    assert_eq!(*rt.get(&loaded).unwrap(), (1..=100i64).sum::<i64>() * 10);
    assert_eq!(*rt.get(&stats).unwrap(), (1, 100));
    rt.wait_all().unwrap();
    assert_eq!(rt.completed_count(), 7);
}

/// Iterative refinement: the InOut chain re-runs a model update 20
/// times; the runtime serialises the chain but overlaps independent
/// monitoring tasks.
#[test]
fn iterative_refinement_with_monitoring() {
    let rt = LocalRuntime::new(LocalConfig::with_workers(4));
    let model = rt.data::<f64>("model");
    let monitors = rt.data_batch::<f64>("snapshot", 20);
    rt.set_initial(&model, 1.0);
    for m in &monitors {
        // Update halves the distance to 2.0.
        rt.submit(
            TaskSpec::new("update").inout(model.id()),
            Constraints::new(),
            |ctx| {
                let v: &f64 = ctx.input(0);
                ctx.set_output(0, v + (2.0 - v) / 2.0);
            },
        )
        .unwrap();
        // Monitor reads the freshly produced version.
        rt.submit(
            TaskSpec::new("monitor").input(model.id()).output(m.id()),
            Constraints::new(),
            |ctx| {
                let v: &f64 = ctx.input(0);
                ctx.set_output(0, *v);
            },
        )
        .unwrap();
    }
    let final_model = *rt.get(&model).unwrap();
    assert!((final_model - 2.0).abs() < 1e-5);
    // Snapshots are strictly increasing — each saw its own version.
    let mut prev = 0.0;
    for m in &monitors {
        let v = *rt.get(m).unwrap();
        assert!(v > prev);
        prev = v;
    }
    rt.wait_all().unwrap();
}

/// GPU-style constraint gating: tasks requiring a GPU run only when
/// the configured capacity advertises one.
#[test]
fn constraint_gating_by_gpu() {
    let with_gpu = LocalRuntime::new(LocalConfig {
        workers: 2,
        gpus: 1,
        ..LocalConfig::default()
    });
    let out = with_gpu.data::<u32>("out");
    with_gpu
        .submit(
            TaskSpec::new("cuda_kernel").output(out.id()),
            Constraints::new().gpus(1),
            |ctx| ctx.set_output(0, 99u32),
        )
        .unwrap();
    assert_eq!(*with_gpu.get(&out).unwrap(), 99);

    let without_gpu = LocalRuntime::new(LocalConfig::with_workers(2));
    let out2 = without_gpu.data::<u32>("out");
    let err = without_gpu
        .submit(
            TaskSpec::new("cuda_kernel").output(out2.id()),
            Constraints::new().gpus(1),
            |ctx| ctx.set_output(0, 99u32),
        )
        .unwrap_err();
    assert!(matches!(err, RuntimeError::Unschedulable { .. }));
}

/// Failures propagate: a panicking mid-pipeline task poisons the run,
/// surfaces in wait_all and in every blocked get, and stops new work.
#[test]
fn mid_pipeline_failure_poisons_run() {
    let rt = LocalRuntime::new(LocalConfig::with_workers(2));
    let a = rt.data::<u32>("a");
    let b = rt.data::<u32>("b");
    let c = rt.data::<u32>("c");
    let executed_after = Arc::new(AtomicUsize::new(0));

    rt.submit(
        TaskSpec::new("ok").output(a.id()),
        Constraints::new(),
        |ctx| ctx.set_output(0, 1),
    )
    .unwrap();
    rt.submit(
        TaskSpec::new("boom").input(a.id()).output(b.id()),
        Constraints::new(),
        |_| panic!("sensor exploded"),
    )
    .unwrap();
    let counter = Arc::clone(&executed_after);
    rt.submit(
        TaskSpec::new("downstream").input(b.id()).output(c.id()),
        Constraints::new(),
        move |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.set_output(0, 3);
        },
    )
    .unwrap();

    let err = rt.wait_all().unwrap_err();
    assert!(err.to_string().contains("sensor exploded"));
    assert!(rt.get(&c).is_err());
    assert_eq!(
        executed_after.load(Ordering::SeqCst),
        0,
        "downstream never ran"
    );
}

/// The runtime is shared-state safe: many application threads submit
/// concurrently against one runtime (the multi-tenant agent scenario).
#[test]
fn concurrent_submitters_share_one_runtime() {
    let rt = LocalRuntime::new(LocalConfig::with_workers(4));
    let totals: Vec<_> = (0..4)
        .map(|i| rt.data::<u64>(format!("total{i}")))
        .collect();
    std::thread::scope(|scope| {
        for (t, total) in totals.iter().enumerate() {
            let rt = &rt;
            scope.spawn(move || {
                let parts = rt.data_batch::<u64>(&format!("p{t}_"), 50);
                for (i, p) in parts.iter().enumerate() {
                    rt.submit(
                        TaskSpec::new("gen").output(p.id()),
                        Constraints::new(),
                        move |ctx| ctx.set_output(0, (t * 1000 + i) as u64),
                    )
                    .unwrap();
                }
                rt.submit(
                    TaskSpec::new("sum")
                        .inputs(parts.iter().map(|p| p.id()))
                        .output(total.id()),
                    Constraints::new(),
                    |ctx| {
                        let s: u64 = (0..ctx.input_count()).map(|i| *ctx.input::<u64>(i)).sum();
                        ctx.set_output(0, s);
                    },
                )
                .unwrap();
            });
        }
    });
    rt.wait_all().unwrap();
    for (t, total) in totals.iter().enumerate() {
        let expected: u64 = (0..50).map(|i| (t * 1000 + i) as u64).sum();
        assert_eq!(*rt.get(total).unwrap(), expected, "tenant {t}");
    }
    assert_eq!(rt.completed_count(), 4 * 51);
}

/// Many short tasks: throughput smoke test (also catches deadlocks in
/// the worker wake-up protocol).
#[test]
fn thousand_task_smoke() {
    let rt = LocalRuntime::new(LocalConfig::with_workers(8));
    let outs = rt.data_batch::<usize>("o", 1000);
    for (i, o) in outs.iter().enumerate() {
        rt.submit(
            TaskSpec::new("w").output(o.id()),
            Constraints::new(),
            move |ctx| ctx.set_output(0, i * 2),
        )
        .unwrap();
    }
    rt.wait_all().unwrap();
    assert_eq!(rt.completed_count(), 1000);
    assert_eq!(*rt.get(&outs[500]).unwrap(), 1000);
}

/// dislib's Lloyd loop blocks in `get` once per iteration, while the
/// iteration's partial sums are still queued: on one worker, the main
/// thread runs some of them itself, and the run's end counts them.
#[test]
fn kmeans_main_thread_runs_partials_while_it_waits() {
    use continuum::dislib::{DistMatrix, KMeans};
    use continuum::runtime::TraceBuffer;
    use continuum::telemetry::{CounterKey, Event};

    let (buffer, telemetry) = TraceBuffer::collector();
    {
        let rt = LocalRuntime::new(LocalConfig {
            telemetry,
            ..LocalConfig::with_workers(1)
        });
        let x = DistMatrix::random(&rt, 6_000, 16, 750, 42).unwrap();
        rt.wait_all().unwrap();
        let model = KMeans::new(32).max_iter(5).tol(0.0).seed(42);
        assert_eq!(model.fit(&rt, &x).unwrap().iterations, 5);
    }
    let client_tasks = buffer.events().iter().find_map(|e| match e {
        Event::Counter {
            key: CounterKey::ClientTasks,
            value,
            ..
        } => Some(*value),
        _ => None,
    });
    assert!(client_tasks > Some(0.0), "client_tasks = {client_tasks:?}");
}
