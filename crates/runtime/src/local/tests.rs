use super::*;
use std::time::Instant;

pub(super) fn rt(workers: usize) -> LocalRuntime {
    LocalRuntime::new(LocalConfig::with_workers(workers))
}

#[test]
fn linear_pipeline_produces_result() {
    let rt = rt(2);
    let a = rt.data::<i64>("a");
    let b = rt.data::<i64>("b");
    rt.submit(
        TaskSpec::new("one").output(a.id()),
        Constraints::new(),
        |ctx| ctx.set_output(0, 20i64),
    )
    .unwrap();
    rt.submit(
        TaskSpec::new("double").input(a.id()).output(b.id()),
        Constraints::new(),
        |ctx| {
            let x: &i64 = ctx.input(0);
            ctx.set_output(0, x * 2);
        },
    )
    .unwrap();
    assert_eq!(*rt.get(&b).unwrap(), 40);
    rt.wait_all().unwrap();
    assert_eq!(rt.completed_count(), 2);
}

#[test]
fn fan_out_fan_in_runs_in_parallel() {
    let rt = rt(4);
    let src = rt.data::<u64>("src");
    let parts = rt.data_batch::<u64>("part", 8);
    let total = rt.data::<u64>("total");
    rt.submit(
        TaskSpec::new("src").output(src.id()),
        Constraints::new(),
        |ctx| ctx.set_output(0, 10u64),
    )
    .unwrap();
    for (i, p) in parts.iter().enumerate() {
        let factor = i as u64;
        rt.submit(
            TaskSpec::new("mul").input(src.id()).output(p.id()),
            Constraints::new(),
            move |ctx| {
                let x: &u64 = ctx.input(0);
                ctx.set_output(0, x * factor);
            },
        )
        .unwrap();
    }
    let spec = TaskSpec::new("sum")
        .inputs(parts.iter().map(|p| p.id()))
        .output(total.id());
    rt.submit(spec, Constraints::new(), |ctx| {
        let mut s = 0u64;
        for i in 0..ctx.input_count() {
            s += *ctx.input::<u64>(i);
        }
        ctx.set_output(0, s);
    })
    .unwrap();
    assert_eq!(*rt.get(&total).unwrap(), 10 * (0..8).sum::<u64>());
}

#[test]
fn inout_chain_accumulates() {
    let rt = rt(4);
    let acc = rt.data::<i64>("acc");
    rt.set_initial(&acc, 0i64);
    for _ in 0..10 {
        rt.submit(
            TaskSpec::new("inc").inout(acc.id()),
            Constraints::new(),
            |ctx| {
                let v: &i64 = ctx.input(0);
                ctx.set_output(0, v + 1);
            },
        )
        .unwrap();
    }
    assert_eq!(*rt.get(&acc).unwrap(), 10);
}

#[test]
fn initial_values_feed_tasks() {
    let rt = rt(2);
    let input = rt.data::<Vec<i32>>("input");
    let out = rt.data::<i32>("out");
    rt.set_initial(&input, vec![1, 2, 3]);
    rt.submit(
        TaskSpec::new("sum").input(input.id()).output(out.id()),
        Constraints::new(),
        |ctx| {
            let v: &Vec<i32> = ctx.input(0);
            ctx.set_output(0, v.iter().sum::<i32>());
        },
    )
    .unwrap();
    assert_eq!(*rt.get(&out).unwrap(), 6);
}

#[test]
fn panicking_task_surfaces_as_error() {
    let rt = rt(2);
    let d = rt.data::<i32>("d");
    rt.submit(
        TaskSpec::new("boom").output(d.id()),
        Constraints::new(),
        |_| {
            panic!("kaboom");
        },
    )
    .unwrap();
    let err = rt.wait_all().unwrap_err();
    match err {
        RuntimeError::TaskPanicked { message, .. } => assert!(message.contains("kaboom")),
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn missing_output_is_a_failure() {
    let rt = rt(2);
    let d = rt.data::<i32>("d");
    rt.submit(
        TaskSpec::new("lazy").output(d.id()),
        Constraints::new(),
        |_| {},
    )
    .unwrap();
    let err = rt.wait_all().unwrap_err();
    assert!(err.to_string().contains("did not set output"));
}

#[test]
fn unsatisfiable_constraints_rejected_at_submit() {
    let rt = rt(2);
    let d = rt.data::<i32>("d");
    let err = rt
        .submit(
            TaskSpec::new("huge").output(d.id()),
            Constraints::new().compute_units(64),
            |_| {},
        )
        .unwrap_err();
    assert!(matches!(err, RuntimeError::Unschedulable { .. }));
}

#[test]
fn memory_constraints_serialize_heavy_tasks() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let rt = LocalRuntime::new(LocalConfig {
        workers: 4,
        memory_mb: 1000,
        ..LocalConfig::default()
    });
    let peak = Arc::new(AtomicUsize::new(0));
    let cur = Arc::new(AtomicUsize::new(0));
    let outs = rt.data_batch::<()>("o", 4);
    for o in &outs {
        let peak = Arc::clone(&peak);
        let cur = Arc::clone(&cur);
        rt.submit(
            TaskSpec::new("heavy").output(o.id()),
            Constraints::new().memory_mb(600),
            move |ctx| {
                let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(20));
                cur.fetch_sub(1, Ordering::SeqCst);
                ctx.set_output(0, ());
            },
        )
        .unwrap();
    }
    rt.wait_all().unwrap();
    assert_eq!(
        peak.load(Ordering::SeqCst),
        1,
        "600 MB tasks on a 1000 MB machine must serialise"
    );
}

#[test]
fn gpu_constraints_serialize_on_a_single_gpu() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let rt = LocalRuntime::new(LocalConfig {
        workers: 4,
        gpus: 1,
        ..LocalConfig::default()
    });
    let peak = Arc::new(AtomicUsize::new(0));
    let cur = Arc::new(AtomicUsize::new(0));
    let outs = rt.data_batch::<()>("o", 3);
    for o in &outs {
        let peak = Arc::clone(&peak);
        let cur = Arc::clone(&cur);
        rt.submit(
            TaskSpec::new("gpu").output(o.id()),
            Constraints::new().gpus(1),
            move |ctx| {
                let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(10));
                cur.fetch_sub(1, Ordering::SeqCst);
                ctx.set_output(0, ());
            },
        )
        .unwrap();
    }
    rt.wait_all().unwrap();
    assert_eq!(
        peak.load(Ordering::SeqCst),
        1,
        "gpu tasks must serialise on a 1-GPU machine"
    );
}

#[test]
fn independent_tasks_overlap_in_time() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let rt = rt(4);
    let peak = Arc::new(AtomicUsize::new(0));
    let cur = Arc::new(AtomicUsize::new(0));
    let outs = rt.data_batch::<()>("o", 4);
    for o in &outs {
        let peak = Arc::clone(&peak);
        let cur = Arc::clone(&cur);
        rt.submit(
            TaskSpec::new("t").output(o.id()),
            Constraints::new(),
            move |ctx| {
                let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(30));
                cur.fetch_sub(1, Ordering::SeqCst);
                ctx.set_output(0, ());
            },
        )
        .unwrap();
    }
    rt.wait_all().unwrap();
    assert!(
        peak.load(Ordering::SeqCst) >= 2,
        "independent tasks should overlap, peak = {}",
        peak.load(Ordering::SeqCst)
    );
}

#[test]
fn drop_joins_workers_cleanly() {
    let rt = rt(3);
    let d = rt.data::<i32>("d");
    rt.submit(
        TaskSpec::new("t").output(d.id()),
        Constraints::new(),
        |ctx| ctx.set_output(0, 1),
    )
    .unwrap();
    rt.wait_all().unwrap();
    drop(rt); // must not hang
}

#[test]
fn software_constraints_respected() {
    let rt = LocalRuntime::new(LocalConfig {
        workers: 2,
        software: vec!["blast".to_string()],
        ..LocalConfig::default()
    });
    let d = rt.data::<i32>("d");
    rt.submit(
        TaskSpec::new("uses-blast").output(d.id()),
        Constraints::new().software("blast"),
        |ctx| ctx.set_output(0, 7),
    )
    .unwrap();
    assert_eq!(*rt.get(&d).unwrap(), 7);
    let e = rt.data::<i32>("e");
    let err = rt
        .submit(
            TaskSpec::new("uses-samtools").output(e.id()),
            Constraints::new().software("samtools"),
            |ctx| ctx.set_output(0, 7),
        )
        .unwrap_err();
    assert!(matches!(err, RuntimeError::Unschedulable { .. }));
}

#[test]
fn out_of_order_execution_follows_dataflow_not_submission() {
    // Submit a slow independent task first and a fast chain after;
    // the chain result must not wait for the slow task.
    let rt = rt(2);
    let slow = rt.data::<()>("slow");
    let fast = rt.data::<i32>("fast");
    rt.submit(
        TaskSpec::new("slow").output(slow.id()),
        Constraints::new(),
        |ctx| {
            std::thread::sleep(std::time::Duration::from_millis(100));
            ctx.set_output(0, ());
        },
    )
    .unwrap();
    let t0 = std::time::Instant::now();
    rt.submit(
        TaskSpec::new("fast").output(fast.id()),
        Constraints::new(),
        |ctx| ctx.set_output(0, 42),
    )
    .unwrap();
    assert_eq!(*rt.get(&fast).unwrap(), 42);
    assert!(
        t0.elapsed() < std::time::Duration::from_millis(90),
        "fast task must not queue behind the slow one"
    );
    rt.wait_all().unwrap();
}

#[test]
fn dead_intermediate_values_are_evicted() {
    let rt = rt(2);
    let acc = rt.data::<u64>("acc");
    rt.set_initial(&acc, 0u64);
    for _ in 0..500 {
        rt.submit(
            TaskSpec::new("inc").inout(acc.id()),
            Constraints::new(),
            |ctx| {
                let v: &u64 = ctx.input(0);
                ctx.set_output(0, v + 1);
            },
        )
        .unwrap();
    }
    rt.wait_all().unwrap();
    assert_eq!(*rt.get(&acc).unwrap(), 500);
    assert!(
        rt.live_value_count() <= 2,
        "a 500-step inout chain must not retain intermediates, live = {}",
        rt.live_value_count()
    );
}

#[test]
fn superseded_inputs_survive_until_their_readers_run() {
    // A reader of version 1 is registered, then a writer bumps the
    // datum to version 2 before the reader runs: the version-1
    // value must stay live for the reader.
    let rt = rt(1);
    let gate = rt.data::<()>("gate");
    let d = rt.data::<u64>("d");
    let old_sum = rt.data::<u64>("old_sum");
    rt.submit(
        TaskSpec::new("slow-gate").output(gate.id()),
        Constraints::new(),
        |ctx| {
            std::thread::sleep(std::time::Duration::from_millis(30));
            ctx.set_output(0, ());
        },
    )
    .unwrap();
    rt.submit(
        TaskSpec::new("v1").output(d.id()),
        Constraints::new(),
        |ctx| ctx.set_output(0, 10u64),
    )
    .unwrap();
    // Reader of d@v1, gated so it runs late.
    rt.submit(
        TaskSpec::new("late-reader")
            .input(gate.id())
            .input(d.id())
            .output(old_sum.id()),
        Constraints::new(),
        |ctx| {
            let v: &u64 = ctx.input(1);
            ctx.set_output(0, *v + 1);
        },
    )
    .unwrap();
    // Writer supersedes d@v1 with d@v2.
    rt.submit(
        TaskSpec::new("v2").inout(d.id()),
        Constraints::new(),
        |ctx| {
            let v: &u64 = ctx.input(0);
            ctx.set_output(0, *v * 100);
        },
    )
    .unwrap();
    assert_eq!(*rt.get(&old_sum).unwrap(), 11, "late reader saw d@v1");
    assert_eq!(*rt.get(&d).unwrap(), 1000, "current version is d@v2");
    rt.wait_all().unwrap();
}

#[test]
fn async_body_with_sleep_produces_result() {
    let rt = rt(2);
    let out = rt.data::<u64>("out");
    rt.submit_async(
        TaskSpec::new("nap").output(out.id()),
        Constraints::new(),
        |mut ctx| async move {
            ctx.sleep(Duration::from_millis(3)).await;
            ctx.set_output(0, 99u64);
            ctx
        },
    )
    .unwrap();
    assert_eq!(*rt.get(&out).unwrap(), 99);
    rt.wait_all().unwrap();
    assert!(rt.inflight_high_water() >= 1);
}

#[test]
fn async_dependencies_mix_with_closures() {
    // closure -> async -> closure chain through versioned data.
    let rt = rt(2);
    let a = rt.data::<u64>("a");
    let b = rt.data::<u64>("b");
    let c = rt.data::<u64>("c");
    rt.submit(
        TaskSpec::new("seed").output(a.id()),
        Constraints::new(),
        |ctx| ctx.set_output(0, 5u64),
    )
    .unwrap();
    rt.submit_async(
        TaskSpec::new("triple").input(a.id()).output(b.id()),
        Constraints::new(),
        |mut ctx| async move {
            let x = *ctx.input::<u64>(0);
            ctx.sleep(Duration::from_millis(1)).await;
            ctx.set_output(0, x * 3);
            ctx
        },
    )
    .unwrap();
    rt.submit(
        TaskSpec::new("inc").input(b.id()).output(c.id()),
        Constraints::new(),
        |ctx| {
            let x: &u64 = ctx.input(0);
            ctx.set_output(0, x + 1);
        },
    )
    .unwrap();
    assert_eq!(*rt.get(&c).unwrap(), 16);
    rt.wait_all().unwrap();
}

#[test]
fn parked_tasks_vastly_exceed_worker_count() {
    // 200 async tasks all sleep until one common deadline on 2
    // workers: every one of them must be in flight (parked)
    // simultaneously — impossible if a parked task held a thread
    // or a core.
    const N: usize = 200;
    let rt = rt(2);
    let outs = rt.data_batch::<u64>("o", N);
    let deadline = Instant::now() + Duration::from_millis(120);
    for (i, o) in outs.iter().enumerate() {
        rt.submit_async(
            TaskSpec::new("deadline").output(o.id()),
            Constraints::new(),
            move |mut ctx| async move {
                ctx.sleep_until(deadline).await;
                ctx.set_output(0, i as u64);
                ctx
            },
        )
        .unwrap();
    }
    rt.wait_all().unwrap();
    assert!(
        rt.inflight_high_water() >= N,
        "all {N} tasks must park concurrently, high water = {}",
        rt.inflight_high_water()
    );
    assert_eq!(rt.parked_count(), 0, "nothing stays parked after the run");
    for (i, o) in outs.iter().enumerate() {
        assert_eq!(*rt.get(o).unwrap(), i as u64);
    }
}

#[test]
fn async_stream_pipeline_runs_on_one_worker() {
    // Producer and consumer share a capacity-1 channel on a
    // single-worker runtime: with blocking endpoints this deadlocks
    // (the producer's thread can never yield to the consumer);
    // async endpoints park instead, so one worker suffices.
    let rt = rt(1);
    let s = rt.stream::<u64>("s", 1);
    let total = rt.data::<u64>("total");
    rt.submit_async(
        TaskSpec::new("producer").stream_out(s.id()),
        Constraints::new(),
        |ctx| async move {
            let w = ctx.stream_writer::<u64>(0);
            for i in 0..64u64 {
                assert!(w.send_async(i).await);
            }
            ctx
        },
    )
    .unwrap();
    rt.submit_async(
        TaskSpec::new("consumer")
            .stream_in(s.id())
            .output(total.id()),
        Constraints::new(),
        |mut ctx| async move {
            let r = ctx.stream_reader::<u64>(0);
            let mut sum = 0u64;
            while let Some(v) = r.recv_async().await {
                sum += v;
            }
            ctx.set_output(0, sum);
            ctx
        },
    )
    .unwrap();
    assert_eq!(*rt.get(&total).unwrap(), (0..64).sum::<u64>());
    rt.wait_all().unwrap();
}

#[test]
fn async_panic_surfaces_as_error() {
    let rt = rt(2);
    let d = rt.data::<i32>("d");
    rt.submit_async(
        TaskSpec::new("boom").output(d.id()),
        Constraints::new(),
        |ctx| async move {
            ctx.sleep(Duration::from_millis(1)).await;
            panic!("async kaboom");
            #[allow(unreachable_code)]
            ctx
        },
    )
    .unwrap();
    let err = rt.wait_all().unwrap_err();
    match err {
        RuntimeError::TaskPanicked { message, .. } => {
            assert!(message.contains("async kaboom"));
        }
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn async_missing_output_is_a_failure() {
    let rt = rt(2);
    let d = rt.data::<i32>("d");
    rt.submit_async(
        TaskSpec::new("lazy").output(d.id()),
        Constraints::new(),
        |ctx| async move { ctx },
    )
    .unwrap();
    let err = rt.wait_all().unwrap_err();
    assert!(err.to_string().contains("did not set output"));
}

#[test]
fn drop_with_parked_tasks_does_not_leak_or_hang() {
    // Abandon a runtime while tasks are parked on a long timer: the
    // drop must break the future/shared Arc cycle and join cleanly.
    let rt = rt(2);
    let outs = rt.data_batch::<()>("o", 8);
    for o in &outs {
        rt.submit_async(
            TaskSpec::new("sleeper").output(o.id()),
            Constraints::new(),
            |mut ctx| async move {
                ctx.sleep(Duration::from_secs(3600)).await;
                ctx.set_output(0, ());
                ctx
            },
        )
        .unwrap();
    }
    // Give the tasks a moment to reach their park.
    let t0 = Instant::now();
    while rt.parked_count() < 8 && t0.elapsed() < Duration::from_secs(5) {
        thread::yield_now();
    }
    let weak = Arc::downgrade(&rt.shared);
    drop(rt); // must not hang
    assert_eq!(
        weak.upgrade().map(|_| ()),
        None,
        "shared state must be freed (no Arc cycle through parked futures)"
    );
}

/// A payload that counts its own drops.
struct Counted(u64, Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.1.fetch_add(1, Ordering::SeqCst);
    }
}

/// A task that holds its worker until the returned sender fires,
/// plus the datum later tasks read to queue up behind it.
fn gate(rt: &LocalRuntime) -> (DataHandle<()>, std::sync::mpsc::Sender<()>) {
    let (open, wait) = std::sync::mpsc::channel::<()>();
    let out = rt.data::<()>("gate");
    rt.submit(
        TaskSpec::new("gate").output(out.id()),
        Constraints::new(),
        move |ctx| {
            wait.recv().expect("gate opened");
            ctx.set_output(0, ());
        },
    )
    .unwrap();
    (out, open)
}

/// Runs `f` on a thread of its own and fails the test if it takes
/// longer than `limit`: a hang shows as a failure, not a stuck run.
pub(super) fn within<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done, result) = std::sync::mpsc::channel();
    let watched = thread::spawn(move || done.send(f()));
    let out = result
        .recv_timeout(limit)
        .expect("watchdog deadline passed");
    watched
        .join()
        .expect("watched thread")
        .expect("result received");
    out
}

/// A gate task a worker is running: it holds that worker until
/// `open` fires, and sets `done` as it lets go.
pub(super) struct Held {
    pub(super) out: DataHandle<()>,
    pub(super) open: std::sync::mpsc::Sender<()>,
    pub(super) done: Arc<AtomicBool>,
}

/// Submits a gate with `constraints` and returns once a worker runs
/// it. No client may be waiting meanwhile, or it could take the gate.
pub(super) fn hold_a_worker(rt: &LocalRuntime, constraints: Constraints) -> Held {
    let (open, wait) = std::sync::mpsc::channel::<()>();
    let (started, running) = std::sync::mpsc::channel::<()>();
    let done = Arc::new(AtomicBool::new(false));
    let out = rt.data::<()>("gate");
    let leaving = Arc::clone(&done);
    rt.submit(
        TaskSpec::new("gate").output(out.id()),
        constraints,
        move |ctx| {
            started.send(()).expect("test waits for the start");
            wait.recv().expect("gate opened");
            leaving.store(true, Ordering::SeqCst);
            ctx.set_output(0, ());
        },
    )
    .unwrap();
    running.recv().expect("a worker runs the gate");
    Held { out, open, done }
}

#[test]
fn set_initial_reaches_readers_submitted_before_it() {
    // One reader registers against the untouched version 0, a
    // writer then supersedes it, and only then is the initial value
    // provided: the reader still sees it, `get` sees the writer's.
    let rt = rt(2);
    let (gate, open) = gate(&rt);
    let d = rt.data::<u64>("d");
    let seen = rt.data::<u64>("seen");
    rt.submit(
        TaskSpec::new("early-reader")
            .input(gate.id())
            .input(d.id())
            .output(seen.id()),
        Constraints::new(),
        |ctx| {
            let v = *ctx.input::<u64>(1);
            ctx.set_output(0, v);
        },
    )
    .unwrap();
    rt.submit(
        TaskSpec::new("writer").input(gate.id()).output(d.id()),
        Constraints::new(),
        |ctx| ctx.set_output(0, 99u64),
    )
    .unwrap();
    rt.set_initial(&d, 7u64);
    open.send(()).unwrap();
    assert_eq!(*rt.get(&seen).unwrap(), 7);
    assert_eq!(*rt.get(&d).unwrap(), 99);
    rt.wait_all().unwrap();
    // gate, seen and d@v1; d@v0 went with its only reader.
    assert_eq!(rt.live_value_count(), 3);
}

#[test]
fn set_initial_twice_keeps_the_last_value() {
    let drops = Arc::new(AtomicUsize::new(0));
    let rt = rt(1);
    let d = rt.data::<Counted>("d");
    let out = rt.data::<u64>("out");
    rt.set_initial(&d, Counted(1, Arc::clone(&drops)));
    rt.set_initial(&d, Counted(2, Arc::clone(&drops)));
    assert_eq!(drops.load(Ordering::SeqCst), 1, "first value replaced");
    assert_eq!(rt.live_value_count(), 1, "one cell, counted once");
    rt.submit(
        TaskSpec::new("read").input(d.id()).output(out.id()),
        Constraints::new(),
        |ctx| {
            let v = ctx.input::<Counted>(0).0;
            ctx.set_output(0, v);
        },
    )
    .unwrap();
    assert_eq!(*rt.get(&out).unwrap(), 2);
    drop(rt);
    assert_eq!(drops.load(Ordering::SeqCst), 2);
}

#[test]
fn version_superseded_unread_before_production_dies_at_commit() {
    let drops = Arc::new(AtomicUsize::new(0));
    let rt = rt(2);
    let (gate, open) = gate(&rt);
    let d = rt.data::<Counted>("d");
    for version in 1..=2u64 {
        let drops = Arc::clone(&drops);
        rt.submit(
            TaskSpec::new("write").input(gate.id()).output(d.id()),
            Constraints::new(),
            move |ctx| ctx.set_output(0, Counted(version, drops)),
        )
        .unwrap();
    }
    open.send(()).unwrap();
    rt.wait_all().unwrap();
    assert_eq!(drops.load(Ordering::SeqCst), 1, "d@v1 was dead on arrival");
    assert_eq!(rt.live_value_count(), 2, "gate and d@v2");
    assert_eq!(rt.get(&d).unwrap().0, 2);
}

#[test]
fn an_empty_cell_is_not_a_provided_value() {
    // What the strict read-without-producer lint asks: a reader
    // that came first leaves an empty cell, which must not pass
    // for an initial value.
    let rt = rt(1);
    let d = rt.data::<u64>("d");
    let out = rt.data::<u64>("out");
    let cell_is_set = || {
        let g = rt.shared.graph.lock();
        g.cells
            .current(d.id())
            .map(|current| current.cell().is_set())
    };
    assert_eq!(cell_is_set(), None);
    rt.submit(
        TaskSpec::new("reader").input(d.id()).output(out.id()),
        Constraints::new(),
        |ctx| ctx.set_output(0, 0u64),
    )
    .unwrap();
    rt.wait_all().unwrap();
    assert_eq!(cell_is_set(), Some(false));
    rt.set_initial(&d, 1u64);
    assert_eq!(cell_is_set(), Some(true));
}

#[test]
fn finished_tasks_let_go_of_their_records() {
    // After a chain ran the graph holds no record, and the newest
    // one — kept by the column — references none before it: nothing
    // is retained per step and nothing can drop recursively.
    let rt = rt(2);
    let acc = rt.data::<u64>("acc");
    rt.set_initial(&acc, 0u64);
    for _ in 0..100 {
        rt.submit(
            TaskSpec::new("inc").inout(acc.id()),
            Constraints::new(),
            |ctx| {
                let v = *ctx.input::<u64>(0);
                ctx.set_output(0, v + 1);
            },
        )
        .unwrap();
    }
    rt.wait_all().unwrap();
    let g = rt.shared.graph.lock();
    assert!(g.metas.iter().all(Option::is_none));
    let Some(CellRef::Output { producer, .. }) = g.cells.current(acc.id()) else {
        panic!("the chain's last task produced the current version");
    };
    assert!(
        matches!(producer.claim.lock().inputs, Slots::None),
        "the newest record holds no predecessor"
    );
}

/// A handle of another element type to the same datum, as a caller who
/// mixed up two handles holds.
fn retyped<T, U>(handle: &DataHandle<T>) -> DataHandle<U> {
    DataHandle {
        id: handle.id,
        _marker: PhantomData,
    }
}

#[test]
fn a_value_got_as_another_type_keeps_its_error() -> Result<(), RuntimeError> {
    let rt = rt(1);
    let [made, initial] = ["made", "initial"].map(|d| rt.data::<u64>(d));
    rt.set_initial(&initial, 7);
    rt.submit(
        TaskSpec::new("make").output(made.id()),
        Constraints::new(),
        |ctx| ctx.set_output(0, 7u64),
    )?;
    rt.wait_all()?;
    let got = rt.get(&retyped::<_, f64>(&made));
    assert!(
        matches!(got, Err(RuntimeError::BadTaskIo { .. })),
        "{got:?}"
    );
    let got = rt.get(&retyped::<_, f64>(&initial));
    assert!(
        matches!(got, Err(RuntimeError::BadDataAccess { .. })),
        "{got:?}"
    );
    assert_eq!((*rt.get(&made)?, *rt.get(&initial)?), (7, 7));
    Ok(())
}

#[test]
fn an_input_read_as_another_type_fails_its_task() -> Result<(), RuntimeError> {
    for by_arc in [false, true] {
        let rt = rt(1);
        let [made, seen] = ["made", "seen"].map(|d| rt.data::<u64>(d));
        rt.submit(
            TaskSpec::new("make").output(made.id()),
            Constraints::new(),
            |ctx| ctx.set_output(0, 7u64),
        )?;
        rt.submit(
            TaskSpec::new("misread").input(made.id()).output(seen.id()),
            Constraints::new(),
            move |ctx| {
                let v = match by_arc {
                    false => *ctx.input::<i64>(0),
                    true => *ctx.input_arc::<i64>(0),
                };
                ctx.set_output(0, v as u64);
            },
        )?;
        match rt.wait_all() {
            Err(RuntimeError::TaskPanicked { message, .. }) => {
                assert!(message.contains("input 0 has unexpected type"), "{message}");
            }
            other => panic!("by_arc {by_arc}: {other:?}"),
        }
    }
    Ok(())
}
