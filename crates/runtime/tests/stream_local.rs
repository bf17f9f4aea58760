//! Behavioral tests of `Direction::Stream` edges on the local
//! executor: first-element release, backpressure without deadlock,
//! end-of-stream via the writer-close protocol, stream telemetry, and
//! the core equivalence property — a streamed linear pipeline delivers
//! the *element-for-element identical* sink sequence as its batch
//! (`Out`/`In` whole-vector) equivalent, at any worker count.

use continuum_dag::TaskSpec;
use continuum_platform::Constraints;
use continuum_runtime::{LocalConfig, LocalRuntime, TraceBuffer};
use continuum_telemetry::{CounterKey, Event, TaskPhase};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Splitmix-style mixer so sequences depend on every bit.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One per-element transform of a pipeline stage.
#[derive(Clone, Copy, Debug)]
enum StageOp {
    Mix,
    Add(u64),
    Mul(u64),
}

fn apply(op: StageOp, v: u64) -> u64 {
    match op {
        StageOp::Mix => mix(v),
        StageOp::Add(k) => v.wrapping_add(k),
        StageOp::Mul(k) => v.wrapping_mul(k | 1),
    }
}

/// Runs `src → stages… → sink` as a *streamed* pipeline: every edge is
/// a stream channel of `capacity`, the sink collects into a vector.
fn run_streamed(workers: usize, capacity: usize, stages: &[StageOp], elems: &[u64]) -> Vec<u64> {
    let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
    let mut prev = rt.stream::<u64>("s0", capacity);
    let input = elems.to_vec();
    rt.submit(
        TaskSpec::new("src").stream_out(prev.id()),
        Constraints::new(),
        move |ctx| {
            let tx = ctx.stream_writer::<u64>(0);
            for &v in &input {
                if !tx.send(v) {
                    break;
                }
            }
        },
    )
    .unwrap();
    for (i, &op) in stages.iter().enumerate() {
        let next = rt.stream::<u64>(format!("s{}", i + 1), capacity);
        rt.submit(
            TaskSpec::new("stage")
                .stream_in(prev.id())
                .stream_out(next.id()),
            Constraints::new(),
            move |ctx| {
                let rx = ctx.stream_reader::<u64>(0);
                let tx = ctx.stream_writer::<u64>(0);
                while let Some(v) = rx.recv() {
                    if !tx.send(apply(op, v)) {
                        break;
                    }
                }
            },
        )
        .unwrap();
        prev = next;
    }
    let out = rt.data::<Vec<u64>>("out");
    rt.submit(
        TaskSpec::new("sink").stream_in(prev.id()).output(out.id()),
        Constraints::new(),
        move |ctx| {
            let rx = ctx.stream_reader::<u64>(0);
            let mut acc = Vec::new();
            while let Some(v) = rx.recv() {
                acc.push(v);
            }
            ctx.set_output(0, acc);
        },
    )
    .unwrap();
    let result = rt.get(&out).unwrap().as_ref().clone();
    rt.wait_all().unwrap();
    result
}

/// The batch equivalent: the same stages pass whole vectors through
/// versioned `Out`/`In` data, each stage starting only after its
/// predecessor *completed*.
fn run_batch(workers: usize, stages: &[StageOp], elems: &[u64]) -> Vec<u64> {
    let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
    let mut prev = rt.data::<Vec<u64>>("d0");
    let input = elems.to_vec();
    rt.submit(
        TaskSpec::new("src").output(prev.id()),
        Constraints::new(),
        move |ctx| ctx.set_output(0, input),
    )
    .unwrap();
    for (i, &op) in stages.iter().enumerate() {
        let next = rt.data::<Vec<u64>>(format!("d{}", i + 1));
        rt.submit(
            TaskSpec::new("stage").input(prev.id()).output(next.id()),
            Constraints::new(),
            move |ctx| {
                let v: &Vec<u64> = ctx.input(0);
                ctx.set_output(0, v.iter().map(|&x| apply(op, x)).collect::<Vec<u64>>());
            },
        )
        .unwrap();
        prev = next;
    }
    let result = rt.get(&prev).unwrap().as_ref().clone();
    rt.wait_all().unwrap();
    result
}

/// The continuous-inference shape end to end: sensor → featurize →
/// sink over bounded channels, all elements delivered in order.
#[test]
fn three_stage_stream_pipeline_delivers_in_order() {
    let got = run_streamed(
        4,
        4,
        &[StageOp::Mix, StageOp::Add(7)],
        &(0..200).collect::<Vec<u64>>(),
    );
    let want: Vec<u64> = (0..200).map(|x| mix(x).wrapping_add(7)).collect();
    assert_eq!(got, want);
}

/// First-element release: the consumer must *start executing* while
/// the producer is still running — the defining difference from a
/// completion edge. The producer holds its body open until it observes
/// (via a side flag) that the consumer began consuming.
#[test]
fn consumer_starts_at_first_element_not_at_completion() {
    let rt = LocalRuntime::new(LocalConfig::with_workers(2));
    let s = rt.stream::<u64>("s", 4);
    let consumer_started = Arc::new(AtomicBool::new(false));
    let saw = rt.data::<bool>("saw");
    let flag = Arc::clone(&consumer_started);
    rt.submit(
        TaskSpec::new("producer")
            .stream_out(s.id())
            .output(saw.id()),
        Constraints::new(),
        move |ctx| {
            let tx = ctx.stream_writer::<u64>(0);
            tx.send(1);
            // Under completion-release semantics the consumer could
            // never run before this body returns, and this wait would
            // time out.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            ctx.set_output(0, flag.load(Ordering::SeqCst));
        },
    )
    .unwrap();
    let flag = Arc::clone(&consumer_started);
    rt.submit(
        TaskSpec::new("consumer").stream_in(s.id()),
        Constraints::new(),
        move |ctx| {
            let rx = ctx.stream_reader::<u64>(0);
            while let Some(_v) = rx.recv() {
                flag.store(true, Ordering::SeqCst);
            }
        },
    )
    .unwrap();
    assert!(
        *rt.get(&saw).unwrap(),
        "consumer must overlap the producer's execution"
    );
    rt.wait_all().unwrap();
}

/// Deadlock regression: a capacity-1 channel fills while the consumer
/// is still busy, parking the producer's worker in `send`. The drain
/// must unblock it and the run must finish — with the blocked-send
/// time showing up in the stream counters.
#[test]
fn full_bounded_channel_with_parked_producer_drains() {
    let (buffer, telemetry) = TraceBuffer::collector();
    let want: Vec<u64> = (0..8).map(mix).collect();
    let got;
    {
        let rt = LocalRuntime::new(LocalConfig {
            workers: 2,
            telemetry,
            ..LocalConfig::default()
        });
        let s = rt.stream::<u64>("tight", 1);
        let out = rt.data::<Vec<u64>>("out");
        rt.submit(
            TaskSpec::new("burst").stream_out(s.id()),
            Constraints::new(),
            |ctx| {
                let tx = ctx.stream_writer::<u64>(0);
                for i in 0..8u64 {
                    tx.send(mix(i));
                }
            },
        )
        .unwrap();
        rt.submit(
            TaskSpec::new("slow_sink")
                .stream_in(s.id())
                .output(out.id()),
            Constraints::new(),
            |ctx| {
                let rx = ctx.stream_reader::<u64>(0);
                // Let the producer slam into the capacity-1 bound.
                std::thread::sleep(Duration::from_millis(50));
                let mut acc = Vec::new();
                while let Some(v) = rx.recv() {
                    acc.push(v);
                }
                ctx.set_output(0, acc);
            },
        )
        .unwrap();
        got = rt.get(&out).unwrap().as_ref().clone();
        rt.wait_all().unwrap();
    } // drop publishes the end-of-run stream counters
    assert_eq!(got, want, "backpressure must not drop or reorder");
    let events = buffer.events();
    let blocked_send = events
        .iter()
        .find_map(|e| match e {
            Event::Counter {
                key: CounterKey::StreamBlockedSendMicros,
                value,
                ..
            } => Some(*value),
            _ => None,
        })
        .expect("stream counters published at end of run");
    assert!(
        blocked_send > 0.0,
        "the producer measurably blocked on the full channel"
    );
    let elements = events.iter().find_map(|e| match e {
        Event::Counter {
            key: CounterKey::StreamElements,
            value,
            ..
        } => Some(*value),
        _ => None,
    });
    assert_eq!(elements, Some(8.0));
    assert!(
        events.iter().any(|e| matches!(
            e,
            Event::Span {
                phase: TaskPhase::StreamWait,
                ..
            }
        )),
        "blocked sends emit StreamWait spans"
    );
}

/// A producer that panics mid-stream must not hang the run: the
/// failure force-closes every channel, the consumer winds down on
/// end-of-stream, and `wait_all` reports the panic.
#[test]
fn producer_panic_mid_stream_fails_the_run_without_hanging() {
    let rt = LocalRuntime::new(LocalConfig::with_workers(2));
    let s = rt.stream::<u64>("s", 2);
    rt.submit(
        TaskSpec::new("bad_producer").stream_out(s.id()),
        Constraints::new(),
        |ctx| {
            let tx = ctx.stream_writer::<u64>(0);
            tx.send(1);
            tx.send(2);
            panic!("sensor disconnected");
        },
    )
    .unwrap();
    rt.submit(
        TaskSpec::new("sink").stream_in(s.id()),
        Constraints::new(),
        |ctx| {
            let rx = ctx.stream_reader::<u64>(0);
            while rx.recv().is_some() {}
        },
    )
    .unwrap();
    let err = rt.wait_all().expect_err("the panic must surface");
    assert!(err.to_string().contains("sensor disconnected"), "{err}");
}

/// Element that counts how many were made and how many were dropped.
struct Tracked {
    drops: Arc<AtomicUsize>,
}

impl Tracked {
    fn new(made: &AtomicUsize, drops: &Arc<AtomicUsize>) -> Self {
        made.fetch_add(1, Ordering::SeqCst);
        Tracked {
            drops: Arc::clone(drops),
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// Elements move through the channel by value, so whatever is still
/// queued when the runtime goes away is owned by the channel alone and
/// must be dropped with it — once.
#[test]
fn undelivered_elements_are_dropped_with_the_runtime() {
    let made = Arc::new(AtomicUsize::new(0));
    let drops = Arc::new(AtomicUsize::new(0));
    let rt = LocalRuntime::new(LocalConfig::with_workers(2));
    let s = rt.stream::<Tracked>("s", 4);
    let (m, d) = (Arc::clone(&made), Arc::clone(&drops));
    rt.submit(
        TaskSpec::new("producer").stream_out(s.id()),
        Constraints::new(),
        move |ctx| {
            let tx = ctx.stream_writer::<Tracked>(0);
            for _ in 0..3 {
                assert!(tx.send(Tracked::new(&m, &d)));
            }
        },
    )
    .unwrap();
    rt.submit(
        TaskSpec::new("takes_one").stream_in(s.id()),
        Constraints::new(),
        |ctx| {
            let rx = ctx.stream_reader::<Tracked>(0);
            drop(rx.recv().expect("the first element"));
        },
    )
    .unwrap();
    rt.wait_all().unwrap();
    assert_eq!(made.load(Ordering::SeqCst), 3);
    assert_eq!(drops.load(Ordering::SeqCst), 1, "two are still queued");
    drop(rt);
    assert_eq!(drops.load(Ordering::SeqCst), 3);
}

/// A failed run force-closes its channels: queued elements, the one a
/// refused `send` was carrying and the one the consumer held all drop,
/// none leaks and none drops twice.
#[test]
fn a_failed_run_drops_every_element_exactly_once() {
    let made = Arc::new(AtomicUsize::new(0));
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let rt = LocalRuntime::new(LocalConfig::with_workers(2));
        let s = rt.stream::<Tracked>("s", 2);
        let (m, d) = (Arc::clone(&made), Arc::clone(&drops));
        rt.submit(
            TaskSpec::new("producer").stream_out(s.id()),
            Constraints::new(),
            move |ctx| {
                let tx = ctx.stream_writer::<Tracked>(0);
                // Until the failure closes the channel under it.
                while tx.send(Tracked::new(&m, &d)) {}
            },
        )
        .unwrap();
        rt.submit(
            TaskSpec::new("bad_sink").stream_in(s.id()),
            Constraints::new(),
            |ctx| {
                let rx = ctx.stream_reader::<Tracked>(0);
                let _held = rx.recv().expect("the first element");
                panic!("sink gave up");
            },
        )
        .unwrap();
        let err = rt.wait_all().expect_err("the panic must surface");
        assert!(err.to_string().contains("sink gave up"), "{err}");
    }
    assert!(made.load(Ordering::SeqCst) >= 2);
    assert_eq!(drops.load(Ordering::SeqCst), made.load(Ordering::SeqCst));
}

/// An element only has to be `Send`: it is handed to one consumer, not
/// shared. `Cell<u64>` is `Send + !Sync` and streams through blocking
/// and async endpoints alike.
#[test]
fn send_but_not_sync_elements_stream_through_both_endpoint_kinds() {
    use std::cell::Cell;
    // Both blocking endpoints can hold a worker at once; the async
    // stage needs a third to run on.
    let rt = LocalRuntime::new(LocalConfig::with_workers(3));
    let raw = rt.stream::<Cell<u64>>("raw", 2);
    let bumped = rt.stream::<Cell<u64>>("bumped", 2);
    let total = rt.data::<u64>("total");
    rt.submit(
        TaskSpec::new("source").stream_out(raw.id()),
        Constraints::new(),
        |ctx| {
            let tx = ctx.stream_writer::<Cell<u64>>(0);
            for i in 0..100 {
                assert!(tx.send(Cell::new(i)));
            }
        },
    )
    .unwrap();
    rt.submit_async(
        TaskSpec::new("bump")
            .stream_in(raw.id())
            .stream_out(bumped.id()),
        Constraints::new(),
        |ctx| async move {
            let rx = ctx.stream_reader::<Cell<u64>>(0);
            let tx = ctx.stream_writer::<Cell<u64>>(0);
            while let Some(cell) = rx.recv_async().await {
                cell.set(cell.get() + 1);
                assert!(tx.send_async(cell).await);
            }
            ctx
        },
    )
    .unwrap();
    rt.submit(
        TaskSpec::new("sink")
            .stream_in(bumped.id())
            .output(total.id()),
        Constraints::new(),
        |ctx| {
            let rx = ctx.stream_reader::<Cell<u64>>(0);
            ctx.set_output(0, rx.iter().map(Cell::into_inner).sum::<u64>());
        },
    )
    .unwrap();
    assert_eq!(*rt.get(&total).unwrap(), (1..=100).sum::<u64>());
    rt.wait_all().unwrap();
}

/// The element type is fixed by `rt.stream::<T>`; an endpoint asking
/// for another one fails its task, and the message says which stream.
#[test]
fn an_endpoint_of_the_wrong_element_type_fails_its_task_by_name() {
    let rt = LocalRuntime::new(LocalConfig::with_workers(2));
    let s = rt.stream::<u64>("readings", 4);
    rt.submit(
        TaskSpec::new("producer").stream_out(s.id()),
        Constraints::new(),
        |ctx| {
            let tx = ctx.stream_writer::<u64>(0);
            tx.send(7);
        },
    )
    .unwrap();
    rt.submit(
        TaskSpec::new("confused").stream_in(s.id()),
        Constraints::new(),
        |ctx| {
            let rx = ctx.stream_reader::<u32>(0);
            while rx.recv().is_some() {}
        },
    )
    .unwrap();
    let err = rt
        .wait_all()
        .expect_err("the mismatch must surface")
        .to_string();
    assert!(
        err.contains("stream `readings` carries `u64` elements, not `u32`"),
        "{err}"
    );
}

/// A task's waker is its own dispatch metadata, and clones of it sit
/// in channel waiter queues and timer buckets while the task is
/// parked. Neither a finished run nor a runtime dropped with tasks
/// still parked may leave a reference cycle behind: whatever the
/// bodies captured is released.
#[test]
fn parked_and_finished_tasks_release_what_they_captured() {
    let sentinel = Arc::new(());
    let rt = LocalRuntime::new(LocalConfig::with_workers(1));
    // A finished pipeline first.
    let done = rt.stream::<u64>("done", 1);
    let held = Arc::clone(&sentinel);
    rt.submit_async(
        TaskSpec::new("source").stream_out(done.id()),
        Constraints::new(),
        move |ctx| async move {
            let _held = held;
            let tx = ctx.stream_writer::<u64>(0);
            for i in 0..16 {
                assert!(tx.send_async(i).await);
            }
            ctx
        },
    )
    .unwrap();
    let held = Arc::clone(&sentinel);
    rt.submit_async(
        TaskSpec::new("sink").stream_in(done.id()),
        Constraints::new(),
        move |ctx| async move {
            let _held = held;
            let rx = ctx.stream_reader::<u64>(0);
            while rx.recv_async().await.is_some() {}
            ctx
        },
    )
    .unwrap();
    rt.wait_all().unwrap();
    assert_eq!(Arc::strong_count(&sentinel), 1, "finished bodies are gone");

    // Then two tasks that will still be parked at the drop: one on a
    // timer, one on the stream the sleeper never feeds.
    let never = rt.stream::<u64>("never", 1);
    let held = Arc::clone(&sentinel);
    rt.submit_async(
        TaskSpec::new("sleeper").stream_out(never.id()),
        Constraints::new(),
        move |ctx| async move {
            let _held = held;
            ctx.sleep(Duration::from_secs(3600)).await;
            ctx
        },
    )
    .unwrap();
    let held = Arc::clone(&sentinel);
    rt.submit_async(
        TaskSpec::new("starved").stream_in(never.id()),
        Constraints::new(),
        move |ctx| async move {
            let _held = held;
            let rx = ctx.stream_reader::<u64>(0);
            while rx.recv_async().await.is_some() {}
            ctx
        },
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt.parked_count() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(rt.parked_count() >= 1, "the sleeper parks on its timer");
    drop(rt);
    assert_eq!(Arc::strong_count(&sentinel), 1, "abandoned bodies are gone");
}

/// An empty stream (producer finishes without sending) still releases
/// and terminates its consumer via completion + writer close.
#[test]
fn empty_stream_terminates_consumer() {
    let got = run_streamed(2, 4, &[StageOp::Mix], &[]);
    assert!(got.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The equivalence property: for random linear pipelines, the
    /// streamed sink sequence is element-for-element identical to the
    /// batch (whole-vector, completion-edge) pipeline, at 1/2/4/8
    /// workers. Channel capacity covers the element count so a single
    /// worker can never wedge on backpressure (a blocked stream
    /// endpoint occupies its worker — see the executor docs).
    #[test]
    fn streamed_pipeline_matches_batch(
        seed in 0u64..1_000,
        depth in 1usize..4,
        len in 0usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stages: Vec<StageOp> = (0..depth)
            .map(|_| match rng.gen_range(0..3u32) {
                0 => StageOp::Mix,
                1 => StageOp::Add(rng.gen_range(1..u64::MAX)),
                _ => StageOp::Mul(rng.gen_range(1..u64::MAX)),
            })
            .collect();
        let elems: Vec<u64> = (0..len).map(|_| rng.gen_range(0..u64::MAX)).collect();
        let want = run_batch(1, &stages, &elems);
        for workers in [1usize, 2, 4, 8] {
            let got = run_streamed(workers, len.max(1), &stages, &elems);
            prop_assert_eq!(
                &got, &want,
                "streamed sink diverged from batch at {} workers", workers
            );
        }
    }
}
