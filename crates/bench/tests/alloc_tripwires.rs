//! Allocation tripwires: how many times the hot paths ask the
//! allocator for memory, per task or per element, and how many bytes
//! the trace export holds beside its output. The counts depend on
//! neither the opt level nor the host's speed, so they gate where the
//! timings of these same runs could not.
//!
//! This is the one binary that registers the counting allocator, and
//! its counter is process-wide: the tripwires run one after another
//! inside a single test.

mod workloads;

use continuum_bench::alloc::{allocations, live_bytes, peak_bytes, reset_peak, CountingAllocator};
use continuum_dag::{AccessProcessor, TaskSpec, SEGMENT_SLOTS};
use continuum_dislib::{DistMatrix, KMeans};
use continuum_platform::presets::hybrid_hpc_cloud;
use continuum_platform::Constraints;
use continuum_runtime::{ListScheduler, LocalConfig, LocalRuntime, SimOptions, SimRuntime};
use continuum_sim::FaultPlan;
use continuum_telemetry::{chrome_trace, Event, TraceBuffer};
use continuum_workflows::patterns::stencil;
use continuum_workflows::{parse_wdl, to_wdl};
use std::sync::Mutex;
use workloads::{local, sim, stream};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Held by each test, so `--include-ignored` cannot interleave them.
static COUNTER: Mutex<()> = Mutex::new(());

/// What `run` returned and the allocator calls made, on any thread,
/// while it ran.
fn count<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = run();
    (out, allocations() - before)
}

/// Heap allocations per task the wide case may make: three (the body's
/// box, the task record, the output's `Arc`) plus slack for queue and
/// scratch growth amortized over 1 500 tasks.
const MAX_WIDE_ALLOCS_PER_TASK: f64 = 3.5;

/// Heap allocations per submitted K-means task: the task's own handful
/// (name, record, body, accumulator, output) plus the driver's per-step
/// panel and centroids. Copying the candidate rows one `Vec` each to
/// pick the initial centroids (750 here) would be 21 per task.
const MAX_KMEANS_ALLOCS_PER_TASK: f64 = 16.0;

/// Heap allocations per task of the textual front door, WDL text to
/// recorded trace: the parser's parameter list and the access
/// processor's three edge lists (a stencil task has three inputs and
/// three readers, past what the lists hold inline), plus the growth of
/// tables, arenas and the event buffer. A name or group `String` per
/// task, or a name copied into each of a task's half-dozen events,
/// lands well above it.
const MAX_FRONT_DOOR_ALLOCS_PER_TASK: f64 = 7.0;

/// Heap bytes per event `chrome_trace` may hold at its peak beyond the
/// text it returns: the export order as a four-byte index per event,
/// the track set, the name table. The sort keys are gone before the
/// text is allocated; kept while the rows are written (32 bytes each
/// and more) they land well above it.
const MAX_EXPORT_BYTES_PER_EVENT: f64 = 8.0;

/// Heap allocations per 16-input merge `AccessProcessor::register`
/// makes, on average: its consumed-value and predecessor lists, sized
/// once, plus the graph's and catalog's segment growth amortized over
/// the run. Growing each list from its inline slot costs six.
const MAX_FAN_IN_ALLOCS_PER_MERGE: f64 = 2.1;

/// … and of the lint step alone: the verifier's tables are a few dozen
/// allocations whatever the task count. Cloning the graph to verify it
/// costs four per task.
const MAX_LINT_ALLOCS_PER_TASK: f64 = 0.2;

#[test]
fn hot_paths_do_not_allocate_per_unit() {
    let _serial = COUNTER.lock().unwrap();

    let [wide, ..] = local::cases();
    for workers in [1, 4] {
        let (_, allocations) = count(|| local::run(&wide, workers));
        let per_task = allocations as f64 / wide.tasks as f64;
        assert!(
            per_task <= MAX_WIDE_ALLOCS_PER_TASK,
            "wide at {workers} workers allocates {per_task:.2} times per task, \
             limit {MAX_WIDE_ALLOCS_PER_TASK}"
        );
    }

    for case in stream::cases() {
        let empty = stream::StreamCase {
            elements: 0,
            ..case.clone()
        };
        let (_, setup) = count(|| stream::run_streamed(&empty));
        let (_, moving) = count(|| stream::run_streamed(&case));
        let violation = stream::allocation_violation(case.elements, moving, setup);
        assert_eq!(violation, None, "streamed `{}`", case.name);
    }

    let campaign = sim::campaign(sim::CHUNKS_1E4);
    let (_, allocations) = count(|| sim::run_lazy(&campaign));
    let violation = sim::allocation_violation(campaign.task_count(), allocations);
    assert_eq!(violation, None, "lazy GWAS");

    // The textual front door: WDL text → parse → lint admission →
    // planned, traced simulated run. A 30 × 30 stencil: three inputs
    // per task, one task type and one group label per row.
    let text = to_wdl(&stencil(30, 30, 10.0, 1_000_000));
    let platform = hybrid_hpc_cloud(16, 4, 8);
    let ((tasks, lint, buffer), total) = count(|| {
        let workload = parse_wdl(&text).expect("generated WDL parses");
        let (report, lint) = count(|| workload.lint_bundle(&platform).verify());
        assert!(!continuum_analyze::has_errors(&report), "{report:?}");
        let (buffer, telemetry) = TraceBuffer::collector();
        let options = SimOptions {
            telemetry,
            ..SimOptions::default()
        };
        let mut plan = ListScheduler::plan(&workload, |t| workload.profile(t).duration_s());
        let run = SimRuntime::new(platform.clone(), options)
            .run(&workload, &mut plan, &FaultPlan::new())
            .expect("stencil completes");
        assert!(buffer.len() > 5 * run.tasks_completed, "the run was traced");
        (run.tasks_completed, lint, buffer)
    });
    assert_eq!(tasks, 900);
    let (per_task, lint_per_task) = (total as f64 / tasks as f64, lint as f64 / tasks as f64);
    assert!(
        per_task <= MAX_FRONT_DOOR_ALLOCS_PER_TASK,
        "WDL text to trace allocates {per_task:.2} times per task, \
         limit {MAX_FRONT_DOOR_ALLOCS_PER_TASK}"
    );
    assert!(
        lint_per_task <= MAX_LINT_ALLOCS_PER_TASK,
        "lint allocates {lint_per_task:.2} times per task, limit {MAX_LINT_ALLOCS_PER_TASK}"
    );

    // The trace back end of the same run: the events are handed over
    // without the capacity the recording grew into, and the export
    // keeps its order and track set beside the text it returns, not a
    // sort key per event.
    let events = buffer.take();
    assert_eq!(
        events.len(),
        events.capacity(),
        "take hands the events over at their length"
    );
    assert_eq!(
        events.capacity() * std::mem::size_of::<Event>(),
        64 * events.len(),
        "take hands over 64 bytes per event"
    );
    reset_peak();
    let before = live_bytes();
    let trace = chrome_trace(&events);
    let kept = peak_bytes() - before - trace.capacity() as u64;
    let per_event = kept as f64 / events.len() as f64;
    assert!(
        per_event <= MAX_EXPORT_BYTES_PER_EVENT,
        "the Chrome export keeps {per_event:.1} bytes per event beside its output, \
         limit {MAX_EXPORT_BYTES_PER_EVENT}"
    );

    // Fan-in: sixteen leaves, each writing a datum, then one merge
    // reading them all; only the merge's registration is counted.
    const FAN_IN: usize = 16;
    const MERGES: usize = 200;
    let mut ap = AccessProcessor::new();
    let mut registering = 0;
    for round in 0..MERGES {
        let parts: Vec<_> = (0..FAN_IN)
            .map(|i| ap.new_data_fmt(format_args!("r{round}_{i}")))
            .collect();
        for part in &parts {
            ap.register(TaskSpec::new("leaf").output(*part))
                .expect("leaf registers");
        }
        let merged = ap.new_data_fmt(format_args!("m{round}"));
        let spec = TaskSpec::new("merge")
            .inputs(parts.iter().copied())
            .output(merged);
        let (_, allocations) = count(|| ap.register(spec).expect("merge registers"));
        registering += allocations;
    }
    let per_merge = registering as f64 / MERGES as f64;
    assert!(
        per_merge <= MAX_FAN_IN_ALLOCS_PER_MERGE,
        "registering a {FAN_IN}-input merge allocates {per_merge:.2} times, \
         limit {MAX_FAN_IN_ALLOCS_PER_MERGE}"
    );

    let rt = LocalRuntime::new(LocalConfig::with_workers(1));
    let x = DistMatrix::random(&rt, 6_000, 16, 750, 42).expect("random blocks submit");
    rt.wait_all().expect("random blocks generate");
    let before = rt.submitted_count();
    let (_, allocations) = count(|| {
        let model = KMeans::new(32)
            .max_iter(5)
            .tol(0.0)
            .seed(42)
            .fit(&rt, &x)
            .expect("k-means fits");
        model.predict(&rt, &x).expect("k-means predicts")
    });
    let per_task = allocations as f64 / (rt.submitted_count() - before) as f64;
    assert!(
        per_task <= MAX_KMEANS_ALLOCS_PER_TASK,
        "k-means fit + predict allocates {per_task:.2} times per task, \
         limit {MAX_KMEANS_ALLOCS_PER_TASK}"
    );

    // Resuming a parked async task costs no allocation: its waker is
    // its dispatch metadata, a one-task injector batch has no overflow
    // vector, and stream elements travel by value. 9 900 more park/wake
    // cycles per task than the short run: one allocation per resume (a
    // per-element `Arc`, a fresh `Waker` box) would add ≥ 9 900.
    let short = ping_pong_allocations(100);
    let long = ping_pong_allocations(10_000);
    assert!(
        long <= short + 64,
        "allocations grew with the number of resumes: {short} for 100 elements, \
         {long} for 10 000"
    );

    // A client waiting in `get` runs tasks with buffers it keeps across
    // waits: a round costs what its tasks cost whether the client helps
    // or finds the value made, and no more at 200 rounds than at 20.
    let (short, _) = reduction_rounds(20, Wait::InGet);
    let (long, helped) = reduction_rounds(200, Wait::InGet);
    let (made, _) = reduction_rounds(200, Wait::ForValue);
    assert!(helped > 0, "the client ran no task while it waited");
    assert!(
        long as f64 / 200.0 <= short as f64 / 20.0 + 0.25,
        "a round allocates more the more rounds ran: {short} for 20, {long} for 200"
    );
    assert!(
        long <= made + 64,
        "waiting in `get` allocates: {long} for 200 rounds, {made} when the value was made"
    );
}

/// Where the client thread of [`reduction_rounds`] waits for a round's
/// sum.
#[derive(Clone, Copy, PartialEq)]
enum Wait {
    /// In `get`, running tasks itself meanwhile.
    InGet,
    /// Until the sum has been made, so that `get` finds it.
    ForValue,
}

/// Allocations of `rounds` rounds of "a seed readies eight parts, a sum
/// reads them, the client gets the sum" on one worker, and how many
/// parts the client ran. The seed holds the worker until the round is
/// submitted, so every part is readied by its commit — none is taken
/// from the injector in a batch, whose allocation depends on timing.
fn reduction_rounds(rounds: u64, wait: Wait) -> (u64, usize) {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
    use std::sync::Arc;
    let rt = LocalRuntime::new(LocalConfig::with_workers(1));
    let seed = rt.data::<u64>("seed");
    let parts = rt.data_batch::<u64>("part", 8);
    let sum = rt.data::<u64>("sum");
    let client = std::thread::current().id();
    let on_client = Arc::new(AtomicUsize::new(0));
    let [started, submitted, made] = [(); 3].map(|()| Arc::new(AtomicBool::new(false)));
    let ((), allocations) = count(|| {
        for round in 0..rounds {
            for flag in [&started, &submitted, &made] {
                flag.store(false, SeqCst);
            }
            let (start, go) = (Arc::clone(&started), Arc::clone(&submitted));
            rt.submit(
                TaskSpec::new("seed").output(seed.id()),
                Constraints::new(),
                move |ctx| {
                    start.store(true, SeqCst);
                    while !go.load(SeqCst) {
                        std::thread::yield_now();
                    }
                    ctx.set_output(0, round);
                },
            )
            .unwrap();
            while !started.load(SeqCst) {
                std::thread::yield_now();
            }
            for (i, part) in (0u64..).zip(&parts) {
                let on_client = Arc::clone(&on_client);
                rt.submit(
                    TaskSpec::new("part").input(seed.id()).output(part.id()),
                    Constraints::new(),
                    move |ctx| {
                        // Long enough that the client finds parts left.
                        std::hint::black_box((0..20_000u64).fold(i, |a, k| a.wrapping_mul(31) ^ k));
                        if std::thread::current().id() == client {
                            on_client.fetch_add(1, SeqCst);
                        }
                        let seed = *ctx.input::<u64>(0);
                        ctx.set_output(0, seed + i);
                    },
                )
                .unwrap();
            }
            let done = Arc::clone(&made);
            rt.submit(
                TaskSpec::new("sum")
                    .inputs(parts.iter().map(|p| p.id()))
                    .output(sum.id()),
                Constraints::new(),
                move |ctx| {
                    let total = (0..ctx.input_count())
                        .map(|i| *ctx.input::<u64>(i))
                        .sum::<u64>();
                    ctx.set_output(0, total);
                    done.store(true, SeqCst);
                },
            )
            .unwrap();
            submitted.store(true, SeqCst);
            while wait == Wait::ForValue && !made.load(SeqCst) {
                std::thread::yield_now();
            }
            assert_eq!(*rt.get(&sum).unwrap(), 8 * round + 28);
        }
    });
    (allocations, on_client.load(SeqCst))
}

/// Allocations of a capacity-1 ping-pong of `elements` elements on one
/// worker: each element parks and resumes the source (full channel)
/// and the sink (empty channel) once.
fn ping_pong_allocations(elements: u64) -> u64 {
    let rt = LocalRuntime::new(LocalConfig::with_workers(1));
    let s = rt.stream::<u64>("s", 1);
    let total = rt.data::<u64>("total");
    let ((), allocations) = count(|| {
        rt.submit_async(
            TaskSpec::new("source").stream_out(s.id()),
            Constraints::new(),
            move |ctx| async move {
                let w = ctx.stream_writer::<u64>(0);
                for i in 0..elements {
                    assert!(w.send_async(i).await);
                }
                ctx
            },
        )
        .unwrap();
        rt.submit_async(
            TaskSpec::new("sink").stream_in(s.id()).output(total.id()),
            Constraints::new(),
            |mut ctx| async move {
                let r = ctx.stream_reader::<u64>(0);
                let mut sum = 0;
                while let Some(v) = r.recv_async().await {
                    sum += v;
                }
                ctx.set_output(0, sum);
                ctx
            },
        )
        .unwrap();
        rt.wait_all().unwrap();
    });
    assert_eq!(*rt.get(&total).unwrap(), elements * (elements - 1) / 2);
    assert_eq!(rt.parked_count(), 0);
    allocations
}

/// PR 7's paper-scale headline; ≈ 2 s with `--release`:
/// `cargo test -p continuum-bench --release -- --ignored`.
#[test]
#[ignore = "10⁶ simulated tasks"]
fn million_task_campaign_stays_lazy() {
    let _serial = COUNTER.lock().unwrap();
    let campaign = sim::campaign(sim::CHUNKS_1E6);
    let (out, allocations) = count(|| sim::run_lazy(&campaign));
    assert_eq!(campaign.task_count(), 999_989);
    assert_eq!(out.report.tasks_completed, campaign.task_count());
    // Resident: the window's three tasks per chunk, one chromosome's
    // association tasks waiting for its merge, and what the window
    // completes of the next chromosome while that merge runs (1 002
    // tasks here) — independent of the other 20 chromosomes.
    let tail = sim::CHUNKS_1E6 + sim::CHUNKS_1E6 / 8;
    assert!(
        out.peak_materialized_tasks <= 3 * sim::WINDOW + tail,
        "peak {} materialized tasks",
        out.peak_materialized_tasks
    );
    // The task columns hold the segments those ids span (50 here),
    // not one more per chromosome already merged: a merge waiting for
    // the campaign merge is held outside its segment.
    let spanned = (3 * (sim::WINDOW + tail)).div_ceil(SEGMENT_SLOTS) + 2;
    assert!(
        out.peak_resident_segments <= spanned,
        "peak {} resident task segments",
        out.peak_resident_segments
    );
    assert!(out.peak_evacuated_slots >= 21);
    let violation = sim::allocation_violation(campaign.task_count(), allocations);
    assert_eq!(violation, None);
}
