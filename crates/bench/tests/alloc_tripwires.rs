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

use bytes::Bytes;
use continuum_agents::{
    AgentId, AgentNetwork, AppTask, Application, ExecReply, OpRegistry, Orchestrator,
    RoundRobinOffload,
};
use continuum_bench::alloc::{allocations, live_bytes, peak_bytes, reset_peak, CountingAllocator};
use continuum_dag::{AccessProcessor, TaskSpec, SEGMENT_SLOTS};
use continuum_dislib::{DistMatrix, KMeans};
use continuum_platform::presets::hybrid_hpc_cloud;
use continuum_platform::{Constraints, DeviceClass, NodeId};
use continuum_runtime::{
    DataHandle, ListScheduler, LocalConfig, LocalRuntime, SimOptions, SimRuntime,
};
use continuum_sim::FaultPlan;
use continuum_storage::{
    AsyncStorage, KvConfig, KvStore, ObjectKey, StorageError, StorageRuntime, StoredValue,
    WriteAheadLog,
};
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

/// Heap allocations per task the wide case may make, submission to
/// `wait_all`: two (the body's box and the task record; its `u64`
/// output lives in the record's cell) plus slack for queue and scratch
/// growth amortized over 1 500 tasks. An `Arc` around each output makes
/// three.
const MAX_WIDE_ALLOCS_PER_TASK: f64 = 2.5;

/// Heap allocations per `get` of a `u64` once the storm is done: the
/// `Arc` it returns, built around the value the cell holds.
const MAX_ALLOCS_PER_SCALAR_GET: f64 = 1.0;

/// Heap allocations per submitted K-means task: the task's own handful
/// (name, record, body, accumulator, output) plus the driver's per-step
/// panel and centroids. Copying the candidate rows one `Vec` each to
/// pick the initial centroids (750 here) would be 21 per task.
const MAX_KMEANS_ALLOCS_PER_TASK: f64 = 16.0;

/// Heap allocations per task of the textual front door, WDL text to
/// recorded trace: none of a task's own, only the growth of tables,
/// arenas and the event buffer amortized over the run (0.53 on this
/// 30 × 30 stencil). A heap block per task — its parameter list or its
/// edge list spilled, a name or group `String` — lands above it.
const MAX_FRONT_DOOR_ALLOCS_PER_TASK: f64 = 0.7;

/// Heap allocations per task of `parse_wdl` alone on the same
/// stencil: the parser's table growth (0.16). A stencil task's four
/// parameters and its three predecessors and three successors all stay
/// in place; spilling either list costs one per task, and separate
/// predecessor, successor and consumed-version lists cost four.
const MAX_PARSE_ALLOCS_PER_TASK: f64 = 0.2;

/// Heap bytes per event `chrome_trace` may hold at its peak beyond the
/// text it returns: the export order as a four-byte index per event,
/// the track set, the name table. The sort keys are gone before the
/// text is allocated; kept while the rows are written (32 bytes each
/// and more) they land well above it.
const MAX_EXPORT_BYTES_PER_EVENT: f64 = 8.0;

/// Heap allocations per 16-input merge `AccessProcessor::register`
/// makes, on average: its version and edge lists, sized once, plus the
/// graph's and catalog's segment growth amortized over the run. Growing
/// each list from its inline slots costs six.
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
        let (storm, reads) = wide_allocations(wide.tasks, workers);
        let (per_task, per_get) = (
            storm as f64 / wide.tasks as f64,
            reads as f64 / wide.tasks as f64,
        );
        assert!(
            per_task <= MAX_WIDE_ALLOCS_PER_TASK,
            "wide at {workers} workers allocates {per_task:.2} times per task, \
             limit {MAX_WIDE_ALLOCS_PER_TASK}"
        );
        assert!(
            per_get <= MAX_ALLOCS_PER_SCALAR_GET,
            "reading the wide case back allocates {per_get:.2} times per get, \
             limit {MAX_ALLOCS_PER_SCALAR_GET}"
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
    let (parsed, parsing) = count(|| parse_wdl(&text).expect("generated WDL parses"));
    let parse_per_task = parsing as f64 / parsed.graph().len() as f64;
    assert!(
        parse_per_task <= MAX_PARSE_ALLOCS_PER_TASK,
        "parsing the stencil's WDL allocates {parse_per_task:.2} times per task, \
         limit {MAX_PARSE_ALLOCS_PER_TASK}"
    );
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

/// Allocations of the wide case on `workers` workers: its `tasks`
/// one-shot tasks from submission to `wait_all`, and then a `get` of
/// each one's `u64`.
fn wide_allocations(tasks: usize, workers: usize) -> (u64, u64) {
    let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
    let outs = rt.data_batch::<u64>("w", tasks);
    let ((), storm) = count(|| {
        for (seed, d) in (0u64..).zip(&outs) {
            rt.submit(
                TaskSpec::new("t").output(d.id()),
                Constraints::new(),
                move |ctx| ctx.set_output(0, seed.wrapping_mul(31)),
            )
            .unwrap();
        }
        rt.wait_all().unwrap();
    });
    let (sum, reads) = count(|| {
        outs.iter()
            .map(|d| *rt.get(d).unwrap())
            .fold(0u64, u64::wrapping_add)
    });
    assert_eq!(sum, (0..tasks as u64).map(|s| s * 31).sum::<u64>());
    (storm, reads)
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

/// How far the allocations per task of one fan through the orchestrator
/// may differ between a fleet of 2 agents and one of 16. Snapshotting
/// the fleet afresh for each dispatch costs a vector and a name per
/// agent: 14 more allocations per task at 16 agents than at 2.
const MAX_FLEET_ALLOCS_SPREAD_PER_TASK: f64 = 0.1;

/// How many more allocations one dispatch of a 2 000-input task may
/// make than one of a 20-input task. Copying the task's input list into
/// the message costs one per input key.
const MAX_FAN_IN_ALLOCS_SPREAD_PER_DISPATCH: u64 = 8;

/// `agents` fog agents over a two-replica store; `sense` and `count`
/// allocate nothing of their own but their one-word output.
fn agent_network(agents: usize) -> AgentNetwork {
    let store = KvStore::new(
        (0..4).map(NodeId::from_raw).collect(),
        KvConfig { replication: 2 },
    )
    .expect("store config");
    let ops = OpRegistry::new();
    ops.register("sense", |_| Bytes::from_static(b"reading"));
    ops.register("count", |ins| {
        Bytes::copy_from_slice(&(ins.len() as u64).to_le_bytes())
    });
    let net = AgentNetwork::new(std::sync::Arc::new(store), ops);
    for i in 0..agents {
        net.deploy(format!("fog-{i}"), DeviceClass::Fog);
    }
    net
}

/// Allocations of one `Orchestrator::run` of `app`, which must
/// complete all its tasks.
fn run_allocations(net: &AgentNetwork, app: &Application) -> u64 {
    let (report, allocations) = count(|| {
        Orchestrator::new(net)
            .run(app, &mut RoundRobinOffload::new())
            .expect("the application completes")
    });
    assert_eq!(report.completed, app.tasks().len());
    allocations
}

/// One agent dispatch costs the same whatever the fleet size and the
/// task's fan-in: the policy sees a fleet snapshot refreshed in place,
/// the message carries the task by reference, and the agent stages
/// inputs in a buffer it keeps.
#[test]
fn agent_dispatch_allocates_the_same_at_any_fleet_size_and_fan_in() {
    let _serial = COUNTER.lock().unwrap();
    const FAN: usize = 256;
    let fan = (0..FAN).fold(Application::new("fan"), |app, i| {
        app.task(AppTask::new("sense", vec![], format!("out{i}")))
    });
    // Four runs after a first that grows the store's tables to the
    // fan's keys: an agent's inbox allocates a block per 31 messages,
    // which at 16 agents lands in every other run.
    const RUNS: u64 = 4;
    let [small, large] = [2, 16].map(|agents| {
        let net = agent_network(agents);
        run_allocations(&net, &fan);
        let total: u64 = (0..RUNS).map(|_| run_allocations(&net, &fan)).sum();
        total as f64 / (RUNS * FAN as u64) as f64
    });
    assert!(
        (large - small).abs() <= MAX_FLEET_ALLOCS_SPREAD_PER_TASK,
        "a fan task allocates {small:.2} times at 2 agents and {large:.2} at 16, \
         spread limit {MAX_FLEET_ALLOCS_SPREAD_PER_TASK}"
    );

    const WIDE: usize = 2_000;
    let net = agent_network(2);
    for i in 0..WIDE {
        net.store()
            .put(
                ObjectKey::new(format!("in{i}")),
                StoredValue::blob(vec![1]),
                None,
            )
            .expect("input stored");
    }
    let gather = |fan_in: usize| {
        let inputs = (0..fan_in)
            .map(|i| ObjectKey::new(format!("in{i}")))
            .collect();
        Application::new("gather").task(AppTask::new("count", inputs, "gathered"))
    };
    let (narrow, wide) = (gather(20), gather(WIDE));
    // The first runs grow the agent's input buffer and the store's
    // entry for the output.
    run_allocations(&net, &wide);
    run_allocations(&net, &narrow);
    let narrow = run_allocations(&net, &narrow);
    let wide = run_allocations(&net, &wide);
    assert!(
        wide <= narrow + MAX_FAN_IN_ALLOCS_SPREAD_PER_DISPATCH,
        "dispatching a {WIDE}-input task allocates {wide} times, a 20-input one {narrow}, \
         spread limit {MAX_FAN_IN_ALLOCS_SPREAD_PER_DISPATCH}"
    );
}

/// Allocations of one `execute_async` round trip of a one-input task
/// whose op hands its input back: the `Arc` around the task's copy, the
/// copy's input list, the reply cell, and the replica set the agent's
/// `put` returns. Each key copied as a `String`, the op name copied,
/// or the store's replica list built twice costs one more: 9 in all.
const MAX_HOP_ALLOCS: u64 = 4;

/// A `put` of a value under a key it already holds, with the key's
/// clone: the replica set it returns, and nothing for the key or for
/// the entry's own copy of the set.
const MAX_PUT_ALLOCS: u64 = 1;

/// The fewest allocations of 64 runs of `run`. The harness starts the
/// other tests' threads while this one counts, and their allocations
/// land in a run or two; a count the code makes lands in all of them.
/// An agent's inbox also takes a block per 31 messages.
fn fewest<T>(mut run: impl FnMut() -> T) -> u64 {
    (0..64).map(|_| count(&mut run).1).min().unwrap_or(0)
}

/// `net`'s agent `on` runs `task`, awaited as an async caller awaits
/// it.
fn hop(net: &AgentNetwork, on: AgentId, task: &AppTask) {
    let reply = net.execute_async(on, task).expect("agent deployed").wait();
    assert_eq!(reply, Some(ExecReply::Done));
}

/// One agent with a pass-through op over a two-replica store, the hop's
/// input stored.
fn pass_through_hop() -> (AgentNetwork, AgentId, AppTask) {
    let net = agent_network(0);
    net.ops().register("pass", |ins| ins[0].clone());
    let agent = net.deploy("fog-0", DeviceClass::Fog);
    net.store()
        .put(
            ObjectKey::new("sensor7:in"),
            StoredValue::blob(vec![7; 64]),
            None,
        )
        .expect("input stored");
    let task = AppTask::new("pass", vec![ObjectKey::new("sensor7:in")], "sensor7:out");
    (net, agent, task)
}

/// An agent hop hands keys and the op name on without copying them,
/// and the store keeps a replica set without a second list.
#[test]
fn an_agent_hop_copies_no_key_and_no_name() {
    let _serial = COUNTER.lock().unwrap();
    let short = ObjectKey::new("sensor1999:b_clean");
    let long = ObjectKey::new("campaign/chromosome-21/association.out");
    for key in [&short, &long] {
        let allocations = fewest(|| key.clone());
        assert_eq!(allocations, 0, "cloning `{key}` allocates");
    }

    let store = KvStore::new(
        (0..4).map(NodeId::from_raw).collect(),
        KvConfig { replication: 2 },
    )
    .expect("store config");
    let value = StoredValue::blob(vec![1; 64]);
    for key in [&short, &long] {
        let allocations = fewest(|| store.put(key.clone(), value.clone(), None));
        assert!(
            allocations <= MAX_PUT_ALLOCS,
            "a put under `{key}` allocates {allocations} times, limit {MAX_PUT_ALLOCS}"
        );
    }

    let (net, agent, task) = pass_through_hop();
    let round_trip = fewest(|| hop(&net, agent, &task));
    assert!(
        round_trip <= MAX_HOP_ALLOCS,
        "an execute_async round trip allocates {round_trip} times, limit {MAX_HOP_ALLOCS}"
    );
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

/// Live heap bytes per pending closure task the GWAS storm below may
/// hold once submitted: the task record, its body's box, its output
/// cell, its edges and run slot, and the runtime's per-task columns —
/// 299.6 B measured. A record that keeps the telemetry name and 64-bit
/// demand fields, with a version-0 cell pointer in every datum's
/// column entry, holds 339.6 B; a graph that keeps every task's spec
/// and version lists after the record is built, instead of retiring
/// them, 507 B.
const MAX_PENDING_BYTES_PER_TASK: f64 = 310.0;

/// Live heap bytes per task the same storm may hold once `wait_all`
/// returns, when every datum's last version is still current: the task
/// record with its `u64` output in its cell, its edges and run slot,
/// and the runtime's per-task columns — 281.5 B measured. An `Arc`
/// around each output holds 305.5 B.
const MAX_SETTLED_BYTES_PER_TASK: f64 = 290.0;

/// The benchmark's `gwas_local` shape at about 20 k tasks: per
/// chromosome, filter → impute → association per chunk and a 16-way
/// merge tree over the associations, then one merge of the chromosome
/// results. Submitted while a gate task holds the only worker, so every
/// task is still pending when the live heap is first read; read again
/// once every task has run.
#[test]
fn pending_gwas_storm_keeps_few_bytes_per_task() {
    use std::sync::{Arc, Condvar};
    let _serial = COUNTER.lock().unwrap();
    const CHROMOSOMES: usize = 22;
    const CHUNKS: usize = 290;
    const FAN_IN: usize = 16;
    let rt = LocalRuntime::new(LocalConfig::with_workers(1));
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let held = Arc::clone(&gate);
    let gate_out = rt.data::<()>("gate");
    rt.submit(
        TaskSpec::new("gate").output(gate_out.id()),
        Constraints::new(),
        move |ctx| {
            let (open, cv) = &*held;
            let mut open = open.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            ctx.set_output(0, ());
        },
    )
    .unwrap();
    // Every datum is declared before the storm, as the benchmark's
    // set-up does: per chromosome its chunks' three data and its merge
    // tree's levels, leaves' parents first.
    let chromosomes: Vec<_> = (0..CHROMOSOMES)
        .map(|c| {
            let [filtered, imputed, assoc] = ["filt", "imp", "assoc"]
                .map(|stage| rt.data_batch::<u64>(&format!("c{c}_{stage}"), CHUNKS));
            let mut merges = Vec::new();
            let mut width = CHUNKS;
            while width > 1 {
                width = width.div_ceil(FAN_IN);
                merges.push(rt.data_batch::<u64>(&format!("c{c}_m{}_", merges.len()), width));
            }
            (filtered, imputed, assoc, merges)
        })
        .collect();
    let summary = rt.data::<u64>("summary");
    let merge = |inputs: &[DataHandle<u64>], out: &DataHandle<u64>| {
        let n = inputs.len();
        rt.submit(
            TaskSpec::new("merge")
                .inputs(inputs.iter().map(DataHandle::id))
                .output(out.id()),
            Constraints::new(),
            move |ctx| {
                let sum = (0..n).fold(0u64, |a, i| a.wrapping_add(*ctx.input::<u64>(i)));
                ctx.set_output(0, sum);
            },
        )
        .unwrap();
    };
    let before = live_bytes();
    let mut tasks = 0;
    let mut results = Vec::new();
    for (c, (filtered, imputed, assoc, merges)) in chromosomes.iter().enumerate() {
        for chunk in 0..CHUNKS {
            let seed = (c * CHUNKS + chunk) as u64;
            rt.submit(
                TaskSpec::new("filter").output(filtered[chunk].id()),
                Constraints::new(),
                move |ctx| ctx.set_output(0, seed),
            )
            .unwrap();
            for (input, out, name) in [
                (&filtered[chunk], &imputed[chunk], "impute"),
                (&imputed[chunk], &assoc[chunk], "association"),
            ] {
                rt.submit(
                    TaskSpec::new(name).input(input.id()).output(out.id()),
                    Constraints::new(),
                    |ctx| {
                        let x = *ctx.input::<u64>(0);
                        ctx.set_output(0, x.wrapping_mul(31) + 7);
                    },
                )
                .unwrap();
            }
            tasks += 3;
        }
        let mut level = assoc;
        for outputs in merges {
            for (group, out) in level.chunks(FAN_IN).zip(outputs) {
                merge(group, out);
                tasks += 1;
            }
            level = outputs;
        }
        results.push(level[0]);
    }
    merge(&results, &summary);
    tasks += 1;
    let per_task = live_bytes().saturating_sub(before) as f64 / tasks as f64;
    let (open, cv) = &*gate;
    *open.lock().unwrap() = true;
    cv.notify_all();
    rt.wait_all().unwrap();
    assert_eq!(rt.completed_count(), tasks + 1);
    let settled = live_bytes().saturating_sub(before) as f64 / tasks as f64;
    assert!(
        per_task <= MAX_PENDING_BYTES_PER_TASK,
        "a pending task of the GWAS storm holds {per_task:.1} heap bytes, \
         limit {MAX_PENDING_BYTES_PER_TASK}"
    );
    assert!(
        settled <= MAX_SETTLED_BYTES_PER_TASK,
        "a finished task of the GWAS storm holds {settled:.1} heap bytes, \
         limit {MAX_SETTLED_BYTES_PER_TASK}"
    );
}

/// Live heap bytes per datum a declared batch of 20 000 may hold: the
/// catalog slot (24 B), its name in the segment's arena and the handle
/// returned — 40.45 B measured, and 10 % for slack. A slot that keeps
/// its producer as an `Option<TaskId>` beside the version holds 56.9 B.
const MAX_DECLARED_BYTES_PER_DATUM: f64 = 44.5;

/// What declaring data costs before any task touches them: the
/// catalog's slot and name bytes, and the handle returned.
#[test]
fn declared_data_keep_few_bytes_per_datum() {
    let _serial = COUNTER.lock().unwrap();
    const DATA: usize = 20_000;
    let rt = LocalRuntime::new(LocalConfig::with_workers(1));
    let before = live_bytes();
    let data = rt.data_batch::<u64>("d", DATA);
    let per_datum = live_bytes().saturating_sub(before) as f64 / DATA as f64;
    assert_eq!(data.len(), DATA);
    assert!(
        per_datum <= MAX_DECLARED_BYTES_PER_DATUM,
        "a declared datum holds {per_datum:.1} heap bytes, \
         limit {MAX_DECLARED_BYTES_PER_DATUM}"
    );
}

/// What `parse_wdl` of a stencil the size of the benchmark's
/// `wdl_stencil_sim` (140 × 140) allocates and keeps, printed for the
/// workload's profile in EXPERIMENTS.md: run it with `cargo test
/// --release -p continuum-bench --test alloc_tripwires -- --ignored
/// --nocapture wdl_front_door_census`. The counts of lists past two
/// and four parameters, and past three and six edges, read both the
/// inline widths of this tree and those of the layout before it.
#[test]
#[ignore = "prints a census for EXPERIMENTS.md"]
fn wdl_front_door_census() {
    let _serial = COUNTER.lock().unwrap();
    let text = to_wdl(&stencil(140, 140, 10.0, 1_000_000));
    let before = live_bytes();
    let (workload, allocations) = count(|| parse_wdl(&text).expect("generated WDL parses"));
    let held = live_bytes() - before;
    let graph = workload.graph();
    let tasks = graph.len();
    let params_past = |n: usize| {
        graph
            .nodes()
            .filter(|t| t.spec().params().len() > n)
            .count()
    };
    let edges_past = |n: usize| {
        graph
            .nodes()
            .filter(|t| t.predecessors().len() + t.successors().len() > n)
            .count()
    };
    println!(
        "parse_wdl, 140 × 140 stencil: {tasks} tasks, {} edges",
        graph.edge_count()
    );
    println!(
        "allocations: {allocations} ({:.3} per task)",
        allocations as f64 / tasks as f64
    );
    println!(
        "heap held after the parse: {held} B ({:.1} per task)",
        held as f64 / tasks as f64
    );
    println!(
        "tasks past 2 / 4 parameters: {} / {}",
        params_past(2),
        params_past(4)
    );
    println!(
        "nodes past 3 / 6 edges: {} / {}",
        edges_past(3),
        edges_past(6)
    );
}

/// The store `fog_storage`'s agents see: a two-replica store behind a
/// write-ahead log that records every put first.
struct LoggedStore {
    kv: KvStore,
    wal: WriteAheadLog,
}

impl StorageRuntime for LoggedStore {
    fn put(
        &self,
        key: ObjectKey,
        value: StoredValue,
        hint: Option<NodeId>,
    ) -> Result<Vec<NodeId>, StorageError> {
        self.wal.append(key.clone(), value.clone());
        self.kv.put(key, value, hint)
    }

    fn get(&self, key: &ObjectKey) -> Result<StoredValue, StorageError> {
        self.kv.get(key)
    }

    fn locations(&self, key: &ObjectKey) -> Result<Vec<NodeId>, StorageError> {
        self.kv.locations(key)
    }

    fn delete(&self, key: &ObjectKey) {
        self.kv.delete(key);
    }

    fn contains(&self, key: &ObjectKey) -> bool {
        self.kv.contains(key)
    }
}

fn fog_key(prefix: &str, s: usize) -> ObjectKey {
    ObjectKey::new(format!("{prefix}{s}"))
}

/// Allocations of `fog_storage`'s two phases over `sensors` sensors of
/// 4 KiB on two agents: phase A through `Orchestrator::run`, phase B as
/// async bodies on one worker (timer sleep, async storage read and
/// write, two `execute_async` hops). Each phase runs `2 × sensors + 1`
/// agent executions.
fn fog_phase_allocations(sensors: usize) -> (u64, u64) {
    use std::sync::Arc;
    let kv = KvStore::new(
        (0..4).map(NodeId::from_raw).collect(),
        KvConfig { replication: 2 },
    )
    .expect("store config");
    for s in 0..sensors {
        kv.put(
            fog_key("in", s),
            StoredValue::blob(vec![s as u8; 4096]),
            None,
        )
        .expect("pre-load");
    }
    let store: Arc<dyn StorageRuntime> = Arc::new(LoggedStore {
        kv,
        wal: WriteAheadLog::new(),
    });
    let ops = OpRegistry::new();
    ops.register("sense", |ins| {
        Bytes::from(ins[0].iter().map(|b| b ^ 0x5A).collect::<Vec<u8>>())
    });
    ops.register("filter", |ins| {
        let sum: u64 = ins[0].iter().map(|b| u64::from(*b)).sum();
        Bytes::copy_from_slice(&sum.to_le_bytes())
    });
    ops.register("aggregate", |ins| {
        Bytes::copy_from_slice(&(ins.len() as u64).to_le_bytes())
    });
    let net = Arc::new(AgentNetwork::new(Arc::clone(&store), ops));
    let agents: Arc<[AgentId]> = (0..2)
        .map(|i| net.deploy(format!("fog-{i}"), DeviceClass::Fog))
        .collect();
    let mut app = Application::new("sense-filter-aggregate");
    for s in 0..sensors {
        app = app
            .task(AppTask::new(
                "sense",
                vec![fog_key("in", s)],
                fog_key("raw", s),
            ))
            .task(AppTask::new(
                "filter",
                vec![fog_key("raw", s)],
                fog_key("clean", s),
            ));
    }
    let cleaned = (0..sensors).map(|s| fog_key("clean", s)).collect();
    let app = app.task(AppTask::new("aggregate", cleaned, "result"));
    let rt = LocalRuntime::new(LocalConfig::with_workers(1));
    let storage = Arc::new(AsyncStorage::new(store));

    let (_, phase_a) = count(|| {
        Orchestrator::new(&net)
            .run(&app, &mut RoundRobinOffload::new())
            .expect("phase A completes")
    });
    let ((), phase_b) = count(|| {
        let done: Vec<_> = (0..sensors)
            .map(|s| {
                let marker = rt.data::<()>(format!("b_done{s}"));
                let (net, agents, storage) =
                    (Arc::clone(&net), Arc::clone(&agents), Arc::clone(&storage));
                rt.submit_async(
                    TaskSpec::new("sensor").output(marker.id()),
                    Constraints::new(),
                    move |mut ctx| async move {
                        ctx.sleep(std::time::Duration::from_millis(1)).await;
                        let value = storage.get(fog_key("in", s)).await;
                        let value = value.and_then(Result::ok).expect("reading stored");
                        let put = storage.put(fog_key("b_in", s), value, None).await;
                        assert!(matches!(put, Some(Ok(_))));
                        let agent = agents[s % agents.len()];
                        for (op, from, to) in
                            [("sense", "b_in", "b_raw"), ("filter", "b_raw", "b_clean")]
                        {
                            let task = AppTask::new(op, vec![fog_key(from, s)], fog_key(to, s));
                            let reply = net.execute_async(agent, &task).expect("deployed").await;
                            assert_eq!(reply, Some(ExecReply::Done));
                        }
                        ctx.set_output(0, ());
                        ctx
                    },
                )
                .expect("sensor admitted");
                marker.id()
            })
            .collect();
        let (net, agents) = (Arc::clone(&net), Arc::clone(&agents));
        rt.submit_async(
            TaskSpec::new("aggregate").inputs(done),
            Constraints::new(),
            move |ctx| async move {
                let cleaned = (0..sensors).map(|s| fog_key("b_clean", s)).collect();
                let task = AppTask::new("aggregate", cleaned, "b_result");
                let reply = net.execute_async(agents[0], &task).expect("deployed").await;
                assert_eq!(reply, Some(ExecReply::Done));
                ctx
            },
        )
        .expect("aggregate admitted");
        rt.wait_all().expect("phase B completes");
    });
    (phase_a, phase_b)
}

/// What one agent hop and the storage calls under it allocate, and
/// `fog_storage`'s two phases per execution at the benchmark's 2 000
/// sensors, printed for the workload's profile in EXPERIMENTS.md: run
/// it with `cargo test --release -p continuum-bench --test
/// alloc_tripwires -- --ignored --nocapture fog_hop_census`.
#[test]
#[ignore = "prints a census for EXPERIMENTS.md"]
fn fog_hop_census() {
    let _serial = COUNTER.lock().unwrap();
    let texts = [
        "sensor1999:b_clean",
        "campaign/chromosome-21/association.out",
    ];
    for text in texts {
        let (key, made) = count(|| ObjectKey::new(text));
        let (_, cloned) = count(|| key.clone());
        println!("key of {} bytes: new {made}, clone {cloned}", text.len());
    }
    let logged = LoggedStore {
        kv: KvStore::new(
            (0..4).map(NodeId::from_raw).collect(),
            KvConfig { replication: 2 },
        )
        .expect("store config"),
        wal: WriteAheadLog::new(),
    };
    let (key, value) = (ObjectKey::new(texts[0]), StoredValue::blob(vec![1; 64]));
    logged
        .kv
        .put(key.clone(), value.clone(), None)
        .expect("put");
    let (_, put) = count(|| logged.kv.put(key.clone(), value.clone(), None));
    println!("KvStore::put of a stored key, with its clone: {put}");
    logged.wal.append(key.clone(), value.clone());
    let (_, appended) = count(|| logged.wal.append(key.clone(), value.clone()));
    println!("WriteAheadLog::append, with the key's clone (amortized growth): {appended}");
    let (net, agent, task) = pass_through_hop();
    hop(&net, agent, &task);
    let hops: Vec<u64> = (0..62)
        .map(|_| count(|| hop(&net, agent, &task)).1)
        .collect();
    println!(
        "execute_async round trip, pass-through op: fewest {}, {} over 62 hops",
        hops.iter().min().unwrap_or(&0),
        hops.iter().sum::<u64>()
    );
    const SENSORS: usize = 2_000;
    let executions = 2 * SENSORS as u64 + 1;
    let (a, b) = fog_phase_allocations(SENSORS);
    println!("fog, {SENSORS} sensors, {executions} executions per phase:");
    println!(
        "  phase A, orchestrator: {a} ({:.3} per execution)",
        a as f64 / executions as f64
    );
    println!(
        "  phase B, async bodies: {b} ({:.3} per execution)",
        b as f64 / executions as f64
    );
    println!(
        "  both phases: {:.3} per execution",
        (a + b) as f64 / (2 * executions) as f64
    );
}
