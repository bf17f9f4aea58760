//! What `Direction::Stream` edges buy over completion edges on the
//! *same* linear `sensor → stages… → sink` pipeline. The sensor emits
//! elements at a fixed cadence (the paper's fog scenario: frames arrive
//! on a wire, they are not already in memory):
//!
//! * **streamed** — every edge a bounded stream channel; each stage is
//!   released at its upstream's first element, so downstream compute
//!   overlaps the sensor's arrival latency and the makespan approaches
//!   `max(sensor time, compute time)` — a win that holds even on a
//!   single core, because a sleeping sensor yields the CPU;
//! * **batch** — the identical per-element computation passed as whole
//!   vectors over `Out`/`In` versioned data; each stage starts at its
//!   predecessor's completion, so the makespan is the sensor time
//!   *plus* the sum of the stages.
//!
//! The local engine runs both for real on worker threads; the
//! simulated engine runs the calibrated continuous-inference window in
//! virtual time. [`Comparison::violations`] is the subsystem's reason
//! to exist, as a predicate.

use continuum_dag::TaskSpec;
use continuum_platform::{Constraints, NodeSpec, PlatformBuilder};
use continuum_runtime::{
    FifoScheduler, LocalConfig, LocalRuntime, SimOptions, SimRuntime, TraceBuffer,
};
use continuum_sim::FaultPlan;
use continuum_telemetry::{Event, TaskPhase};
use continuum_workflows::patterns::{batch_inference, continuous_inference};
use std::time::Instant;

/// One streamed-vs-batch pipeline on the local engine.
#[derive(Clone)]
pub struct StreamCase {
    pub name: &'static str,
    /// Intermediate per-element stages between source and sink.
    pub stages: usize,
    /// Elements flowing through the window.
    pub elements: usize,
    /// Mixer rounds per element per stage (the per-element "work").
    pub rounds: u32,
    /// Average microseconds between sensor emissions (paid by both
    /// renditions; only the streamed one overlaps compute with it).
    pub cadence_us: u64,
    /// Stream channel capacity (bounded backpressure).
    pub capacity: usize,
}

impl StreamCase {
    /// The smallest worker count that keeps the streamed rendition
    /// live, and the one both renditions run at: source, intermediate
    /// stages and sink each hold a worker while blocked on a channel.
    fn min_workers(&self) -> usize {
        self.stages + 2
    }
}

/// The two pipelines at the size CI has always run them.
pub fn cases() -> [StreamCase; 2] {
    [
        StreamCase {
            name: "inference",
            stages: 2,
            elements: 1_500,
            rounds: 2_000,
            cadence_us: 20,
            capacity: 64,
        },
        StreamCase {
            name: "deep",
            stages: 5,
            elements: 750,
            rounds: 2_000,
            cadence_us: 20,
            capacity: 16,
        },
    ]
}

/// Sensor emissions are grouped in bursts of this size: one sleep of
/// `BURST × cadence_us` per burst, so the cadence floor is precise
/// even where the OS timer can't resolve tens of microseconds.
const SENSOR_BURST: u64 = 8;

/// Pays the sensor's arrival latency for element `i` (start of each
/// burst sleeps the whole burst's worth).
fn sensor_delay(i: u64, cadence_us: u64) {
    if i.is_multiple_of(SENSOR_BURST) {
        std::thread::sleep(std::time::Duration::from_micros(SENSOR_BURST * cadence_us));
    }
}

/// Splitmix-style mixer; `rounds` iterations is the per-element work.
fn work(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
    }
    x
}

fn checksum(values: &[u64]) -> u64 {
    values
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, v)| acc ^ v.rotate_left((i % 63) as u32))
}

/// Runs the streamed rendition; returns (sink checksum, wall ms).
pub fn run_streamed(case: &StreamCase) -> (u64, f64) {
    let rt = LocalRuntime::new(LocalConfig::with_workers(case.min_workers()));
    let start = Instant::now();
    let sum = streamed_on(&rt, case);
    (sum, start.elapsed().as_secs_f64() * 1e3)
}

/// The name of the streamed rendition's `s`-th task: the sensor, each
/// stage by its position, then the sink.
fn streamed_task_name(case: &StreamCase, s: usize) -> String {
    match s {
        0 => "sensor".to_string(),
        s if s > case.stages => "sink".to_string(),
        s => format!("stage{s}"),
    }
}

/// Runs the streamed rendition on `rt`; returns the sink checksum.
fn streamed_on(rt: &LocalRuntime, case: &StreamCase) -> u64 {
    let mut prev = rt.stream::<u64>("s0", case.capacity);
    let (n, rounds, cadence_us) = (case.elements, case.rounds, case.cadence_us);
    rt.submit(
        TaskSpec::new("sensor").stream_out(prev.id()),
        Constraints::new(),
        move |ctx| {
            let tx = ctx.stream_writer::<u64>(0);
            for i in 0..n as u64 {
                sensor_delay(i, cadence_us);
                if !tx.send(work(i, 1)) {
                    break;
                }
            }
        },
    )
    .expect("admitted");
    for s in 0..case.stages {
        let next = rt.stream::<u64>(format!("s{}", s + 1), case.capacity);
        rt.submit(
            TaskSpec::new(streamed_task_name(case, s + 1))
                .stream_in(prev.id())
                .stream_out(next.id()),
            Constraints::new(),
            move |ctx| {
                let rx = ctx.stream_reader::<u64>(0);
                let tx = ctx.stream_writer::<u64>(0);
                while let Some(v) = rx.recv() {
                    if !tx.send(work(v, rounds)) {
                        break;
                    }
                }
            },
        )
        .expect("admitted");
        prev = next;
    }
    let out = rt.data::<u64>("out");
    rt.submit(
        TaskSpec::new("sink").stream_in(prev.id()).output(out.id()),
        Constraints::new(),
        move |ctx| {
            let rx = ctx.stream_reader::<u64>(0);
            let mut acc = Vec::new();
            while let Some(v) = rx.recv() {
                acc.push(v);
            }
            ctx.set_output(0, checksum(&acc));
        },
    )
    .expect("admitted");
    let sum = *rt.get(&out).expect("sink output");
    rt.wait_all().expect("completes");
    sum
}

/// Runs the streamed rendition traced; returns the sink checksum and
/// how many of its hops overlapped: those whose consumer's first
/// executing span starts before its producer's last one ends. A
/// producer of more elements than its channel holds cannot finish
/// before its consumer drains it, so on a working transport every hop
/// overlaps, on any host and at any load.
pub fn overlapped_hops(case: &StreamCase) -> (u64, usize) {
    let (buffer, telemetry) = TraceBuffer::collector();
    let sum = {
        let rt = LocalRuntime::new(LocalConfig {
            telemetry,
            ..LocalConfig::with_workers(case.min_workers())
        });
        streamed_on(&rt, case)
    };
    let events = buffer.events();
    let executing = |task: &str| {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Span {
                    name,
                    phase: TaskPhase::Executing,
                    start_us,
                    dur_us,
                    ..
                } if &**name == task => Some((*start_us, start_us + dur_us)),
                _ => None,
            })
            .reduce(|(s0, e0), (s1, e1)| (s0.min(s1), e0.max(e1)))
    };
    let overlapped = (1..=case.stages + 1)
        .filter(|&s| {
            let producer = executing(&streamed_task_name(case, s - 1));
            let consumer = executing(&streamed_task_name(case, s));
            matches!((producer, consumer), (Some((_, end)), Some((start, _))) if start < end)
        })
        .count();
    (sum, overlapped)
}

/// Runs the batch rendition of the same computation; returns
/// (sink checksum, wall ms).
pub fn run_batch(case: &StreamCase) -> (u64, f64) {
    let rt = LocalRuntime::new(LocalConfig::with_workers(case.min_workers()));
    let start = Instant::now();
    let mut prev = rt.data::<Vec<u64>>("d0");
    let (n, rounds, cadence_us) = (case.elements, case.rounds, case.cadence_us);
    rt.submit(
        TaskSpec::new("sensor").output(prev.id()),
        Constraints::new(),
        move |ctx| {
            let mut v = Vec::with_capacity(n);
            for i in 0..n as u64 {
                sensor_delay(i, cadence_us);
                v.push(work(i, 1));
            }
            ctx.set_output(0, v);
        },
    )
    .expect("admitted");
    for s in 0..case.stages {
        let next = rt.data::<Vec<u64>>(format!("d{}", s + 1));
        rt.submit(
            TaskSpec::new("stage").input(prev.id()).output(next.id()),
            Constraints::new(),
            move |ctx| {
                let v: &Vec<u64> = ctx.input(0);
                ctx.set_output(0, v.iter().map(|&x| work(x, rounds)).collect::<Vec<u64>>());
            },
        )
        .expect("admitted");
        prev = next;
    }
    let out = rt.data::<u64>("out");
    rt.submit(
        TaskSpec::new("sink").input(prev.id()).output(out.id()),
        Constraints::new(),
        |ctx| {
            let v: &Vec<u64> = ctx.input(0);
            ctx.set_output(0, checksum(v));
        },
    )
    .expect("admitted");
    let sum = *rt.get(&out).expect("sink output");
    rt.wait_all().expect("completes");
    (sum, start.elapsed().as_secs_f64() * 1e3)
}

/// One pipeline executed streamed and batch under identical
/// conditions.
#[derive(Debug)]
pub struct Comparison {
    /// Streamed makespan, milliseconds (virtual ms on the simulator).
    pub streamed_ms: f64,
    /// Batch-equivalent makespan, milliseconds.
    pub batch_ms: f64,
    /// Sink checksum of the streamed run …
    pub checksum_streamed: u64,
    /// … and of the batch run.
    pub checksum_batch: u64,
}

impl Comparison {
    /// Runs the calibrated continuous-inference window on the
    /// simulated engine (virtual time, exact and deterministic); the
    /// "checksums" are the completed task counts.
    pub fn sim(frames: u64) -> Comparison {
        let run = |workload| {
            let platform = PlatformBuilder::new()
                .cluster("edge", 2, NodeSpec::hpc(4, 96_000))
                .build();
            SimRuntime::new(platform, SimOptions::default())
                .run(&workload, &mut FifoScheduler::new(), &FaultPlan::new())
                .expect("sim run")
        };
        let streamed = run(continuous_inference(frames, 4_096, 10.0));
        let batch = run(batch_inference(frames, 4_096, 10.0));
        Comparison {
            streamed_ms: streamed.makespan_s * 1e3,
            batch_ms: batch.makespan_s * 1e3,
            checksum_streamed: streamed.tasks_completed as u64,
            checksum_batch: batch.tasks_completed as u64,
        }
    }

    /// Streamed strictly below batch and identical sink checksums.
    /// Returns the violations as printable lines.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.streamed_ms >= self.batch_ms {
            out.push(format!(
                "streamed {:.2} ms is not strictly below batch {:.2} ms",
                self.streamed_ms, self.batch_ms
            ));
        }
        if self.checksum_streamed != self.checksum_batch {
            out.push(format!(
                "streamed checksum {:#x} != batch {:#x}",
                self.checksum_streamed, self.checksum_batch
            ));
        }
        out
    }
}

/// The allocation tripwire's predicate: a streamed run may allocate at
/// most `elements / 4` times on top of `setup_allocations`, what the
/// same pipeline allocates moving no element at all (runtime, threads,
/// tasks and channels). Elements travel by value; a boxed element per
/// hop would be 3–6 per element. Returns the violation as a printable
/// line.
pub fn allocation_violation(
    elements: usize,
    allocations: u64,
    setup_allocations: u64,
) -> Option<String> {
    let moving = allocations.saturating_sub(setup_allocations);
    (moving > elements as u64 / 4).then(|| {
        format!(
            "{moving} allocations beyond the {setup_allocations} of an empty run for \
             {elements} elements (more than one per four: elements are being boxed again)"
        )
    })
}
