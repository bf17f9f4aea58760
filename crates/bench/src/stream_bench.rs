//! Streaming-pipeline macro-benchmark: what `Direction::Stream` edges
//! buy over completion edges on the *same* linear pipeline.
//!
//! Each case is a `sensor → stages… → sink` pipeline executed two
//! ways. The sensor emits elements at a fixed cadence (the paper's fog
//! scenario: frames arrive on a wire, they are not already in memory):
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
//! The local engine runs both for real on worker threads (wall-clock,
//! allocation-counted); the simulated engine runs the calibrated
//! continuous-inference window (virtual time, exact). `--check`
//! enforces the subsystem's reason to exist: the streamed makespan must
//! be *strictly below* its batch equivalent in every measurement, and
//! both variants must produce the identical sink checksum. It also
//! keeps the transport honest without a timing gate: a streamed local
//! run may allocate at most `elements / 4` times on top of what the
//! same pipeline allocates moving no element at all (elements travel
//! by value; a boxed element per hop would be 3–6 per element).
//! Results merge into `BENCH_stream.json`:
//!
//! ```text
//! cargo run --release -p continuum-bench --bin stream_bench -- --label seed
//! cargo run --release -p continuum-bench --bin stream_bench -- --smoke --check
//! ```

use crate::alloc;
use continuum_dag::TaskSpec;
use continuum_platform::{Constraints, NodeSpec, PlatformBuilder};
use continuum_runtime::{FifoScheduler, LocalConfig, LocalRuntime, SimOptions, SimRuntime};
use continuum_sim::FaultPlan;
use continuum_workflows::patterns::{batch_inference, continuous_inference};
use serde::Serialize;
use std::time::Instant;

/// One streamed-vs-batch pipeline case on the local engine.
#[derive(Debug, Clone)]
pub struct StreamCase {
    /// Case name.
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
    /// live: source + intermediate stages + sink all hold a worker
    /// while blocked on a channel (the executor's documented stream
    /// limitation), so every stage needs its own thread.
    pub fn min_workers(&self) -> usize {
        self.stages + 2
    }
}

/// Worker counts each local case runs at. The local executor has no
/// task continuations, so a blocked stream endpoint occupies its
/// worker thread: liveness requires `workers ≥` the number of
/// concurrently-live stream stages (see [`StreamCase::min_workers`]) —
/// the driver skips worker counts below a case's minimum.
pub fn worker_counts(smoke: bool) -> &'static [usize] {
    if smoke {
        &[4, 8]
    } else {
        &[4, 8, 16]
    }
}

/// The local benchmark cases. `smoke` shrinks the element counts ~4×
/// for CI while keeping the shapes.
pub fn cases(smoke: bool) -> Vec<StreamCase> {
    let e = if smoke { 1_500 } else { 6_000 };
    vec![
        StreamCase {
            name: "inference",
            stages: 2,
            elements: e,
            rounds: 2_000,
            cadence_us: 20,
            capacity: 64,
        },
        StreamCase {
            name: "deep",
            stages: 5,
            elements: e / 2,
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

/// One measurement row: a pipeline executed streamed and batch under
/// identical conditions.
#[derive(Debug, Clone, Serialize)]
pub struct StreamMeasurement {
    /// `"local"` (wall-clock) or `"sim"` (virtual time).
    pub engine: String,
    /// Case name.
    pub case: String,
    /// Worker threads (local) or cluster cores (sim).
    pub workers: usize,
    /// Elements through the window.
    pub elements: usize,
    /// Streamed makespan, milliseconds (virtual ms for `sim`).
    pub streamed_ms: f64,
    /// Batch-equivalent makespan, milliseconds.
    pub batch_ms: f64,
    /// `batch_ms / streamed_ms` — the overlap win.
    pub speedup: f64,
    /// Heap allocations during the streamed run (0 without a counter).
    pub allocations: u64,
    /// Heap allocations of the same streamed pipeline run with zero
    /// elements: runtime, threads, tasks and channels, none of which
    /// scale with the window.
    pub setup_allocations: u64,
    /// Sink checksum of the streamed run.
    pub checksum_streamed: u64,
    /// Sink checksum of the batch run (must equal the streamed one).
    pub checksum_batch: u64,
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

/// Runs the streamed rendition; returns (checksum, wall ms).
fn run_streamed(case: &StreamCase, workers: usize) -> (u64, f64) {
    let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
    let start = Instant::now();
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
            TaskSpec::new("stage")
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
    (sum, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs the batch rendition of the same computation; returns
/// (checksum, wall ms).
fn run_batch(case: &StreamCase, workers: usize) -> (u64, f64) {
    let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
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

/// Measures one local case at one worker count, best-of-`repeats` for
/// each rendition.
pub fn measure_local(case: &StreamCase, workers: usize, repeats: usize) -> StreamMeasurement {
    assert!(
        workers >= case.min_workers(),
        "case `{}` needs ≥ {} workers to stay live (got {})",
        case.name,
        case.min_workers(),
        workers
    );
    let before = alloc::allocations();
    run_streamed(
        &StreamCase {
            elements: 0,
            ..case.clone()
        },
        workers,
    );
    let setup_allocations = alloc::allocations() - before;
    let mut streamed_ms = f64::INFINITY;
    let mut batch_ms = f64::INFINITY;
    let mut allocations = 0;
    let mut checksum_streamed = 0;
    let mut checksum_batch = 0;
    for _ in 0..repeats.max(1) {
        let before = alloc::allocations();
        let (cs, sms) = run_streamed(case, workers);
        allocations = alloc::allocations() - before;
        let (cb, bms) = run_batch(case, workers);
        streamed_ms = streamed_ms.min(sms);
        batch_ms = batch_ms.min(bms);
        checksum_streamed = cs;
        checksum_batch = cb;
    }
    StreamMeasurement {
        engine: "local".to_string(),
        case: case.name.to_string(),
        workers,
        elements: case.elements,
        streamed_ms,
        batch_ms,
        speedup: batch_ms / streamed_ms,
        allocations,
        setup_allocations,
        checksum_streamed,
        checksum_batch,
    }
}

/// Measures the calibrated continuous-inference window on the
/// simulated engine (virtual time, exact and deterministic).
pub fn measure_sim(frames: u64) -> StreamMeasurement {
    let platform = || {
        PlatformBuilder::new()
            .cluster("edge", 2, NodeSpec::hpc(4, 96_000))
            .build()
    };
    let streamed = SimRuntime::new(platform(), SimOptions::default())
        .run(
            &continuous_inference(frames, 4_096, 10.0),
            &mut FifoScheduler::new(),
            &FaultPlan::new(),
        )
        .expect("sim run");
    let batch = SimRuntime::new(platform(), SimOptions::default())
        .run(
            &batch_inference(frames, 4_096, 10.0),
            &mut FifoScheduler::new(),
            &FaultPlan::new(),
        )
        .expect("sim run");
    StreamMeasurement {
        engine: "sim".to_string(),
        case: "continuous_inference".to_string(),
        workers: 8,
        elements: frames as usize,
        streamed_ms: streamed.makespan_s * 1e3,
        batch_ms: batch.makespan_s * 1e3,
        speedup: batch.makespan_s / streamed.makespan_s,
        allocations: 0,
        setup_allocations: 0,
        checksum_streamed: streamed.tasks_completed as u64,
        checksum_batch: batch.tasks_completed as u64,
    }
}

/// The `--check` predicate: streamed strictly below batch, identical
/// sink checksums, and no per-element allocation in the transport (at
/// most one allocation per four elements beyond the zero-element run).
/// Returns the violations as printable lines.
pub fn check_violations(results: &[StreamMeasurement]) -> Vec<String> {
    let mut out = Vec::new();
    for m in results {
        if m.streamed_ms >= m.batch_ms {
            out.push(format!(
                "{}/{}/{}w: streamed {:.2} ms is not strictly below batch {:.2} ms",
                m.engine, m.case, m.workers, m.streamed_ms, m.batch_ms
            ));
        }
        if m.checksum_streamed != m.checksum_batch {
            out.push(format!(
                "{}/{}/{}w: streamed checksum {:#x} != batch {:#x}",
                m.engine, m.case, m.workers, m.checksum_streamed, m.checksum_batch
            ));
        }
        let moving = m.allocations.saturating_sub(m.setup_allocations);
        if moving > m.elements as u64 / 4 {
            out.push(format!(
                "{}/{}/{}w: {moving} allocations beyond the {} of an empty run for {} elements \
                 (more than one per four: elements are being boxed again)",
                m.engine, m.case, m.workers, m.setup_allocations, m.elements
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_and_batch_agree_and_overlap_wins() {
        let case = StreamCase {
            name: "mini",
            stages: 2,
            elements: 400,
            rounds: 800,
            cadence_us: 20,
            capacity: 16,
        };
        let m = measure_local(&case, 4, 1);
        assert_eq!(m.checksum_streamed, m.checksum_batch);
        assert!(m.streamed_ms > 0.0 && m.batch_ms > 0.0);
    }

    #[test]
    fn sim_window_passes_the_check() {
        let m = measure_sim(32);
        assert!(
            check_violations(std::slice::from_ref(&m)).is_empty(),
            "{m:?}"
        );
        assert!(m.speedup > 3.0, "four stages should overlap: {}", m.speedup);
    }

    #[test]
    fn check_catches_inversions() {
        let mut m = measure_sim(16);
        m.streamed_ms = m.batch_ms + 1.0;
        assert_eq!(check_violations(&[m]).len(), 1);
    }

    #[test]
    fn check_catches_per_element_allocation() {
        // The seed's `inference` row: one `Arc` per element per hop.
        let mut m = measure_sim(16);
        (m.elements, m.allocations, m.setup_allocations) = (6_000, 18_133, 150);
        let violations = check_violations(std::slice::from_ref(&m));
        assert_eq!(violations.len(), 1, "{violations:?}");
        m.allocations = 150 + 6_000 / 4;
        assert!(check_violations(&[m]).is_empty());
    }
}
