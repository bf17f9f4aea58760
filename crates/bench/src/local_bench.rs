//! Local-runtime dispatch macro-benchmark: how fast the threaded
//! [`LocalRuntime`] absorbs fine-grained task storms, on the three
//! topologies that stress its hot path differently:
//!
//! * **wide** — thousands of independent one-shot tasks: admission and
//!   ready-queue pressure, every worker competes for dispatch;
//! * **chain** — one long `InOut` version chain: zero parallelism, so
//!   the per-commit critical path (complete → release successor →
//!   re-dispatch) is measured raw, and value eviction keeps the live
//!   store bounded;
//! * **diamond** — chained fan-out/fan-in blocks: mixed release
//!   patterns, every join waits on several predecessors;
//! * **await-heavy** — async task bodies that all park on one common
//!   timer deadline: the M:N scaling claim measured directly. Every
//!   task suspends mid-body, so the run's parked plateau must reach
//!   the full task count while the OS thread count stays at workers
//!   plus the reactor — tasks cost a heap cell each, not a thread.
//!
//! Everything here is *real* wall-clock execution on worker threads;
//! task bodies are a few arithmetic ops, so the numbers are dominated
//! by runtime overhead per task, which is what the paper's programming
//! model lives or dies on. Results are written to `BENCH_local.json`
//! by the `local_bench` binary:
//!
//! ```text
//! cargo run --release -p continuum-bench --bin local_bench -- --label seed
//! cargo run --release -p continuum-bench --bin local_bench -- --smoke --check
//! ```

use crate::alloc;
use continuum_dag::TaskSpec;
use continuum_platform::Constraints;
use continuum_runtime::{LocalConfig, LocalRuntime};
use serde::Serialize;
use std::time::{Duration, Instant};

/// Topology shapes exercised by the macro-bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Independent tasks, no edges.
    Wide,
    /// A single serialized `InOut` version chain.
    Chain,
    /// Chained fan-out/fan-in blocks of the given width.
    Diamond,
    /// Independent async tasks all parked on one common timer
    /// deadline.
    AwaitHeavy,
}

/// One benchmark workload description.
#[derive(Debug, Clone)]
pub struct LocalCase {
    /// Shape name (`wide`, `chain`, `diamond`).
    pub name: &'static str,
    /// The topology to build.
    pub topology: Topology,
    /// Total number of tasks submitted.
    pub tasks: usize,
    /// Worker counts to run at, overriding [`worker_counts`]. The
    /// await-heavy case caps at 8 workers — the entire point is that
    /// parked-task concurrency does not need threads.
    pub workers_override: Option<&'static [usize]>,
}

/// Worker counts each case is run at.
pub fn worker_counts(smoke: bool) -> &'static [usize] {
    if smoke {
        &[1, 4]
    } else {
        &[1, 2, 4, 8, 16]
    }
}

/// The benchmark cases. `smoke` shrinks task counts ~10× for CI while
/// keeping every topology.
pub fn cases(smoke: bool) -> Vec<LocalCase> {
    let (wide, chain, blocks, parked) = if smoke {
        (1_500, 1_200, 80, 20_000)
    } else {
        (20_000, 10_000, 600, 150_000)
    };
    const DIAMOND_WIDTH: usize = 8;
    vec![
        LocalCase {
            name: "wide",
            topology: Topology::Wide,
            tasks: wide,
            workers_override: None,
        },
        LocalCase {
            name: "chain",
            topology: Topology::Chain,
            tasks: chain,
            workers_override: None,
        },
        LocalCase {
            name: "diamond",
            topology: Topology::Diamond,
            tasks: blocks * (DIAMOND_WIDTH + 2),
            workers_override: None,
        },
        LocalCase {
            name: "await-heavy",
            topology: Topology::AwaitHeavy,
            tasks: parked,
            workers_override: Some(if smoke { &[1, 4] } else { &[1, 8] }),
        },
    ]
}

/// The worker counts `case` runs at.
pub fn case_worker_counts(case: &LocalCase, smoke: bool) -> &'static [usize] {
    case.workers_override
        .unwrap_or_else(|| worker_counts(smoke))
}

/// What one run of a case produced, independent of timing: used by
/// `--check` to assert that executions at any worker count are
/// indistinguishable from the single-worker reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Order-insensitive digest of every final value.
    pub checksum: u64,
    /// Tasks completed (must equal tasks submitted).
    pub completed: usize,
}

/// One timed run of one case at one worker count.
#[derive(Debug, Clone, Serialize)]
pub struct LocalMeasurement {
    /// Case name.
    pub case: String,
    /// Worker threads used.
    pub workers: usize,
    /// Tasks submitted and completed.
    pub tasks: usize,
    /// Best wall-clock milliseconds (submit through `wait_all`) over
    /// the repeats.
    pub wall_ms: f64,
    /// Tasks dispatched+executed per wall-clock second (best repeat).
    pub tasks_per_sec: f64,
    /// Heap allocations during one run (0 when the caller provides no
    /// allocation counter).
    pub allocations: u64,
    /// Allocations per task.
    pub allocs_per_task: f64,
    /// Highest live-value count sampled during the run — the bounded-
    /// memory metric for the chain case (a leaking store grows to the
    /// chain length; an evicting one stays O(1)).
    pub live_values_peak: usize,
    /// Highest concurrently-parked async task count sampled during the
    /// run (0 for closure-only cases) — the M:N headline metric.
    pub parked_peak: usize,
    /// Highest OS thread count of the whole process sampled during the
    /// run (`/proc/self/status`; 0 where unavailable). For await-heavy
    /// this stays near `workers + 2` (main + reactor) while
    /// `parked_peak` reaches the full task count.
    pub peak_threads: usize,
    /// Order-insensitive digest of the final values.
    pub checksum: u64,
}

/// Splitmix-style value mixer so checksums depend on every bit.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct RunResult {
    outcome: RunOutcome,
    wall_ms: f64,
    live_peak: usize,
    parked_peak: usize,
    peak_threads: usize,
}

/// Current OS thread count of this process (Linux `/proc`; 0
/// elsewhere).
fn os_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// How often (in submissions) the live-value store is sampled for the
/// peak metric.
const LIVE_SAMPLE_EVERY: usize = 128;

fn run_wide(rt: &LocalRuntime, n: usize) -> (u64, usize) {
    let outs = rt.data_batch::<u64>("w", n);
    let mut live_peak = 0;
    for (i, d) in outs.iter().enumerate() {
        let seed = i as u64;
        rt.submit(
            TaskSpec::new("t").output(d.id()),
            Constraints::new(),
            move |ctx| ctx.set_output(0, mix(seed)),
        )
        .expect("admitted");
        if i % LIVE_SAMPLE_EVERY == 0 {
            live_peak = live_peak.max(rt.live_value_count());
        }
    }
    rt.wait_all().expect("completes");
    live_peak = live_peak.max(rt.live_value_count());
    let checksum = outs
        .iter()
        .map(|d| *rt.get(d).expect("value present"))
        .fold(0u64, u64::wrapping_add);
    (checksum, live_peak)
}

fn run_chain(rt: &LocalRuntime, n: usize) -> (u64, usize) {
    let acc = rt.data::<u64>("acc");
    rt.set_initial(&acc, 0u64);
    let mut live_peak = 0;
    for i in 0..n {
        let step = i as u64;
        rt.submit(
            TaskSpec::new("step").inout(acc.id()),
            Constraints::new(),
            move |ctx| {
                let v: &u64 = ctx.input(0);
                ctx.set_output(0, mix(v.wrapping_add(step)));
            },
        )
        .expect("admitted");
        if i % LIVE_SAMPLE_EVERY == 0 {
            live_peak = live_peak.max(rt.live_value_count());
        }
    }
    rt.wait_all().expect("completes");
    live_peak = live_peak.max(rt.live_value_count());
    (*rt.get(&acc).expect("value present"), live_peak)
}

fn run_diamond(rt: &LocalRuntime, total_tasks: usize) -> (u64, usize) {
    const WIDTH: usize = 8;
    let blocks = total_tasks / (WIDTH + 2);
    let carry = rt.data::<u64>("carry");
    rt.set_initial(&carry, 1u64);
    let mut live_peak = 0;
    let mut submitted = 0usize;
    for b in 0..blocks {
        let src = rt.data::<u64>(format!("src{b}"));
        let branches = rt.data_batch::<u64>("br", WIDTH);
        // Source: reads the running carry, fans out.
        rt.submit(
            TaskSpec::new("src").input(carry.id()).output(src.id()),
            Constraints::new(),
            |ctx| {
                let v: &u64 = ctx.input(0);
                ctx.set_output(0, mix(*v));
            },
        )
        .expect("admitted");
        for (i, br) in branches.iter().enumerate() {
            let lane = i as u64;
            rt.submit(
                TaskSpec::new("branch").input(src.id()).output(br.id()),
                Constraints::new(),
                move |ctx| {
                    let v: &u64 = ctx.input(0);
                    ctx.set_output(0, mix(v.wrapping_add(lane)));
                },
            )
            .expect("admitted");
        }
        // Join: folds the branches back into the carry.
        rt.submit(
            TaskSpec::new("join")
                .inputs(branches.iter().map(|d| d.id()))
                .inout(carry.id()),
            Constraints::new(),
            |ctx| {
                let n = ctx.input_count();
                let folded = (0..n - 1)
                    .map(|i| *ctx.input::<u64>(i))
                    .fold(*ctx.input::<u64>(n - 1), u64::wrapping_add);
                ctx.set_output(0, folded);
            },
        )
        .expect("admitted");
        submitted += WIDTH + 2;
        if b % 16 == 0 {
            live_peak = live_peak.max(rt.live_value_count());
        }
    }
    debug_assert_eq!(submitted, blocks * (WIDTH + 2));
    rt.wait_all().expect("completes");
    live_peak = live_peak.max(rt.live_value_count());
    (*rt.get(&carry).expect("value present"), live_peak)
}

/// Submits `n` async tasks that all `sleep_until` one common absolute
/// deadline, then samples the parked plateau until the deadline fires.
/// The deadline is sized so every submission lands (and every task is
/// polled to its first `Pending`) well before it passes — the plateau
/// therefore reaches `n` parked tasks regardless of worker count.
fn run_await_heavy(rt: &LocalRuntime, n: usize) -> (u64, usize, usize, usize) {
    let deadline =
        Instant::now() + Duration::from_micros(n as u64 * 6).max(Duration::from_millis(400));
    let outs = rt.data_batch::<u64>("a", n);
    let mut live_peak = 0;
    for (i, d) in outs.iter().enumerate() {
        let seed = i as u64;
        rt.submit_async(
            TaskSpec::new("a").output(d.id()),
            Constraints::new(),
            move |mut ctx| async move {
                ctx.sleep_until(deadline).await;
                ctx.set_output(0, mix(seed));
                ctx
            },
        )
        .expect("admitted");
        if i % LIVE_SAMPLE_EVERY == 0 {
            live_peak = live_peak.max(rt.live_value_count());
        }
    }
    let mut parked_peak = 0;
    let mut peak_threads = 0;
    while Instant::now() < deadline {
        parked_peak = parked_peak.max(rt.parked_count());
        peak_threads = peak_threads.max(os_thread_count());
        std::thread::sleep(Duration::from_millis(1));
    }
    rt.wait_all().expect("completes");
    live_peak = live_peak.max(rt.live_value_count());
    let checksum = outs
        .iter()
        .map(|d| *rt.get(d).expect("value present"))
        .fold(0u64, u64::wrapping_add);
    (checksum, live_peak, parked_peak, peak_threads)
}

fn run_once(case: &LocalCase, workers: usize) -> RunResult {
    let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
    let start = Instant::now();
    let mut parked_peak = 0;
    let mut peak_threads = 0;
    let (checksum, live_peak) = match case.topology {
        Topology::Wide => run_wide(&rt, case.tasks),
        Topology::Chain => run_chain(&rt, case.tasks),
        Topology::Diamond => run_diamond(&rt, case.tasks),
        Topology::AwaitHeavy => {
            let (checksum, live_peak, parked, threads) = run_await_heavy(&rt, case.tasks);
            parked_peak = parked;
            peak_threads = threads;
            (checksum, live_peak)
        }
    };
    // `wait_all` has returned inside the runners; timing stops before
    // the digest reads so measurements isolate submit+dispatch+commit.
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let completed = rt.completed_count();
    RunResult {
        outcome: RunOutcome {
            checksum,
            completed,
        },
        wall_ms,
        live_peak,
        parked_peak,
        peak_threads,
    }
}

/// Executes `case` once at `workers` and returns its observable
/// outcome — the `--check` primitive.
pub fn reference_outcome(case: &LocalCase, workers: usize) -> RunOutcome {
    run_once(case, workers).outcome
}

/// Runs `case` at `workers` threads `repeats` times and reports the
/// fastest run.
pub fn measure(case: &LocalCase, workers: usize, repeats: usize) -> LocalMeasurement {
    let mut best_ms = f64::INFINITY;
    let mut allocations = 0;
    let mut live_peak = 0;
    let mut parked_peak = 0;
    let mut peak_threads = 0;
    let mut checksum = 0;
    let mut completed = 0;
    for _ in 0..repeats.max(1) {
        let allocs_before = alloc::allocations();
        let r = run_once(case, workers);
        allocations = alloc::allocations() - allocs_before;
        best_ms = best_ms.min(r.wall_ms);
        live_peak = live_peak.max(r.live_peak);
        parked_peak = parked_peak.max(r.parked_peak);
        peak_threads = peak_threads.max(r.peak_threads);
        checksum = r.outcome.checksum;
        completed = r.outcome.completed;
    }
    assert_eq!(completed, case.tasks, "{}: tasks lost", case.name);
    LocalMeasurement {
        case: case.name.to_string(),
        workers,
        tasks: case.tasks,
        wall_ms: best_ms,
        tasks_per_sec: case.tasks as f64 / (best_ms / 1e3),
        allocations,
        allocs_per_task: allocations as f64 / case.tasks as f64,
        live_values_peak: live_peak,
        parked_peak,
        peak_threads,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_is_deterministic_across_worker_counts() {
        for case in cases(true) {
            let reference = reference_outcome(&case, 1);
            assert_eq!(reference.completed, case.tasks);
            for &w in &[2usize, 4] {
                let outcome = reference_outcome(&case, w);
                assert_eq!(outcome, reference, "{} at {w} workers", case.name);
            }
        }
    }

    #[test]
    fn await_heavy_parks_the_whole_storm_on_two_workers() {
        let case = cases(true)
            .into_iter()
            .find(|c| c.name == "await-heavy")
            .expect("case exists");
        let m = measure(&case, 2, 1);
        assert_eq!(m.tasks, case.tasks);
        assert!(
            m.parked_peak >= case.tasks * 9 / 10,
            "parked plateau reached only {} of {} tasks",
            m.parked_peak,
            case.tasks
        );
        if m.peak_threads > 0 {
            // main + 2 workers + reactor + slack: parked tasks must
            // not cost threads.
            assert!(
                m.peak_threads <= 16,
                "{} OS threads for a 2-worker async storm",
                m.peak_threads
            );
        }
    }

    #[test]
    fn measure_reports_consistent_rates() {
        let case = &cases(true)[0];
        let m = measure(case, 2, 1);
        assert_eq!(m.tasks, case.tasks);
        assert!(m.wall_ms.is_finite() && m.wall_ms > 0.0);
        assert!(m.tasks_per_sec > 0.0);
        assert_eq!(m.allocations, 0, "no counter installed");
    }
}
