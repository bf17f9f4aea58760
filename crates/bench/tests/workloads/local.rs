//! Fine-grained task storms on the threaded `LocalRuntime`, one per
//! topology that stresses its hot path differently:
//!
//! * **wide** — independent one-shot tasks: admission and ready-queue
//!   pressure, every worker competes for dispatch;
//! * **chain** — one long `InOut` version chain: zero parallelism, and
//!   value eviction must keep the live store bounded;
//! * **diamond** — chained fan-out/fan-in blocks: every join waits on
//!   several predecessors;
//! * **await-heavy** — async bodies that all park on one common timer
//!   deadline: the parked plateau must reach the full task count while
//!   the OS thread count stays at workers plus the reactor — a parked
//!   task costs a heap cell, not a thread.

use continuum_dag::TaskSpec;
use continuum_platform::Constraints;
use continuum_runtime::{LocalConfig, LocalRuntime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One storm: a shape and how many tasks it submits.
pub struct LocalCase {
    pub name: &'static str,
    pub tasks: usize,
    storm: fn(&LocalRuntime, usize, &mut Outcome),
}

const DIAMOND_WIDTH: usize = 8;

/// Every topology at the size CI has always run it: wide, chain,
/// diamond, await-heavy.
pub fn cases() -> [LocalCase; 4] {
    let case = |name, tasks, storm| LocalCase { name, tasks, storm };
    [
        case("wide", 1_500, run_wide),
        case("chain", 1_200, run_chain),
        case("diamond", 80 * (DIAMOND_WIDTH + 2), run_diamond),
        case("await-heavy", 20_000, run_await_heavy),
    ]
}

/// What one run of a case produced.
#[derive(Default)]
pub struct Outcome {
    /// Digest of every final value; equal at every worker count.
    pub checksum: u64,
    /// Tasks completed (must equal tasks submitted).
    pub completed: usize,
    /// Highest live-value count sampled during a chain run and at the
    /// end of any: a leaking store grows to the chain length, an
    /// evicting one stays O(1).
    pub live_values_peak: usize,
    /// Highest concurrently-parked async task count sampled (0 for
    /// closure-only cases).
    pub parked_peak: usize,
    /// How many times an await-heavy run sampled its parked count
    /// between the last submission and the deadline.
    pub parked_samples: usize,
    /// How long an await-heavy run took to submit its storm.
    pub submit: Duration,
    /// Highest OS thread count of the whole process sampled during an
    /// await-heavy run (`/proc/self/status`; 0 where unavailable).
    pub os_threads_peak: usize,
}

/// Splitmix-style value mixer so checksums depend on every bit.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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

/// How often (in submissions) the chain samples the live-value store.
const LIVE_SAMPLE_EVERY: usize = 128;

fn run_wide(rt: &LocalRuntime, n: usize, out: &mut Outcome) {
    let outs = rt.data_batch::<u64>("w", n);
    for (i, d) in outs.iter().enumerate() {
        let seed = i as u64;
        rt.submit(
            TaskSpec::new("t").output(d.id()),
            Constraints::new(),
            move |ctx| ctx.set_output(0, mix(seed)),
        )
        .expect("admitted");
    }
    rt.wait_all().expect("completes");
    out.checksum = outs
        .iter()
        .map(|d| *rt.get(d).expect("value present"))
        .fold(0u64, u64::wrapping_add);
}

fn run_chain(rt: &LocalRuntime, n: usize, out: &mut Outcome) {
    let acc = rt.data::<u64>("acc");
    rt.set_initial(&acc, 0u64);
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
            out.live_values_peak = out.live_values_peak.max(rt.live_value_count());
        }
    }
    rt.wait_all().expect("completes");
    out.checksum = *rt.get(&acc).expect("value present");
}

fn run_diamond(rt: &LocalRuntime, total_tasks: usize, out: &mut Outcome) {
    let carry = rt.data::<u64>("carry");
    rt.set_initial(&carry, 1u64);
    for b in 0..total_tasks / (DIAMOND_WIDTH + 2) {
        let src = rt.data::<u64>(format!("src{b}"));
        let branches = rt.data_batch::<u64>("br", DIAMOND_WIDTH);
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
    }
    rt.wait_all().expect("completes");
    out.checksum = *rt.get(&carry).expect("value present");
}

/// The await-heavy storm is submitted in this many slices, and the
/// deadline re-derived after each.
const AWAIT_SLICES: usize = 20;

/// The shortest await-heavy deadline, after the first submission.
const AWAIT_MIN_DEADLINE: Duration = Duration::from_millis(400);

/// Submits `n` async tasks that all `sleep_until` one common absolute
/// deadline, then samples the parked plateau until the deadline fires.
/// The deadline must pass well after every submission lands (and every
/// task is polled to its first `Pending`), so that the plateau reaches
/// `n` parked tasks regardless of worker count. How long submission
/// takes depends on the host and on what else runs beside this test,
/// so the deadline is derived from it: after the first slice of the
/// storm, and again after each later one, it moves out to three times
/// the whole storm's submission at the pace measured so far, never in.
/// Until the first slice is in, its tasks park on
/// [`AWAIT_MIN_DEADLINE`]; a task woken by a deadline that has since
/// moved parks again on the new one.
fn run_await_heavy(rt: &LocalRuntime, n: usize, out: &mut Outcome) {
    let outs = rt.data_batch::<u64>("a", n);
    let start = Instant::now();
    let deadline_us = Arc::new(AtomicU64::new(AWAIT_MIN_DEADLINE.as_micros() as u64));
    let slice = (n / AWAIT_SLICES).max(1);
    for (i, d) in outs.iter().enumerate() {
        if i > 0 && i % slice == 0 {
            let projected = start.elapsed().mul_f64(3.0 * n as f64 / i as f64);
            deadline_us.fetch_max(projected.as_micros() as u64, Ordering::Relaxed);
        }
        let seed = i as u64;
        let deadline_us = Arc::clone(&deadline_us);
        rt.submit_async(
            TaskSpec::new("a").output(d.id()),
            Constraints::new(),
            move |mut ctx| async move {
                loop {
                    let us = deadline_us.load(Ordering::Relaxed);
                    let deadline = start + Duration::from_micros(us);
                    if Instant::now() >= deadline {
                        break;
                    }
                    ctx.sleep_until(deadline).await;
                }
                ctx.set_output(0, mix(seed));
                ctx
            },
        )
        .expect("admitted");
    }
    out.submit = start.elapsed();
    let deadline = start + Duration::from_micros(deadline_us.load(Ordering::Relaxed));
    while Instant::now() < deadline {
        out.parked_samples += 1;
        out.parked_peak = out.parked_peak.max(rt.parked_count());
        out.os_threads_peak = out.os_threads_peak.max(os_thread_count());
        std::thread::sleep(Duration::from_millis(1));
    }
    rt.wait_all().expect("completes");
    out.checksum = outs
        .iter()
        .map(|d| *rt.get(d).expect("value present"))
        .fold(0u64, u64::wrapping_add);
}

/// Executes `case` once on `workers` worker threads.
pub fn run(case: &LocalCase, workers: usize) -> Outcome {
    let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
    let mut out = Outcome::default();
    (case.storm)(&rt, case.tasks, &mut out);
    out.live_values_peak = out.live_values_peak.max(rt.live_value_count());
    out.completed = rt.completed_count();
    out
}
