//! Stress tests of the local work-stealing executor: fine-grained
//! task storms must behave *identically* at any worker count — same
//! final values, same completed counts, well-formed telemetry — and
//! long `InOut` version chains must run in bounded memory.
//!
//! These are the behavioral guardrails for the dispatch hot path
//! (work-stealing deques, split locks, O(1) admission, value
//! eviction): any reordering bug, lost wakeup, or dropped task shows
//! up here as a checksum or count divergence.

use continuum_dag::TaskSpec;
use continuum_platform::Constraints;
use continuum_runtime::{LocalConfig, LocalRuntime, TraceBuffer};
use continuum_telemetry::{Event, TaskPhase, Track};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Splitmix-style mixer so checksums depend on every bit.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` independent tiny tasks; returns the wrapping sum of every
/// output.
fn run_fan_out(rt: &LocalRuntime, n: usize) -> u64 {
    let outs = rt.data_batch::<u64>("w", n);
    for (i, d) in outs.iter().enumerate() {
        let seed = i as u64;
        rt.submit(
            TaskSpec::new("t").output(d.id()),
            Constraints::new(),
            move |ctx| ctx.set_output(0, mix(seed)),
        )
        .unwrap();
    }
    rt.wait_all().unwrap();
    outs.iter()
        .map(|d| *rt.get(d).unwrap())
        .fold(0u64, u64::wrapping_add)
}

/// One serialized `InOut` chain of `n` steps; returns the final value.
fn run_chain(rt: &LocalRuntime, n: usize) -> u64 {
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
        .unwrap();
    }
    rt.wait_all().unwrap();
    *rt.get(&acc).unwrap()
}

/// Chained fan-out/fan-in diamonds over a carried datum; returns the
/// final carry. `blocks * (width + 2)` tasks total.
fn run_diamond(rt: &LocalRuntime, blocks: usize, width: usize) -> u64 {
    let carry = rt.data::<u64>("carry");
    rt.set_initial(&carry, 1u64);
    for b in 0..blocks {
        let src = rt.data::<u64>(format!("src{b}"));
        let branches = rt.data_batch::<u64>("br", width);
        rt.submit(
            TaskSpec::new("src").input(carry.id()).output(src.id()),
            Constraints::new(),
            |ctx| {
                let v: &u64 = ctx.input(0);
                ctx.set_output(0, mix(*v));
            },
        )
        .unwrap();
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
            .unwrap();
        }
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
        .unwrap();
    }
    rt.wait_all().unwrap();
    *rt.get(&carry).unwrap()
}

fn at_workers(workers: usize, run: impl Fn(&LocalRuntime) -> u64) -> (u64, usize, usize) {
    let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
    let checksum = run(&rt);
    (checksum, rt.completed_count(), rt.submitted_count())
}

/// A named task storm: drives a runtime and returns its checksum.
type Storm = Box<dyn Fn(&LocalRuntime) -> u64>;

/// The core equivalence property: a ≥5k-task storm of each topology
/// produces, at every worker count, exactly the single-worker result.
#[test]
fn task_storms_are_worker_count_invariant() {
    let storms: Vec<(&str, Storm)> = vec![
        (
            "fan_out",
            Box::new(|rt: &LocalRuntime| run_fan_out(rt, 5_000)),
        ),
        ("chain", Box::new(|rt: &LocalRuntime| run_chain(rt, 5_000))),
        (
            "diamond",
            Box::new(|rt: &LocalRuntime| run_diamond(rt, 500, 8)),
        ),
    ];
    for (name, run) in &storms {
        let (ref_sum, ref_completed, ref_submitted) = at_workers(1, run);
        assert_eq!(
            ref_completed, ref_submitted,
            "{name}: single-worker run lost tasks"
        );
        for workers in [2, 4, 8] {
            let (sum, completed, submitted) = at_workers(workers, run);
            assert_eq!(
                sum, ref_sum,
                "{name}: checksum diverged at {workers} workers"
            );
            assert_eq!(
                (completed, submitted),
                (ref_completed, ref_submitted),
                "{name}: task counts diverged at {workers} workers"
            );
        }
    }
}

/// A `steps`-long `InOut` chain on 4 workers; returns the peak of
/// `live_value_count()` sampled while submitting and after the run.
fn chain_live_peak(steps: u64) -> usize {
    let rt = LocalRuntime::new(LocalConfig::with_workers(4));
    let acc = rt.data::<u64>("acc");
    rt.set_initial(&acc, 0u64);
    let mut live_peak = 0usize;
    for i in 0..steps {
        rt.submit(
            TaskSpec::new("step").inout(acc.id()),
            Constraints::new(),
            move |ctx| {
                let v: &u64 = ctx.input(0);
                ctx.set_output(0, mix(v.wrapping_add(i)));
            },
        )
        .unwrap();
        if i % 256 == 0 {
            live_peak = live_peak.max(rt.live_value_count());
        }
    }
    rt.wait_all().unwrap();
    assert_eq!(rt.completed_count() as u64, steps);
    live_peak.max(rt.live_value_count())
}

/// The bounded-memory regression test for value liveness: a
/// 10 000-step `InOut` chain must finish holding O(1) live values, not
/// one per superseded version (the pre-eviction runtime retained all
/// 10 001).
#[test]
fn long_inout_chain_runs_in_bounded_memory() {
    // Sampled peaks race the executor, so allow a small in-flight
    // margin — the point is O(1) versus the chain length.
    let live_peak = chain_live_peak(10_000);
    assert!(
        live_peak <= 16,
        "live values must stay bounded over a 10k-step chain, peak = {live_peak}"
    );
}

/// Ten times longer: every record references its predecessor's, so a
/// runtime that kept them until its own drop would free 100 000 of
/// them recursively and overflow the stack.
#[test]
fn very_long_inout_chain_drops_without_recursion() {
    let live_peak = chain_live_peak(100_000);
    assert!(live_peak <= 16, "peak = {live_peak}");
}

/// The same chain abandoned before it ran (its first task fails): the
/// pending records still reference each other when the runtime drops.
#[test]
fn abandoned_chain_drops_without_recursion() {
    let rt = LocalRuntime::new(LocalConfig::with_workers(2));
    let acc = rt.data::<u64>("acc");
    rt.submit(
        TaskSpec::new("boom").output(acc.id()),
        Constraints::new(),
        |_| panic!("first link fails"),
    )
    .unwrap();
    for _ in 0..100_000 {
        rt.submit(
            TaskSpec::new("step").inout(acc.id()),
            Constraints::new(),
            |ctx| {
                let v = *ctx.input::<u64>(0);
                ctx.set_output(0, v + 1);
            },
        )
        .unwrap();
    }
    assert!(rt.wait_all().is_err());
    drop(rt);
}

/// A payload that records its own drop under its version's serial.
struct Tracked {
    value: u64,
    serial: usize,
    drops: Arc<Vec<AtomicU32>>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops[self.serial].fetch_add(1, Ordering::SeqCst);
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Access {
    In,
    Out,
    InOut,
}

#[derive(Debug)]
enum Step {
    /// Parameters over distinct data, in declaration order.
    Task(Vec<(usize, Access)>),
    Get(usize),
}

/// A random program over `data` data, drawn from `seed`.
fn random_program(seed: u64, data: usize, steps: usize) -> Vec<Step> {
    let mut state = seed;
    let mut next = move || {
        state = mix(state);
        state as usize
    };
    (0..steps)
        .map(|_| {
            if next() % 4 == 0 {
                return Step::Get(next() % data);
            }
            let mut params: Vec<(usize, Access)> = Vec::new();
            for _ in 0..1 + next() % 3 {
                let datum = next() % data;
                if params.iter().all(|(d, _)| *d != datum) {
                    let access = [Access::In, Access::Out, Access::InOut][next() % 3];
                    params.push((datum, access));
                }
            }
            Step::Task(params)
        })
        .collect()
}

/// Runs `program` at `workers` against the serial model of it: every
/// `get` and every final value must match, every payload must be
/// dropped exactly once — the superseded ones before `wait_all`
/// returns, whether they were read or not — and the values still held
/// afterwards are exactly the current versions.
fn check_program(program: &[Step], data: usize, workers: usize) {
    let versions = data
        + program
            .iter()
            .map(|step| match step {
                Step::Task(params) => params.iter().filter(|(_, a)| *a != Access::In).count(),
                Step::Get(_) => 0,
            })
            .sum::<usize>();
    let drops: Arc<Vec<AtomicU32>> = Arc::new((0..versions).map(|_| AtomicU32::new(0)).collect());

    let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
    let handles = rt.data_batch::<Tracked>("d", data);
    // The model: each datum's current (value, serial).
    let mut current: Vec<(u64, usize)> = (0..data).map(|d| (mix(d as u64), d)).collect();
    for (handle, (value, serial)) in handles.iter().zip(&current) {
        let drops = Arc::clone(&drops);
        rt.set_initial(
            handle,
            Tracked {
                value: *value,
                serial: *serial,
                drops,
            },
        );
    }
    let mut next_serial = data;
    for (index, step) in program.iter().enumerate() {
        match step {
            Step::Get(datum) => {
                let got = rt.get(&handles[*datum]).expect("current version produced");
                prop_assert_eq!(got.value, current[*datum].0, "get of datum {}", datum);
            }
            Step::Task(params) => {
                let mut spec = TaskSpec::new("t");
                let mut folded = index as u64;
                for (datum, access) in params {
                    let id = handles[*datum].id();
                    spec = match access {
                        Access::In => spec.input(id),
                        Access::Out => spec.output(id),
                        Access::InOut => spec.inout(id),
                    };
                    if *access != Access::Out {
                        folded = mix(folded ^ current[*datum].0);
                    }
                }
                let mut serials = Vec::new();
                for (slot, (datum, _)) in
                    params.iter().filter(|(_, a)| *a != Access::In).enumerate()
                {
                    current[*datum] = (mix(folded ^ slot as u64), next_serial);
                    serials.push(next_serial);
                    next_serial += 1;
                }
                let salt = index as u64;
                let drops = Arc::clone(&drops);
                rt.submit(spec, Constraints::new(), move |ctx| {
                    let folded = (0..ctx.input_count())
                        .fold(salt, |acc, i| mix(acc ^ ctx.input::<Tracked>(i).value));
                    for (slot, serial) in serials.iter().enumerate() {
                        ctx.set_output(
                            slot,
                            Tracked {
                                value: mix(folded ^ slot as u64),
                                serial: *serial,
                                drops: Arc::clone(&drops),
                            },
                        );
                    }
                })
                .expect("program step admitted");
            }
        }
    }
    rt.wait_all().expect("program runs clean");
    for (serial, count) in drops.iter().enumerate() {
        let is_current = current.iter().any(|(_, s)| *s == serial);
        prop_assert_eq!(
            count.load(Ordering::SeqCst),
            u32::from(!is_current),
            "drops of version #{} after wait_all ({} workers)",
            serial,
            workers
        );
    }
    prop_assert_eq!(rt.live_value_count(), data, "one live value per datum");
    for (handle, (value, _)) in handles.iter().zip(&current) {
        prop_assert_eq!(rt.get(handle).expect("final value").value, *value);
    }
    drop(rt);
    for (serial, count) in drops.iter().enumerate() {
        prop_assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "version #{} at teardown",
            serial
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_payload_drops_exactly_once_and_on_time(
        seed in 0u64..u64::MAX,
        data in 1usize..9,
        steps in 1usize..80,
    ) {
        let program = random_program(seed, data, steps);
        for workers in [1usize, 2, 4] {
            check_program(&program, data, workers);
        }
    }
}

/// Telemetry from a multi-worker storm is well-formed: every task is
/// Submitted exactly once on the run track, and every submission is
/// matched by exactly one Committed (or Failed) marker.
#[test]
fn storm_telemetry_is_well_formed() {
    const TASKS: usize = 1_000;
    let (buffer, telemetry) = TraceBuffer::collector();
    {
        let rt = LocalRuntime::new(LocalConfig {
            workers: 4,
            telemetry,
            ..LocalConfig::default()
        });
        run_diamond(&rt, TASKS / 10, 8);
    } // drop closes the run span
    let events = buffer.events();

    let submitted = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::Instant {
                    track: Track::Run,
                    phase: TaskPhase::Submitted,
                    ..
                }
            )
        })
        .count();
    assert_eq!(submitted, TASKS, "one Submitted marker per task");

    let mut committed = 0usize;
    let mut failed = 0usize;
    let mut exec_spans = 0usize;
    for e in &events {
        match e {
            Event::Instant {
                track: Track::Worker(_),
                phase,
                ..
            } => match phase {
                TaskPhase::Committed => committed += 1,
                TaskPhase::Failed => failed += 1,
                _ => {}
            },
            Event::Span {
                track: Track::Worker(_),
                phase: TaskPhase::Executing,
                ..
            } => exec_spans += 1,
            _ => {}
        }
    }
    assert_eq!(failed, 0, "storm has no failing tasks");
    assert_eq!(committed, TASKS, "every Submitted task was Committed");
    assert_eq!(exec_spans, TASKS, "one executing span per task");

    // The run span closes last and covers every event.
    let run_end = events
        .iter()
        .find_map(|e| match e {
            Event::Span {
                track: Track::Run,
                name,
                start_us: 0,
                dur_us,
                ..
            } if name == "local-run" => Some(*dur_us),
            _ => None,
        })
        .expect("local-run span present");
    for e in &events {
        assert!(e.end_us() <= run_end, "event outside run span: {e:?}");
    }
}

/// A storm mixing resource-heavy parked tasks with light tasks drains
/// completely: parked tasks are re-injected as capacity frees up, and
/// light traffic keeps flowing around them.
#[test]
fn constraint_parked_tasks_drain_with_light_traffic() {
    let rt = LocalRuntime::new(LocalConfig {
        workers: 4,
        memory_mb: 1000,
        ..LocalConfig::default()
    });
    let heavy = rt.data_batch::<u64>("h", 8);
    let light = rt.data_batch::<u64>("l", 2_000);
    for (i, d) in heavy.iter().enumerate() {
        let seed = i as u64;
        rt.submit(
            TaskSpec::new("heavy").output(d.id()),
            Constraints::new().memory_mb(600),
            move |ctx| ctx.set_output(0, mix(seed)),
        )
        .unwrap();
    }
    for (i, d) in light.iter().enumerate() {
        let seed = i as u64;
        rt.submit(
            TaskSpec::new("light").output(d.id()),
            Constraints::new(),
            move |ctx| ctx.set_output(0, mix(seed).wrapping_mul(3)),
        )
        .unwrap();
    }
    rt.wait_all().unwrap();
    assert_eq!(rt.completed_count(), heavy.len() + light.len());
    for (i, d) in heavy.iter().enumerate() {
        assert_eq!(*rt.get(d).unwrap(), mix(i as u64));
    }
    for (i, d) in light.iter().enumerate() {
        assert_eq!(*rt.get(d).unwrap(), mix(i as u64).wrapping_mul(3));
    }
}
