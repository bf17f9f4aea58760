//! Ring-recorder overhead micro-benchmark: how much does leaving the
//! always-on flight recorder attached cost a real local-runtime
//! workload, versus the no-op recorder and the unbounded trace buffer?
//!
//! ```text
//! cargo run --release -p continuum-bench --bin observe_bench -- --label current
//! cargo run --release -p continuum-bench --bin observe_bench -- --smoke --check
//! ```
//!
//! Results merge into `BENCH_observe.json` under `--label` (same
//! labelled-trajectory scheme as `sched_bench`). `--check` exits
//! non-zero if the ring recorder costs more than 2x the no-op
//! baseline, or if its memory is not bounded by the configured
//! capacity — the acceptance tripwire for "cheap enough to leave on".
//!
//! A second section benchmarks the federated trace merge: a synthetic
//! N-agent, H-hop trace set (every agent clock skewed) is merged and
//! attributed, asserting the causal invariants (no happens-before
//! violations, buckets sum to the makespan) while timing the pipeline.

use continuum_bench::cli::{results_value, BenchArgs};
use continuum_dag::TaskSpec;
use continuum_runtime::{LocalConfig, LocalRuntime, RecorderHandle, RingRecorder, TraceBuffer};
use continuum_telemetry::{
    cross_agent_report, merge_traces, AgentTrace, Event, SpanContext, TaskPhase, Track,
};
use std::time::Instant;

const RING_CAPACITY: usize = 4096;

/// Runs `tasks` trivial tasks on 4 workers with the given recorder and
/// returns the wall time in milliseconds.
fn run_local(tasks: usize, telemetry: RecorderHandle) -> f64 {
    let start = Instant::now();
    let rt = LocalRuntime::new(LocalConfig {
        workers: 4,
        telemetry,
        ..LocalConfig::default()
    });
    let outs = rt.data_batch::<u64>("o", tasks);
    for (i, o) in outs.iter().enumerate() {
        rt.submit(
            TaskSpec::new("w").output(o.id()),
            continuum_platform::Constraints::new(),
            move |ctx| ctx.set_output(0, i as u64),
        )
        .unwrap();
    }
    rt.wait_all().unwrap();
    assert_eq!(rt.completed_count(), tasks);
    drop(rt);
    start.elapsed().as_secs_f64() * 1e3
}

#[derive(serde::Serialize)]
struct Measurement {
    recorder: &'static str,
    wall_ms: f64,
    events_retained: u64,
    events_overwritten: u64,
    /// Wall time relative to the `noop` row; filled in by `main`.
    overhead_vs_noop: f64,
}

fn measure(recorder: &'static str, tasks: usize, repeats: usize) -> Measurement {
    let mut best_ms = f64::INFINITY;
    let (mut retained, mut overwritten) = (0u64, 0u64);
    for _ in 0..repeats {
        let (ms, kept, dropped) = match recorder {
            "noop" => (run_local(tasks, RecorderHandle::noop()), 0, 0),
            "ring" => {
                let (ring, handle) = RingRecorder::collector(RING_CAPACITY);
                let ms = run_local(tasks, handle);
                assert!(
                    ring.len() <= ring.capacity(),
                    "ring exceeded its capacity: {} > {}",
                    ring.len(),
                    ring.capacity()
                );
                (ms, ring.len() as u64, ring.overwritten())
            }
            "ring_sampled_1_in_8" => {
                let (ring, handle) = RingRecorder::sampling_collector(RING_CAPACITY, 8);
                let ms = run_local(tasks, handle);
                assert!(ring.len() <= ring.capacity());
                (ms, ring.len() as u64, ring.overwritten())
            }
            "trace_buffer" => {
                let (buffer, handle) = TraceBuffer::collector();
                let ms = run_local(tasks, handle);
                (ms, buffer.len() as u64, 0)
            }
            other => unreachable!("unknown recorder {other}"),
        };
        if ms < best_ms {
            best_ms = ms;
            retained = kept;
            overwritten = dropped;
        }
    }
    Measurement {
        recorder,
        wall_ms: best_ms,
        events_retained: retained,
        events_overwritten: overwritten,
        overhead_vs_noop: f64::NAN,
    }
}

/// Deterministic synthetic federated run: a coordinator dispatching
/// `hops` sequential offloads round-robin over `agents` agents, each
/// agent recording on a clock skewed by a per-agent constant.
fn synthetic_federated(agents: usize, hops: usize) -> Vec<AgentTrace> {
    let root = SpanContext::root(0xC0FFEE, SpanContext::COORDINATOR);
    let skew = |a: usize| (a as i64 * 131_071) - 3_000_000;
    let mut coord = Vec::with_capacity(hops + 1);
    let mut per_agent: Vec<Vec<Event>> = vec![Vec::new(); agents];
    let mut t = 8_000_000u64; // keeps every skewed clock positive
    for h in 0..hops {
        let a = h % agents;
        let hop = root.child(SpanContext::COORDINATOR, h as u64 + 1);
        let (send, c1, cm, c2) = (t, t + 40, t + 340, t + 1_040);
        let reply = c2 + 60;
        coord.push(Event::Span {
            track: Track::Agent(a as u32),
            name: format!("offload:t{h}"),
            phase: TaskPhase::Offloading,
            start_us: send,
            dur_us: reply - send,
            ctx: Some(hop),
        });
        let remote = hop.child(a as u32, 1);
        let to_a = |x: u64| (x as i64 - skew(a)) as u64;
        per_agent[a].push(Event::Span {
            track: Track::Agent(a as u32),
            name: format!("t{h}"),
            phase: TaskPhase::Transferring,
            start_us: to_a(c1),
            dur_us: cm - c1,
            ctx: Some(remote),
        });
        per_agent[a].push(Event::Span {
            track: Track::Agent(a as u32),
            name: format!("t{h}"),
            phase: TaskPhase::Executing,
            start_us: to_a(cm),
            dur_us: c2 - cm,
            ctx: Some(remote),
        });
        t = reply + 25;
    }
    coord.insert(
        0,
        Event::Span {
            track: Track::Run,
            name: "bench-app".into(),
            phase: TaskPhase::Executing,
            start_us: 0,
            dur_us: t + 50,
            ctx: Some(root),
        },
    );
    let mut traces = vec![AgentTrace {
        agent_id: SpanContext::COORDINATOR,
        events: coord,
    }];
    for (a, events) in per_agent.into_iter().enumerate() {
        traces.push(AgentTrace {
            agent_id: a as u32,
            events,
        });
    }
    traces
}

#[derive(serde::Serialize)]
struct MergeMeasurement {
    agents: usize,
    hops: usize,
    merged_events: u64,
    merge_ms: f64,
}

/// Times `merge_traces` + `cross_agent_report` over the synthetic set
/// and asserts the causal invariants on every repeat.
fn measure_merge(agents: usize, hops: usize, repeats: usize) -> MergeMeasurement {
    let traces = synthetic_federated(agents, hops);
    let mut best_ms = f64::INFINITY;
    let mut merged_events = 0u64;
    for _ in 0..repeats {
        let start = Instant::now();
        let merged = merge_traces(&traces).expect("synthetic traces merge");
        let xa = cross_agent_report(&merged.events).expect("cross-agent view");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert!(
            merged.violations.is_empty(),
            "synthetic merge produced violations: {:?}",
            merged.violations
        );
        assert_eq!(
            xa.attributed_total_us(),
            xa.makespan_us,
            "attribution must tile the makespan exactly"
        );
        assert_eq!(xa.hops.len(), hops + 1, "root row plus one row per hop");
        merged_events = merged.events.len() as u64;
        best_ms = best_ms.min(ms);
    }
    MergeMeasurement {
        agents,
        hops,
        merged_events,
        merge_ms: best_ms,
    }
}

fn main() {
    let args = BenchArgs::parse("BENCH_observe.json", 5);
    let (smoke, check, label, out_path, repeats) =
        (args.smoke, args.check, &args.label, &args.out, args.repeats);
    let tasks = if smoke { 300 } else { 2000 };

    println!(
        "ring-recorder overhead — {tasks} trivial local tasks, 4 workers, \
         ring capacity {RING_CAPACITY}, best of {repeats}, label `{label}`"
    );
    println!(
        "{:<22} {:>10} {:>10} {:>12} {:>12}",
        "recorder", "wall_ms", "vs_noop", "retained", "overwritten"
    );
    let recorders = ["noop", "ring", "ring_sampled_1_in_8", "trace_buffer"];
    let mut results = Vec::new();
    let mut noop_ms = f64::NAN;
    for recorder in recorders {
        let mut m = measure(recorder, tasks, repeats);
        if recorder == "noop" {
            noop_ms = m.wall_ms;
        }
        m.overhead_vs_noop = m.wall_ms / noop_ms;
        println!(
            "{:<22} {:>10.2} {:>9.2}x {:>12} {:>12}",
            m.recorder, m.wall_ms, m.overhead_vs_noop, m.events_retained, m.events_overwritten
        );
        results.push(m);
    }

    let (merge_agents, merge_hops) = if smoke { (8, 400) } else { (32, 8_000) };
    let mm = measure_merge(merge_agents, merge_hops, repeats);
    println!(
        "\nfederated merge — {} agents, {} hops, {} merged events: {:.2} ms \
         (merge + cross-agent attribution, invariants asserted)",
        mm.agents, mm.hops, mm.merged_events, mm.merge_ms
    );

    // Merge into the output file, preserving other labels.
    args.record_run(
        "observe-ring",
        Vec::new(),
        vec![
            ("tasks".to_string(), serde::Value::U64(tasks as u64)),
            args.repeats_field(),
            (
                "ring_capacity".to_string(),
                serde::Value::U64(RING_CAPACITY as u64),
            ),
            results_value(&results),
            ("merge".to_string(), serde::Serialize::to_json_value(&mm)),
        ],
    );
    println!("\nwrote {} result(s) to {out_path}", results.len());

    if check {
        let ring_overhead = results
            .iter()
            .find(|m| m.recorder == "ring")
            .map(|m| m.overhead_vs_noop)
            .unwrap_or(f64::INFINITY);
        if ring_overhead > 2.0 {
            eprintln!(
                "REGRESSION: ring recorder is {ring_overhead:.2}x the no-op baseline \
                 (limit 2.00x)"
            );
            std::process::exit(2);
        }
        println!("check passed: ring overhead {ring_overhead:.2}x <= 2.00x");
    }
}
