//! Tier-1 legs for gates CI otherwise reaches only through the
//! `experiments` binary or member crates' suites, which the root suite
//! never builds: the trace pipeline's fixed point (export → read-back →
//! re-export) on a real engine trace, the export's bytes on a traced WDL
//! run, the task graph's JSON, strict-lint rejection of a bad workflow,
//! and the GWAS campaign running the same built as streamed.

use continuum::dag::{AccessProcessor, TaskGraph, TaskSpec};
use continuum::platform::{NodeSpec, PlatformBuilder};
use continuum::runtime::{
    FifoScheduler, LintMode, ListScheduler, LocalityScheduler, RuntimeError, SimOptions,
    SimRuntime, SimWorkload, TaskProfile,
};
use continuum::sim::FaultPlan;
use continuum::telemetry::{
    chrome_trace, parse_chrome_trace, CounterKey, Event, TaskPhase, TraceBuffer,
};
use continuum::workflows::{parse_wdl, GwasWorkload};
use continuum_analyze::Lint;
use rand::prelude::*;
use std::fmt::Write as _;

#[test]
fn sim_trace_export_is_a_fixed_point_of_read_back() {
    let workload = GwasWorkload::new()
        .chromosomes(4)
        .chunks_per_chromosome(8)
        .seed(1)
        .build();
    let platform = PlatformBuilder::new()
        .cluster("mn4", 8, NodeSpec::hpc(48, 96_000))
        .build();
    let (buffer, telemetry) = TraceBuffer::collector();
    let options = SimOptions {
        telemetry,
        ..SimOptions::default()
    };
    SimRuntime::new(platform, options)
        .run(&workload, &mut LocalityScheduler::new(), &FaultPlan::new())
        .expect("campaign completes");

    let exported = chrome_trace(&buffer.events());
    let read_back = parse_chrome_trace(&exported).expect("own export parses");
    assert!(read_back.len() > workload.graph().len(), "a span per task");
    assert_eq!(chrome_trace(&read_back), exported);
}

/// A `rows × cols` stencil sweep as WDL text, each task reading its
/// three neighbours in the row above, with seeded durations and output
/// sizes.
fn stencil_wdl(rows: usize, cols: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::new();
    for r in 0..rows {
        for c in 0..cols {
            let dur = 8.0 + 4.0 * rng.gen::<f64>();
            let out_bytes = 1_000_000 + rng.gen_range(0..1_000_000u64);
            let _ = write!(text, "task stencil_r{r}");
            if r > 0 {
                let inputs: Vec<String> = (c.saturating_sub(1)..=(c + 1).min(cols - 1))
                    .map(|p| format!("s{}_{p}", r - 1))
                    .collect();
                let _ = write!(text, " in={}", inputs.join(","));
            }
            let _ = writeln!(
                text,
                " out=s{r}_{c} dur={dur:.3} out_bytes={out_bytes} group=row{r}"
            );
        }
    }
    text
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The Chrome export of a traced 30 × 30 WDL stencil run on a cluster
/// and a cloud of four-core nodes — most events share their timestamp
/// with others, and the trace has counters and input-transfer spans —
/// pinned by length
/// and FNV-1a digest: the bytes stored traces and other tools read.
#[test]
fn stencil_trace_export_bytes_are_pinned() {
    let workload = parse_wdl(&stencil_wdl(30, 30, 42)).expect("generated WDL parses");
    let (buffer, telemetry) = TraceBuffer::collector();
    let options = SimOptions {
        telemetry,
        ..SimOptions::default()
    };
    let mut plan = ListScheduler::plan(&workload, |t| workload.profile(t).duration_s());
    let platform = PlatformBuilder::new()
        .cluster("hpc", 4, NodeSpec::hpc(4, 96_000))
        .cloud("cloud", 4, NodeSpec::cloud_vm(4, 16_000))
        .build();
    let report = SimRuntime::new(platform, options)
        .run(&workload, &mut plan, &FaultPlan::new())
        .expect("stencil completes");
    assert_eq!(report.tasks_completed, 900);
    let events = buffer.take();
    let shared = events
        .windows(2)
        .filter(|w| w[0].at_us() == w[1].at_us())
        .count();
    assert!(2 * shared > events.len(), "most events share a timestamp");
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Counter {
            key: CounterKey::TransferStallMicros,
            ..
        }
    )));
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Span {
            phase: TaskPhase::Transferring,
            ..
        }
    )));

    let text = chrome_trace(&events);
    assert_eq!(text.len(), 661_167, "export length changed");
    assert_eq!(
        fnv1a(text.as_bytes()),
        0xe1a0_2ee4_e91b_c164,
        "export bytes changed"
    );
}

/// Two producers of one stream, a stage that streams on and logs, and
/// a consumer gated on a versioned input and a stream at once: stream
/// edges, spilled edge lists and group labels in one small graph.
fn streamed_graph() -> TaskGraph {
    let mut ap = AccessProcessor::new();
    let [raw, feats, model, log, report] =
        ["raw", "feats", "model", "log", "report"].map(|name| ap.new_data(name));
    for spec in [
        TaskSpec::new("train").output(model),
        TaskSpec::new("sensor_a").group("edge").stream_out(raw),
        TaskSpec::new("sensor_b").group("edge").stream_out(raw),
        TaskSpec::new("featurize")
            .stream_in(raw)
            .stream_out(feats)
            .inout(log),
        TaskSpec::new("infer")
            .input(model)
            .stream_in(feats)
            .inout(log)
            .output(report),
    ] {
        ap.register(spec).expect("valid task");
    }
    ap.into_parts().1
}

/// The JSON of a task graph — what lint bundles and stored graphs
/// hold — pinned by length and FNV-1a digest for a seeded 4 × 8 GWAS
/// campaign and a streamed graph, and read back to the same text.
#[test]
fn task_graph_json_is_pinned_and_round_trips() {
    let gwas = GwasWorkload::new()
        .chromosomes(4)
        .chunks_per_chromosome(8)
        .seed(7)
        .build();
    let streamed = streamed_graph();
    for (name, graph, len, digest) in [
        ("gwas", gwas.graph(), 25_946, 0x3a34_0c3b_ba56_b2d5),
        ("streamed", &streamed, 1_247, 0x22bc_2036_40ec_b701),
    ] {
        let text = serde::to_string(graph);
        let back: TaskGraph = serde::from_str(&text).expect("own JSON parses");
        assert_eq!(serde::to_string(&back), text, "{name}: read-back differs");
        assert_eq!(text.len(), len, "{name}: JSON length changed");
        assert_eq!(fnv1a(text.as_bytes()), digest, "{name}: JSON bytes changed");
    }
}

/// `build()` is the lazy generator drained in full, so an eager run of
/// the built campaign and a lazy run whose window stays ahead of what
/// the platform runs at once place and time every task alike.
#[test]
fn built_and_streamed_gwas_campaigns_run_alike() {
    let campaign = GwasWorkload::new()
        .chromosomes(4)
        .chunks_per_chromosome(8)
        .seed(1);
    let platform = PlatformBuilder::new()
        .cluster("mn", 2, NodeSpec::hpc(8, 96_000))
        .build();
    let runtime = SimRuntime::new(platform, SimOptions::default());
    let (report, trace) = runtime
        .run_traced(
            &campaign.build(),
            &mut LocalityScheduler::new(),
            &FaultPlan::new(),
        )
        .expect("built campaign completes");
    // Sixteen cores, plus imputations waiting for memory.
    let window = 2 * 8 + 12;
    let lazy = runtime
        .run_lazy(
            &mut campaign.clone().into_source(window),
            &mut LocalityScheduler::new(),
            &FaultPlan::new(),
        )
        .expect("streamed campaign completes");
    assert_eq!(report.tasks_completed, campaign.task_count());
    assert_eq!(lazy.report, report);
    assert_eq!(lazy.trace, trace);
}

#[test]
fn strict_lints_reject_a_read_without_producer() {
    let mut workload = SimWorkload::new();
    let ghost = workload.data("ghost");
    let out = workload.data("out");
    workload
        .task(
            TaskSpec::new("reads-ghost").input(ghost).output(out),
            TaskProfile::new(1.0),
        )
        .unwrap();
    let platform = PlatformBuilder::new()
        .cluster("c", 1, NodeSpec::hpc(4, 8_000))
        .build();
    let options = SimOptions {
        strict_lints: LintMode::Reject,
        ..SimOptions::default()
    };
    match SimRuntime::new(platform, options).run(
        &workload,
        &mut FifoScheduler::new(),
        &FaultPlan::new(),
    ) {
        Err(RuntimeError::LintRejected { diagnostics }) => assert!(
            diagnostics
                .iter()
                .any(|d| d.lint == Lint::ReadWithoutProducer && d.data == Some(ghost)),
            "{diagnostics:?}"
        ),
        other => panic!("expected LintRejected, got {other:?}"),
    }
}
