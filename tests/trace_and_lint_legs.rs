//! Tier-1 legs for gates CI otherwise reaches only through the
//! `experiments` binary or member crates' suites, which the root suite
//! never builds: the trace pipeline's fixed point (export → read-back →
//! re-export) on a real engine trace, strict-lint rejection of a bad
//! workflow, and the GWAS campaign running the same built as streamed.

use continuum::dag::TaskSpec;
use continuum::platform::{NodeSpec, PlatformBuilder};
use continuum::runtime::{
    FifoScheduler, LintMode, LocalityScheduler, RuntimeError, SimOptions, SimRuntime, SimWorkload,
    TaskProfile,
};
use continuum::sim::FaultPlan;
use continuum::telemetry::{chrome_trace, parse_chrome_trace, TraceBuffer};
use continuum::workflows::GwasWorkload;
use continuum_analyze::Lint;

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
