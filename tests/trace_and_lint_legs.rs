//! Tier-1 legs for two gates CI otherwise reaches only through the
//! `experiments` binary, which the root suite never builds: the trace
//! pipeline's fixed point (export → read-back → re-export) on a real
//! engine trace, and strict-lint rejection of a bad workflow.

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
