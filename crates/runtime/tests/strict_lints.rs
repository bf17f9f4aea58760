//! Strict-lint mode: both engines must reject bad workflows with the
//! same structured diagnostics the programmatic verifier — and hence
//! the `continuum-lint` CLI, which calls it — produces for the same
//! graph and platform.

use continuum_analyze::{check_task_constraints, Lint, LintMode, LintNode, Severity};
use continuum_dag::{TaskId, TaskSpec};
use continuum_platform::{Constraints, NodeCapacity, NodeSpec, PlatformBuilder};
use continuum_runtime::{
    FifoScheduler, LocalConfig, LocalRuntime, RuntimeError, SimOptions, SimRuntime, SimWorkload,
    TaskProfile,
};
use continuum_sim::FaultPlan;

/// A workload with one impossible task (64 cores on a 4-core cluster)
/// and one read of a datum nobody produces.
fn bad_workload() -> SimWorkload {
    let mut w = SimWorkload::new();
    let ghost = w.data("ghost");
    let out = w.data("out");
    w.task(
        TaskSpec::new("wants-64-cores").input(ghost).output(out),
        TaskProfile::new(1.0).constraints(Constraints::new().compute_units(64)),
    )
    .unwrap();
    w
}

#[test]
fn sim_reject_carries_the_cli_diagnostics() {
    let w = bad_workload();
    let platform = PlatformBuilder::new()
        .cluster("c", 2, NodeSpec::hpc(4, 8_000))
        .build();
    let expected = w.lint_bundle(&platform).verify();
    assert!(
        expected.iter().any(|d| d.severity == Severity::Error),
        "fixture must contain error-severity findings"
    );

    let rt = SimRuntime::new(
        platform,
        SimOptions {
            strict_lints: LintMode::Reject,
            ..SimOptions::default()
        },
    );
    match rt.run(&w, &mut FifoScheduler::new(), &FaultPlan::new()) {
        Err(RuntimeError::LintRejected { diagnostics }) => assert_eq!(diagnostics, expected),
        other => panic!("expected LintRejected, got {other:?}"),
    }
}

#[test]
fn sim_warn_mode_reports_but_runs() {
    let mut w = SimWorkload::new();
    let d = w.data("d");
    w.task(TaskSpec::new("t").output(d), TaskProfile::new(1.0))
        .unwrap();
    let platform = PlatformBuilder::new()
        .cluster("c", 1, NodeSpec::hpc(4, 8_000))
        .build();
    let rt = SimRuntime::new(
        platform,
        SimOptions {
            strict_lints: LintMode::Warn,
            ..SimOptions::default()
        },
    );
    let report = rt
        .run(&w, &mut FifoScheduler::new(), &FaultPlan::new())
        .expect("warn mode must not reject");
    assert_eq!(report.tasks_completed, 1);
}

#[test]
fn sim_reject_passes_clean_workloads() {
    let mut w = SimWorkload::new();
    let raw = w.initial_data("raw", 1_000, None);
    let out = w.data("out");
    w.task(
        TaskSpec::new("consume").input(raw).output(out),
        TaskProfile::new(1.0),
    )
    .unwrap();
    let platform = PlatformBuilder::new()
        .cluster("c", 1, NodeSpec::hpc(4, 8_000))
        .build();
    let rt = SimRuntime::new(
        platform,
        SimOptions {
            strict_lints: LintMode::Reject,
            ..SimOptions::default()
        },
    );
    let report = rt
        .run(&w, &mut FifoScheduler::new(), &FaultPlan::new())
        .expect("declared initial data satisfies the producer lint");
    assert_eq!(report.tasks_completed, 1);
}

#[test]
fn local_reject_matches_the_programmatic_diagnostic() {
    let rt = LocalRuntime::new(LocalConfig {
        workers: 2,
        strict_lints: LintMode::Reject,
        ..LocalConfig::default()
    });
    let d = rt.data::<i32>("d");
    let constraints = Constraints::new().compute_units(64);
    // What the verifier says about the same task on the same machine.
    let machine = LintNode {
        name: "local".to_string(),
        capacity: NodeCapacity::new(2, 16_384),
    };
    let expected = check_task_constraints(
        TaskId::from_raw(0),
        "huge",
        &constraints,
        std::slice::from_ref(&machine),
    )
    .expect("64 cores on a 2-core machine is unsatisfiable");

    match rt.submit(TaskSpec::new("huge").output(d.id()), constraints, |_| {}) {
        Err(RuntimeError::LintRejected { diagnostics }) => {
            assert_eq!(diagnostics, vec![expected]);
        }
        other => panic!("expected LintRejected, got {other:?}"),
    }
}

#[test]
fn local_rejects_reads_without_producer_until_initial_set() {
    let rt = LocalRuntime::new(LocalConfig {
        workers: 1,
        strict_lints: LintMode::Reject,
        ..LocalConfig::default()
    });
    let never = rt.data::<i32>("never");
    let out = rt.data::<i32>("out");
    let spec = || TaskSpec::new("reader").input(never.id()).output(out.id());
    let body = |ctx: &mut continuum_runtime::TaskContext| {
        let v: &i32 = ctx.input(0);
        ctx.set_output(0, v + 1);
    };

    match rt.submit(spec(), Constraints::new(), body) {
        Err(RuntimeError::LintRejected { diagnostics }) => {
            assert_eq!(diagnostics.len(), 1);
            assert_eq!(diagnostics[0].lint, Lint::ReadWithoutProducer);
            assert!(diagnostics[0].message.contains("never"), "names the datum");
        }
        other => panic!("expected LintRejected, got {other:?}"),
    }

    // Providing the initial value makes the same submission legal.
    rt.set_initial(&never, 41);
    rt.submit(spec(), Constraints::new(), body).unwrap();
    assert_eq!(*rt.get(&out).unwrap(), 42);
}

#[test]
fn local_off_mode_keeps_the_legacy_unschedulable_error() {
    let rt = LocalRuntime::new(LocalConfig::with_workers(2));
    let d = rt.data::<i32>("d");
    let err = rt
        .submit(
            TaskSpec::new("huge").output(d.id()),
            Constraints::new().compute_units(64),
            |_| {},
        )
        .unwrap_err();
    assert!(matches!(err, RuntimeError::Unschedulable { .. }));
}

#[test]
fn local_warn_mode_reports_but_submits() {
    let rt = LocalRuntime::new(LocalConfig {
        workers: 1,
        strict_lints: LintMode::Warn,
        ..LocalConfig::default()
    });
    let never = rt.data::<i32>("never");
    let out = rt.data::<i32>("out");
    // The same read without producer `Reject` refuses: `Warn` prints the
    // finding and submits the task.
    let id = rt
        .submit(
            TaskSpec::new("reader").input(never.id()).output(out.id()),
            Constraints::new(),
            |ctx| {
                let v: &i32 = ctx.input(0);
                ctx.set_output(0, v + 1);
            },
        )
        .expect("warn mode must not reject");
    assert_eq!(id, TaskId::from_raw(0));
    // A value set afterwards reaches the reader submitted before it.
    rt.set_initial(&never, 41);
    assert_eq!(*rt.get(&out).unwrap(), 42);
}
