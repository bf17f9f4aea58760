//! Lazy materialization keeps the simulator's resident frontier well
//! under the campaign it runs.

mod workloads;

use workloads::sim::{allocation_violation, campaign, run_lazy, CHUNKS_1E4};

#[test]
fn smoke_scale_completes_within_residency_bounds() {
    let campaign = campaign(CHUNKS_1E4);
    let out = run_lazy(&campaign);
    assert_eq!(out.report.tasks_completed, campaign.task_count());
    assert!(
        out.peak_materialized_tasks < campaign.task_count() / 2,
        "peak {} vs total {}",
        out.peak_materialized_tasks,
        campaign.task_count()
    );
    assert!(out.retired_tasks > 0);
}

#[test]
fn check_catches_per_task_allocation() {
    // The calendar-queue engine's 10⁴-task row: 4 412 for 9 989 tasks.
    assert!(allocation_violation(9_989, 4_412).is_some());
    assert!(allocation_violation(9_989, 9_989 / 4).is_none());
}
