//! The sim-engine placement path at paper scale (E1's 100 MareNostrum
//! nodes / 4 800 cores) on the three graph shapes that stress it
//! differently, under every scheduling policy:
//!
//! * **wide** — independent tasks: huge ready sets, many rounds where
//!   most offers cannot be placed;
//! * **deep** — fork/join ensembles: long dependency chains, one
//!   scheduling round per completion wave;
//! * **stencil** — halo-exchange rows: multi-input locality scoring,
//!   every placement weighs several candidate data-holding nodes.

use continuum_platform::presets::marenostrum;
use continuum_runtime::{
    EnergyScheduler, FifoScheduler, ListScheduler, LocalityScheduler, Scheduler, SimOptions,
    SimRuntime, SimWorkload,
};
use continuum_sim::FaultPlan;
use continuum_workflows::patterns;

fn schedulers(workload: &SimWorkload) -> Vec<(&'static str, Box<dyn Scheduler>)> {
    vec![
        ("fifo", Box::new(FifoScheduler::new())),
        ("locality", Box::new(LocalityScheduler::new())),
        (
            "dynamic-list",
            Box::new(ListScheduler::plan(workload, |t| {
                workload.profile(t).duration_s()
            })),
        ),
        ("energy", Box::new(EnergyScheduler::new())),
    ]
}

#[test]
fn smoke_cases_run_under_every_scheduler() {
    let runtime = SimRuntime::new(marenostrum(100), SimOptions::default());
    let cases = [
        ("wide", patterns::embarrassingly_parallel(400, 5.0)),
        ("deep", patterns::fork_join(12, 4, 8, 2.0)),
        ("stencil", patterns::stencil(10, 24, 1.0, 1_000_000)),
    ];
    for (case, workload) in &cases {
        for (policy, mut scheduler) in schedulers(workload) {
            let report = runtime
                .run(workload, scheduler.as_mut(), &FaultPlan::new())
                .expect("workload completes");
            assert_eq!(
                report.tasks_completed,
                workload.graph().len(),
                "{policy} on {case}"
            );
            assert!(report.makespan_s > 0.0, "{policy} on {case}");
        }
    }
}
