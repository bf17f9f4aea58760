//! Scheduling macro-benchmark: wall-clock cost of the sim-engine
//! placement path at paper scale (E1's 100 MareNostrum nodes / 4800
//! cores), on the three graph shapes that stress it differently:
//!
//! * **wide** — thousands of independent tasks: huge ready sets, many
//!   rounds where most offers cannot be placed;
//! * **deep** — fork/join ensembles: long dependency chains, one
//!   scheduling round per completion wave;
//! * **stencil** — halo-exchange rows: multi-input locality scoring,
//!   every placement weighs several candidate data-holding nodes.
//!
//! The simulated makespan is *virtual*; everything measured here is
//! the real time the scheduler and engine burn to produce it, which is
//! what limits simulation fidelity at scale. Results are written to
//! `BENCH_sched.json` by the `sched_bench` binary:
//!
//! ```text
//! cargo run --release -p continuum-bench --bin sched_bench -- --label indexed
//! cargo run --release -p continuum-bench --bin sched_bench -- --smoke --check
//! cargo bench -p continuum-bench --bench sched
//! ```

use crate::alloc;
use continuum_platform::{NodeSpec, Platform, PlatformBuilder};
use continuum_runtime::{
    EnergyScheduler, FifoScheduler, ListScheduler, LocalityScheduler, Scheduler, SimOptions,
    SimRuntime, SimWorkload,
};
use continuum_sim::FaultPlan;
use continuum_workflows::patterns;
use serde::Serialize;
use std::time::Instant;

/// One benchmark workload pinned to a platform.
pub struct SchedCase {
    /// Shape name (`wide`, `deep`, `stencil`).
    pub name: &'static str,
    /// The workload to schedule.
    pub workload: SimWorkload,
    /// The platform to schedule onto.
    pub platform: Platform,
}

/// Scheduler policies exercised by the macro-bench.
pub const SCHEDULERS: [&str; 4] = ["fifo", "locality", "dynamic-list", "energy"];

/// Builds a scheduler by policy name for `workload`.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn make_scheduler(name: &str, workload: &SimWorkload) -> Box<dyn Scheduler> {
    match name {
        "fifo" => Box::new(FifoScheduler::new()),
        "locality" => Box::new(LocalityScheduler::new()),
        "dynamic-list" => Box::new(ListScheduler::plan(workload, |t| {
            workload.profile(t).duration_s()
        })),
        "energy" => Box::new(EnergyScheduler::new()),
        other => panic!("unknown scheduler `{other}`"),
    }
}

/// The E1 platform: `nodes` MareNostrum-class nodes (48 cores, 96 GB).
pub fn mn_platform(nodes: usize) -> Platform {
    PlatformBuilder::new()
        .cluster("mn4", nodes, NodeSpec::hpc(48, 96_000))
        .build()
}

/// The benchmark cases. `smoke` shrinks task counts ~10× for CI while
/// keeping the 100-node platform, so the per-round node scans stay at
/// paper scale.
pub fn cases(smoke: bool) -> Vec<SchedCase> {
    let nodes = 100;
    let (wide_n, ensembles, depth, rows, cols) = if smoke {
        (400, 12, 8, 10, 24)
    } else {
        (4000, 48, 24, 50, 80)
    };
    vec![
        SchedCase {
            name: "wide",
            workload: patterns::embarrassingly_parallel(wide_n, 5.0),
            platform: mn_platform(nodes),
        },
        SchedCase {
            name: "deep",
            workload: patterns::fork_join(ensembles, 4, depth, 2.0),
            platform: mn_platform(nodes),
        },
        SchedCase {
            name: "stencil",
            workload: patterns::stencil(rows, cols, 1.0, 1_000_000),
            platform: mn_platform(nodes),
        },
    ]
}

/// One timed run of one case under one scheduler.
#[derive(Debug, Clone, Serialize)]
pub struct SchedMeasurement {
    /// Case name.
    pub case: String,
    /// Scheduler policy name.
    pub scheduler: String,
    /// Tasks completed.
    pub tasks: usize,
    /// Simulated (virtual) makespan of the run.
    pub makespan_s: f64,
    /// Best wall-clock milliseconds over the repeats.
    pub wall_ms: f64,
    /// Tasks scheduled per wall-clock second (best repeat).
    pub tasks_per_sec: f64,
    /// Heap allocations performed during one run (0 in a process that
    /// does not register [`crate::alloc::CountingAllocator`]).
    pub allocations: u64,
}

/// Runs `case` under scheduler `sched` `repeats` times and reports the
/// fastest run.
pub fn measure(case: &SchedCase, sched: &str, repeats: usize) -> SchedMeasurement {
    let runtime = SimRuntime::new(case.platform.clone(), SimOptions::default());
    let faults = FaultPlan::new();
    let mut best_ms = f64::INFINITY;
    let mut tasks = 0;
    let mut makespan_s = 0.0;
    let mut allocations = 0;
    for _ in 0..repeats.max(1) {
        let mut scheduler = make_scheduler(sched, &case.workload);
        let allocs_before = alloc::allocations();
        let start = Instant::now();
        let report = runtime
            .run(&case.workload, scheduler.as_mut(), &faults)
            .expect("bench workload completes");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        allocations = alloc::allocations() - allocs_before;
        tasks = report.tasks_completed;
        makespan_s = report.makespan_s;
        best_ms = best_ms.min(wall_ms);
    }
    SchedMeasurement {
        case: case.name.to_string(),
        scheduler: sched.to_string(),
        tasks,
        makespan_s,
        wall_ms: best_ms,
        tasks_per_sec: tasks as f64 / (best_ms / 1e3),
        allocations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cases_run_under_every_scheduler() {
        for case in cases(true) {
            for sched in SCHEDULERS {
                let m = measure(&case, sched, 1);
                assert_eq!(
                    m.tasks,
                    case.workload.graph().len(),
                    "{sched} on {}",
                    case.name
                );
                assert!(m.makespan_s > 0.0);
                assert!(m.wall_ms.is_finite() && m.wall_ms > 0.0);
            }
        }
    }
}
