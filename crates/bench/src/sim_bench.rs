//! Paper-scale SimRuntime macro-benchmark: the wall-clock and memory
//! cost of simulating the §VI-A GWAS campaign at 10⁴, 10⁵ and 10⁶
//! tasks, with the graph materialized lazily (a [`GwasSource`] window
//! ahead of the execution frontier) instead of built up front.
//!
//! Two things are measured per scale:
//!
//! * **event throughput** — discrete events processed per wall-clock
//!   second, which bounds simulation fidelity at campaign scale;
//! * **residency** — peak materialized tasks, peak live values and
//!   peak heap bytes, which lazy materialization keeps proportional to
//!   the frontier (window + one chromosome) rather than the campaign.
//!
//! Results are written to `BENCH_sim.json` by the `sim_bench` binary:
//!
//! ```text
//! cargo run --release -p continuum-bench --bin sim_bench -- --label lazy
//! cargo run --release -p continuum-bench --bin sim_bench -- --smoke --check
//! ```
//!
//! `--check` fails a run that allocates more than once per four tasks
//! (see [`check_violations`]).

use crate::alloc;
use continuum_platform::{NodeSpec, Platform, PlatformBuilder};
use continuum_runtime::{LocalityScheduler, SimOptions, SimRuntime};
use continuum_sim::FaultPlan;
use continuum_workflows::GwasWorkload;
use serde::Serialize;
use std::time::Instant;

/// One campaign scale pinned to a platform.
pub struct SimCase {
    /// Scale name (`1e4`, `1e5`, `1e6`).
    pub name: &'static str,
    /// Campaign parameters (chromosomes × chunks chosen so the task
    /// count lands on the scale's order of magnitude).
    pub campaign: GwasWorkload,
    /// Chunk pipelines materialized ahead of the frontier.
    pub window: usize,
    /// Nodes of the MareNostrum-class platform.
    pub nodes: usize,
}

impl SimCase {
    /// Number of tasks this case's campaign generates.
    pub fn task_count(&self) -> usize {
        self.campaign.task_count()
    }

    fn platform(&self) -> Platform {
        PlatformBuilder::new()
            .cluster("mn4", self.nodes, NodeSpec::hpc(48, 96_000))
            .build()
    }
}

/// The benchmark scales. `smoke` keeps only the 10⁴-task campaign
/// (CI budget); the full sweep adds 10⁵ and 10⁶. Task counts follow
/// `c·k·3 + c + 1` for `c` chromosomes × `k` chunks.
pub fn cases(smoke: bool) -> Vec<SimCase> {
    let mut v = vec![SimCase {
        name: "1e4",
        campaign: GwasWorkload::new()
            .chromosomes(22)
            .chunks_per_chromosome(151),
        window: 256,
        nodes: 100,
    }];
    if !smoke {
        v.push(SimCase {
            name: "1e5",
            campaign: GwasWorkload::new()
                .chromosomes(22)
                .chunks_per_chromosome(1_515),
            window: 256,
            nodes: 100,
        });
        v.push(SimCase {
            name: "1e6",
            campaign: GwasWorkload::new()
                .chromosomes(22)
                .chunks_per_chromosome(15_151),
            window: 256,
            nodes: 100,
        });
    }
    v
}

/// One timed lazy run of one scale.
#[derive(Debug, Clone, Serialize)]
pub struct SimMeasurement {
    /// Scale name.
    pub case: String,
    /// Tasks completed (the whole campaign).
    pub tasks: usize,
    /// Discrete events processed.
    pub events: u64,
    /// Wall-clock milliseconds for the run.
    pub wall_ms: f64,
    /// Events processed per wall-clock second.
    pub events_per_sec: f64,
    /// Simulated (virtual) makespan.
    pub makespan_s: f64,
    /// Peak materialized (non-retired) tasks — the frontier
    /// high-water mark lazy materialization is about.
    pub peak_materialized_tasks: usize,
    /// Tasks retired (payload tombstoned) over the run.
    pub retired_tasks: usize,
    /// Peak live values in the data registry.
    pub peak_live_values: usize,
    /// Peak event-queue occupancy.
    pub peak_event_queue: usize,
    /// Heap allocations during the run (0 without a counter).
    pub allocations: u64,
    /// Peak resident heap bytes during the run (0 without a counter).
    pub peak_resident_bytes: u64,
}

/// Runs `case` lazily and measures it. Allocations and peak bytes come
/// from [`crate::alloc`] and are 0 in a process that does not register
/// its allocator.
///
/// # Panics
///
/// Panics if the campaign fails to complete.
pub fn measure(case: &SimCase) -> SimMeasurement {
    let runtime = SimRuntime::new(case.platform(), SimOptions::default());
    let mut source = case.campaign.clone().into_source(case.window);
    alloc::reset_peak();
    let allocs_before = alloc::allocations();
    let start = Instant::now();
    let outcome = runtime
        .run_lazy(
            &mut source,
            &mut LocalityScheduler::new(),
            &FaultPlan::new(),
        )
        .expect("bench campaign completes");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    SimMeasurement {
        case: case.name.to_string(),
        tasks: outcome.report.tasks_completed,
        events: outcome.events_processed,
        wall_ms,
        events_per_sec: outcome.events_processed as f64 / (wall_ms / 1e3),
        makespan_s: outcome.report.makespan_s,
        peak_materialized_tasks: outcome.peak_materialized_tasks,
        retired_tasks: outcome.retired_tasks,
        peak_live_values: outcome.peak_live_values,
        peak_event_queue: outcome.peak_event_queue,
        allocations: alloc::allocations() - allocs_before,
        peak_resident_bytes: alloc::peak_bytes(),
    }
}

/// The `--check` predicate: admission, the event loop and retirement
/// may not allocate per task — at most one allocation per four tasks
/// (the heap-queue engine needs about one per seven at smoke scale, for
/// segment blocks and the window's name arenas). Returns the violations
/// as printable lines.
pub fn check_violations(results: &[SimMeasurement]) -> Vec<String> {
    results
        .iter()
        .filter(|m| m.allocations > m.tasks as u64 / 4)
        .map(|m| {
            format!(
                "{}: {} allocations for {} tasks (more than one per four: \
                 something on the per-task path allocates again)",
                m.case, m.allocations, m.tasks
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub_smoke() -> SimCase {
        // A sub-smoke campaign so `cargo test` stays fast; the real
        // 10⁴ scale runs in the binary's --smoke mode.
        SimCase {
            name: "test",
            campaign: GwasWorkload::new().chromosomes(2).chunks_per_chromosome(40),
            window: 8,
            nodes: 10,
        }
    }

    #[test]
    fn smoke_scale_completes_within_residency_bounds() {
        let case = sub_smoke();
        let m = measure(&case);
        assert_eq!(m.tasks, case.task_count());
        // Lazy materialization keeps the frontier well under the
        // campaign size even at test scale.
        assert!(
            m.peak_materialized_tasks < case.task_count() / 2,
            "peak {} vs total {}",
            m.peak_materialized_tasks,
            case.task_count()
        );
        assert!(m.retired_tasks > 0);
    }

    #[test]
    fn check_catches_per_task_allocation() {
        // The calendar-queue engine's smoke row: 4 412 for 9 989 tasks.
        let mut m = measure(&sub_smoke());
        (m.tasks, m.allocations) = (9_989, 4_412);
        let violations = check_violations(std::slice::from_ref(&m));
        assert_eq!(violations.len(), 1, "{violations:?}");
        m.allocations = 9_989 / 4;
        assert!(check_violations(&[m]).is_empty());
    }
}
