//! E3 — NMMB-Monarch port (§VI-A): "the code with PyCOMPSs was able
//! to achieve better speed-up thanks to the parallelization of the
//! sequential part of the application, composed of the initialization
//! scripts", in a workflow that mixes scripts with a multi-node MPI
//! simulation.

use crate::table::{fmt_s, fmt_x, ExperimentError, ExperimentTable, Scale};
use continuum_platform::{NodeSpec, PlatformBuilder};
use continuum_runtime::{FifoScheduler, SimOptions, SimRuntime};
use continuum_sim::FaultPlan;
use continuum_workflows::NmmbWorkload;

fn forecast(scale: Scale, parallel_init: bool) -> continuum_runtime::SimWorkload {
    let days = scale.pick(2, 5);
    NmmbWorkload::new()
        .days(days)
        .init_scripts(12)
        .init_script_s(90.0)
        .mpi_s(1_800.0)
        .mpi_nodes(4)
        .parallel_init(parallel_init)
        .build()
}

/// Runs sequential-init vs parallel-init forecasts.
pub fn run(scale: Scale) -> Result<ExperimentTable, ExperimentError> {
    let platform = PlatformBuilder::new()
        .cluster("mn4", 6, NodeSpec::hpc(48, 96_000))
        .build();
    let mut table = ExperimentTable::new(
        "e3",
        "PyCOMPSs NMMB-Monarch gains speed-up by parallelising the init scripts (§VI-A)",
        &["variant", "makespan_s", "speedup"],
    );
    let mut results = Vec::new();
    for (name, parallel) in [
        ("original driver (sequential init scripts)", false),
        ("PyCOMPSs port (parallel init scripts)", true),
    ] {
        let report = SimRuntime::new(platform.clone(), SimOptions::default()).run(
            &forecast(scale, parallel),
            &mut FifoScheduler::new(),
            &FaultPlan::new(),
        )?;
        results.push((name, report.makespan_s));
    }
    let base = results[0].1;
    for (name, makespan) in &results {
        table.row([name.to_string(), fmt_s(*makespan), fmt_x(base / makespan)]);
    }
    table.finding(format!(
        "parallelising the 12 init scripts yields {:.2}x on the full workflow \
         (MPI step dominates the rest, as in the paper)",
        base / results[1].1
    ));
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_init_is_faster_by_the_script_chain() {
        let t = run(Scale::Quick).unwrap();
        let seq: f64 = t.rows[0][1].parse().unwrap();
        let par: f64 = t.rows[1][1].parse().unwrap();
        assert!(par < seq, "parallel init must win");
        // 12 scripts × 90 s chained vs one wave: the critical path
        // shortens by ~11 × 90 s (later days' init hides under the
        // previous day's MPI step in both variants).
        let saved = seq - par;
        assert!(
            saved > 800.0,
            "parallel init should remove most of one init chain, saved {saved}"
        );
        // The MPI step keeps the speedup modest (workflow-level, not 12x).
        let speedup = t.cell_f64(1, 2);
        assert!(speedup > 1.2 && speedup < 3.0, "speedup {speedup}");
    }
}
