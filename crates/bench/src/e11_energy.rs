//! E11 — energy-aware execution (§I/IV/VII): runtimes should execute
//! workflows "in an efficient way, both in terms of performance and
//! energy", reducing "the carbon footprint since the energy consumed
//! by HPC and other infrastructures is not negligible".

use crate::table::{fmt_s, fmt_x, ExperimentError, ExperimentTable, Scale};
use continuum_platform::{NodeSpec, PlatformBuilder};
use continuum_runtime::{EnergyScheduler, FifoScheduler, Scheduler, SimOptions, SimRuntime};
use continuum_sim::FaultPlan;
use continuum_workflows::patterns;

/// Runs an under-loaded cluster with spreading vs consolidating
/// schedulers under node-level power management.
pub fn run(scale: Scale) -> Result<ExperimentTable, ExperimentError> {
    // Parallelism ~8 on a 16-node cluster: plenty of slack for
    // consolidation to exploit.
    let ensembles = scale.pick(4, 16);
    let workload = patterns::fork_join(ensembles, 2, 20, 30.0);
    let platform = PlatformBuilder::new()
        .cluster("mn4", 16, NodeSpec::hpc(48, 96_000))
        .build();

    let mut table = ExperimentTable::new(
        "e11",
        "consolidation cuts energy with little makespan cost (§I/IV)",
        &["scheduler", "makespan_s", "energy_kwh", "energy_saving"],
    );
    let opts = SimOptions {
        power_off_idle: true, // fully idle nodes suspend
        ..SimOptions::default()
    };
    let mut results = Vec::new();
    let mut fifo = FifoScheduler::new();
    let mut energy = EnergyScheduler::new();
    let schedulers: Vec<(&str, &mut dyn Scheduler)> = vec![
        ("performance spreading (fifo)", &mut fifo),
        ("energy-aware consolidation", &mut energy),
    ];
    for (name, sched) in schedulers {
        let report = SimRuntime::new(platform.clone(), opts.clone()).run(
            &workload,
            sched,
            &FaultPlan::new(),
        )?;
        results.push((name, report.makespan_s, report.energy.total_kwh()));
    }
    let base_kwh = results[0].2;
    for (name, makespan, kwh) in &results {
        table.row([
            name.to_string(),
            fmt_s(*makespan),
            format!("{kwh:.4}"),
            fmt_x(base_kwh / kwh),
        ]);
    }
    table.finding(format!(
        "consolidating onto few nodes amortises the per-node idle power floor: \
         {:.2}x less energy at equal makespan",
        base_kwh / results[1].2
    ));
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consolidation_saves_energy_without_hurting_makespan() {
        let t = run(Scale::Quick).unwrap();
        let fifo_makespan: f64 = t.rows[0][1].parse().unwrap();
        let fifo_kwh: f64 = t.rows[0][2].parse().unwrap();
        let cons_makespan: f64 = t.rows[1][1].parse().unwrap();
        let cons_kwh: f64 = t.rows[1][2].parse().unwrap();
        assert!(
            cons_kwh < 0.7 * fifo_kwh,
            "consolidation energy {cons_kwh} vs spreading {fifo_kwh}"
        );
        assert!(
            cons_makespan <= fifo_makespan * 1.1,
            "makespan must stay close: {cons_makespan} vs {fifo_makespan}"
        );
    }
}
