//! E8 — elasticity (§VI-A): "COMPSs runtime also supports elasticity
//! in clouds, federated clouds and in SLURM managed clusters."

use crate::table::{fmt_s, ExperimentError, ExperimentTable, Scale};
use continuum_dag::TaskSpec;
use continuum_platform::{ElasticityPolicy, NodeSpec, PlatformBuilder};
use continuum_runtime::{ElasticConfig, FifoScheduler, SimOptions, SimRuntime};
use continuum_runtime::{SimWorkload, TaskProfile};
use continuum_sim::FaultPlan;

/// A phased campaign: a wide burst of independent tasks followed (in
/// wall-clock terms) by a long sequential analysis chain that keeps
/// only one core busy — the shape where static large allocations burn
/// idle node-hours.
fn bursty_workload(scale: Scale) -> Result<SimWorkload, ExperimentError> {
    let burst = scale.pick(64, 512);
    let tail = scale.pick(12, 30);
    let mut w = SimWorkload::new();
    let outs = w.data_batch("burst", burst);
    for o in &outs {
        w.task(TaskSpec::new("burst").output(*o), TaskProfile::new(60.0))?;
    }
    // Sequential tail: a chain seeded by the first burst output.
    let mut prev = outs[0];
    for i in 0..tail {
        let next = w.data(format!("tail{i}"));
        w.task(
            TaskSpec::new("analysis").input(prev).output(next),
            TaskProfile::new(60.0),
        )?;
        prev = next;
    }
    Ok(w)
}

/// Runs the phased campaign under fixed-small, fixed-large and elastic
/// allocations, reporting makespan and node-hours (the cloud bill).
pub fn run(scale: Scale) -> Result<ExperimentTable, ExperimentError> {
    let workload = bursty_workload(scale)?;
    let mut table = ExperimentTable::new(
        "e8",
        "elastic pools approach big-allocation speed at small-allocation cost (§VI-A)",
        &["allocation", "makespan_s", "node_hours"],
    );

    // Fixed small.
    let small = PlatformBuilder::new()
        .cloud("ec2", 2, NodeSpec::cloud_vm(4, 16_000))
        .build();
    let r = SimRuntime::new(small, SimOptions::default()).run(
        &workload,
        &mut FifoScheduler::new(),
        &FaultPlan::new(),
    )?;
    table.row([
        "fixed 2 nodes".into(),
        fmt_s(r.makespan_s),
        format!("{:.3}", r.node_hours),
    ]);

    // Fixed large.
    let large = PlatformBuilder::new()
        .cloud("ec2", 16, NodeSpec::cloud_vm(4, 16_000))
        .build();
    let r = SimRuntime::new(large, SimOptions::default()).run(
        &workload,
        &mut FifoScheduler::new(),
        &FaultPlan::new(),
    )?;
    table.row([
        "fixed 16 nodes".into(),
        fmt_s(r.makespan_s),
        format!("{:.3}", r.node_hours),
    ]);

    // Elastic 2 → 16.
    let elastic_platform = PlatformBuilder::new()
        .elastic_cloud("ec2", 2, 16, NodeSpec::cloud_vm(4, 16_000))
        .build();
    let zone = elastic_platform.zones()[0].id();
    let opts = SimOptions {
        elastic: Some(ElasticConfig {
            zone,
            policy: ElasticityPolicy::new(2, 16)
                .grow_threshold(2.0)
                .shrink_threshold(0.5)
                .cooldown_s(5.0)
                .max_step(4),
            period_s: 15.0,
            provision_delay_s: 30.0,
        }),
        ..SimOptions::default()
    };
    let r = SimRuntime::new(elastic_platform, opts).run(
        &workload,
        &mut FifoScheduler::new(),
        &FaultPlan::new(),
    )?;
    table.row([
        "elastic 2..16 nodes".into(),
        fmt_s(r.makespan_s),
        format!("{:.3}", r.node_hours),
    ]);

    let large_hours: f64 = table.rows[1][2].parse()?;
    let elastic_hours: f64 = table.rows[2][2].parse()?;
    table.finding(format!(
        "the pool grows for the burst and shrinks during the sequential tail: \
         {elastic_hours:.2} node-hours vs {large_hours:.2} static — near-large-allocation \
         speed at a fraction of the bill"
    ));
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elastic_balances_speed_and_cost() {
        let t = run(Scale::Quick).unwrap();
        let small_makespan: f64 = t.rows[0][1].parse().unwrap();
        let large_makespan: f64 = t.rows[1][1].parse().unwrap();
        let large_hours: f64 = t.rows[1][2].parse().unwrap();
        let elastic_makespan: f64 = t.rows[2][1].parse().unwrap();
        let elastic_hours: f64 = t.rows[2][2].parse().unwrap();
        // The sequential tail is incompressible, so compare against
        // the large allocation's speed rather than a fixed factor.
        assert!(
            elastic_makespan < small_makespan * 0.8,
            "elastic must clearly beat the small allocation: {elastic_makespan} vs {small_makespan}"
        );
        assert!(
            elastic_makespan <= large_makespan * 1.3,
            "elastic must be near the large allocation's speed: {elastic_makespan} vs {large_makespan}"
        );
        assert!(
            elastic_hours < large_hours * 0.75,
            "the elastic pool must shrink during the sequential tail and bill \
             clearly less: {elastic_hours} vs {large_hours}"
        );
        assert!(
            large_makespan <= elastic_makespan,
            "big static is the speed bound"
        );
    }
}
