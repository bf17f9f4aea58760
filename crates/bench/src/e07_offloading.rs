//! E7 — fog-to-cloud offloading (§VI-B): offloading decisions must
//! weigh "the impact of the network (latency, monetary cost,
//! bandwidth) on the performance of the entire framework"; the
//! framework supports fog-to-cloud and cloud-to-fog placement.

use crate::table::{fmt_s, ExperimentError, ExperimentTable, Scale};
use continuum_agents::{ContinuumPolicy, ContinuumScheduler};
use continuum_dag::TaskSpec;
use continuum_platform::{LinkSpec, NodeId, NodeSpec, Platform, PlatformBuilder};
use continuum_runtime::{Scheduler, SimOptions, SimRuntime, SimWorkload, TaskProfile};
use continuum_sim::FaultPlan;

fn platform(uplink_mbps: f64) -> Platform {
    PlatformBuilder::new()
        .fog_area("campus", 4, NodeSpec::fog(2, 4_000))
        .cloud("dc", 4, NodeSpec::cloud_vm(8, 16_000).with_speed(4.0))
        .link_zones(0, 1, LinkSpec::new(uplink_mbps, 0.02))
        .build()
}

/// Sensor-analysis tasks whose 100 MB inputs are born on fog devices.
fn sensor_workload(scale: Scale) -> Result<SimWorkload, ExperimentError> {
    let tasks = scale.pick(8, 32);
    let mut w = SimWorkload::new();
    for i in 0..tasks {
        let raw = w.initial_data(
            format!("raw{i}"),
            100_000_000,
            Some(NodeId::from_raw((i % 4) as u32)),
        );
        let out = w.data(format!("out{i}"));
        w.task(
            TaskSpec::new("analyze").input(raw).output(out),
            TaskProfile::new(60.0).outputs_bytes(1_000_000),
        )?;
    }
    Ok(w)
}

/// Sweeps the fog→cloud uplink bandwidth across the three policies.
pub fn run(scale: Scale) -> Result<ExperimentTable, ExperimentError> {
    let mut table = ExperimentTable::new(
        "e7",
        "offloading must weigh network bandwidth: fog vs cloud crossover (§VI-B)",
        &["uplink_mb_s", "policy", "makespan_s", "moved_gb"],
    );
    let workload = sensor_workload(scale)?;
    let bandwidths = scale.pick(vec![0.6, 60.0], vec![0.6, 6.0, 60.0, 600.0]);
    for &bw in &bandwidths {
        for policy in [
            ContinuumPolicy::FogOnly,
            ContinuumPolicy::CloudOnly,
            ContinuumPolicy::LatencyAware,
        ] {
            let mut sched = ContinuumScheduler::new(policy);
            let name = Scheduler::name(&sched).to_string();
            let report = SimRuntime::new(platform(bw), SimOptions::default()).run(
                &workload,
                &mut sched,
                &FaultPlan::new(),
            )?;
            table.row([
                format!("{bw}"),
                name,
                fmt_s(report.makespan_s),
                format!("{:.2}", report.transfer_bytes as f64 / 1e9),
            ]);
        }
    }
    table.finding(
        "slow uplinks favour fog execution (data gravity); fast uplinks favour the 4x-faster \
         cloud; the latency-aware policy tracks the winner on both sides of the crossover"
            .to_string(),
    );
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_and_adaptive_policy() {
        let t = run(Scale::Quick).unwrap();
        // Cell for cell: the agents run the same placement rule.
        let expected = [
            ["0.6", "fog-only", "60.0", "0.00"],
            ["0.6", "cloud-only", "1348.5", "0.80"],
            ["0.6", "latency-aware", "60.0", "0.00"],
            ["60", "fog-only", "60.0", "0.00"],
            ["60", "cloud-only", "28.5", "0.80"],
            ["60", "latency-aware", "28.5", "0.80"],
        ];
        assert_eq!(t.rows, expected.map(|row| row.map(String::from).to_vec()));
        // Rows: [slow-bw fog, cloud, adaptive, fast-bw fog, cloud, adaptive].
        let slow_fog: f64 = t.rows[0][2].parse().unwrap();
        let slow_cloud: f64 = t.rows[1][2].parse().unwrap();
        let slow_adaptive: f64 = t.rows[2][2].parse().unwrap();
        let fast_fog: f64 = t.rows[3][2].parse().unwrap();
        let fast_cloud: f64 = t.rows[4][2].parse().unwrap();
        let fast_adaptive: f64 = t.rows[5][2].parse().unwrap();
        assert!(slow_fog < slow_cloud, "slow uplink: fog must win");
        assert!(fast_cloud < fast_fog, "fast uplink: cloud must win");
        assert!(
            slow_adaptive <= slow_fog * 1.1 + 1.0,
            "adaptive tracks fog side"
        );
        assert!(
            fast_adaptive <= fast_cloud * 1.1 + 1.0,
            "adaptive tracks cloud side"
        );
        // Fog-only never ships inputs.
        assert_eq!(t.rows[0][3], "0.00");
    }
}
