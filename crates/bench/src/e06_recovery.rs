//! E6 — fog failure recovery (§VI-B): the COMPSs/dataClay integration
//! "allows the runtime to recover the execution of part of the
//! application failed on a fog node (disappeared for low battery or
//! because no longer in the fog area), retrieving the data already
//! produced by a task and resubmitting it on another node."

use crate::table::{fmt_s, ExperimentError, ExperimentTable, Scale};
use continuum_agents::{ContinuumPolicy, ContinuumScheduler};
use continuum_dag::TaskSpec;
use continuum_platform::{NodeId, NodeSpec, Platform, PlatformBuilder};
use continuum_runtime::{DataLossMode, SimOptions, SimRuntime, SimWorkload, TaskProfile};
use continuum_sim::FaultPlan;

fn fog_platform() -> Platform {
    PlatformBuilder::new()
        .fog_area("campus", 6, NodeSpec::fog(2, 4_000))
        .cloud("dc", 1, NodeSpec::cloud_vm(8, 16_000))
        .build()
}

/// Sensor pipelines of 8 stages, 5 MB intermediates.
fn pipelines(scale: Scale) -> Result<SimWorkload, ExperimentError> {
    let n = scale.pick(12, 48);
    let mut w = SimWorkload::new();
    for p in 0..n {
        let mut prev = None;
        for s in 0..8 {
            let out = w.data(format!("p{p}_s{s}"));
            let mut spec = TaskSpec::new(format!("stage{s}")).group(format!("pipe{p}"));
            if let Some(prev) = prev {
                spec = spec.input(prev);
            }
            spec = spec.output(out);
            w.task(spec, TaskProfile::new(10.0).outputs_bytes(5_000_000))?;
            prev = Some(out);
        }
    }
    Ok(w)
}

/// Runs the churn sweep under the three recovery modes.
pub fn run(scale: Scale) -> Result<ExperimentTable, ExperimentError> {
    let mut table = ExperimentTable::new(
        "e6",
        "persisted outputs let agents recover fog churn by resubmission (§VI-B)",
        &["mtbf_s", "recovery", "makespan_s", "reexecuted"],
    );
    let workload = pipelines(scale)?;
    let fog_nodes: Vec<NodeId> = (0..6).map(NodeId::from_raw).collect();
    let storage = NodeId::from_raw(6); // the cloud node hosts the store
    let mtbfs = scale.pick(vec![40.0, 150.0], vec![40.0, 80.0, 150.0, 400.0]);
    for &mtbf in &mtbfs {
        let faults = FaultPlan::churn(9, fog_nodes.iter().copied(), mtbf, 10.0, 240.0);
        let configs: [(&str, SimOptions); 3] = [
            (
                "persistence + resubmit (paper)",
                SimOptions {
                    persistence: Some(storage),
                    data_loss: DataLossMode::Replay,
                    ..SimOptions::default()
                },
            ),
            (
                "no persistence, lineage replay",
                SimOptions {
                    data_loss: DataLossMode::Replay,
                    ..SimOptions::default()
                },
            ),
            (
                "no persistence, restart workflow",
                SimOptions {
                    data_loss: DataLossMode::Restart,
                    max_virtual_seconds: 50_000.0,
                    ..SimOptions::default()
                },
            ),
        ];
        for (name, opts) in configs {
            let mut sched = ContinuumScheduler::new(ContinuumPolicy::FogOnly);
            let row =
                match SimRuntime::new(fog_platform(), opts).run(&workload, &mut sched, &faults) {
                    Ok(report) => [
                        format!("{mtbf:.0}"),
                        name.to_string(),
                        fmt_s(report.makespan_s),
                        report.tasks_reexecuted.to_string(),
                    ],
                    Err(e) => [
                        format!("{mtbf:.0}"),
                        name.to_string(),
                        "stuck".into(),
                        e.to_string(),
                    ],
                };
            table.row(row);
        }
    }
    table.finding(
        "with persistence only in-flight tasks rerun; restart-from-scratch repeats completed \
         work and degrades sharply as churn increases"
            .to_string(),
    );
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistence_beats_restart_under_churn() {
        let t = run(Scale::Quick).unwrap();
        // Cell for cell: the agents run the same placement rule.
        let expected = [
            ["40", "persistence + resubmit (paper)", "103.6", "12"],
            ["40", "no persistence, lineage replay", "247.9", "47"],
            ["40", "no persistence, restart workflow", "381.3", "210"],
            ["150", "persistence + resubmit (paper)", "105.0", "10"],
            ["150", "no persistence, lineage replay", "109.1", "21"],
            ["150", "no persistence, restart workflow", "123.4", "29"],
        ];
        assert_eq!(t.rows, expected.map(|row| row.map(String::from).to_vec()));
        // Rows come in triples per mtbf; compare within the harsher
        // (first) mtbf block.
        let persist_makespan: f64 = t.rows[0][2].parse().unwrap();
        let persist_redo: f64 = t.rows[0][3].parse().unwrap();
        let restart_makespan: f64 = t.rows[2][2].parse().unwrap();
        let restart_redo: f64 = t.rows[2][3].parse().unwrap();
        assert!(
            persist_makespan <= restart_makespan,
            "persistence {persist_makespan} vs restart {restart_makespan}"
        );
        assert!(
            persist_redo < restart_redo,
            "restart repeats completed work: {persist_redo} vs {restart_redo}"
        );
    }

    #[test]
    fn lineage_replay_sits_between() {
        let t = run(Scale::Quick).unwrap();
        let lineage_redo: f64 = t.rows[1][3].parse().unwrap();
        let restart_redo: f64 = t.rows[2][3].parse().unwrap();
        assert!(lineage_redo <= restart_redo);
    }
}
