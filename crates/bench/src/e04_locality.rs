//! E4 — SRI locality scheduling (§VI-A1): "the `getLocations` method
//! will enable the runtime to exploit the locality of the data by
//! scheduling tasks in the location where the data resides."

use crate::table::{fmt_pct, fmt_s, ExperimentError, ExperimentTable, Scale};
use continuum_dag::TaskSpec;
use continuum_platform::{NodeSpec, PlatformBuilder};
use continuum_runtime::{
    FifoScheduler, LocalityScheduler, Scheduler, SimOptions, SimRuntime, SimWorkload, TaskProfile,
};
use continuum_sim::FaultPlan;
use continuum_storage::{KvConfig, KvStore, StorageRuntime, StoredValue};

/// Builds a map-reduce workload whose inputs are partitions of a
/// replicated KV store (Hecuba-style): partition homes come from the
/// store's `locations` — the real SRI call.
fn partitioned_workload(
    store: &KvStore,
    partitions: usize,
    bytes: u64,
) -> Result<(SimWorkload, usize), ExperimentError> {
    let mut w = SimWorkload::new();
    let mut outs = Vec::with_capacity(partitions);
    for i in 0..partitions {
        let key: continuum_storage::ObjectKey = format!("table:part{i}").into();
        store.put(key.clone(), StoredValue::blob(vec![0u8; 64]), None)?;
        let home = store.locations(&key)?[0];
        let part = w.initial_data(format!("part{i}"), bytes, Some(home));
        let out = w.data(format!("mapped{i}"));
        w.task(
            TaskSpec::new("map").input(part).output(out),
            TaskProfile::new(5.0).outputs_bytes(bytes / 100),
        )?;
        outs.push(out);
    }
    let result = w.data("result");
    w.task(
        TaskSpec::new("reduce").inputs(outs).output(result),
        TaskProfile::new(10.0),
    )?;
    Ok((w, partitions))
}

/// Runs locality-aware vs locality-blind scheduling over KV data.
pub fn run(scale: Scale) -> Result<ExperimentTable, ExperimentError> {
    let nodes = scale.pick(4, 16);
    let partitions = scale.pick(32, 256);
    let bytes = 200_000_000u64; // 200 MB per partition
    let platform = PlatformBuilder::new()
        .cluster("dc", nodes, NodeSpec::hpc(8, 64_000))
        .build();
    let store = KvStore::new(
        platform.nodes().iter().map(|n| n.id()).collect(),
        KvConfig { replication: 2 },
    )?;
    let (workload, _) = partitioned_workload(&store, partitions, bytes)?;

    let mut table = ExperimentTable::new(
        "e4",
        "getLocations-driven placement avoids transfers (Hecuba/SRI, §VI-A1)",
        &[
            "scheduler",
            "makespan_s",
            "transfers",
            "moved_gb",
            "locality",
        ],
    );
    let mut blind = FifoScheduler::new();
    let mut aware = LocalityScheduler::new();
    let mut strict = LocalityScheduler::data_gravity();
    let schedulers: Vec<(&str, &mut dyn Scheduler)> = vec![
        ("fifo (locality-blind)", &mut blind),
        ("locality-aware (balanced)", &mut aware),
        ("locality-aware (data gravity)", &mut strict),
    ];
    for (name, sched) in schedulers {
        let report = SimRuntime::new(platform.clone(), SimOptions::default()).run(
            &workload,
            sched,
            &FaultPlan::new(),
        )?;
        table.row([
            name.to_string(),
            fmt_s(report.makespan_s),
            report.transfer_count.to_string(),
            format!("{:.2}", report.transfer_bytes as f64 / 1e9),
            fmt_pct(report.locality_rate),
        ]);
    }
    let blind_gb: f64 = table.rows[0][3].parse()?;
    let strict_gb: f64 = table.rows[2][3].parse()?;
    table.finding(format!(
        "getLocations placement cuts data movement from {blind_gb:.2} GB to {strict_gb:.2} GB \
         ({partitions} × {} MB partitions); strict data gravity trades a little makespan \
         for near-zero network pressure",
        bytes / 1_000_000
    ));
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_slashes_transfers_and_makespan() {
        let t = run(Scale::Quick).unwrap();
        let blind_makespan: f64 = t.rows[0][1].parse().unwrap();
        let aware_makespan: f64 = t.rows[1][1].parse().unwrap();
        let strict_makespan: f64 = t.rows[2][1].parse().unwrap();
        let blind_gb: f64 = t.rows[0][3].parse().unwrap();
        let aware_gb: f64 = t.rows[1][3].parse().unwrap();
        let strict_gb: f64 = t.rows[2][3].parse().unwrap();
        assert!(
            aware_gb < blind_gb / 2.0,
            "locality must cut moved bytes sharply: {aware_gb} vs {blind_gb}"
        );
        assert!(
            strict_gb < blind_gb / 20.0,
            "data gravity must nearly eliminate movement: {strict_gb} vs {blind_gb}"
        );
        assert!(
            aware_makespan <= blind_makespan,
            "balanced mode never slower"
        );
        assert!(
            strict_makespan <= blind_makespan * 2.0,
            "data gravity pays bounded makespan: {strict_makespan} vs {blind_makespan}"
        );
        // The reduce stage necessarily pulls 31 of 32 map outputs from
        // remote nodes, so perfect locality is impossible; the map
        // stage itself should be almost fully local.
        let locality = t.cell_f64(1, 4);
        assert!(
            locality > 45.0,
            "map reads should be local, got {locality}%"
        );
    }
}
