//! E13 — streaming from the edge (§I/§III): "the systems where future
//! scientific workflows are to be executed will also include edge
//! devices like sensors or scientific instruments that will stream
//! continuous flows of data and similarly the scientists expect
//! results to be streamed out for monitoring, steering and
//! visualization of the scientific results to enable interactivity."
//!
//! The interactive property is per-batch *latency*: results must come
//! out at the rate data comes in. We sweep the batch arrival interval
//! and measure completion latency per batch from the execution trace —
//! below the service capacity the pipeline saturates and latency grows
//! with every batch; above it latency is flat (interactive).

use crate::table::{ExperimentError, ExperimentTable, Scale};
use continuum_agents::{ContinuumPolicy, ContinuumScheduler};
use continuum_platform::{LinkSpec, NodeSpec, Platform, PlatformBuilder};
use continuum_runtime::{SimOptions, SimRuntime};
use continuum_sim::{ExecutionTrace, FaultPlan};
use continuum_workflows::patterns;

fn platform() -> Platform {
    // A deliberately modest slice of the continuum: a dedicated sensor
    // (the open-loop arrival source), two small fog devices and one
    // 2-core cloud VM — the stream must fit their service capacity.
    PlatformBuilder::new()
        .edge_field(
            "sensor",
            1,
            NodeSpec::sensor().with_software(["edge-source"]),
        )
        .fog_area("field", 2, NodeSpec::fog(2, 4_000))
        .cloud("dc", 1, NodeSpec::cloud_vm(2, 16_000).with_speed(4.0))
        .link_zones(0, 1, LinkSpec::new(60.0, 0.005))
        .link_zones(0, 2, LinkSpec::new(60.0, 0.02))
        .link_zones(1, 2, LinkSpec::new(60.0, 0.02))
        .build()
}

/// Per-batch latency: completion of a batch's last stage minus its
/// arrival time (the tick task's end).
fn batch_latencies(trace: &ExecutionTrace, batches: usize, stages: usize) -> Vec<f64> {
    // Task ids are laid out per batch: tick, stage0..stage{n-1}.
    let per_batch = 1 + stages;
    let mut arrival = vec![0.0f64; batches];
    let mut done = vec![0.0f64; batches];
    for r in trace.records() {
        let idx = r.task.index();
        let batch = idx / per_batch;
        let pos = idx % per_batch;
        if batch >= batches {
            continue;
        }
        if pos == 0 {
            arrival[batch] = r.end_s;
        } else if pos == stages {
            done[batch] = done[batch].max(r.end_s);
        }
    }
    (0..batches)
        .map(|b| (done[b] - arrival[b]).max(0.0))
        .collect()
}

/// Sweeps the arrival interval and reports latency statistics.
pub fn run(scale: Scale) -> Result<ExperimentTable, ExperimentError> {
    let batches = scale.pick(20, 60);
    // Two processing stages per batch: 20 s + 12 s of reference
    // compute (5 s + 3 s on the 4x cloud cores).
    let stage_durations = [20.0, 12.0];
    let stages = stage_durations.len();
    let mut table = ExperimentTable::new(
        "e13",
        "edge streams need latency-stable pipelines for interactivity (§I/III)",
        &[
            "interval_s",
            "mean_latency_s",
            "p95_latency_s",
            "last_batch_latency_s",
        ],
    );
    let intervals = scale.pick(vec![0.5, 2.0, 6.0], vec![0.5, 1.0, 2.0, 4.0, 6.0, 10.0]);
    for &interval in &intervals {
        let workload =
            patterns::streaming_pipeline(batches, interval, &stage_durations, 20_000_000);
        let mut sched = ContinuumScheduler::new(ContinuumPolicy::LatencyAware);
        let (_, trace) = SimRuntime::new(platform(), SimOptions::default()).run_traced(
            &workload,
            &mut sched,
            &FaultPlan::new(),
        )?;
        let mut lat = batch_latencies(&trace, batches, stages);
        let last = lat[batches - 1];
        let mean = lat.iter().sum::<f64>() / lat.len() as f64;
        lat.sort_by(f64::total_cmp);
        let p95 = lat[(lat.len() as f64 * 0.95) as usize - 1];
        table.row([
            format!("{interval}"),
            format!("{mean:.1}"),
            format!("{p95:.1}"),
            format!("{last:.1}"),
        ]);
    }
    table.finding(
        "above the pipeline's service capacity, per-batch latency is flat (interactive \
         monitoring works); below it, batches queue and the latency of later batches grows \
         without bound — the platform must provision the continuum for the stream rate"
            .to_string(),
    );
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_saturates_below_capacity_and_is_flat_above() {
        let t = run(Scale::Quick).unwrap();
        // Rows: interval 0.5 (over-driven), 2.0, 6.0 (comfortable).
        let overdriven_last = t.cell_f64(0, 3);
        let comfortable_mean = t.cell_f64(2, 1);
        let comfortable_last = t.cell_f64(2, 3);
        assert!(
            overdriven_last > 4.0 * comfortable_last.max(1.0),
            "over-driving must blow up latency: {overdriven_last} vs {comfortable_last}"
        );
        // Comfortable interval: latency ≈ service time, flat across batches.
        assert!(
            comfortable_mean < 40.0,
            "comfortable stream should stay interactive, mean {comfortable_mean}"
        );
        let comfortable_p95 = t.cell_f64(2, 2);
        assert!(
            comfortable_p95 < comfortable_mean * 3.0,
            "latency flat above capacity: p95 {comfortable_p95} vs mean {comfortable_mean}"
        );
    }
}
