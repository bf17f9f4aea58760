//! E10 — dynamic vs static workflow execution (§II, §IV): the paper
//! positions *dynamic* task-based runtimes (COMPSs-style, graph built
//! and scheduled at run time) against static DAG planners (Pegasus
//! /HEFT-style) and synchronous stage-based engines, and argues
//! runtimes must "take decisions in a very dynamic fashion".
//!
//! The discriminating workload property is *runtime variance*: a
//! fraction of tasks straggle (external binaries, I/O interference —
//! ubiquitous in the paper's applications). A static plan binds every
//! task to a node before knowing which tasks straggle, so work queues
//! behind stragglers while other nodes idle; dynamic runtimes route
//! around them.

use crate::table::{fmt_s, fmt_x, ExperimentError, ExperimentTable, Scale};
use continuum_dag::{TaskId, TaskSpec};
use continuum_platform::{NodeSpec, Platform, PlatformBuilder};
use continuum_runtime::{
    FifoScheduler, HeftScheduler, ListScheduler, LocalityScheduler, Scheduler, SimOptions,
    SimRuntime, SimWorkload, TaskProfile,
};
use continuum_sim::FaultPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn heterogeneous_platform() -> Platform {
    PlatformBuilder::new()
        .cluster("fast", 1, NodeSpec::hpc(4, 96_000).with_speed(2.0))
        .cluster("slow", 3, NodeSpec::hpc(4, 96_000))
        .build()
}

/// Layered DAG whose *actual* durations include 8× stragglers on 15%
/// of the tasks; `base` returns the straggler-free estimates a static
/// planner would work from.
fn straggler_workload(scale: Scale) -> Result<(SimWorkload, Vec<f64>), ExperimentError> {
    let (layers, width) = scale.pick((6, 10), (12, 24));
    let mut rng = StdRng::seed_from_u64(31);
    let mut w = SimWorkload::new();
    let mut base = Vec::new();
    let mut prev: Vec<continuum_dag::DataId> = Vec::new();
    for layer in 0..layers {
        let mut this = Vec::new();
        for i in 0..width {
            let out = w.data(format!("l{layer}t{i}"));
            let mut spec = TaskSpec::new("t").output(out);
            let mut has = false;
            for p in &prev {
                if rng.gen::<f64>() < 0.25 {
                    spec = spec.input(*p);
                    has = true;
                }
            }
            if layer > 0 && !has {
                spec = spec.input(prev[rng.gen_range(0..prev.len())]);
            }
            let estimate = 5.0 + rng.gen::<f64>() * 45.0;
            let straggles = rng.gen::<f64>() < 0.15;
            let actual = if straggles { estimate * 8.0 } else { estimate };
            base.push(estimate);
            w.task(spec, TaskProfile::new(actual).outputs_bytes(1_000_000))?;
            this.push(out);
        }
        prev = this;
    }
    Ok((w, base))
}

/// Runs the scheduler shoot-out under straggler-induced variance.
pub fn run(scale: Scale) -> Result<ExperimentTable, ExperimentError> {
    let (workload, estimates) = straggler_workload(scale)?;
    let platform = heterogeneous_platform();

    let mut table = ExperimentTable::new(
        "e10",
        "dynamic runtimes beat static plans under duration variance (§II/IV)",
        &["scheduler", "makespan_s", "vs_best"],
    );

    let mut results: Vec<(String, f64)> = Vec::new();
    let mut run_one = |name: &str, sched: &mut dyn Scheduler, barrier: bool| {
        let opts = SimOptions {
            barrier_levels: barrier,
            ..SimOptions::default()
        };
        let report =
            SimRuntime::new(platform.clone(), opts).run(&workload, sched, &FaultPlan::new())?;
        results.push((name.to_string(), report.makespan_s));
        Ok::<(), ExperimentError>(())
    };

    // The static planner sees only the estimates (it cannot know which
    // tasks will straggle at run time).
    let mut heft_blind =
        HeftScheduler::plan(&workload, &platform, |t: TaskId| estimates[t.index()]);
    run_one("static HEFT (pre-run estimates)", &mut heft_blind, false)?;
    // Oracle bound: a static plan computed from the true durations.
    let mut heft_oracle =
        HeftScheduler::plan(&workload, &platform, |t| workload.profile(t).duration_s());
    run_one("static HEFT (oracle durations)", &mut heft_oracle, false)?;
    run_one(
        "stage barriers + fifo (batch engine)",
        &mut FifoScheduler::new(),
        true,
    )?;
    run_one("dynamic fifo", &mut FifoScheduler::new(), false)?;
    run_one("dynamic locality", &mut LocalityScheduler::new(), false)?;
    // The COMPSs-style intelligent runtime: same pre-run estimates as
    // the static plan, but placement decided live.
    let mut list = ListScheduler::plan(&workload, |t: TaskId| estimates[t.index()]);
    run_one("dynamic list (COMPSs-style)", &mut list, false)?;

    let best = results
        .iter()
        .map(|(_, m)| *m)
        .fold(f64::INFINITY, f64::min);
    for (name, makespan) in &results {
        table.row([name.clone(), fmt_s(*makespan), fmt_x(makespan / best)]);
    }
    table.finding(
        "with 15% of tasks straggling 8x, the static plan queues work behind stragglers \
         and barriers serialise waves; dynamic dataflow routes around both"
            .to_string(),
    );
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_beats_blind_static_and_barriers() {
        let t = run(Scale::Quick).unwrap();
        let get = |name: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0].starts_with(name))
                .unwrap_or_else(|| panic!("row {name}"))[1]
                .parse()
                .unwrap()
        };
        let heft_blind = get("static HEFT (pre-run");
        let barriers = get("stage barriers");
        let list = get("dynamic list");
        assert!(
            list < heft_blind,
            "dynamic list {list} must beat straggler-blind static {heft_blind}"
        );
        assert!(
            list < barriers,
            "dataflow {list} must beat stage barriers {barriers}"
        );
    }
}
