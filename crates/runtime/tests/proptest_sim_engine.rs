//! Property-based tests of the simulated engine: for arbitrary layered
//! DAGs, platforms and schedulers, execution completes exactly once per
//! task, makespans respect the theoretical bounds, and locality-aware
//! scheduling never moves more bytes than blind scheduling on
//! transfer-dominated workloads.

use continuum_dag::{GraphAnalysis, TaskId, TaskSpec};
use continuum_platform::{NodeSpec, Platform, PlatformBuilder};
use continuum_runtime::{
    FifoScheduler, LocalityScheduler, SimOptions, SimRuntime, SimWorkload, TaskProfile,
};
use continuum_sim::FaultPlan;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic random layered workload (kept local so the test is
/// independent of the workflows crate).
fn layered(seed: u64, layers: usize, width: usize, p_edge: f64, bytes: u64) -> SimWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = SimWorkload::new();
    let mut prev: Vec<continuum_dag::DataId> = Vec::new();
    for layer in 0..layers {
        let mut this = Vec::new();
        for i in 0..width {
            let out = w.data(format!("l{layer}t{i}"));
            let mut spec = TaskSpec::new("t").output(out);
            let mut has = false;
            for p in &prev {
                if rng.gen::<f64>() < p_edge {
                    spec = spec.input(*p);
                    has = true;
                }
            }
            if layer > 0 && !has {
                spec = spec.input(prev[rng.gen_range(0..prev.len())]);
            }
            let dur = 1.0 + rng.gen::<f64>() * 9.0;
            w.task(spec, TaskProfile::new(dur).outputs_bytes(bytes))
                .expect("valid task");
            this.push(out);
        }
        prev = this;
    }
    w
}

fn platform(nodes: usize, cores: u32) -> Platform {
    PlatformBuilder::new()
        .cluster("c", nodes, NodeSpec::hpc(cores, 96_000))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every task completes exactly once; makespan is bounded by the
    /// critical path (below) and the sequential time (above).
    #[test]
    fn execution_is_complete_and_bounded(
        seed in 0u64..500,
        layers in 2usize..6,
        width in 1usize..8,
        nodes in 1usize..5,
        cores in 1u32..5,
    ) {
        let w = layered(seed, layers, width, 0.3, 0);
        let analysis = GraphAnalysis::new(w.graph());
        let weight = |t: TaskId| w.profile(t).duration_s();
        let cp = analysis.critical_path(weight).length;
        let seq = analysis.total_weight(weight);
        let report = SimRuntime::new(platform(nodes, cores), SimOptions::default())
            .run(&w, &mut FifoScheduler::new(), &FaultPlan::new())
            .expect("completes");
        prop_assert_eq!(report.tasks_completed, w.stats().tasks);
        prop_assert_eq!(report.tasks_reexecuted, 0);
        prop_assert!(report.makespan_s >= cp - 1e-6,
            "makespan {} < critical path {}", report.makespan_s, cp);
        prop_assert!(report.makespan_s <= seq + 1e-6,
            "makespan {} > sequential {}", report.makespan_s, seq);
    }

    /// Determinism: identical inputs — arbitrary DAGs, with and without
    /// failure/recovery churn — give bit-for-bit identical reports and
    /// traces.
    #[test]
    fn runs_are_deterministic(
        seed in 0u64..500,
        layers in 2usize..6,
        width in 1usize..8,
        fault_sel in 0u8..2,
    ) {
        let w = layered(seed, layers, width, 0.35, 1_000_000);
        let faults = if fault_sel == 1 {
            FaultPlan::new()
                .fail_at(7.0, continuum_platform::NodeId::from_raw(0))
                .recover_at(12.0, continuum_platform::NodeId::from_raw(0))
        } else {
            FaultPlan::new()
        };
        let run = || {
            SimRuntime::new(platform(3, 4), SimOptions::default())
                .run_traced(&w, &mut LocalityScheduler::new(), &faults)
                .expect("completes")
        };
        prop_assert_eq!(run(), run());
    }

    /// More nodes never increase the FIFO makespan on fan workloads
    /// (monotone resource scaling for independent tasks).
    #[test]
    fn more_nodes_never_hurt_fans(
        tasks in 1usize..40,
        nodes_small in 1usize..4,
        extra in 1usize..4,
    ) {
        let mut w = SimWorkload::new();
        let outs = w.data_batch("o", tasks);
        for o in &outs {
            w.task(TaskSpec::new("t").output(*o), TaskProfile::new(5.0)).unwrap();
        }
        let small = SimRuntime::new(platform(nodes_small, 2), SimOptions::default())
            .run(&w, &mut FifoScheduler::new(), &FaultPlan::new())
            .expect("completes");
        let big = SimRuntime::new(platform(nodes_small + extra, 2), SimOptions::default())
            .run(&w, &mut FifoScheduler::new(), &FaultPlan::new())
            .expect("completes");
        prop_assert!(big.makespan_s <= small.makespan_s + 1e-9);
    }

    /// Locality-aware scheduling never moves more bytes than blind
    /// scheduling when inputs are pinned to distinct nodes.
    #[test]
    fn locality_never_moves_more_bytes(
        seed in 0u64..200,
        parts in 2usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = SimWorkload::new();
        let n_nodes = 4usize;
        for i in 0..parts {
            let home = continuum_platform::NodeId::from_raw(rng.gen_range(0..n_nodes as u32));
            let part = w.initial_data(format!("p{i}"), 10_000_000, Some(home));
            let out = w.data(format!("o{i}"));
            w.task(TaskSpec::new("map").input(part).output(out), TaskProfile::new(2.0))
                .unwrap();
        }
        let blind = SimRuntime::new(platform(n_nodes, 2), SimOptions::default())
            .run(&w, &mut FifoScheduler::new(), &FaultPlan::new())
            .expect("completes");
        let aware = SimRuntime::new(platform(n_nodes, 2), SimOptions::default())
            .run(&w, &mut LocalityScheduler::new(), &FaultPlan::new())
            .expect("completes");
        prop_assert!(aware.transfer_bytes <= blind.transfer_bytes,
            "aware moved {} > blind {}", aware.transfer_bytes, blind.transfer_bytes);
    }

    /// Stage barriers never beat dataflow on makespan.
    #[test]
    fn barriers_never_beat_dataflow(seed in 0u64..200) {
        let w = layered(seed, 4, 4, 0.4, 0);
        let dataflow = SimRuntime::new(platform(2, 4), SimOptions::default())
            .run(&w, &mut FifoScheduler::new(), &FaultPlan::new())
            .expect("completes");
        let barriers = SimRuntime::new(
            platform(2, 4),
            SimOptions { barrier_levels: true, ..SimOptions::default() },
        )
        .run(&w, &mut FifoScheduler::new(), &FaultPlan::new())
        .expect("completes");
        prop_assert!(dataflow.makespan_s <= barriers.makespan_s + 1e-6);
    }

    /// Failures with recovery still complete every task, and at least
    /// the tasks lost on the dead node re-execute.
    #[test]
    fn failure_recovery_always_completes(
        seed in 0u64..200,
        fail_at in 1.0f64..30.0,
    ) {
        let w = layered(seed, 4, 4, 0.4, 1_000);
        let faults = FaultPlan::new()
            .fail_at(fail_at, continuum_platform::NodeId::from_raw(0))
            .recover_at(fail_at + 5.0, continuum_platform::NodeId::from_raw(0));
        let report = SimRuntime::new(platform(3, 2), SimOptions::default())
            .run(&w, &mut FifoScheduler::new(), &faults)
            .expect("completes despite the failure");
        prop_assert_eq!(report.tasks_completed, w.stats().tasks);
    }
}
