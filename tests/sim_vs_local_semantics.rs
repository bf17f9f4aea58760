//! The two engines must agree on dataflow semantics: for any DAG, the
//! simulated engine and the local engine both execute every task
//! exactly once respecting dependencies, and the simulated makespan
//! respects the theoretical bounds implied by the graph.

use continuum::dag::{GraphAnalysis, TaskSpec};
use continuum::platform::{Constraints, NodeSpec, PlatformBuilder};
use continuum::runtime::{
    FifoScheduler, LocalConfig, LocalRuntime, SimOptions, SimRuntime, SimWorkload, TaskProfile,
};
use continuum::sim::FaultPlan;
use continuum::workflows::patterns;
use parking_lot::Mutex;
use std::sync::Arc;

/// Mirror a SimWorkload onto the local runtime, recording execution
/// order, and check both engines honour the same happens-before.
#[test]
fn engines_agree_on_happens_before() {
    // A layered random DAG with known seeds.
    let workload = patterns::random_layered(23, 5, 6, 0.35, 0.5, 2.0);
    let graph = workload.graph();

    // --- simulated execution ------------------------------------------
    let platform = PlatformBuilder::new()
        .cluster("c", 3, NodeSpec::hpc(4, 8_000))
        .build();
    let report = SimRuntime::new(platform, SimOptions::default())
        .run(&workload, &mut FifoScheduler::new(), &FaultPlan::new())
        .expect("sim completes");
    assert_eq!(report.tasks_completed, graph.len());

    // --- local execution of the same structure -------------------------
    let rt = LocalRuntime::new(LocalConfig::with_workers(4));
    let order = Arc::new(Mutex::new(Vec::<usize>::new()));
    // Recreate the same data ids on the local runtime.
    let handles: Vec<_> = (0..30).map(|i| rt.data::<u64>(format!("d{i}"))).collect();
    for node in graph.nodes() {
        let mut spec = TaskSpec::new(node.spec().name().to_string());
        for vd in node.consumed() {
            spec = spec.input(handles[vd.data.index()].id());
        }
        let out_idx: Vec<usize> = node.produced().map(|vd| vd.data.index()).collect();
        for idx in &out_idx {
            spec = spec.output(handles[*idx].id());
        }
        let task_index = node.id().index();
        let order = Arc::clone(&order);
        let n_outs = out_idx.len();
        rt.submit(spec, Constraints::new(), move |ctx| {
            order.lock().push(task_index);
            for o in 0..n_outs {
                ctx.set_output(o, task_index as u64);
            }
        })
        .unwrap();
    }
    rt.wait_all().unwrap();
    let order = order.lock();
    assert_eq!(order.len(), graph.len());
    // Happens-before: every task appears after all its predecessors.
    let position: std::collections::HashMap<usize, usize> =
        order.iter().enumerate().map(|(pos, t)| (*t, pos)).collect();
    for node in graph.nodes() {
        for pred in node.predecessors() {
            assert!(
                position[&pred.index()] < position[&node.id().index()],
                "local run violated {pred} -> {}",
                node.id()
            );
        }
    }
}

/// The simulated makespan is bounded below by the critical path and
/// above by the sequential time, for a range of DAG shapes.
#[test]
fn sim_makespan_respects_theoretical_bounds() {
    for (label, workload) in [
        ("chain", patterns::chain(12, 3.0)),
        ("fan", patterns::embarrassingly_parallel(20, 2.0)),
        ("map-reduce", patterns::map_reduce(9, 4.0, 2.0, 0)),
        ("fork-join", patterns::fork_join(2, 3, 3, 1.5)),
        ("random", patterns::random_layered(3, 4, 5, 0.4, 1.0, 5.0)),
    ] {
        let analysis_graph = workload.graph();
        let analysis = GraphAnalysis::new(analysis_graph);
        let weight = |t: continuum::dag::TaskId| workload.profile(t).duration_s();
        let cp = analysis.critical_path(weight).length;
        let seq = analysis.total_weight(weight);
        let platform = PlatformBuilder::new()
            .cluster("c", 2, NodeSpec::hpc(4, 8_000))
            .build();
        let report = SimRuntime::new(platform, SimOptions::default())
            .run(&workload, &mut FifoScheduler::new(), &FaultPlan::new())
            .expect("completes");
        assert!(
            report.makespan_s >= cp - 1e-6,
            "{label}: makespan {} below critical path {cp}",
            report.makespan_s
        );
        assert!(
            report.makespan_s <= seq + 1e-6,
            "{label}: makespan {} above sequential time {seq}",
            report.makespan_s
        );
    }
}

/// A single-slot platform serialises everything: makespan equals the
/// sequential time exactly.
#[test]
fn single_slot_platform_is_sequential() {
    let workload = patterns::random_layered(11, 4, 4, 0.3, 1.0, 3.0);
    let seq: f64 = (0..workload.stats().tasks)
        .map(|t| {
            workload
                .profile(continuum::dag::TaskId::from_raw(t as u64))
                .duration_s()
        })
        .sum();
    let platform = PlatformBuilder::new()
        .cluster("c", 1, NodeSpec::hpc(1, 8_000))
        .build();
    let report = SimRuntime::new(platform, SimOptions::default())
        .run(&workload, &mut FifoScheduler::new(), &FaultPlan::new())
        .expect("completes");
    assert!((report.makespan_s - seq).abs() < 1e-6);
    assert!((report.mean_utilisation() - 1.0).abs() < 1e-6);
}

/// Rigid multi-node tasks and ordinary tasks interleave correctly on
/// the simulated engine (the NMMB-style mixture).
#[test]
fn mixed_rigid_and_elastic_tasks() {
    let mut w = SimWorkload::new();
    let pre = w.data("pre");
    let sim = w.data("sim");
    let post = w.data("post");
    w.task(TaskSpec::new("prep").output(pre), TaskProfile::new(5.0))
        .unwrap();
    w.task(
        TaskSpec::new("mpi").input(pre).output(sim),
        TaskProfile::new(20.0).constraints(Constraints::new().nodes(3)),
    )
    .unwrap();
    w.task(
        TaskSpec::new("post").input(sim).output(post),
        TaskProfile::new(2.0),
    )
    .unwrap();
    let platform = PlatformBuilder::new()
        .cluster("c", 3, NodeSpec::hpc(4, 8_000))
        .build();
    let report = SimRuntime::new(platform, SimOptions::default())
        .run(&w, &mut FifoScheduler::new(), &FaultPlan::new())
        .expect("completes");
    assert_eq!(report.tasks_completed, 3);
    assert!((report.makespan_s - 27.0).abs() < 1e-9);
}
