//! Property-based tests for the access processor and task graph.
//!
//! These check the structural invariants that every downstream component
//! (schedulers, engines, recovery) relies on: acyclicity, correct
//! happens-before between writers and readers, and exactly-once
//! completion under any completion order.

use continuum_dag::{AccessProcessor, DagError, Direction, TaskId, TaskSpec};
use proptest::prelude::*;

/// A random program trace: each task accesses a few data with random
/// directions.
#[derive(Debug, Clone)]
struct TraceOp {
    accesses: Vec<(usize, Direction)>,
}

fn direction_strategy() -> impl Strategy<Value = Direction> {
    prop_oneof![
        Just(Direction::In),
        Just(Direction::Out),
        Just(Direction::InOut),
    ]
}

fn trace_strategy(num_data: usize, max_tasks: usize) -> impl Strategy<Value = Vec<TraceOp>> {
    let op = proptest::collection::vec((0..num_data, direction_strategy()), 1..4).prop_map(
        |mut accesses| {
            // Deduplicate data ids so specs are always valid.
            accesses.sort_by_key(|(d, _)| *d);
            accesses.dedup_by_key(|(d, _)| *d);
            TraceOp { accesses }
        },
    );
    proptest::collection::vec(op, 1..max_tasks)
}

fn build(trace: &[TraceOp]) -> Result<(AccessProcessor, Vec<TaskId>), DagError> {
    let mut ap = AccessProcessor::new();
    let data = ap.new_data_batch("d", 16);
    let mut ids = Vec::new();
    for (i, op) in trace.iter().enumerate() {
        let mut spec = TaskSpec::new(format!("t{i}"));
        for (d, dir) in &op.accesses {
            spec = spec.param(data[*d], *dir);
        }
        ids.push(ap.register(spec)?);
    }
    Ok((ap, ids))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every dependency edge points from an earlier submission to a
    /// later one, so the graph is acyclic by construction.
    #[test]
    fn edges_point_forward(trace in trace_strategy(16, 40)) {
        let (ap, ids) = build(&trace).expect("valid traces");
        let g = ap.graph();
        for id in &ids {
            for p in g.predecessors(*id) {
                prop_assert!(p < id, "edge must point forward: {p} -> {id}");
            }
        }
        // Topological order covers all tasks (acyclicity check).
        prop_assert_eq!(g.topological_order().len(), ids.len());
    }

    /// A reader always depends (directly) on the most recent previous
    /// writer of each datum it reads.
    #[test]
    fn reader_depends_on_last_writer(trace in trace_strategy(8, 40)) {
        let (ap, ids) = build(&trace).expect("valid traces");
        let g = ap.graph();
        // Recompute last-writer chains independently from the trace.
        let mut last_writer: Vec<Option<TaskId>> = vec![None; 8];
        for (i, op) in trace.iter().enumerate() {
            let id = ids[i];
            for (d, dir) in &op.accesses {
                if dir.reads() {
                    if let Some(w) = last_writer[*d] {
                        prop_assert!(
                            g.predecessors(id).contains(&w),
                            "{id} reads d{d} written by {w}"
                        );
                    }
                }
            }
            for (d, dir) in &op.accesses {
                if dir.writes() {
                    last_writer[*d] = Some(id);
                }
            }
        }
    }

    /// Driving the graph to completion in lowest-id-first ready order
    /// completes every task exactly once and never deadlocks.
    #[test]
    fn ready_driven_execution_terminates(trace in trace_strategy(12, 60)) {
        let (mut ap, ids) = build(&trace).expect("valid traces");
        let g = ap.graph_mut();
        let mut completed = 0usize;
        while let Some(t) = g.pop_ready() {
            g.mark_running(t).expect("ready task can run");
            g.complete(t).expect("running task can complete");
            completed += 1;
        }
        prop_assert_eq!(completed, ids.len());
        prop_assert!(g.all_completed());
    }

    /// Completing tasks in *reverse* ready order (highest id first)
    /// also terminates: the ready set is order-insensitive.
    #[test]
    fn reverse_order_execution_terminates(trace in trace_strategy(12, 60)) {
        let (mut ap, ids) = build(&trace).expect("valid traces");
        let g = ap.graph_mut();
        let mut completed = 0usize;
        while let Some(t) = g.ready_tasks().last() {
            g.mark_running(t).expect("ready task can run");
            g.complete(t).expect("running task can complete");
            completed += 1;
        }
        prop_assert_eq!(completed, ids.len());
    }

    /// Versions produced for a datum are strictly increasing with
    /// submission order of its writers.
    #[test]
    fn versions_strictly_increase(trace in trace_strategy(6, 50)) {
        let (ap, ids) = build(&trace).expect("valid traces");
        let g = ap.graph();
        for d in 0..6u64 {
            let mut last = 0u32;
            for id in &ids {
                for vd in g.node(*id).expect("known").produced() {
                    if vd.data.as_u64() == d {
                        prop_assert!(vd.version.as_u32() > last);
                        last = vd.version.as_u32();
                    }
                }
            }
        }
    }

    /// Bottom levels upper-bound each successor's bottom level plus the
    /// task's own weight (definition check under random weights).
    #[test]
    fn bottom_levels_are_consistent(
        trace in trace_strategy(10, 40),
        seed in 0u64..1000,
    ) {
        let (ap, ids) = build(&trace).expect("valid traces");
        let g = ap.graph();
        let weight = |t: TaskId| ((t.as_u64().wrapping_mul(seed + 1)) % 7 + 1) as f64;
        let analysis = continuum_dag::GraphAnalysis::new(g);
        let bl = analysis.bottom_levels(weight);
        for id in &ids {
            let succ_max = g
                .successors(*id)
                .iter()
                .map(|s| bl[s.index()])
                .fold(0f64, f64::max);
            prop_assert!((bl[id.index()] - (weight(*id) + succ_max)).abs() < 1e-9);
        }
        // Critical path length equals the max bottom level of sources.
        let cp = analysis.critical_path(weight);
        if !ids.is_empty() {
            let max_source_bl = g
                .nodes()
                .filter(|n| n.predecessors().is_empty())
                .map(|n| bl[n.id().index()])
                .fold(0f64, f64::max);
            prop_assert!((cp.length - max_source_bl).abs() < 1e-9);
        }
    }
}
