//! Property-based tests for the access processor and task graph.
//!
//! These check the structural invariants that every downstream component
//! (schedulers, engines, recovery) relies on: acyclicity, correct
//! happens-before between writers and readers, exactly-once
//! completion under any completion order, and a run grown one
//! registration at a time agreeing with one built from the whole graph.

use continuum_dag::{
    AccessProcessor, DagError, DataId, DataVersion, Direction, GraphRun, StreamRole, TaskGraph,
    TaskId, TaskSpec, TaskState, VersionedData,
};
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

fn spec_of(i: usize, op: &TraceOp, data: &[DataId]) -> TaskSpec {
    let mut spec = TaskSpec::new(format!("t{i}"));
    for (d, dir) in &op.accesses {
        spec = spec.param(data[*d], *dir);
    }
    spec
}

fn build(trace: &[TraceOp]) -> Result<(AccessProcessor, Vec<TaskId>), DagError> {
    let mut ap = AccessProcessor::new();
    let data = ap.new_data_batch("d", 16);
    let mut ids = Vec::new();
    for (i, op) in trace.iter().enumerate() {
        ids.push(ap.register(spec_of(i, op, &data))?);
    }
    Ok((ap, ids))
}

/// Versioned data of the lifecycle traces; the stream data follow them.
const VERSIONED: usize = 5;
const STREAMS: usize = 3;

/// Traces mixing versioned accesses with stream ends: a stream datum is
/// only ever streamed, and one task holds one end of it at most.
fn lifecycle_trace_strategy(max_tasks: usize) -> impl Strategy<Value = Vec<TraceOp>> {
    let stream_end = prop_oneof![
        Just(Direction::Stream(StreamRole::Produce)),
        Just(Direction::Stream(StreamRole::Consume)),
    ];
    let access = prop_oneof![
        2 => (0..VERSIONED, direction_strategy()),
        1 => (VERSIONED..VERSIONED + STREAMS, stream_end),
    ];
    let op = proptest::collection::vec(access, 1..4).prop_map(|mut accesses| {
        accesses.sort_by_key(|(d, _)| *d);
        accesses.dedup_by_key(|(d, _)| *d);
        TraceOp { accesses }
    });
    proptest::collection::vec(op, 1..max_tasks)
}

/// Specs in any parameter order: `In`, `Out` and `InOut` on versioned
/// data, a datum read more than once, and stream ends. An access that
/// would clash with an earlier one on its datum is dropped.
fn repeated_reads_trace_strategy(max_tasks: usize) -> impl Strategy<Value = Vec<TraceOp>> {
    let stream_end = prop_oneof![
        Just(Direction::Stream(StreamRole::Produce)),
        Just(Direction::Stream(StreamRole::Consume)),
    ];
    let versioned = prop_oneof![
        2 => Just(Direction::In),
        1 => Just(Direction::Out),
        1 => Just(Direction::InOut),
    ];
    let access = prop_oneof![
        3 => (0..VERSIONED, versioned),
        1 => (VERSIONED..VERSIONED + STREAMS, stream_end),
    ];
    let op = proptest::collection::vec(access, 1..7).prop_map(|drawn| {
        let mut accesses: Vec<(usize, Direction)> = Vec::new();
        for (d, dir) in drawn {
            let both_read = |e: Direction| e == Direction::In && dir == Direction::In;
            if accesses.iter().all(|&(e, edir)| e != d || both_read(edir)) {
                accesses.push((d, dir));
            }
        }
        TraceOp { accesses }
    });
    proptest::collection::vec(op, 1..max_tasks)
}

/// One step of a run that grows as tasks are registered.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Register the trace's next task.
    Register,
    /// Start the `k`-th ready task (modulo how many are ready).
    Start(usize),
    /// Complete the `k`-th running task.
    Complete(usize),
    /// The `k`-th running task sends its first stream element.
    Release(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0..4usize, 0..64usize).prop_map(|(kind, k)| match kind {
        0 => Step::Register,
        1 => Step::Start(k),
        2 => Step::Complete(k),
        _ => Step::Release(k),
    })
}

/// A lifecycle transition of one task, replayable on another run.
#[derive(Debug, Clone, Copy)]
enum Action {
    Start(TaskId),
    Complete(TaskId),
    Release(TaskId),
}

/// Applies `action` and returns the tasks it reported ready.
fn apply(run: &mut GraphRun, graph: &TaskGraph, action: Action) -> Vec<TaskId> {
    let mut newly = Vec::new();
    match action {
        Action::Start(t) => run.mark_running(t).expect("a ready task"),
        Action::Complete(t) => run
            .complete_into(graph, t, &mut newly)
            .expect("a running task"),
        Action::Release(t) => run
            .stream_release_into(graph, t, &mut newly)
            .expect("a running task"),
    }
    newly
}

fn states(run: &GraphRun) -> Vec<(Option<TaskState>, bool)> {
    (0..run.len() as u64)
        .map(TaskId::from_raw)
        .map(|t| (run.state(t), run.stream_released(t)))
        .collect()
}

fn running(run: &GraphRun) -> Vec<TaskId> {
    (0..run.len() as u64)
        .map(TaskId::from_raw)
        .filter(|t| run.state(*t) == Some(TaskState::Running))
        .collect()
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
        let (ap, ids) = build(&trace).expect("valid traces");
        let g = ap.graph();
        let mut run = GraphRun::new(g);
        let mut completed = 0usize;
        while let Some(t) = run.ready_tasks().first() {
            run.mark_running(t).expect("ready task can run");
            run.complete(g, t).expect("running task can complete");
            completed += 1;
        }
        prop_assert_eq!(completed, ids.len());
        prop_assert!(run.all_completed());
    }

    /// Completing tasks in *reverse* ready order (highest id first)
    /// also terminates: the ready set is order-insensitive.
    #[test]
    fn reverse_order_execution_terminates(trace in trace_strategy(12, 60)) {
        let (ap, ids) = build(&trace).expect("valid traces");
        let g = ap.graph();
        let mut run = GraphRun::new(g);
        let mut completed = 0usize;
        while let Some(t) = run.ready_tasks().last() {
            run.mark_running(t).expect("ready task can run");
            run.complete(g, t).expect("running task can complete");
            completed += 1;
        }
        prop_assert_eq!(completed, ids.len());
    }

    /// A run grown after every registration — as the local executor
    /// grows one — and driven between registrations agrees, after every
    /// step, with a run built from the whole graph so far and driven by
    /// the same transitions. Registrations land after completions and
    /// stream releases, so late readers of completed producers and late
    /// consumers of released streams are among the cases. The list
    /// forms report exactly the tasks that became ready.
    #[test]
    fn incremental_growth_equals_the_snapshot(
        trace in lifecycle_trace_strategy(30),
        steps in proptest::collection::vec(step_strategy(), 1..120),
    ) {
        let mut ap = AccessProcessor::new();
        let data = ap.new_data_batch("d", VERSIONED + STREAMS);
        let mut run = GraphRun::new(ap.graph());
        let mut actions = Vec::new();
        let mut next = 0;
        for step in steps {
            let pick = |from: Vec<TaskId>, k: usize| (!from.is_empty()).then(|| from[k % from.len()]);
            let action = match step {
                Step::Register => {
                    if let Some(op) = trace.get(next) {
                        ap.register(spec_of(next, op, &data)).expect("valid traces");
                        run.grow(ap.graph());
                        next += 1;
                    }
                    None
                }
                Step::Start(k) => pick(run.ready_tasks().iter().collect(), k).map(Action::Start),
                Step::Complete(k) => pick(running(&run), k).map(Action::Complete),
                Step::Release(k) => pick(running(&run), k).map(Action::Release),
            };
            if let Some(action) = action {
                let before = states(&run);
                let mut newly = apply(&mut run, ap.graph(), action);
                newly.sort();
                let promoted: Vec<TaskId> = (0..before.len() as u64)
                    .map(TaskId::from_raw)
                    .filter(|t| {
                        before[t.index()].0 == Some(TaskState::Pending)
                            && run.state(*t) == Some(TaskState::Ready)
                    })
                    .collect();
                prop_assert_eq!(newly, promoted, "{:?}", action);
                actions.push(action);
            }
            let mut snapshot = GraphRun::new(ap.graph());
            for &a in &actions {
                apply(&mut snapshot, ap.graph(), a);
            }
            prop_assert_eq!(states(&run), states(&snapshot));
            prop_assert_eq!(run.ready_tasks(), snapshot.ready_tasks());
            prop_assert_eq!(run.completed_count(), snapshot.completed_count());
        }
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

    /// What a task reads and writes is the catalog's versions replayed
    /// in submission and declaration order: a read sees the datum's
    /// current version, a write bumps it, an `InOut` does both, and a
    /// stream end does neither.
    #[test]
    fn accesses_equal_the_replayed_catalog(trace in repeated_reads_trace_strategy(40)) {
        let mut ap = AccessProcessor::new();
        let data = ap.new_data_batch("d", VERSIONED + STREAMS);
        let mut current = [0u32; VERSIONED + STREAMS];
        for (i, op) in trace.iter().enumerate() {
            let id = ap.register(spec_of(i, op, &data)).expect("valid traces");
            let (mut consumed, mut produced) = (Vec::new(), Vec::new());
            for &(d, dir) in &op.accesses {
                let at = |v: u32| VersionedData::new(data[d], DataVersion::from_raw(v));
                if dir.reads() {
                    consumed.push(at(current[d]));
                }
                if dir.writes() {
                    current[d] += 1;
                    produced.push(at(current[d]));
                }
            }
            let node = ap.graph().node(id).expect("known");
            prop_assert_eq!(node.consumed().collect::<Vec<_>>(), consumed, "t{} {:?}", i, op);
            prop_assert_eq!(node.produced().collect::<Vec<_>>(), produced, "t{} {:?}", i, op);
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
