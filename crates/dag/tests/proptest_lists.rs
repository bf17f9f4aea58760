//! Property-based tests of the two lists a task keeps in place until
//! they outgrow it: a spec's parameters and a node's edges. Each is
//! checked against a plain `Vec` model on both sides of its inline
//! width, with data and task ids past 2³² so that no id is narrowed on
//! the way in or out.

use continuum_dag::{
    AccessProcessor, DataId, Direction, Param, StreamRole, TaskGraph, TaskId, TaskSpec,
};
use proptest::prelude::*;
use serde::{Serialize, Value};

fn direction_strategy() -> impl Strategy<Value = Direction> {
    (0..Direction::ALL.len()).prop_map(|d| Direction::ALL[d])
}

/// Raw ids near zero, just past 2³², and the largest.
fn raw_id_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![0..16u64, (1u64 << 32)..(1u64 << 32) + 16, Just(u64::MAX),]
}

/// One call of a [`TaskSpec`] builder.
#[derive(Debug, Clone)]
enum Build {
    One(u64, Direction),
    Inputs(Vec<u64>),
    Outputs(Vec<u64>),
    From(Vec<(u64, Direction)>),
}

fn build_strategy() -> impl Strategy<Value = Build> {
    let ids = || proptest::collection::vec(raw_id_strategy(), 0..4);
    prop_oneof![
        4 => (raw_id_strategy(), direction_strategy()).prop_map(|(d, dir)| Build::One(d, dir)),
        1 => ids().prop_map(Build::Inputs),
        1 => ids().prop_map(Build::Outputs),
        1 => proptest::collection::vec((raw_id_strategy(), direction_strategy()), 0..7)
            .prop_map(Build::From),
    ]
}

/// Applies `calls` to a fresh spec, and to the model beside it.
fn build(calls: &[Build]) -> (TaskSpec, Vec<Param>) {
    let (mut spec, mut model) = (TaskSpec::new("t"), Vec::new());
    for call in calls {
        spec = match call.clone() {
            Build::One(d, dir) => {
                model.push(Param::new(DataId::from_raw(d), dir));
                match dir {
                    Direction::In => spec.input(DataId::from_raw(d)),
                    Direction::Out => spec.output(DataId::from_raw(d)),
                    Direction::InOut => spec.inout(DataId::from_raw(d)),
                    Direction::Stream(StreamRole::Produce) => spec.stream_out(DataId::from_raw(d)),
                    Direction::Stream(StreamRole::Consume) => spec.stream_in(DataId::from_raw(d)),
                }
            }
            Build::Inputs(ids) => {
                let ids: Vec<DataId> = ids.into_iter().map(DataId::from_raw).collect();
                model.extend(ids.iter().map(|&d| Param::input(d)));
                spec.inputs(ids)
            }
            Build::Outputs(ids) => {
                let ids: Vec<DataId> = ids.into_iter().map(DataId::from_raw).collect();
                model.extend(ids.iter().map(|&d| Param::output(d)));
                // Through an iterator that does not know its length.
                spec.outputs(ids.into_iter().filter(|_| true))
            }
            Build::From(params) => {
                let params: Vec<Param> = params
                    .into_iter()
                    .map(|(d, dir)| Param::new(DataId::from_raw(d), dir))
                    .collect();
                model.extend(params.iter().copied());
                spec.params_from(params)
            }
        };
    }
    (spec, model)
}

/// The data of the model's parameters of direction `keep`.
fn data_of(model: &[Param], keep: impl Fn(Direction) -> bool) -> Vec<DataId> {
    model
        .iter()
        .filter(|p| keep(p.direction))
        .map(|p| p.data)
        .collect()
}

/// One node of a graph's JSON form, with the edges the model expects.
#[derive(Debug, Clone)]
struct WireNode {
    preds: Vec<u64>,
    succs: Vec<u64>,
    streams: Option<(Vec<u64>, Vec<u64>)>,
}

fn wire_node_strategy() -> impl Strategy<Value = WireNode> {
    let ids = |max| proptest::collection::vec(raw_id_strategy(), 0..max);
    let streams = prop_oneof![
        2 => Just(None),
        1 => (ids(3), ids(3)).prop_map(Some),
    ];
    (ids(9), ids(9), streams).prop_map(|(preds, succs, streams)| WireNode {
        preds,
        succs,
        streams,
    })
}

fn id_list(ids: &[u64]) -> Value {
    Value::Arr(
        ids.iter()
            .map(|&t| TaskId::from_raw(t).to_json_value())
            .collect(),
    )
}

fn task_ids(ids: &[u64]) -> Vec<TaskId> {
    ids.iter().copied().map(TaskId::from_raw).collect()
}

/// The JSON form of a graph whose nodes carry `nodes`' edges.
fn graph_json(nodes: &[WireNode]) -> Value {
    let nodes = nodes.iter().enumerate().map(|(i, n)| {
        let streams = match &n.streams {
            None => Value::Null,
            Some((preds, succs)) => Value::Obj(vec![
                ("preds".to_string(), id_list(preds)),
                ("succs".to_string(), id_list(succs)),
            ]),
        };
        Value::Obj(vec![
            ("id".to_string(), TaskId::from_raw(i as u64).to_json_value()),
            ("spec".to_string(), TaskSpec::new("t").to_json_value()),
            ("preds".to_string(), id_list(&n.preds)),
            ("succs".to_string(), id_list(&n.succs)),
            ("streams".to_string(), streams),
            ("consumed".to_string(), Value::Arr(Vec::new())),
            ("produced".to_string(), Value::Arr(Vec::new())),
        ])
    });
    Value::Obj(vec![("nodes".to_string(), Value::Arr(nodes.collect()))])
}

/// A registration: the earlier outputs a task reads, and whether it
/// produces or consumes the one stream.
#[derive(Debug, Clone)]
struct Registration {
    reads: Vec<usize>,
    stream: Option<StreamRole>,
}

fn registration_strategy() -> impl Strategy<Value = Registration> {
    let role = prop_oneof![
        6 => Just(None),
        1 => Just(Some(StreamRole::Produce)),
        1 => Just(Some(StreamRole::Consume)),
    ];
    (proptest::collection::vec(0..64usize, 0..9), role)
        .prop_map(|(reads, stream)| Registration { reads, stream })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whatever builds it, a spec lists its parameters as a `Vec` would,
    /// and equal lists compare, clone and serialize alike whether they
    /// are held in place or spilled.
    #[test]
    fn params_match_a_vec_model(calls in proptest::collection::vec(build_strategy(), 0..6)) {
        let (spec, model) = build(&calls);
        let mut params = spec.params();
        for left in (0..=model.len()).rev() {
            prop_assert_eq!(params.len(), left);
            prop_assert_eq!(params.size_hint(), (left, Some(left)));
            params.next();
        }
        prop_assert_eq!(params.next(), None);
        prop_assert_eq!(spec.params().collect::<Vec<_>>(), model.clone());
        for i in 0..=model.len() {
            prop_assert_eq!(spec.params().nth(i), model.get(i).copied());
        }
        prop_assert_eq!(spec.reads().collect::<Vec<_>>(), data_of(&model, Direction::reads));
        prop_assert_eq!(spec.writes().collect::<Vec<_>>(), data_of(&model, Direction::writes));
        let consume = |d| d == Direction::Stream(StreamRole::Consume);
        let produce = |d| d == Direction::Stream(StreamRole::Produce);
        prop_assert_eq!(spec.stream_reads().collect::<Vec<_>>(), data_of(&model, consume));
        prop_assert_eq!(spec.stream_writes().collect::<Vec<_>>(), data_of(&model, produce));

        // One parameter at a time spills at the fifth; all at once
        // spills up front past four, or never.
        let pushed = model.iter().fold(TaskSpec::new("t"), |s, p| s.param(p.data, p.direction));
        let at_once = TaskSpec::new("t").params_from(model.iter().copied());
        prop_assert_eq!(&pushed, &spec);
        prop_assert_eq!(&at_once, &spec);
        prop_assert_eq!(&spec.clone(), &spec);
        prop_assert_eq!(format!("{pushed:?}"), format!("{spec:?}"));
        let text = serde::to_string(&spec);
        prop_assert_eq!(serde::to_string(&at_once), text.clone());
        let back: TaskSpec = serde::from_str(&text).expect("a spec reads back");
        prop_assert_eq!(back, spec);
    }

    /// A graph read from JSON keeps each node's predecessors, successors
    /// and stream edges as listed, in place or spilled, takes each
    /// node's id from its position, and writes the same JSON back.
    #[test]
    fn edges_read_from_json_match_a_vec_model(
        nodes in proptest::collection::vec(wire_node_strategy(), 1..8),
    ) {
        let json = graph_json(&nodes);
        let text = serde::to_string(&json);
        let graph: TaskGraph = serde::from_str(&text).expect("the graph reads back");
        prop_assert_eq!(graph.len(), nodes.len());
        prop_assert_eq!(serde::to_string(&graph), text);
        let ids: Vec<u64> = graph.nodes().map(|n| n.id().as_u64()).collect();
        prop_assert_eq!(ids, (0..nodes.len() as u64).collect::<Vec<_>>());
        for (i, want) in nodes.iter().enumerate() {
            let id = TaskId::from_raw(i as u64);
            let node = graph.node(id).expect("every listed node is held");
            prop_assert_eq!(graph.predecessors(id), &task_ids(&want.preds)[..]);
            prop_assert_eq!(graph.successors(id), &task_ids(&want.succs)[..]);
            prop_assert_eq!(node.predecessors(), &task_ids(&want.preds)[..]);
            prop_assert_eq!(node.successors(), &task_ids(&want.succs)[..]);
            let (stream_preds, stream_succs) = want.streams.clone().unwrap_or_default();
            prop_assert_eq!(node.stream_predecessors(), &task_ids(&stream_preds)[..]);
            prop_assert_eq!(node.stream_successors(), &task_ids(&stream_succs)[..]);
        }
        let edges: usize = nodes.iter().map(|n| n.preds.len()).sum();
        prop_assert_eq!(graph.edge_count(), edges);
    }

    /// The access processor's edges: a task's predecessors are the
    /// producers of what it reads, ascending and once each; its
    /// successors are the later tasks that read it, in registration
    /// order; stream edges join each consumer to every producer
    /// registered before it. Fan-in and fan-out run past the six edges a
    /// node holds in place.
    #[test]
    fn registered_edges_match_a_vec_model(
        plan in proptest::collection::vec(registration_strategy(), 1..40),
    ) {
        let mut ap = AccessProcessor::new();
        let stream = ap.new_data("s");
        let (mut outputs, mut producers) = (Vec::new(), Vec::new());
        let mut model_preds: Vec<Vec<TaskId>> = Vec::new();
        let mut model_succs: Vec<Vec<TaskId>> = Vec::new();
        let mut model_stream_preds: Vec<Vec<TaskId>> = Vec::new();
        let mut model_stream_succs: Vec<Vec<TaskId>> = Vec::new();
        for (i, step) in plan.iter().enumerate() {
            let id = TaskId::from_raw(i as u64);
            let out = ap.new_data_fmt(format_args!("o{i}"));
            let mut spec = TaskSpec::new("t").output(out);
            let mut preds = Vec::new();
            if !outputs.is_empty() {
                let mut read: Vec<usize> = step.reads.iter().map(|r| r % outputs.len()).collect();
                read.sort_unstable();
                read.dedup();
                for r in read {
                    spec = spec.input(outputs[r]);
                    preds.push(TaskId::from_raw(r as u64));
                }
            }
            let mut stream_preds = Vec::new();
            match step.stream {
                Some(StreamRole::Produce) => {
                    spec = spec.stream_out(stream);
                    producers.push(id);
                }
                Some(StreamRole::Consume) => {
                    spec = spec.stream_in(stream);
                    stream_preds = producers.clone();
                }
                None => {}
            }
            prop_assert_eq!(ap.register(spec).expect("a valid spec"), id);
            for p in &preds {
                model_succs[p.index()].push(id);
            }
            for p in &stream_preds {
                model_stream_succs[p.index()].push(id);
            }
            outputs.push(out);
            model_preds.push(preds);
            model_succs.push(Vec::new());
            model_stream_preds.push(stream_preds);
            model_stream_succs.push(Vec::new());
        }
        let graph = ap.graph();
        for i in 0..plan.len() {
            let node = graph.node(TaskId::from_raw(i as u64)).expect("held");
            prop_assert_eq!(node.predecessors(), &model_preds[i][..]);
            prop_assert_eq!(node.successors(), &model_succs[i][..]);
            prop_assert_eq!(node.stream_predecessors(), &model_stream_preds[i][..]);
            prop_assert_eq!(node.stream_successors(), &model_stream_succs[i][..]);
        }
        let order = graph.topological_order();
        prop_assert_eq!(order.len(), plan.len());
    }
}
