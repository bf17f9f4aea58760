//! Soundness of the lint catalogue: on any *valid* workflow — a graph
//! the access processor accepted, run on a platform that can host every
//! task, with every datum's initial version declared as externally
//! provided — the verifier must report **zero error-severity**
//! diagnostics. Warnings (dead outputs, unordered double writes) and
//! info (schedulability bounds) are allowed; errors are not, because an
//! error means "this workflow cannot run", and these workflows do run.
//!
//! Equivalence with the verifier this one replaced: for random
//! workflows — and for graphs corrupted the way a bad dump would be —
//! the report through the borrowed `SimWorkload` view, through the
//! owned bundle, and through a JSON round trip of the owned bundle are
//! all equal, field for field, to what [`reference_verify::Reference`]
//! (the previous passes, verbatim) reports.

mod reference_verify;

use continuum_analyze::{Diagnostic, LintBundle, LintNode, Severity, StreamInfo};
use continuum_dag::{AccessProcessor, DataId, Direction, StreamRole, TaskId, TaskSpec};
use continuum_platform::{Constraints, NodeCapacity, NodeSpec, Platform, PlatformBuilder};
use continuum_runtime::{SimWorkload, TaskProfile};
use proptest::prelude::*;
use reference_verify::Reference;
use serde::json::Value;
use serde::{Deserialize, Serialize};

const NUM_DATA: usize = 10;

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

fn trace_strategy(max_tasks: usize) -> impl Strategy<Value = Vec<TraceOp>> {
    let op = proptest::collection::vec((0..NUM_DATA, direction_strategy()), 1..4).prop_map(
        |mut accesses| {
            accesses.sort_by_key(|(d, _)| *d);
            accesses.dedup_by_key(|(d, _)| *d);
            TraceOp { accesses }
        },
    );
    proptest::collection::vec(op, 1..max_tasks)
}

/// Builds the bundle the verifier sees for a random valid trace: the
/// registered graph, a single node big enough for the default
/// constraints, and all data declared externally provided.
fn bundle_of(trace: &[TraceOp]) -> LintBundle {
    let mut ap = AccessProcessor::new();
    let data = ap.new_data_batch("d", NUM_DATA);
    for (i, op) in trace.iter().enumerate() {
        let mut spec = TaskSpec::new(format!("t{i}"));
        for (d, dir) in &op.accesses {
            spec = spec.param(data[*d], *dir);
        }
        ap.register(spec).expect("valid traces");
    }
    let (catalog, graph) = ap.into_parts();
    let names = (0..catalog.len())
        .map(|i| {
            catalog
                .name(DataId::from_raw(i as u64))
                .unwrap_or("?")
                .to_string()
        })
        .collect();
    LintBundle::new(graph)
        .with_data_names(names)
        .with_nodes(vec![LintNode {
            name: "n0".to_string(),
            capacity: NodeCapacity::new(8, 32_768),
        }])
        .with_initial_data(data)
}

/// Stream data of the wide traces (kept apart from the versioned
/// data: the access processor rejects mixing the two on one datum).
const NUM_STREAMS: usize = 3;

/// One task of a wide trace: versioned accesses, stream ends, a weight
/// and one of a few constraint shapes.
#[derive(Debug, Clone)]
struct WideOp {
    accesses: Vec<(usize, Direction)>,
    streams: Vec<(usize, StreamRole)>,
    weight: u32,
    demand: u32,
}

fn wide_trace_strategy(max_tasks: usize) -> impl Strategy<Value = Vec<WideOp>> {
    let role = prop_oneof![Just(StreamRole::Produce), Just(StreamRole::Consume)];
    let op = (
        proptest::collection::vec((0..NUM_DATA, direction_strategy()), 0..4),
        proptest::collection::vec((0..NUM_STREAMS, role), 0..3),
        1..6u32,
        0..8u32,
    )
        .prop_map(|(mut accesses, mut streams, weight, demand)| {
            accesses.sort_by_key(|(d, _)| *d);
            accesses.dedup_by_key(|(d, _)| *d);
            streams.sort_by_key(|(s, _)| *s);
            streams.dedup_by_key(|(s, _)| *s);
            WideOp {
                accesses,
                streams,
                weight,
                demand,
            }
        });
    proptest::collection::vec(op, 1..max_tasks)
}

/// Demand 0–4: the default (so runs of equal constraints occur), 5: two
/// cores, 6: more memory than any node has, 7: three whole nodes.
fn constraints_of(demand: u32) -> Constraints {
    match demand {
        5 => Constraints::new().compute_units(2),
        6 => Constraints::new().memory_mb(1 << 40),
        7 => Constraints::new().nodes(3),
        _ => Constraints::new(),
    }
}

/// Builds the workload a wide trace describes. Bit `i` of `initial`
/// declares versioned datum `i` externally provided, so multi-version
/// chains, dead writes, unordered writers and reads of undeclared data
/// all occur, and two tasks holding opposite ends of two streams make
/// a feedback loop. Specs the access processor refuses (no parameter
/// at all) are skipped.
fn workload_of(trace: &[WideOp], initial: u32) -> SimWorkload {
    let mut w = SimWorkload::new();
    let data: Vec<DataId> = (0..NUM_DATA)
        .map(|i| {
            if initial >> i & 1 == 1 {
                w.initial_data(format!("d{i}"), 1_000, None)
            } else {
                w.data(format!("d{i}"))
            }
        })
        .collect();
    let streams = w.data_batch("s", NUM_STREAMS);
    for (i, op) in trace.iter().enumerate() {
        let mut spec = TaskSpec::new(format!("t{i}"));
        for (d, dir) in &op.accesses {
            spec = spec.param(data[*d], *dir);
        }
        for (s, role) in &op.streams {
            spec = spec.param(streams[*s], Direction::Stream(*role));
        }
        let profile = TaskProfile::new(f64::from(op.weight)).constraints(constraints_of(op.demand));
        let _ = w.task(spec, profile);
    }
    w
}

/// Zero, one or two 4-core nodes.
fn platform_of(nodes: usize) -> Platform {
    match nodes {
        0 => PlatformBuilder::new().build(),
        n => PlatformBuilder::new()
            .cluster("c", n, NodeSpec::hpc(4, 8_000))
            .build(),
    }
}

/// Sizings for some of the streams: bit `2i` of `mask` declares stream
/// `i`, bit `2i + 1` makes the declared channel roomy enough never to
/// fill. Undeclared streams fall back to the runtime default.
fn stream_infos(w: &SimWorkload, mask: u32) -> Vec<StreamInfo> {
    let first_stream = NUM_DATA as u64;
    (0..NUM_STREAMS as u64)
        .filter(|i| mask >> (2 * i) & 1 == 1)
        .map(|i| StreamInfo {
            data: DataId::from_raw(first_stream + i),
            capacity: 2,
            expected_elements: if mask >> (2 * i + 1) & 1 == 1 { 2 } else { 8 },
        })
        .filter(|info| info.data.index() < w.catalog().len())
        .collect()
}

fn round_trip(bundle: &LintBundle) -> LintBundle {
    serde::from_str(&serde::to_string(bundle)).expect("bundle round-trips")
}

/// Owned bundle and its JSON round trip against the reference.
fn assert_bundle_agrees(bundle: &LintBundle) -> Vec<Diagnostic> {
    let expected = Reference(bundle).verify();
    assert_eq!(bundle.verify(), expected, "owned bundle");
    assert_eq!(round_trip(bundle).verify(), expected, "JSON round trip");
    expected
}

fn field_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    match value {
        Value::Obj(pairs) => pairs
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {key:?}")),
        other => panic!("expected object, got {other:?}"),
    }
}

fn array_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Vec<Value> {
    match field_mut(value, key) {
        Value::Arr(items) => items,
        other => panic!("{key} must be an array, got {other:?}"),
    }
}

/// Corrupts a bundle the way a bad dump would arrive: through its
/// JSON. `back_edge = (from, to)` splices the edge `from -> to` (both
/// directions of the wiring), which closes a cycle whenever `to`
/// already reached `from` and is a mere backward edge otherwise;
/// `orphan` empties a task's produced list, leaving its readers
/// without a producer.
fn forge(
    bundle: &LintBundle,
    back_edge: Option<(usize, usize)>,
    orphan: Option<usize>,
) -> LintBundle {
    let mut value = bundle.to_json_value();
    let nodes = array_mut(field_mut(&mut value, "graph"), "nodes");
    if let Some((from, to)) = back_edge {
        array_mut(&mut nodes[from], "succs").push(Value::U64(to as u64));
        array_mut(&mut nodes[to], "preds").push(Value::U64(from as u64));
    }
    if let Some(task) = orphan {
        array_mut(&mut nodes[task], "produced").clear();
    }
    LintBundle::from_json_value(&value).expect("forged bundle deserializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Borrowed view, owned bundle and JSON round trip all report what
    /// the previous verifier reported, with and without declared
    /// stream sizings.
    #[test]
    fn every_path_equals_the_reference_verifier(
        trace in wide_trace_strategy(30),
        initial in 0..1u32 << NUM_DATA,
        nodes in 0..3usize,
        sized in 0..1u32 << (2 * NUM_STREAMS),
    ) {
        let w = workload_of(&trace, initial);
        let platform = platform_of(nodes);
        let bundle = w.lint_bundle(&platform).to_bundle();
        let expected = assert_bundle_agrees(&bundle);
        prop_assert_eq!(w.lint_bundle(&platform).verify(), expected, "borrowed view");
        // Only the owned form carries stream sizings.
        let infos = stream_infos(&w, sized);
        assert_bundle_agrees(&bundle.with_streams(infos));
    }

    /// The same on corrupted graphs: a planted cycle (an edge from a
    /// task back to one of its predecessors), a backward edge between
    /// two arbitrary tasks, and a missing producer. Stream ends are
    /// left out here: the reference's schedulability pass orders the
    /// graph by completion *and* stream edges and debug-asserts when a
    /// planted edge closes a loop through a stream edge, which its
    /// cycle pass (completion edges only) does not report.
    #[test]
    fn forged_graphs_equal_the_reference_verifier(
        trace in wide_trace_strategy(24),
        initial in 0..1u32 << NUM_DATA,
        picks in (0..1_000usize, 0..1_000usize, 0..1_000usize),
        plant in 1..8u32,
    ) {
        let mut trace = trace;
        trace.iter_mut().for_each(|op| op.streams.clear());
        let w = workload_of(&trace, initial);
        let bundle = w.lint_bundle(&platform_of(1)).to_bundle();
        let n = bundle.graph.len();
        if n < 2 {
            continue;
        }
        let (a, b, c) = (picks.0 % n, picks.1 % n, picks.2 % n);
        let preds = bundle.graph.predecessors(TaskId::from_raw(a as u64));
        let back_edge = if plant & 4 == 4 && !preds.is_empty() {
            Some((a, preds[b % preds.len()].index()))
        } else {
            (plant & 1 == 1 && a != b).then(|| (a.max(b), a.min(b)))
        };
        let orphan = (plant & 2 == 2).then_some(c);
        assert_bundle_agrees(&forge(&bundle, back_edge, orphan));
    }

    /// No false positives at error severity on valid workflows.
    #[test]
    fn valid_workflows_have_no_error_diagnostics(trace in trace_strategy(40)) {
        let report = bundle_of(&trace).verify();
        for d in &report {
            prop_assert!(
                d.severity != Severity::Error,
                "false positive on a valid workflow: {d}"
            );
        }
    }

    /// The verifier is deterministic: same bundle, same report.
    #[test]
    fn verify_is_deterministic(trace in trace_strategy(25)) {
        let bundle = bundle_of(&trace);
        prop_assert_eq!(bundle.verify(), bundle.verify());
    }

    /// Removing the initial-data declarations can only add diagnostics
    /// (read-without-producer errors), never remove any.
    #[test]
    fn undeclaring_initials_is_monotone(trace in trace_strategy(25)) {
        let declared = bundle_of(&trace);
        let mut undeclared = declared.clone();
        undeclared.initial_data.clear();
        let with = declared.verify();
        let without = undeclared.verify();
        prop_assert!(without.len() >= with.len());
        for d in &with {
            prop_assert!(without.contains(d), "declaring initials removed {d}");
        }
    }
}
