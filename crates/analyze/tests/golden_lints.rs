//! Golden fixtures: one minimal workflow per lint that must trigger
//! exactly that finding, plus a JSON round-trip through the bundle
//! format the `continuum-lint` CLI reads.

use continuum_analyze::{Lint, LintBundle, LintNode, Severity, StreamInfo};
use continuum_dag::{AccessProcessor, DataId, TaskSpec};
use continuum_platform::{Constraints, NodeCapacity};
use serde::json::Value;
use serde::{Deserialize, Serialize};

fn small_node() -> LintNode {
    LintNode {
        name: "n0".to_string(),
        capacity: NodeCapacity::new(4, 8_192),
    }
}

fn names_of(ap: &AccessProcessor) -> Vec<String> {
    (0..ap.catalog().len())
        .map(|i| {
            ap.catalog()
                .name(DataId::from_raw(i as u64))
                .unwrap_or("?")
                .to_string()
        })
        .collect()
}

fn bundle_of(ap: AccessProcessor) -> LintBundle {
    let names = names_of(&ap);
    let (_, graph) = ap.into_parts();
    LintBundle::new(graph)
        .with_data_names(names)
        .with_nodes(vec![small_node()])
}

fn findings_of(report: &[continuum_analyze::Diagnostic], lint: Lint) -> usize {
    report.iter().filter(|d| d.lint == lint).count()
}

#[test]
fn golden_unsatisfiable_constraints() {
    let mut ap = AccessProcessor::new();
    let d = ap.new_data("d");
    let t = ap.register(TaskSpec::new("wants-gpu").output(d)).unwrap();
    let bundle = bundle_of(ap).with_constraints(vec![Constraints::new().gpus(2)]);
    let report = bundle.verify();
    let finding = report
        .iter()
        .find(|x| x.lint == Lint::UnsatisfiableConstraints)
        .expect("gpu task on a gpu-less node must be flagged");
    assert_eq!(finding.severity, Severity::Error);
    assert_eq!(finding.task, Some(t));
    assert!(
        finding.witness.iter().any(|w| w.contains("gpus")),
        "nearest-miss witness names the failing dimension: {:?}",
        finding.witness
    );
}

#[test]
fn golden_read_without_producer() {
    let mut ap = AccessProcessor::new();
    let ghost = ap.new_data("ghost");
    let out = ap.new_data("out");
    let t = ap
        .register(TaskSpec::new("reader").input(ghost).output(out))
        .unwrap();
    let report = bundle_of(ap).verify();
    let finding = report
        .iter()
        .find(|x| x.lint == Lint::ReadWithoutProducer)
        .expect("undeclared initial read must be flagged");
    assert_eq!(finding.severity, Severity::Error);
    assert_eq!(finding.task, Some(t));
    assert_eq!(finding.data, Some(ghost));
    assert!(finding.message.contains("ghost"));
}

/// Looks up a mutable field of a JSON object value.
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

/// The access processor cannot build a cyclic graph, so the fixture is
/// forged the way a corrupted dump would arrive: serialize a valid
/// 2-task chain, splice a back edge into the JSON, deserialize.
#[test]
fn golden_cycle() {
    let mut ap = AccessProcessor::new();
    let x = ap.new_data("x");
    ap.register(TaskSpec::new("first").output(x)).unwrap();
    ap.register(TaskSpec::new("second").inout(x)).unwrap();
    let bundle = bundle_of(ap);

    let mut value = bundle.to_json_value();
    {
        let graph = field_mut(&mut value, "graph");
        let Value::Arr(nodes) = field_mut(graph, "nodes") else {
            panic!("nodes must be an array");
        };
        // Back edge second -> first (successor direction) and the
        // matching predecessor entry.
        let Value::Arr(succs) = field_mut(&mut nodes[1], "succs") else {
            panic!("succs must be an array");
        };
        succs.push(Value::U64(0));
        let Value::Arr(preds) = field_mut(&mut nodes[0], "preds") else {
            panic!("preds must be an array");
        };
        preds.push(Value::U64(1));
        *field_mut(&mut nodes[0], "unfinished_preds") = Value::U64(1);
        *field_mut(graph, "ready") = Value::Arr(Vec::new());
    }
    let forged = LintBundle::from_json_value(&value).expect("forged bundle deserializes");

    let report = forged.verify();
    let finding = report
        .iter()
        .find(|d| d.lint == Lint::Cycle)
        .expect("spliced back edge must be reported");
    assert_eq!(finding.severity, Severity::Error);
    let witness = finding.witness.join(" ");
    assert!(
        witness.contains("first") && witness.contains("second"),
        "cycle witness names every task on the path: {witness}"
    );
}

/// A two-task chain over `x` (`first` writes `x@v1`, `second` updates
/// it) on one small node, with its graph's JSON nodes handed to
/// `corrupt` before it is read back — the hostile-input fixtures below
/// start from it.
fn forged_chain(corrupt: impl FnOnce(&mut Vec<Value>)) -> LintBundle {
    let mut ap = AccessProcessor::new();
    let x = ap.new_data("x");
    ap.register(TaskSpec::new("first").output(x)).unwrap();
    ap.register(TaskSpec::new("second").inout(x)).unwrap();
    let mut value = bundle_of(ap).to_json_value();
    let Value::Arr(nodes) = field_mut(field_mut(&mut value, "graph"), "nodes") else {
        panic!("nodes must be an array");
    };
    corrupt(nodes);
    LintBundle::from_json_value(&value).expect("forged bundle deserializes")
}

/// The first entry of a node's `produced` or `consumed` list.
fn first_access<'a>(node: &'a mut Value, list: &str) -> &'a mut Value {
    match field_mut(node, list) {
        Value::Arr(entries) => &mut entries[0],
        other => panic!("{list} must be an array, got {other:?}"),
    }
}

/// Hostile input: a datum id at the top of the id space. The per-datum
/// index must be sized by the data the graph mentions (three here),
/// not by the largest id — a table of `u64::MAX` slots cannot exist.
#[test]
fn hostile_huge_data_id_verifies() {
    let forged = forged_chain(|nodes| {
        *field_mut(first_access(&mut nodes[1], "consumed"), "data") = Value::U64(u64::MAX);
        *field_mut(first_access(&mut nodes[1], "produced"), "data") = Value::U64(u64::MAX - 1);
    });
    let report = forged.verify();
    let ghost = DataId::from_raw(u64::MAX);
    let finding = report
        .iter()
        .find(|d| d.lint == Lint::ReadWithoutProducer)
        .expect("nobody produces the far datum");
    assert_eq!(finding.data, Some(ghost));
    assert!(
        finding.message.contains("d18446744073709551615"),
        "nameless data render as dN: {}",
        finding.message
    );
    assert_eq!(findings_of(&report, Lint::DeadOutput), 0, "{report:?}");
    assert_eq!(findings_of(&report, Lint::SchedulabilityBound), 1);
}

/// Hostile input: a version number at the top of its range sorts last
/// and is therefore the datum's final version; the ordinary version
/// beside it becomes a superseded, unread write.
#[test]
fn hostile_max_version_verifies() {
    let forged = forged_chain(|nodes| {
        *field_mut(first_access(&mut nodes[0], "produced"), "version") =
            Value::U64(u64::from(u32::MAX));
    });
    let report = forged.verify();
    // `second` still reads x@v1, which `first` no longer produces.
    assert_eq!(findings_of(&report, Lint::ReadWithoutProducer), 1);
    let dead = report
        .iter()
        .find(|d| d.lint == Lint::DeadOutput)
        .expect("x@v2 is superseded by x@v4294967295 and unread");
    assert_eq!(dead.task.map(|t| t.index()), Some(1));
    // Sorted by version the writers are second, first: no path that way.
    let hazard = report
        .iter()
        .find(|d| d.lint == Lint::WriteWriteHazard)
        .expect("no path second -> first");
    assert_eq!(hazard.task.map(|t| t.index()), Some(0));
}

/// Hostile input: an edge to a task id the graph does not hold — in
/// range of the bundle's `constraints`/`weights` tables, so nothing
/// about the id itself looks wrong. The traversal must step over it.
#[test]
fn hostile_edge_to_an_absent_task_verifies() {
    let mut forged = forged_chain(|nodes| {
        let Value::Arr(succs) = field_mut(&mut nodes[1], "succs") else {
            panic!("succs must be an array");
        };
        succs.push(Value::U64(5));
    });
    forged.constraints = vec![Constraints::new(); 8];
    forged.weights = vec![2.0; 8];
    let report = forged.verify();
    assert_eq!(findings_of(&report, Lint::Cycle), 0, "{report:?}");
    let bound = report
        .iter()
        .find(|d| d.lint == Lint::SchedulabilityBound)
        .expect("platform present: bound must be reported");
    assert!(
        bound.message.contains("critical path 4.000s"),
        "two real tasks of weight 2, the absent one counts for nothing: {}",
        bound.message
    );
    assert!(
        bound.witness.join(" ").ends_with("first -> second"),
        "{:?}",
        bound.witness
    );
}

/// Hostile input: fewer data names than data ids in use. Missing names
/// render as `dN`; nothing indexes past the table.
#[test]
fn hostile_short_data_names_verify() {
    let mut ap = AccessProcessor::new();
    let ghost = ap.new_data("ghost");
    let out = ap.new_data("out");
    ap.register(TaskSpec::new("reader").input(ghost).output(out))
        .unwrap();
    ap.register(TaskSpec::new("again").output(out)).unwrap();
    let mut bundle = bundle_of(ap);
    bundle.data_names.truncate(1);
    let report = bundle.verify();
    let unread = report
        .iter()
        .find(|d| d.lint == Lint::DeadOutput)
        .expect("out@v1 is superseded and unread");
    assert!(unread.message.contains("writes d1 "), "{}", unread.message);
    let missing = report
        .iter()
        .find(|d| d.lint == Lint::ReadWithoutProducer)
        .expect("ghost has no producer");
    assert!(
        missing.message.contains("reads ghost "),
        "{}",
        missing.message
    );
}

#[test]
fn golden_dead_output_and_write_write_hazard() {
    // Two independent Out-writers of the same datum: data renaming
    // keeps them legal (no edge), which is exactly the hazard, and the
    // first version is dead (superseded, never read).
    let mut ap = AccessProcessor::new();
    let x = ap.new_data("x");
    let w1 = ap.register(TaskSpec::new("w1").output(x)).unwrap();
    let w2 = ap.register(TaskSpec::new("w2").output(x)).unwrap();
    let report = bundle_of(ap).verify();

    let dead = report
        .iter()
        .find(|d| d.lint == Lint::DeadOutput)
        .expect("superseded unread version must be flagged");
    assert_eq!(dead.severity, Severity::Warning);
    assert_eq!(dead.task, Some(w1), "the dead version is w1's");

    let hazard = report
        .iter()
        .find(|d| d.lint == Lint::WriteWriteHazard)
        .expect("unordered double write must be flagged");
    assert_eq!(hazard.severity, Severity::Warning);
    assert_eq!(hazard.task, Some(w2));
    let witness = hazard.witness.join(" ");
    assert!(
        witness.contains("w1") && witness.contains("w2"),
        "{witness}"
    );
}

#[test]
fn golden_ordered_double_write_is_clean() {
    // Same two writes, but the second reads the first (InOut): ordered,
    // so no hazard — and the first version is consumed, so not dead.
    let mut ap = AccessProcessor::new();
    let x = ap.new_data("x");
    ap.register(TaskSpec::new("w1").output(x)).unwrap();
    ap.register(TaskSpec::new("w2").inout(x)).unwrap();
    let report = bundle_of(ap).verify();
    assert_eq!(findings_of(&report, Lint::WriteWriteHazard), 0);
    assert_eq!(findings_of(&report, Lint::DeadOutput), 0);
}

#[test]
fn golden_unclosed_stream() {
    // Planted bug: a sink consumes a stream nothing ever writes. No
    // writer will ever register on — let alone close — the channel, so
    // the sink can neither be released nor observe end-of-stream.
    let mut ap = AccessProcessor::new();
    let frames = ap.new_data("frames");
    let out = ap.new_data("out");
    let sink = ap
        .register(TaskSpec::new("sink").stream_in(frames).output(out))
        .unwrap();
    let report = bundle_of(ap).verify();
    let finding = report
        .iter()
        .find(|d| d.lint == Lint::UnclosedStream)
        .expect("writer-less stream read must be flagged");
    assert_eq!(finding.severity, Severity::Error);
    assert_eq!(finding.task, Some(sink));
    assert_eq!(finding.data, Some(frames));
    assert!(
        finding.suggestion.contains("Stream-out"),
        "{}",
        finding.suggestion
    );
}

#[test]
fn golden_reader_before_writer() {
    // Planted bug: the consumer is declared before its producer. It
    // carries no first-element gate (no producer was registered when it
    // arrived), so it can run immediately and see a premature
    // end-of-stream.
    let mut ap = AccessProcessor::new();
    let frames = ap.new_data("frames");
    let sink = ap
        .register(TaskSpec::new("sink").stream_in(frames))
        .unwrap();
    ap.register(TaskSpec::new("sensor").stream_out(frames))
        .unwrap();
    let report = bundle_of(ap).verify();
    let finding = report
        .iter()
        .find(|d| d.lint == Lint::ReaderBeforeWriter)
        .expect("consumer declared before any producer must be flagged");
    assert_eq!(finding.severity, Severity::Warning);
    assert_eq!(finding.task, Some(sink));
    let witness = finding.witness.join(" ");
    assert!(
        witness.contains("sink") && witness.contains("sensor"),
        "{witness}"
    );
}

#[test]
fn golden_stream_capacity_deadlock() {
    // Planted bug: a feedback loop of two bounded streams, each
    // expected to carry more elements than its channel holds. Once
    // both channels fill, each task is parked sending to the other.
    let mut ap = AccessProcessor::new();
    let fwd = ap.new_data("fwd");
    let back = ap.new_data("back");
    ap.register(TaskSpec::new("up").stream_out(fwd).stream_in(back))
        .unwrap();
    ap.register(TaskSpec::new("down").stream_in(fwd).stream_out(back))
        .unwrap();
    let report = bundle_of(ap)
        .with_streams(vec![
            StreamInfo {
                data: fwd,
                capacity: 1,
                expected_elements: 4,
            },
            StreamInfo {
                data: back,
                capacity: 1,
                expected_elements: 4,
            },
        ])
        .verify();
    let finding = report
        .iter()
        .find(|d| d.lint == Lint::StreamCapacityDeadlock)
        .expect("a fillable stream cycle must be flagged");
    assert_eq!(finding.severity, Severity::Error);
    let witness = finding.witness.join(" ");
    assert!(
        witness.contains("up") && witness.contains("down") && witness.contains("cap 1"),
        "cycle witness names both tasks and the capacities: {witness}"
    );
    assert_eq!(
        witness.matches("-->").count(),
        2,
        "two-edge cycle witness: {witness}"
    );
}

#[test]
fn golden_stream_capacity_deadlock_negative_ample_capacity() {
    // Same feedback loop, but the back-channel's capacity covers its
    // whole expected traffic: that edge can never fill, `up` can always
    // finish its sends, and the cycle cannot wedge.
    let mut ap = AccessProcessor::new();
    let fwd = ap.new_data("fwd");
    let back = ap.new_data("back");
    ap.register(TaskSpec::new("up").stream_out(fwd).stream_in(back))
        .unwrap();
    ap.register(TaskSpec::new("down").stream_in(fwd).stream_out(back))
        .unwrap();
    let report = bundle_of(ap)
        .with_streams(vec![
            StreamInfo {
                data: fwd,
                capacity: 1,
                expected_elements: 4,
            },
            StreamInfo {
                data: back,
                capacity: 4,
                expected_elements: 4,
            },
        ])
        .verify();
    assert_eq!(
        findings_of(&report, Lint::StreamCapacityDeadlock),
        0,
        "an edge that can never fill breaks the cycle: {report:?}"
    );
}

#[test]
fn golden_streamed_pipeline_is_clean() {
    // The continuous-inference shape in proper order: producer first,
    // each stage streaming into the next. Streams are exempt from the
    // versioned-data lints (no dead-output/hazard noise) and introduce
    // none of their own.
    let mut ap = AccessProcessor::new();
    let frames = ap.new_data("frames");
    let feats = ap.new_data("feats");
    let preds = ap.new_data("preds");
    ap.register(TaskSpec::new("sensor").stream_out(frames))
        .unwrap();
    ap.register(
        TaskSpec::new("featurize")
            .stream_in(frames)
            .stream_out(feats),
    )
    .unwrap();
    ap.register(TaskSpec::new("model").stream_in(feats).output(preds))
        .unwrap();
    let report = bundle_of(ap).verify();
    assert!(
        report.iter().all(|d| d.lint == Lint::SchedulabilityBound),
        "{report:?}"
    );
}

#[test]
fn golden_stream_bundle_json_round_trip() {
    // Stream accesses survive the CLI's JSON round trip: the exact
    // Direction::Stream serialization path `--dump-lint` exercises.
    let mut ap = AccessProcessor::new();
    let frames = ap.new_data("frames");
    let sink = ap
        .register(TaskSpec::new("sink").stream_in(frames))
        .unwrap();
    let bundle = bundle_of(ap);
    let before = bundle.verify();
    assert!(
        before
            .iter()
            .any(|d| d.lint == Lint::UnclosedStream && d.task == Some(sink)),
        "{before:?}"
    );
    let json = serde::to_string(&bundle);
    let reloaded: LintBundle = serde::from_str(&json).expect("bundle round-trips");
    assert_eq!(reloaded.verify(), before);
}

#[test]
fn golden_schedulability_bound() {
    let mut ap = AccessProcessor::new();
    let x = ap.new_data("x");
    ap.register(TaskSpec::new("a").output(x)).unwrap();
    ap.register(TaskSpec::new("b").inout(x)).unwrap();
    let bundle = bundle_of(ap).with_weights(vec![10.0, 5.0]);
    let report = bundle.verify();
    let finding = report
        .iter()
        .find(|d| d.lint == Lint::SchedulabilityBound)
        .expect("platform present: bound must be reported");
    assert_eq!(finding.severity, Severity::Info);
    assert!(
        finding.message.contains("15.000"),
        "chain of 10s + 5s has a 15s critical path: {}",
        finding.message
    );
    let witness = finding.witness.join(" ");
    assert!(witness.contains("a -> b"), "{witness}");
}

#[test]
fn bundle_json_round_trip_preserves_the_report() {
    // The exact path the CLI takes: bundle -> JSON -> bundle -> verify.
    let mut ap = AccessProcessor::new();
    let ghost = ap.new_data("ghost");
    let out = ap.new_data("out");
    ap.register(TaskSpec::new("reader").input(ghost).output(out))
        .unwrap();
    let bundle = bundle_of(ap).with_constraints(vec![Constraints::new().compute_units(64)]);
    let before = bundle.verify();
    assert!(before.iter().any(|d| d.severity == Severity::Error));

    let json = serde::to_string(&bundle);
    let reloaded: LintBundle = serde::from_str(&json).expect("bundle round-trips");
    assert_eq!(reloaded.verify(), before);
}
