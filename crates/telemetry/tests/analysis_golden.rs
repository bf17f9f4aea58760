//! Golden tests for the critical-path analyzer: hand-built DAGs
//! (chain, diamond, wide fan-out) with hand-placed task intervals whose
//! critical paths and slack values are known exactly.

use continuum_dag::{AccessProcessor, TaskGraph, TaskId, TaskSpec};
use continuum_telemetry::{critical_path, join_with_graph, slack, Event, TaskPhase, Track};
use std::collections::BTreeMap;

const S: u64 = 1_000_000; // one second, in µs

fn exec(node: u32, name: &str, start_s: u64, end_s: u64) -> Event {
    Event::Span {
        track: Track::Node(node),
        name: name.to_string().into(),
        phase: TaskPhase::Executing,
        start_us: start_s * S,
        dur_us: (end_s - start_s) * S,
        ctx: None,
    }
}

fn transfer(node: u32, name: &str, start_s: u64, end_s: u64) -> Event {
    Event::Span {
        track: Track::Node(node),
        name: name.to_string().into(),
        phase: TaskPhase::Transferring,
        start_us: start_s * S,
        dur_us: (end_s - start_s) * S,
        ctx: None,
    }
}

fn names(graph: &TaskGraph, ids: &[TaskId]) -> Vec<String> {
    ids.iter()
        .map(|id| graph.node(*id).unwrap().spec().name().to_string())
        .collect()
}

fn slack_by_name(graph: &TaskGraph, slacks: &BTreeMap<TaskId, u64>) -> BTreeMap<String, u64> {
    slacks
        .iter()
        .map(|(id, s)| (graph.node(*id).unwrap().spec().name().to_string(), *s))
        .collect()
}

/// a → b → c executed back-to-back: the whole run is the critical
/// path and nobody has slack.
#[test]
fn chain_critical_path_is_everything() {
    let mut ap = AccessProcessor::new();
    let (da, db, dc) = (ap.new_data("a"), ap.new_data("b"), ap.new_data("c"));
    ap.register(TaskSpec::new("gen").output(da)).unwrap();
    ap.register(TaskSpec::new("mid").input(da).output(db))
        .unwrap();
    ap.register(TaskSpec::new("fin").input(db).output(dc))
        .unwrap();
    let graph = ap.graph().clone();

    let events = vec![
        exec(0, "gen", 0, 10),
        exec(0, "mid", 10, 30),
        exec(0, "fin", 30, 40),
    ];
    let obs = join_with_graph(&graph, &events);
    assert_eq!(obs.len(), 3);

    let report = critical_path(&graph, &obs);
    assert_eq!(report.makespan_us, 40 * S);
    assert_eq!(
        names(
            &graph,
            &report.tasks.iter().map(|t| t.task).collect::<Vec<_>>()
        ),
        vec!["gen", "mid", "fin"]
    );
    assert_eq!(report.work_us, 40 * S);
    assert_eq!(report.gap_us, 0);
    assert_eq!(report.work_us + report.gap_us, report.makespan_us);

    let slacks = slack_by_name(&graph, &slack(&graph, &obs));
    assert_eq!(slacks["gen"], 0);
    assert_eq!(slacks["mid"], 0);
    assert_eq!(slacks["fin"], 0);
}

/// src fans out to a heavy and a cheap branch that rejoin: the heavy
/// branch is critical, the cheap branch's slack is exactly the
/// duration difference.
#[test]
fn diamond_slack_is_on_the_cheap_branch() {
    let mut ap = AccessProcessor::new();
    let (da, db, dc, dd) = (
        ap.new_data("a"),
        ap.new_data("b"),
        ap.new_data("c"),
        ap.new_data("d"),
    );
    ap.register(TaskSpec::new("src").output(da)).unwrap();
    ap.register(TaskSpec::new("heavy").input(da).output(db))
        .unwrap();
    ap.register(TaskSpec::new("cheap").input(da).output(dc))
        .unwrap();
    ap.register(TaskSpec::new("sink").input(db).input(dc).output(dd))
        .unwrap();
    let graph = ap.graph().clone();

    let events = vec![
        exec(0, "src", 0, 10),
        exec(0, "heavy", 10, 30),
        exec(1, "cheap", 10, 15),
        exec(0, "sink", 30, 40),
    ];
    let obs = join_with_graph(&graph, &events);

    let report = critical_path(&graph, &obs);
    assert_eq!(report.makespan_us, 40 * S);
    assert_eq!(
        names(
            &graph,
            &report.tasks.iter().map(|t| t.task).collect::<Vec<_>>()
        ),
        vec!["src", "heavy", "sink"],
        "the cheap branch is not on the critical path"
    );
    assert_eq!(report.gap_us, 0);

    let slacks = slack_by_name(&graph, &slack(&graph, &obs));
    assert_eq!(slacks["src"], 0);
    assert_eq!(slacks["heavy"], 0);
    assert_eq!(slacks["sink"], 0);
    assert_eq!(
        slacks["cheap"],
        15 * S,
        "cheap could finish 15 s later: sink waits for heavy at t=30 \
         and cheap would still make it by then"
    );
}

/// One source, many independent children: the slowest child is
/// critical, every other child's slack is the makespan minus its own
/// finish time.
#[test]
fn wide_fan_out_slack_tracks_finish_times() {
    let mut ap = AccessProcessor::new();
    let src_out = ap.new_data("src_out");
    ap.register(TaskSpec::new("src").output(src_out)).unwrap();
    for i in 0..8 {
        let out = ap.new_data(format!("c{i}_out"));
        ap.register(
            TaskSpec::new(format!("child{i}"))
                .input(src_out)
                .output(out),
        )
        .unwrap();
    }
    let graph = ap.graph().clone();

    let mut events = vec![exec(0, "src", 0, 10)];
    // child i runs on node i, finishing at 12 + 2i seconds; child7
    // (finishing at 26 s) is critical.
    for i in 0..8u64 {
        events.push(exec(i as u32, &format!("child{i}"), 10, 12 + 2 * i));
    }
    let obs = join_with_graph(&graph, &events);

    let report = critical_path(&graph, &obs);
    assert_eq!(report.makespan_us, 26 * S);
    assert_eq!(
        names(
            &graph,
            &report.tasks.iter().map(|t| t.task).collect::<Vec<_>>()
        ),
        vec!["src", "child7"]
    );

    let slacks = slack_by_name(&graph, &slack(&graph, &obs));
    assert_eq!(slacks["src"], 0);
    for i in 0..8u64 {
        assert_eq!(
            slacks[&format!("child{i}")],
            (26 - (12 + 2 * i)) * S,
            "child{i} can slip until the slowest sibling finishes"
        );
    }
}

/// Transfer prefixes fold into the observation and gaps surface as
/// waiting on the chain.
#[test]
fn transfers_and_gaps_are_attributed_on_the_chain() {
    let mut ap = AccessProcessor::new();
    let (da, db) = (ap.new_data("a"), ap.new_data("b"));
    ap.register(TaskSpec::new("up").output(da)).unwrap();
    ap.register(TaskSpec::new("down").input(da).output(db))
        .unwrap();
    let graph = ap.graph().clone();

    let events = vec![
        exec(0, "up", 0, 10),
        // down is placed on another node: 3 s scheduling gap, then a
        // 2 s input transfer before the 5 s body.
        transfer(1, "down", 13, 15),
        exec(1, "down", 15, 20),
    ];
    let obs = join_with_graph(&graph, &events);
    let down = obs.values().find(|o| o.name == "down").unwrap();
    assert_eq!(down.start_us, 13 * S, "transfer prefix folded in");
    assert_eq!(down.exec_start_us, 15 * S);

    let report = critical_path(&graph, &obs);
    assert_eq!(report.makespan_us, 20 * S);
    assert_eq!(report.work_us, 17 * S, "10 s up + 2 s transfer + 5 s body");
    assert_eq!(report.gap_us, 3 * S, "the placement gap");
    assert_eq!(report.work_us + report.gap_us, report.makespan_us);
}
