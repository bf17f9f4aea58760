//! Retirement of tasks and data: payloads are freed at once, a
//! segment gives up its block when its last few slots are all that is
//! live and is dropped with the last of them, and ids stay stable
//! throughout.

use continuum_dag::{
    AccessProcessor, DagError, DataId, GraphRun, Retired, TaskId, TaskNode, TaskSpec,
    EVACUATE_LIVE, SEGMENT_SLOTS,
};

/// A chain of `n` tasks, each reading its predecessor's output.
fn chain(n: usize) -> (AccessProcessor, Vec<DataId>) {
    let mut ap = AccessProcessor::new();
    let data: Vec<DataId> = (0..n)
        .map(|i| ap.new_data_fmt(format_args!("d{i}")))
        .collect();
    for i in 0..n {
        let mut spec = TaskSpec::new("stage").output(data[i]);
        if i > 0 {
            spec = spec.input(data[i - 1]);
        }
        ap.register(spec).unwrap();
    }
    (ap, data)
}

#[test]
fn task_nodes_stay_within_their_memory_budget() {
    // 168 697 of these stay alive in the benchmark's `gwas_local`; the
    // node was 256 bytes when its lists were six `Vec`s.
    assert!(
        std::mem::size_of::<TaskNode>() <= 256,
        "TaskNode grew to {} bytes",
        std::mem::size_of::<TaskNode>()
    );
}

#[test]
fn retiring_a_task_frees_its_payload_and_keeps_its_id() {
    let (mut ap, _) = chain(3);
    let t1 = TaskId::from_raw(1);
    assert_eq!(ap.graph_mut().retire_payload(t1), Ok(Retired::Nothing));
    let node = ap.graph().node(t1).unwrap();
    assert_eq!(node.id(), t1);
    assert_eq!(node.spec().name(), "");
    assert!(node.predecessors().is_empty() && node.successors().is_empty());
    assert!(node.consumed().is_empty() && node.produced().is_empty());
    // Idempotent, and unknown ids are errors.
    assert_eq!(ap.graph_mut().retire_payload(t1), Ok(Retired::Nothing));
    let bogus = TaskId::from_raw(99);
    assert_eq!(
        ap.graph_mut().retire_payload(bogus),
        Err(DagError::UnknownTask(bogus))
    );
    assert_eq!(ap.graph().len(), 3);
}

#[test]
fn a_retired_segment_is_evacuated_then_dropped_from_graph_and_run() {
    let n = SEGMENT_SLOTS + 10;
    let (mut ap, _) = chain(n);
    let mut run = GraphRun::new(ap.graph());
    for i in 0..n {
        run.complete(ap.graph(), TaskId::from_raw(i as u64))
            .unwrap();
    }
    assert_eq!(ap.graph().resident_segments(), 2);
    let mut reported = Vec::new();
    // Retire out of order: the block goes when EVACUATE_LIVE tasks
    // are left, the segment with its *last* task.
    for i in (0..SEGMENT_SLOTS).rev() {
        let outcome = ap
            .graph_mut()
            .retire_payload(TaskId::from_raw(i as u64))
            .unwrap();
        run.follow(&outcome);
        if outcome != Retired::Nothing {
            reported.push((i, outcome));
            // Between evacuation and drop the survivors are still
            // there, in graph and run alike.
            let survivor = TaskId::from_raw(0);
            assert_eq!(ap.graph().resident_segments(), 1);
            assert_eq!(ap.graph().node(survivor).is_ok(), i > 0);
            assert_eq!(run.state(survivor).is_some(), i > 0);
        }
    }
    assert_eq!(
        reported,
        vec![
            (
                EVACUATE_LIVE,
                Retired::Evacuated {
                    segment: 0,
                    survivors: (0..EVACUATE_LIVE).collect()
                }
            ),
            (0, Retired::Dropped(0))
        ]
    );
    assert_eq!(ap.graph().evacuated_slots(), 0);
    assert_eq!(ap.graph().len(), n, "ids issued are still counted");
    let gone = TaskId::from_raw(5);
    assert_eq!(
        ap.graph().node(gone).err(),
        Some(DagError::UnknownTask(gone))
    );
    assert!(ap.graph().predecessors(gone).is_empty());
    assert_eq!(run.state(gone), None);
    assert!(run.all_completed());
    // Iteration skips the gap; the tail segment is intact and can
    // never drop while partially filled.
    assert_eq!(ap.graph().nodes().count(), 10);
    assert_eq!(
        ap.graph().nodes().next().unwrap().id().index(),
        SEGMENT_SLOTS
    );
    for i in SEGMENT_SLOTS..n {
        assert_eq!(
            ap.graph_mut().retire_payload(TaskId::from_raw(i as u64)),
            Ok(Retired::Nothing)
        );
    }
    assert_eq!(ap.graph().resident_segments(), 1);
    // New tasks keep registering after a drop; a predecessor in a
    // dropped segment cannot be wired (it is long completed).
    let out = ap.new_data("after");
    let late = ap.register(TaskSpec::new("late").output(out)).unwrap();
    assert_eq!(late.index(), n);
    assert_eq!(run.grow(ap.graph()), 1);
    assert!(run.ready_tasks().contains(&late));
}

#[test]
fn a_retired_data_segment_drops_names_and_slots() {
    let (mut ap, data) = chain(SEGMENT_SLOTS + 2);
    assert_eq!(ap.catalog().name(data[7]), Ok("d7"));
    assert_eq!(ap.retire_data_name(data[7]), Retired::Nothing);
    assert_eq!(
        ap.catalog().name(data[7]),
        Ok(""),
        "retired names read empty"
    );
    assert_eq!(ap.retire_data_name(data[7]), Retired::Nothing, "idempotent");
    assert!(
        ap.catalog().current(data[7]).is_ok(),
        "the slot is still there"
    );
    // All but one: the straggler's slot and name leave the segment.
    let straggler = data[500];
    for d in data[..SEGMENT_SLOTS].iter().filter(|d| **d != straggler) {
        let _ = ap.retire_data_name(*d);
    }
    assert_eq!(ap.catalog().name(straggler), Ok("d500"));
    assert!(ap.catalog().current(straggler).is_ok());
    assert_eq!(
        ap.catalog().name(data[7]),
        Err(DagError::UnknownData(data[7])),
        "retired beside a survivor"
    );
    assert_eq!(ap.retire_data_name(straggler), Retired::Dropped(0));
    assert_eq!(
        ap.catalog().name(data[7]),
        Err(DagError::UnknownData(data[7]))
    );
    assert_eq!(
        ap.catalog().current(data[0]).err(),
        Some(DagError::UnknownData(data[0]))
    );
    assert_eq!(ap.catalog().len(), SEGMENT_SLOTS + 2);
    assert_eq!(
        ap.catalog().name(data[SEGMENT_SLOTS + 1]).unwrap(),
        format!("d{}", SEGMENT_SLOTS + 1)
    );
    // Reading a dropped datum is a source bug, reported as an error.
    let out = ap.new_data("out");
    let err = ap
        .register(TaskSpec::new("late").input(data[3]).output(out))
        .unwrap_err();
    assert_eq!(err, DagError::UnknownData(data[3]));
    // The freed arena is reused by the next segment's names.
    for i in 0..SEGMENT_SLOTS {
        ap.new_data_fmt(format_args!("again{i}"));
    }
    assert_eq!(
        ap.catalog()
            .name(DataId::from_raw((2 * SEGMENT_SLOTS + 1) as u64))
            .unwrap(),
        format!("again{}", SEGMENT_SLOTS - 2)
    );
}
