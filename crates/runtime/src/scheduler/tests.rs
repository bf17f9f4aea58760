use super::*;
use crate::data::DataRegistry;
use crate::profile::TaskProfile;
use continuum_dag::TaskSpec;
use continuum_platform::{NodeSpec, PlatformBuilder};
use continuum_sim::VirtualTime;
use std::collections::HashMap;

fn simple_workload() -> SimWorkload {
    let mut w = SimWorkload::new();
    let d = w.data_batch("d", 4);
    for (i, id) in d.iter().enumerate() {
        w.task(
            TaskSpec::new(format!("t{i}")).output(*id),
            TaskProfile::new(1.0),
        )
        .unwrap();
    }
    w
}

/// The workload's ready tasks before anything ran, lowest id first.
fn initially_ready(w: &SimWorkload) -> Vec<TaskId> {
    continuum_dag::GraphRun::new(w.graph())
        .ready_tasks()
        .iter()
        .collect()
}

fn cluster(nodes: usize, cores: u32) -> Platform {
    PlatformBuilder::new()
        .cluster("c", nodes, NodeSpec::hpc(cores, 96_000))
        .build()
}

fn states(p: &Platform) -> Vec<NodeState> {
    p.nodes().iter().map(NodeState::new).collect()
}

#[test]
fn fifo_spreads_across_nodes() {
    let w = simple_workload();
    let p = cluster(4, 1);
    let nodes = states(&p);
    let reg = DataRegistry::new();
    let view = PlacementView::new(&w, &nodes, &reg, &p);
    let ready = initially_ready(&w);
    let mut s = FifoScheduler::new();
    let placed = s.place(&view, &ready);
    assert_eq!(placed.len(), 4);
    let used: std::collections::HashSet<NodeId> = placed.iter().map(|(_, n)| *n).collect();
    assert_eq!(used.len(), 4, "1-core nodes force a spread");
}

#[test]
fn fifo_respects_round_budget() {
    let w = simple_workload();
    let p = cluster(1, 2);
    let nodes = states(&p);
    let reg = DataRegistry::new();
    let view = PlacementView::new(&w, &nodes, &reg, &p);
    let ready = initially_ready(&w);
    let mut s = FifoScheduler::new();
    let placed = s.place(&view, &ready);
    assert_eq!(placed.len(), 2, "2 cores => at most 2 tasks this round");
}

#[test]
fn heft_plans_from_wrong_estimates_and_never_migrates() -> Result<(), continuum_dag::DagError> {
    // Three independent 1-s tasks on a fast (2×) and a slow node;
    // the estimates call t0 ten times longer than it is.
    let mut w = SimWorkload::new();
    let d = w.data_batch("d", 3);
    let tasks = d
        .iter()
        .enumerate()
        .map(|(i, id)| {
            w.task(
                TaskSpec::new(format!("t{i}")).output(*id),
                TaskProfile::new(1.0),
            )
        })
        .collect::<Result<Vec<TaskId>, _>>()?;
    let p = PlatformBuilder::new()
        .cluster("fast", 1, NodeSpec::hpc(1, 96_000).with_speed(2.0))
        .cluster("slow", 1, NodeSpec::hpc(1, 96_000))
        .build();
    let (fast, slow) = (NodeId::from_raw(0), NodeId::from_raw(1));
    assert_eq!(p.node_by_index(fast.index()).spec().speed(), 2.0);
    let estimate = |t: TaskId| if t == tasks[0] { 10.0 } else { 1.0 };
    let mut heft = HeftScheduler::plan(&w, &p, estimate);
    // t0 first (highest bottom level): 5 s on the fast node beats 10
    // on the slow one. Then the slow node, free at 0 and then at 1,
    // finishes t1 (1 s) and t2 (2 s) before the fast one would (5.5).
    let planned: Vec<NodeId> = tasks.iter().map(|t| heft.planned_node(*t)).collect();
    assert_eq!(planned, vec![fast, slow, slow]);

    // t0 really took 0.5 s and the fast node is idle; t1 holds the
    // slow node's only core. Ready t2 waits for its planned node.
    let mut nodes = states(&p);
    let req = w.profile(tasks[1]).constraints_ref().clone();
    assert!(nodes[slow.index()].try_start(tasks[1], &req, VirtualTime::ZERO));
    let reg = DataRegistry::new();
    let view = PlacementView::new(&w, &nodes, &reg, &p);
    assert!(view.can_host(fast, tasks[2]), "the fast node is idle");
    assert_eq!(heft.place(&view, &[tasks[2]]), vec![]);
    // Once the slow node frees, t2 runs there, as planned.
    let nodes = states(&p);
    let view = PlacementView::new(&w, &nodes, &reg, &p);
    assert_eq!(heft.place(&view, &[tasks[2]]), vec![(tasks[2], slow)]);
    Ok(())
}

/// Regression: a task declaring `compute_units(0)` (clamped to 1 by
/// [`Constraints`]) must consume exactly one core of the per-round
/// budget — the normalized `cu` is used on *both* sides of the
/// budget check, so the round neither stalls nor overcommits.
#[test]
fn fifo_zero_cu_constraint_counts_as_one_core() {
    let mut w = SimWorkload::new();
    let d = w.data_batch("d", 4);
    for (i, id) in d.iter().enumerate() {
        w.task(
            TaskSpec::new(format!("t{i}")).output(*id),
            TaskProfile::new(1.0)
                .constraints(continuum_platform::Constraints::new().compute_units(0)),
        )
        .unwrap();
    }
    let p = cluster(1, 2);
    let nodes = states(&p);
    let reg = DataRegistry::new();
    let view = PlacementView::new(&w, &nodes, &reg, &p);
    let ready = initially_ready(&w);
    let mut s = FifoScheduler::new();
    let placed = s.place(&view, &ready);
    assert_eq!(placed.len(), 2, "0-cu tasks occupy one core each");
}

#[test]
fn locality_prefers_node_with_data() {
    let mut w = SimWorkload::new();
    let big = w.data("big");
    let out = w.data("out");
    let producer = w
        .task(
            TaskSpec::new("p").output(big),
            TaskProfile::new(1.0).outputs_bytes(1_000_000),
        )
        .unwrap();
    let consumer = w
        .task(
            TaskSpec::new("c").input(big).output(out),
            TaskProfile::new(1.0),
        )
        .unwrap();
    let p = cluster(3, 4);
    let mut nodes = states(&p);
    let mut reg = DataRegistry::new();
    // Simulate: producer ran on node 2 and its output lives there.
    let vd = w.graph().node(producer).unwrap().produced().next().unwrap();
    reg.record_production(vd, NodeId::from_raw(2), 1_000_000);
    nodes[0].advance(continuum_sim::VirtualTime::ZERO);
    let view = PlacementView::new(&w, &nodes, &reg, &p);
    let mut s = LocalityScheduler::new();
    let placed = s.place(&view, &[consumer]);
    assert_eq!(placed, vec![(consumer, NodeId::from_raw(2))]);
}

#[test]
fn locality_colocates_stream_consumer_with_producer_site() {
    let mut w = SimWorkload::new();
    let s = w.data("s");
    let producer = w
        .task(TaskSpec::new("p").stream_out(s), TaskProfile::new(10.0))
        .unwrap();
    let consumer = w
        .task(TaskSpec::new("c").stream_in(s), TaskProfile::new(10.0))
        .unwrap();
    let _ = producer;
    let p = cluster(3, 4);
    let nodes = states(&p);
    let reg = DataRegistry::new();
    // The engine sited the producer on node 2.
    let mut sites = HashMap::new();
    sites.insert(s, NodeId::from_raw(2));
    let view = PlacementView::new(&w, &nodes, &reg, &p).with_stream_sites(&sites);
    assert_eq!(view.stream_affinity(consumer, NodeId::from_raw(2)), 1);
    assert_eq!(view.stream_affinity(consumer, NodeId::from_raw(0)), 0);
    let mut sched = LocalityScheduler::new();
    let placed = sched.place(&view, &[consumer]);
    assert_eq!(
        placed,
        vec![(consumer, NodeId::from_raw(2))],
        "no resident bytes anywhere: stream affinity must break the tie"
    );
}

#[test]
fn locality_spreads_when_no_data_gravity() {
    let w = simple_workload();
    let p = cluster(2, 4);
    let nodes = states(&p);
    let reg = DataRegistry::new();
    let view = PlacementView::new(&w, &nodes, &reg, &p);
    let ready = initially_ready(&w);
    let mut s = LocalityScheduler::new();
    let placed = s.place(&view, &ready);
    assert_eq!(placed.len(), 4);
    let on0 = placed.iter().filter(|(_, n)| n.index() == 0).count();
    assert_eq!(on0, 2, "ties break toward least-loaded => even split");
}

#[test]
fn heft_plans_every_task_and_respects_constraints() {
    let mut w = SimWorkload::new();
    let d0 = w.data("d0");
    let d1 = w.data("d1");
    w.task(
        TaskSpec::new("gpu").output(d0),
        TaskProfile::new(10.0).constraints(continuum_platform::Constraints::new().gpus(1)),
    )
    .unwrap();
    w.task(TaskSpec::new("cpu").output(d1), TaskProfile::new(10.0))
        .unwrap();
    let p = PlatformBuilder::new()
        .cluster("cpu", 1, NodeSpec::hpc(4, 96_000))
        .cluster("gpu", 1, NodeSpec::hpc(4, 96_000).with_gpus(2))
        .build();
    let s = HeftScheduler::plan(&w, &p, |t| w.profile(t).duration_s());
    assert_eq!(s.planned_node(TaskId::from_raw(0)), NodeId::from_raw(1));
}

#[test]
fn heft_balances_independent_tasks() {
    let w = simple_workload();
    let p = cluster(2, 48);
    let s = HeftScheduler::plan(&w, &p, |t| w.profile(t).duration_s());
    let on0 = (0..4)
        .filter(|i| s.planned_node(TaskId::from_raw(*i)) == NodeId::from_raw(0))
        .count();
    assert_eq!(on0, 2, "equal tasks split across equal nodes");
}

#[test]
fn heft_waits_for_planned_node() {
    let w = simple_workload();
    let p = cluster(2, 48);
    let mut s = HeftScheduler::plan(&w, &p, |t| w.profile(t).duration_s());
    let mut nodes = states(&p);
    // Kill node 1: tasks planned there must NOT migrate.
    nodes[1].fail(continuum_sim::VirtualTime::ZERO);
    let reg = DataRegistry::new();
    let view = PlacementView::new(&w, &nodes, &reg, &p);
    let ready = initially_ready(&w);
    let placed = s.place(&view, &ready);
    assert_eq!(placed.len(), 2, "only the tasks planned on node 0");
    assert!(placed.iter().all(|(_, n)| n.index() == 0));
}

#[test]
fn energy_consolidates_on_one_node() {
    let w = simple_workload();
    let p = cluster(4, 48);
    let nodes = states(&p);
    let reg = DataRegistry::new();
    let view = PlacementView::new(&w, &nodes, &reg, &p);
    let ready = initially_ready(&w);
    let mut s = EnergyScheduler::new();
    let placed = s.place(&view, &ready);
    assert_eq!(placed.len(), 4);
    let used: std::collections::HashSet<NodeId> = placed.iter().map(|(_, n)| *n).collect();
    assert_eq!(used.len(), 1, "all four fit on one 48-core node");
}

#[test]
fn energy_wakes_second_node_when_first_full() {
    let w = simple_workload();
    let p = cluster(4, 2);
    let nodes = states(&p);
    let reg = DataRegistry::new();
    let view = PlacementView::new(&w, &nodes, &reg, &p);
    let ready = initially_ready(&w);
    let mut s = EnergyScheduler::new();
    let placed = s.place(&view, &ready);
    assert_eq!(placed.len(), 4);
    let used: std::collections::HashSet<NodeId> = placed.iter().map(|(_, n)| *n).collect();
    assert_eq!(used.len(), 2, "2-core nodes: exactly two nodes needed");
}

#[test]
fn view_transfer_estimates() {
    let mut w = SimWorkload::new();
    let big = w.data("big");
    let out = w.data("out");
    let producer = w
        .task(
            TaskSpec::new("p").output(big),
            TaskProfile::new(1.0).outputs_bytes(120_000_000),
        )
        .unwrap();
    let consumer = w
        .task(
            TaskSpec::new("c").input(big).output(out),
            TaskProfile::new(1.0),
        )
        .unwrap();
    let p = PlatformBuilder::new()
        .cluster("a", 1, NodeSpec::hpc(4, 96_000))
        .cloud("b", 1, NodeSpec::cloud_vm(4, 16_000))
        .build();
    let nodes = states(&p);
    let mut reg = DataRegistry::new();
    let vd = w.graph().node(producer).unwrap().produced().next().unwrap();
    reg.record_production(vd, NodeId::from_raw(0), 120_000_000);
    let view = PlacementView::new(&w, &nodes, &reg, &p);
    assert_eq!(
        view.estimated_transfer_seconds(consumer, NodeId::from_raw(0)),
        0.0
    );
    let cross = view.estimated_transfer_seconds(consumer, NodeId::from_raw(1));
    assert!(cross > 0.5, "120 MB over 120 MB/s WAN ≈ 1 s, got {cross}");
    assert_eq!(
        view.local_input_bytes(consumer, NodeId::from_raw(0)),
        120_000_000
    );
}
