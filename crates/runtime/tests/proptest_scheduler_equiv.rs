//! Equivalence proofs for the index-backed schedulers: for arbitrary
//! workloads and platforms, the rewritten [`FifoScheduler`],
//! [`LocalityScheduler`], [`ListScheduler`] and [`EnergyScheduler`]
//! (which score against the incremental locality index and reuse
//! per-round scratch buffers) must produce **bit-for-bit identical**
//! placements and timings to the original map-based implementations.
//!
//! The reference schedulers below are verbatim copies of the seed
//! implementations, expressed against the public [`PlacementView`]
//! API: per-round `HashMap` budget tracking, per-(task, node) registry
//! probes, allocation per round. Each property runs the same workload
//! under reference and production policy and compares the full
//! [`ExecutionTrace`] (every task's node, start, end and stall) plus
//! the [`RunReport`].

use continuum_dag::{GraphAnalysis, TaskId, TaskSpec};
use continuum_platform::{Constraints, NodeId, NodeSpec, Platform, PlatformBuilder};
use continuum_runtime::{
    EnergyScheduler, FifoScheduler, ListScheduler, LocalityScheduler, PlacementView, Scheduler,
    SimOptions, SimRuntime, SimWorkload, TaskProfile,
};
use continuum_sim::FaultPlan;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

// ---- reference (seed) implementations ---------------------------------

/// Seed FIFO: first-fit from a moving cursor, HashMap round budget.
#[derive(Default)]
struct RefFifo {
    cursor: usize,
}

impl Scheduler for RefFifo {
    fn name(&self) -> &str {
        "ref-fifo"
    }

    fn place(&mut self, view: &PlacementView<'_>, ready: &[TaskId]) -> Vec<(TaskId, NodeId)> {
        let n = view.nodes().len();
        if n == 0 {
            return Vec::new();
        }
        let mut pending: HashMap<NodeId, Vec<TaskId>> = HashMap::new();
        let mut out = Vec::new();
        for &task in ready {
            let req = view.workload().profile(task).constraints_ref();
            for off in 0..n {
                let idx = (self.cursor + off) % n;
                let node = view.nodes()[idx].id();
                if !view.can_host(node, task) {
                    continue;
                }
                let already = pending.get(&node).map_or(0, |v| v.len()) as u32;
                let cores_left = view.nodes()[idx]
                    .free_capacity()
                    .cores()
                    .saturating_sub(already * req.required_compute_units().max(1));
                if cores_left < req.required_compute_units() {
                    continue;
                }
                pending.entry(node).or_default().push(task);
                out.push((task, node));
                self.cursor = (idx + 1) % n;
                break;
            }
        }
        out
    }
}

/// Seed locality + delay scheduling with per-(task, node) view probes,
/// plus the stream-affinity tie-break the production policy gained with
/// stream edges (identically zero for workloads without streams).
#[derive(Default)]
struct RefLocality {
    strict: bool,
}

fn ref_has_local_potential(view: &PlacementView<'_>, task: TaskId) -> bool {
    let req = view.workload().profile(task).constraints_ref();
    view.nodes().iter().any(|st| {
        st.is_alive()
            && st.total_capacity().satisfies(req)
            && view.local_input_bytes(task, st.id()) > 0
    })
}

impl Scheduler for RefLocality {
    fn name(&self) -> &str {
        "ref-locality"
    }

    fn place(&mut self, view: &PlacementView<'_>, ready: &[TaskId]) -> Vec<(TaskId, NodeId)> {
        let mut extra_load: HashMap<NodeId, u32> = HashMap::new();
        let mut out = Vec::new();
        let machine_busy = view.nodes().iter().any(|n| n.running_count() > 0);
        for &task in ready {
            let req = view.workload().profile(task).constraints_ref();
            let mut best: Option<(u64, u32, i64, NodeId)> = None;
            for st in view.nodes() {
                let node = st.id();
                if !view.can_host(node, task) {
                    continue;
                }
                let extra = *extra_load.get(&node).unwrap_or(&0);
                if st.free_capacity().cores()
                    < extra * req.required_compute_units().max(1) + req.required_compute_units()
                {
                    continue;
                }
                let local = view.local_input_bytes(task, node);
                let affinity = view.stream_affinity(task, node);
                let load = -(st.running_count() as i64 + extra as i64);
                let candidate = (local, affinity, load, node);
                if best.is_none_or(|b| (candidate.0, candidate.1, candidate.2) > (b.0, b.1, b.2)) {
                    best = Some(candidate);
                }
            }
            let Some((local, _, _, node)) = best else {
                continue;
            };
            let busy_now = machine_busy || !out.is_empty();
            if local == 0 && busy_now && ref_has_local_potential(view, task) {
                let fetch_s = view.estimated_transfer_seconds(task, node);
                let exec_s = view.workload().profile(task).duration_s();
                if self.strict || fetch_s > 0.25 * exec_s {
                    continue;
                }
            }
            *extra_load.entry(node).or_insert(0) += 1;
            out.push((task, node));
        }
        out
    }
}

/// Seed dynamic list scheduling: stable sort, per-node transfer probes.
struct RefList {
    priority: Vec<f64>,
}

impl RefList {
    fn plan(workload: &SimWorkload) -> Self {
        let analysis = GraphAnalysis::new(workload.graph());
        RefList {
            priority: analysis.bottom_levels(|t| workload.profile(t).duration_s()),
        }
    }
}

impl Scheduler for RefList {
    fn name(&self) -> &str {
        "ref-dynamic-list"
    }

    fn place(&mut self, view: &PlacementView<'_>, ready: &[TaskId]) -> Vec<(TaskId, NodeId)> {
        let mut ordered: Vec<TaskId> = ready.to_vec();
        ordered.sort_by(|a, b| {
            self.priority[b.index()]
                .partial_cmp(&self.priority[a.index()])
                .expect("finite priorities")
                .then(a.cmp(b))
        });
        let mut extra_load: HashMap<NodeId, u32> = HashMap::new();
        let mut out = Vec::new();
        for task in ordered {
            let req = view.workload().profile(task).constraints_ref();
            let duration = view.workload().profile(task).duration_s();
            let mut best: Option<(f64, NodeId)> = None;
            for st in view.nodes() {
                let node = st.id();
                if !view.can_host(node, task) {
                    continue;
                }
                let extra = *extra_load.get(&node).unwrap_or(&0);
                let cu = req.required_compute_units().max(1);
                if st.free_capacity().cores() < extra * cu + cu {
                    continue;
                }
                let slots = (st.free_capacity().cores() / cu).max(1);
                let waves = (extra / slots) as f64;
                let score = view.estimated_transfer_seconds(task, node)
                    + (waves + 1.0) * duration / st.speed();
                if best.is_none_or(|(s, _)| score < s) {
                    best = Some((score, node));
                }
            }
            if let Some((_, node)) = best {
                *extra_load.entry(node).or_insert(0) += 1;
                out.push((task, node));
            }
        }
        out
    }
}

/// Seed energy consolidation.
#[derive(Default)]
struct RefEnergy;

impl Scheduler for RefEnergy {
    fn name(&self) -> &str {
        "ref-energy"
    }

    fn place(&mut self, view: &PlacementView<'_>, ready: &[TaskId]) -> Vec<(TaskId, NodeId)> {
        let mut extra_load: HashMap<NodeId, u32> = HashMap::new();
        let mut out = Vec::new();
        for &task in ready {
            let req = view.workload().profile(task).constraints_ref();
            let mut best: Option<(bool, i64, NodeId)> = None;
            for st in view.nodes() {
                let node = st.id();
                if !view.can_host(node, task) {
                    continue;
                }
                let extra = *extra_load.get(&node).unwrap_or(&0);
                if st.free_capacity().cores()
                    < extra * req.required_compute_units().max(1) + req.required_compute_units()
                {
                    continue;
                }
                let busy = st.running_count() > 0 || extra > 0;
                let load = st.running_count() as i64 + extra as i64;
                let candidate = (busy, load, node);
                let better = match best {
                    None => true,
                    Some((bb, bload, bnode)) => {
                        (busy, load, std::cmp::Reverse(node))
                            > (bb, bload, std::cmp::Reverse(bnode))
                    }
                };
                if better {
                    best = Some(candidate);
                }
            }
            if let Some((_, _, node)) = best {
                *extra_load.entry(node).or_insert(0) += 1;
                out.push((task, node));
            }
        }
        out
    }
}

// ---- workload / platform generators -----------------------------------

/// What a generated case adds to the plain layered DAG over pinned
/// inputs. Each switch creates situations in which the locality policy
/// cannot take its winner from the replica holders alone: inputs that
/// are everywhere or weigh nothing (no holder outranks the rest),
/// holders that cannot host the task (wrong software or architecture,
/// or dead), and stream endpoints (ranked by affinity, not by bytes).
#[derive(Debug, Clone, Copy, Default)]
struct Mix {
    /// Some initial inputs are staged everywhere instead of pinned.
    ubiquitous: bool,
    /// One initial input is pinned but empty.
    zero_bytes: bool,
    /// Some tasks need software or an architecture only the nodes of a
    /// separate "special" cluster offer.
    constraints: bool,
    /// Every layer carries a producer → consumer stream edge.
    streams: bool,
    /// Node 0 fails mid-run and recovers later.
    fault: bool,
}

impl Mix {
    fn from_bits(bits: u32) -> Self {
        Mix {
            ubiquitous: bits & 1 != 0,
            zero_bytes: bits & 2 != 0,
            constraints: bits & 4 != 0,
            streams: bits & 8 != 0,
            fault: bits & 16 != 0,
        }
    }

    fn faults(self) -> FaultPlan {
        if self.fault {
            FaultPlan::new()
                .fail_at(2.5, NodeId::from_raw(0))
                .recover_at(7.0, NodeId::from_raw(0))
        } else {
            FaultPlan::new()
        }
    }
}

/// Random layered workload with pinned initial inputs so locality and
/// transfer estimates actually discriminate between nodes.
fn workload(
    seed: u64,
    layers: usize,
    width: usize,
    n_nodes: usize,
    cores: u32,
    bytes: u64,
    mix: Mix,
) -> SimWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = SimWorkload::new();
    let mut prev: Vec<continuum_dag::DataId> = Vec::new();
    for i in 0..width.min(3) {
        let home = NodeId::from_raw(rng.gen_range(0..n_nodes as u32));
        let home = (!(mix.ubiquitous && i % 2 == 1)).then_some(home);
        let size = if mix.zero_bytes && i == 0 {
            0
        } else {
            bytes.max(1)
        };
        prev.push(w.initial_data(format!("init{i}"), size, home));
    }
    for layer in 0..layers {
        let mut this = Vec::new();
        for i in 0..width {
            let out = w.data(format!("l{layer}t{i}"));
            let mut spec = TaskSpec::new(format!("t{layer}_{i}")).output(out);
            let mut has = false;
            for p in &prev {
                if rng.gen::<f64>() < 0.4 {
                    spec = spec.input(*p);
                    has = true;
                }
            }
            if !has && !prev.is_empty() {
                spec = spec.input(prev[rng.gen_range(0..prev.len())]);
            }
            let dur = 0.5 + rng.gen::<f64>() * 4.0;
            let mut profile =
                TaskProfile::new(dur).outputs_bytes(if rng.gen::<f64>() < 0.8 { bytes } else { 0 });
            if cores >= 2 && rng.gen::<f64>() < 0.25 {
                profile = profile.constraints(Constraints::new().compute_units(2));
            }
            if mix.constraints && rng.gen::<f64>() < 0.3 {
                // Only the special cluster qualifies, wherever the
                // inputs happen to live.
                profile = profile.constraints(if rng.gen::<f64>() < 0.5 {
                    Constraints::new().software("blast")
                } else {
                    Constraints::new().arch("arm64")
                });
            }
            w.task(spec, profile).expect("valid task");
            this.push(out);
        }
        if mix.streams {
            // A producer reading resident data streams into a consumer
            // whose only pull towards a node is the producer's site.
            let stream = w.data(format!("s{layer}"));
            let sunk = w.data(format!("l{layer}sink"));
            let mut producer = TaskSpec::new(format!("sp{layer}")).stream_out(stream);
            if !prev.is_empty() {
                producer = producer.input(prev[rng.gen_range(0..prev.len())]);
            }
            w.task(
                producer,
                TaskProfile::new(1.0 + rng.gen::<f64>() * 3.0).stream_elements(3),
            )
            .expect("valid stream producer");
            w.task(
                TaskSpec::new(format!("sc{layer}"))
                    .stream_in(stream)
                    .output(sunk),
                TaskProfile::new(1.0 + rng.gen::<f64>() * 3.0).outputs_bytes(bytes),
            )
            .expect("valid stream consumer");
            this.push(sunk);
        }
        prev = this;
    }
    w
}

/// One- or two-zone platform (the second zone exercises the per-zone
/// transfer-cost memoization across a WAN link), plus a small cluster
/// with its own software and architecture when the mix constrains
/// tasks to it.
fn gen_platform(n_nodes: usize, cores: u32, two_zones: bool, mix: Mix) -> Platform {
    let mut b = PlatformBuilder::new().cluster("hpc", n_nodes, NodeSpec::hpc(cores, 96_000));
    if two_zones {
        b = b.cloud("cloud", 2, NodeSpec::cloud_vm(cores, 16_000));
    }
    if mix.constraints {
        let special = NodeSpec::hpc(cores, 96_000)
            .with_software(["blast"])
            .with_arch("arm64");
        b = b.cluster("special", 2, special);
    }
    b.build()
}

fn assert_equivalent(
    w: &SimWorkload,
    p: &Platform,
    faults: &FaultPlan,
    reference: &mut dyn Scheduler,
    indexed: &mut dyn Scheduler,
) {
    let runtime = SimRuntime::new(p.clone(), SimOptions::default());
    let (ref_report, ref_trace) = runtime
        .run_traced(w, reference, faults)
        .expect("reference run completes");
    let (report, trace) = runtime
        .run_traced(w, indexed, faults)
        .expect("indexed run completes");
    assert!(!ref_trace.is_empty(), "degenerate case: empty trace");
    assert_eq!(ref_report, report, "RunReports diverge");
    assert_eq!(ref_trace, trace, "placements/timings diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The index-backed FIFO places every task on the same node at the
    /// same time as the seed HashMap implementation.
    #[test]
    fn fifo_matches_reference(
        seed in 0u64..1000,
        layers in 1usize..5,
        width in 1usize..7,
        nodes in 1usize..6,
        cores in 1u32..6,
        two_zones_bit in 0u32..2,
    ) {
        let plain = Mix::default();
        let p = gen_platform(nodes, cores, two_zones_bit == 1, plain);
        let w = workload(seed, layers, width, nodes, cores, 2_000_000, plain);
        let (mut reference, mut indexed) = (RefFifo::default(), FifoScheduler::new());
        assert_equivalent(&w, &p, &plain.faults(), &mut reference, &mut indexed);
    }

    /// Locality (both balanced and strict data-gravity) is unchanged by
    /// the locality index, the per-task input resolution and the scan
    /// that visits replica holders before (or instead of) every node —
    /// over every [`Mix`] of cases in which the holders cannot decide.
    #[test]
    fn locality_matches_reference(
        seed in 0u64..1000,
        layers in 1usize..5,
        width in 1usize..7,
        nodes in 1usize..6,
        cores in 1u32..6,
        two_zones_bit in 0u32..2,
        strict_bit in 0u32..2,
        mix_bits in 0u32..32,
    ) {
        let mix = Mix::from_bits(mix_bits);
        let p = gen_platform(nodes, cores, two_zones_bit == 1, mix);
        let w = workload(seed, layers, width, nodes, cores, 8_000_000, mix);
        let strict = strict_bit == 1;
        let mut reference = RefLocality { strict };
        let mut indexed = if strict {
            LocalityScheduler::data_gravity()
        } else {
            LocalityScheduler::new()
        };
        assert_equivalent(&w, &p, &mix.faults(), &mut reference, &mut indexed);
    }

    /// Dynamic list scheduling is unchanged by the unstable sort (the
    /// comparator is total) and the per-zone transfer memoization.
    #[test]
    fn list_matches_reference(
        seed in 0u64..1000,
        layers in 1usize..5,
        width in 1usize..7,
        nodes in 1usize..6,
        cores in 1u32..6,
        two_zones_bit in 0u32..2,
    ) {
        let plain = Mix::default();
        let p = gen_platform(nodes, cores, two_zones_bit == 1, plain);
        let w = workload(seed, layers, width, nodes, cores, 8_000_000, plain);
        let mut reference = RefList::plan(&w);
        let mut indexed = ListScheduler::plan(&w, |t| w.profile(t).duration_s());
        assert_equivalent(&w, &p, &plain.faults(), &mut reference, &mut indexed);
    }

    /// Energy consolidation is unchanged by the scratch-buffer rework.
    #[test]
    fn energy_matches_reference(
        seed in 0u64..1000,
        layers in 1usize..5,
        width in 1usize..7,
        nodes in 1usize..6,
        cores in 1u32..6,
        two_zones_bit in 0u32..2,
    ) {
        let plain = Mix::default();
        let p = gen_platform(nodes, cores, two_zones_bit == 1, plain);
        let w = workload(seed, layers, width, nodes, cores, 2_000_000, plain);
        let (mut reference, mut indexed) = (RefEnergy, EnergyScheduler::new());
        assert_equivalent(&w, &p, &plain.faults(), &mut reference, &mut indexed);
    }
}
