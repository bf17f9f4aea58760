//! The workflow verifier: a pass catalogue over a task graph plus a
//! platform description, producing structured [`Diagnostic`]s.
//!
//! The passes run over a [`LintView`] — the graph, the platform's nodes
//! and the per-task/per-datum columns of a workflow, all borrowed — so
//! verifying a workload copies nothing per task. [`LintBundle`] is the
//! owned, serializable form of the same inputs (the JSON the
//! `continuum-lint` CLI reads); it lends a view of itself, so there is
//! one catalogue for both. The per-task helpers
//! ([`check_task_constraints`], [`read_without_producer`]) are shared
//! with the runtimes' strict mode so a rejection at submit time carries
//! exactly the diagnostic the CLI would print for the same graph.

use crate::bundle::LintBundle;
use crate::diag::{sort_report, Diagnostic, Lint};
use crate::index::DatumIndex;
use continuum_dag::{DataId, StreamRole, TaskGraph, TaskId, TaskNode, VersionedData};
use continuum_platform::{Constraints, NodeCapacity, Platform};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};

/// One lintable node: a name plus its total capacity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LintNode {
    /// Node name used in nearest-miss reporting.
    pub name: String,
    /// The node's total capacity.
    pub capacity: NodeCapacity,
}

/// Declared sizing of one stream channel, the input of the
/// `stream-capacity-deadlock` pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamInfo {
    /// The stream datum this sizing describes.
    pub data: DataId,
    /// Bounded channel capacity in elements; `0` declares the channel
    /// unbounded (it can never fill, so it never parks a producer).
    pub capacity: u64,
    /// Expected total elements sent over the stream; `0` means unknown.
    /// A channel whose capacity covers the expected element count can
    /// never fill.
    pub expected_elements: u64,
}

impl StreamInfo {
    /// Whether this channel can ever reach capacity and park a
    /// producer: it is bounded, and its expected traffic is unknown or
    /// exceeds the bound.
    pub fn can_fill(&self) -> bool {
        self.capacity != 0
            && (self.expected_elements == 0 || self.expected_elements > self.capacity)
    }
}

/// The per-task and per-datum facts a workflow lends the verifier
/// beside its graph. Implemented by [`LintBundle`] (plain vectors) and
/// by the runtime's `SimWorkload` (its catalog and profile columns), so
/// neither has to be copied into the other's shape to be verified.
pub trait LintColumns {
    /// Number of data ids the workflow names (what an owned copy of
    /// the names has to cover).
    fn data_count(&self) -> usize;

    /// Display name of a datum; `None` renders as `dN`.
    fn data_name(&self, data: DataId) -> Option<&str>;

    /// Constraints of a task; `None` means `Constraints::default()`.
    fn constraints_of(&self, task: TaskId) -> Option<&Constraints>;

    /// Weight (estimated seconds) of a task; `None` means 1.0.
    fn weight_of(&self, task: TaskId) -> Option<f64>;

    /// Calls `f` with every datum whose initial (v0) value is provided
    /// externally, so reading it without a producing task is fine.
    fn for_each_initial(&self, f: &mut dyn FnMut(DataId));
}

/// Everything the verifier needs about one workflow, by reference: the
/// graph, the platform it should run on, and the per-task execution
/// metadata the graph itself does not carry.
///
/// Built by `SimWorkload::lint_bundle` over a workload in place, and
/// by [`LintBundle::view`] over a deserialized bundle.
pub struct LintView<'a> {
    graph: &'a TaskGraph,
    columns: &'a dyn LintColumns,
    nodes: Cow<'a, [LintNode]>,
    streams: &'a [StreamInfo],
    /// What [`LintView::constraints_of`] lends for tasks without any.
    default_constraints: Constraints,
}

impl<'a> LintView<'a> {
    /// A view over `graph` with its `columns`, the platform's `nodes`
    /// (borrowed, or built for the occasion with [`lint_nodes`]) and
    /// the declared stream sizings.
    pub fn new(
        graph: &'a TaskGraph,
        columns: &'a dyn LintColumns,
        nodes: impl Into<Cow<'a, [LintNode]>>,
        streams: &'a [StreamInfo],
    ) -> Self {
        LintView {
            graph,
            columns,
            nodes: nodes.into(),
            streams,
            default_constraints: Constraints::default(),
        }
    }

    /// Copies everything the view borrows into an owned, serializable
    /// [`LintBundle`] — what `experiments --dump-lint` writes.
    pub fn to_bundle(&self) -> LintBundle {
        let tasks = || (0..self.graph.len() as u64).map(TaskId::from_raw);
        let mut initial_data = Vec::new();
        self.columns.for_each_initial(&mut |d| initial_data.push(d));
        LintBundle {
            graph: self.graph.clone(),
            data_names: (0..self.columns.data_count() as u64)
                .map(|d| self.data_name(DataId::from_raw(d)).into_owned())
                .collect(),
            nodes: self.nodes.to_vec(),
            constraints: tasks().map(|t| self.constraints_of(t).clone()).collect(),
            weights: tasks().map(|t| self.weight_of(t)).collect(),
            initial_data,
            streams: self.streams.to_vec(),
        }
    }

    /// Constraints of a task (the default when it has none).
    pub fn constraints_of(&self, task: TaskId) -> &Constraints {
        self.columns
            .constraints_of(task)
            .unwrap_or(&self.default_constraints)
    }

    /// Weight of a task (1.0 when it has none).
    pub fn weight_of(&self, task: TaskId) -> f64 {
        self.columns.weight_of(task).unwrap_or(1.0)
    }

    /// Display name of a datum (`dN` when it has none).
    pub fn data_name(&self, data: DataId) -> Cow<'a, str> {
        match self.columns.data_name(data) {
            Some(name) => Cow::Borrowed(name),
            None => Cow::Owned(data.to_string()),
        }
    }

    /// Display name of a task (`"?"` for ids outside the graph).
    fn task_name(&self, task: TaskId) -> &'a str {
        self.graph
            .node(task)
            .map(|n| n.spec().name())
            .unwrap_or("?")
    }

    /// Runs the full lint catalogue and returns the report in canonical
    /// order (errors first).
    pub fn verify(&self) -> Vec<Diagnostic> {
        let mut report = Vec::new();
        // One sweep over the nodes: the constraints pass, and every
        // per-node fact the later passes need.
        let mut facts = Facts::new(self.graph.len());
        let mut hosted = None;
        for node in self.graph.nodes() {
            self.check_constraints(node, &mut hosted, &mut report);
            facts.gather(node, self.weight_of(node.id()));
        }
        let mut index = DatumIndex::build(&facts.produced, &facts.consumed);
        self.columns
            .for_each_initial(&mut |d| index.mark_initial(d));
        self.pass_read_without_producer(&facts, &mut index, &mut report);
        let topology = self.traverse(&facts, &mut report);
        if !facts.stream_ends.is_empty() {
            let table = stream_table(&facts.stream_ends);
            self.pass_streams(&table, &mut report);
            self.pass_stream_capacity(&table, &mut report);
        }
        self.pass_dead_outputs(&facts, &index, &mut report);
        self.pass_write_write_hazards(&index, topology.as_ref(), &mut report);
        if let Some(topology) = &topology {
            // The schedulability pass needs bottom levels, which do not
            // exist for cyclic graphs.
            self.pass_schedulability(topology, &mut report);
        }
        sort_report(&mut report);
        report
    }

    /// Unsatisfiable-constraints pass, one task: it must have at least
    /// one (or, for multi-node tasks, enough) hosting node. `hosted`
    /// remembers the last constraints found satisfiable, so a run of
    /// tasks with the same constraints scans the nodes once.
    fn check_constraints<'s>(
        &'s self,
        node: TaskNode<'_>,
        hosted: &mut Option<&'s Constraints>,
        report: &mut Vec<Diagnostic>,
    ) {
        let req = self.constraints_of(node.id());
        if hosted.is_some_and(|last| std::ptr::eq(req, last) || req == last) {
            return;
        }
        match check_task_constraints(node.id(), node.spec().name(), req, &self.nodes) {
            Some(d) => report.push(d),
            None => *hosted = Some(req),
        }
    }

    /// Read-without-producer pass: every consumed version must be
    /// produced by some task, or be an externally-provided initial
    /// value. Marks every produced version it finds a reader for, which
    /// is what the dead-output pass asks about.
    fn pass_read_without_producer(
        &self,
        facts: &Facts,
        index: &mut DatumIndex,
        report: &mut Vec<Diagnostic>,
    ) {
        for &(vd, task) in &facts.consumed {
            if index.mark_consumed(vd) {
                continue;
            }
            if vd.version.is_initial() && index.is_initial(vd.data) {
                continue;
            }
            report.push(read_without_producer(
                task,
                self.task_name(task),
                vd.data,
                &self.data_name(vd.data),
            ));
        }
    }

    /// The one graph traversal: the cycle verdict (diagnosed here),
    /// and for acyclic graphs a topological position and the bottom
    /// level of every task. Returns `None` if a cycle was found.
    ///
    /// Graphs built through the access processor only have edges to
    /// later ids, which `facts.forward` records: then the ids *are* the
    /// positions and the bottom levels take one backward sweep. Any
    /// other graph (hand-crafted or corrupted) is walked depth-first in
    /// the order [`continuum_dag::GraphAnalysis::find_cycle`] uses, so
    /// the cycle witness is the one it would report.
    fn traverse(&self, facts: &Facts, report: &mut Vec<Diagnostic>) -> Option<Topology> {
        let n = self.graph.len();
        let mut bottom = vec![0f64; n];
        // Bottom level of a finished task: its weight plus the
        // heaviest finished successor (ids outside the graph count
        // for nothing).
        let level = |bottom: &[f64], id: TaskId, succs: &[TaskId]| {
            let below = succs
                .iter()
                .filter_map(|s| bottom.get(s.index()))
                .fold(0f64, |a, b| a.max(*b));
            facts.weights[id.index()] + below
        };
        if facts.forward {
            // Every id was seen in range by the sweep.
            for node in self.graph.nodes().rev() {
                bottom[node.id().index()] = level(&bottom, node.id(), node.successors());
            }
            return Some(Topology {
                rank: (0..n as u32).collect(),
                bottom,
            });
        }

        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; n];
        let mut rank = vec![0u32; n];
        let mut finished = 0u32;
        // The gray path, each task with the next successor to try.
        let mut path: Vec<(TaskId, usize)> = Vec::new();
        for root in self.graph.nodes().map(TaskNode::id) {
            if color.get(root.index()) != Some(&WHITE) {
                continue;
            }
            color[root.index()] = GRAY;
            path.push((root, 0));
            while let Some(&mut (id, ref mut next)) = path.last_mut() {
                let succs = self.graph.successors(id);
                let Some(&s) = succs.get(*next) else {
                    color[id.index()] = BLACK;
                    bottom[id.index()] = level(&bottom, id, succs);
                    // Finishing order reversed is a topological order.
                    finished += 1;
                    rank[id.index()] = n as u32 - finished;
                    path.pop();
                    continue;
                };
                *next += 1;
                match color.get(s.index()).copied() {
                    Some(WHITE) => {
                        color[s.index()] = GRAY;
                        path.push((s, 0));
                    }
                    Some(GRAY) => {
                        let start = path
                            .iter()
                            .position(|&(t, _)| t == s)
                            .expect("gray tasks are on the path");
                        let cycle: Vec<TaskId> = path[start..].iter().map(|&(t, _)| t).collect();
                        report.push(self.cycle_diagnostic(&cycle));
                        return None;
                    }
                    _ => {}
                }
            }
        }
        Some(Topology { rank, bottom })
    }

    fn cycle_diagnostic(&self, cycle: &[TaskId]) -> Diagnostic {
        let mut names: Vec<String> = cycle
            .iter()
            .map(|t| format!("{t} '{}'", self.task_name(*t)))
            .collect();
        names.push(names[0].clone());
        Diagnostic::new(
            Lint::Cycle,
            format!("dependency cycle through {} tasks", cycle.len()),
        )
        .with_task(cycle[0])
        .with_witness(names.join(" -> "))
        .with_suggestion(
            "graphs built through the access processor are acyclic; \
             this graph was hand-crafted or corrupted — remove one of the \
             witnessed edges",
        )
    }

    /// Stream pass: `unclosed-stream` (a stream datum with a reader but
    /// no writer — the reader is never released and its first receive
    /// can never observe end-of-stream) and `reader-before-writer` (a
    /// stream consumer declared before any of its producers, so
    /// in-order admission enqueues the reader ahead of the writer that
    /// must release it).
    fn pass_streams(&self, table: &StreamTable, report: &mut Vec<Diagnostic>) {
        for (&d, ends) in table {
            let Some(&first_reader) = ends.consumers.iter().min() else {
                continue;
            };
            let name = self.data_name(d);
            let Some(&first_writer) = ends.producers.iter().min() else {
                report.push(
                    Diagnostic::new(
                        Lint::UnclosedStream,
                        format!(
                            "stream {name} has {} reader(s) but no task writes or closes \
                             it on any path",
                            ends.consumers.len()
                        ),
                    )
                    .with_task(first_reader)
                    .with_data(d)
                    .with_witness(format!(
                        "{first_reader} '{}' reads stream {name}; no producer exists",
                        self.task_name(first_reader)
                    ))
                    .with_suggestion(format!(
                        "add a task with a Stream-out access to {name} (even a producer \
                         sending zero elements closes the stream), or drop the read",
                    )),
                );
                continue;
            };
            if first_reader < first_writer {
                report.push(
                    Diagnostic::new(
                        Lint::ReaderBeforeWriter,
                        format!(
                            "stream {name} is consumed by task '{}' declared before any \
                             of its producers is admissible",
                            self.task_name(first_reader)
                        ),
                    )
                    .with_task(first_reader)
                    .with_data(d)
                    .with_witness(format!(
                        "{first_reader} '{}' reads {name}; earliest producer is \
                         {first_writer} '{}'",
                        self.task_name(first_reader),
                        self.task_name(first_writer)
                    ))
                    .with_suggestion(format!(
                        "declare a producer of {name} before its consumers so admission \
                         order matches dataflow order",
                    )),
                );
            }
        }
    }

    /// Declared sizing of a stream (runtime default when not declared:
    /// bounded at 16 elements — `local.rs`'s `DEFAULT_STREAM_CAPACITY`
    /// — with unknown traffic).
    fn stream_info_of(&self, d: DataId) -> Cow<'a, StreamInfo> {
        match self.streams.iter().find(|s| s.data == d) {
            Some(info) => Cow::Borrowed(info),
            None => Cow::Owned(StreamInfo {
                data: d,
                capacity: 16,
                expected_elements: 0,
            }),
        }
    }

    /// Stream-capacity-deadlock pass: finds a cycle of stream edges
    /// (producer task → consumer task) in which every channel can fill.
    /// With all channels in the cycle at capacity, every producer is
    /// parked on its full downstream channel waiting for a consumer
    /// that is itself parked upstream — no task in the cycle can make
    /// progress. One edge that can never fill (unbounded, or capacity ≥
    /// expected elements) guarantees its producer always runs to
    /// completion and breaks the cycle.
    fn pass_stream_capacity(&self, table: &StreamTable, report: &mut Vec<Diagnostic>) {
        // Adjacency over tasks via can-fill stream edges, in id order
        // for deterministic cycle witnesses.
        let mut adj: BTreeMap<TaskId, Vec<(DataId, TaskId)>> = BTreeMap::new();
        for (&d, ends) in table {
            if ends.producers.is_empty()
                || ends.consumers.is_empty()
                || !self.stream_info_of(d).can_fill()
            {
                continue;
            }
            for &p in &ends.producers {
                for &c in &ends.consumers {
                    adj.entry(p).or_default().push((d, c));
                }
            }
        }

        // Iterative coloured DFS; the first back edge yields the cycle.
        // Tasks not in the map are white.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            Grey,
            Black,
        }
        let mut color: BTreeMap<TaskId, Color> = BTreeMap::new();
        for &root in adj.keys() {
            if color.contains_key(&root) {
                continue;
            }
            // Path of (task, edge-to-next) pairs currently on the stack.
            let mut path: Vec<(TaskId, usize)> = vec![(root, 0)];
            color.insert(root, Color::Grey);
            while let Some(&mut (task, ref mut next)) = path.last_mut() {
                let edges = adj.get(&task).map(Vec::as_slice).unwrap_or(&[]);
                let Some(&(via, succ)) = edges.get(*next) else {
                    color.insert(task, Color::Black);
                    path.pop();
                    continue;
                };
                *next += 1;
                match color.get(&succ) {
                    None => {
                        color.insert(succ, Color::Grey);
                        path.push((succ, 0));
                    }
                    Some(Color::Grey) => {
                        // Cycle: from `succ`'s position in the path
                        // through `task`, closed by edge `via`.
                        let start = path
                            .iter()
                            .position(|&(t, _)| t == succ)
                            .expect("grey tasks are on the path");
                        let mut witness = String::new();
                        let mut cycle_tasks = Vec::new();
                        for window in path[start..].windows(2) {
                            let (t, taken) = window[0];
                            let (d, _) = adj[&t][taken - 1];
                            cycle_tasks.push(t);
                            witness.push_str(&self.stream_edge_witness(t, d));
                        }
                        let (last, _) = *path.last().expect("non-empty path");
                        cycle_tasks.push(last);
                        witness.push_str(&self.stream_edge_witness(last, via));
                        witness.push_str(&format!("{succ} '{}'", self.task_name(succ)));
                        report.push(
                            Diagnostic::new(
                                Lint::StreamCapacityDeadlock,
                                format!(
                                    "cycle of {} bounded stream edge(s) can fill and park \
                                     every task in it",
                                    cycle_tasks.len()
                                ),
                            )
                            .with_task(succ)
                            .with_data(via)
                            .with_witness(witness)
                            .with_suggestion(
                                "raise one cycle stream's capacity to at least its expected \
                                 element count (or declare it unbounded with capacity 0 in \
                                 the bundle's streams table) so that edge can never fill",
                            ),
                        );
                        return;
                    }
                    Some(Color::Black) => {}
                }
            }
        }
    }

    /// One `task --stream(cap…)-->` witness segment.
    fn stream_edge_witness(&self, task: TaskId, d: DataId) -> String {
        let info = self.stream_info_of(d);
        let expects = if info.expected_elements == 0 {
            "?".to_string()
        } else {
            info.expected_elements.to_string()
        };
        format!(
            "{task} '{}' --{}(cap {}, expects {})--> ",
            self.task_name(task),
            self.data_name(d),
            info.capacity,
            expects
        )
    }

    /// Dead-output pass: a produced version nothing consumes and that
    /// is not the datum's final version (the final version is presumed
    /// to be retrieved by the client).
    fn pass_dead_outputs(&self, facts: &Facts, index: &DatumIndex, report: &mut Vec<Diagnostic>) {
        for &(vd, task) in &facts.produced {
            if !index.is_dead(vd) {
                continue;
            }
            let name = self.data_name(vd.data);
            let task_name = self.task_name(task);
            report.push(
                Diagnostic::new(
                    Lint::DeadOutput,
                    format!(
                        "task '{task_name}' writes {name} ({vd}) but no task reads it and a \
                         later write supersedes it",
                    ),
                )
                .with_task(task)
                .with_data(vd.data)
                .with_witness(format!("{task} produces {vd}; no consumer"))
                .with_suggestion(format!(
                    "drop the Out parameter on '{task_name}' or add a reader before the next write",
                )),
            );
        }
    }

    /// Write-write-hazard pass: consecutive writers of the same datum
    /// with no ordering path between them.
    fn pass_write_write_hazards(
        &self,
        index: &DatumIndex,
        topology: Option<&Topology>,
        report: &mut Vec<Diagnostic>,
    ) {
        let mut reach = Reach::new(self.graph, topology);
        for (d, versions) in index.written() {
            for pair in versions.windows(2) {
                let (va, ta) = (pair[0].version, pair[0].task);
                let (vb, tb) = (pair[1].version, pair[1].task);
                if ta == tb || reach.reaches(ta, tb) {
                    continue;
                }
                let name = self.data_name(d);
                report.push(
                    Diagnostic::new(
                        Lint::WriteWriteHazard,
                        format!(
                            "tasks '{}' and '{}' both write {name} with no ordering \
                             edge between them",
                            self.task_name(ta),
                            self.task_name(tb)
                        ),
                    )
                    .with_task(tb)
                    .with_data(d)
                    .with_witness(format!(
                        "{ta} '{}' writes {name}@v{va}; {tb} '{}' writes {name}@v{vb}; \
                         no path {ta} -> {tb}",
                        self.task_name(ta),
                        self.task_name(tb)
                    ))
                    .with_suggestion(format!(
                        "make '{}' access {name} as InOut (or read it) so the writes \
                         are ordered, or write distinct data",
                        self.task_name(tb)
                    )),
                );
            }
        }
    }

    /// Schedulability pass: advisory makespan lower bound from the
    /// critical path and the platform's aggregate throughput.
    fn pass_schedulability(&self, topology: &Topology, report: &mut Vec<Diagnostic>) {
        if self.graph.is_empty() || self.nodes.is_empty() {
            return;
        }
        let Some((path, length)) = self.critical_path(topology) else {
            return;
        };
        let total: f64 = self.graph.nodes().map(|n| self.weight_of(n.id())).sum();
        let cores: u64 = self
            .nodes
            .iter()
            .map(|n| u64::from(n.capacity.cores()))
            .sum();
        let throughput_bound = if cores > 0 { total / cores as f64 } else { 0.0 };
        let bound = length.max(throughput_bound);
        let path_names: Vec<&str> = path.iter().take(8).map(|t| self.task_name(*t)).collect();
        let mut witness = format!(
            "critical path ({} tasks): {}",
            path.len(),
            path_names.join(" -> ")
        );
        if path.len() > 8 {
            witness.push_str(" -> ...");
        }
        let suggestion = if length >= throughput_bound {
            "the critical path dominates: adding nodes cannot improve the bound; \
             shorten the longest chain"
        } else {
            "aggregate throughput dominates: adding cores/nodes lowers the bound"
        };
        report.push(
            Diagnostic::new(
                Lint::SchedulabilityBound,
                format!(
                    "makespan lower bound {bound:.3}s (critical path {length:.3}s, total work \
                     {total:.3}s over {cores} cores = {throughput_bound:.3}s)",
                ),
            )
            .with_witness(witness)
            .with_suggestion(suggestion),
        );
    }

    /// The heaviest source-to-sink chain and its weight: from the
    /// source with the highest bottom level, following the successor
    /// with the highest bottom level (the last one, on ties).
    fn critical_path(&self, topology: &Topology) -> Option<(Vec<TaskId>, f64)> {
        let by_level = |a: &TaskId, b: &TaskId| {
            topology
                .level(*a)
                .partial_cmp(&topology.level(*b))
                .unwrap_or(Ordering::Equal)
        };
        let ids = || self.graph.nodes().map(TaskNode::id);
        // A graph whose predecessor lists disagree with its successor
        // lists may show no source at all; any task will do then.
        let start = self
            .graph
            .nodes()
            .filter(|n| n.predecessors().is_empty())
            .map(TaskNode::id)
            .max_by(by_level)
            .or_else(|| ids().max_by(by_level))?;
        let mut tasks = vec![start];
        let mut cur = start;
        while let Some(next) = self
            .graph
            .successors(cur)
            .iter()
            .copied()
            .filter(|s| self.graph.node(*s).is_ok())
            .max_by(by_level)
        {
            tasks.push(next);
            cur = next;
        }
        Some((tasks, topology.level(start)))
    }
}

/// What one sweep over the graph's nodes gathers for the passes.
struct Facts {
    /// Every produced version with its writer, in node order.
    produced: Vec<(VersionedData, TaskId)>,
    /// Every consumed version with its reader, in node order.
    consumed: Vec<(VersionedData, TaskId)>,
    /// Every stream parameter: datum, which end, the task holding it.
    stream_ends: Vec<(DataId, StreamRole, TaskId)>,
    /// Weight of each task, indexed by task id (1.0 where the graph
    /// has no such task).
    weights: Vec<f64>,
    /// Nodes came in ascending id order, every id within the graph,
    /// every edge to a later id — what the access processor builds.
    forward: bool,
    /// The least id the next node may carry for `forward` to hold.
    next_id: u64,
}

impl Facts {
    fn new(tasks: usize) -> Self {
        Facts {
            produced: Vec::new(),
            consumed: Vec::new(),
            stream_ends: Vec::new(),
            weights: vec![1.0; tasks],
            forward: true,
            next_id: 0,
        }
    }

    fn gather(&mut self, node: TaskNode<'_>, weight: f64) {
        let id = node.id();
        self.produced.extend(node.produced().map(|vd| (vd, id)));
        self.consumed.extend(node.consumed().map(|vd| (vd, id)));
        for p in node.spec().params() {
            if let Some(role) = p.direction.stream_role() {
                self.stream_ends.push((p.data, role, id));
            }
        }
        match self.weights.get_mut(id.index()) {
            Some(w) => *w = weight,
            None => self.forward = false,
        }
        self.forward &= id.as_u64() >= self.next_id && node.successors().iter().all(|s| *s > id);
        self.next_id = id.as_u64().saturating_add(1);
    }
}

/// Position and bottom level of every task of an acyclic graph.
struct Topology {
    /// Indexed by task id: every edge goes from a lower rank to a
    /// higher one.
    rank: Vec<u32>,
    /// Indexed by task id: the weight of the heaviest path from the
    /// task (inclusive) to any sink.
    bottom: Vec<f64>,
}

impl Topology {
    fn level(&self, task: TaskId) -> f64 {
        self.bottom.get(task.index()).copied().unwrap_or(0.0)
    }
}

/// Producers and consumers of one stream datum, in node order.
#[derive(Default)]
struct StreamEnds {
    producers: Vec<TaskId>,
    consumers: Vec<TaskId>,
}

/// Stream endpoints by datum, ascending — shared by the two stream
/// passes, and built only when the graph has a stream parameter.
type StreamTable = BTreeMap<DataId, StreamEnds>;

fn stream_table(ends: &[(DataId, StreamRole, TaskId)]) -> StreamTable {
    let mut table = StreamTable::new();
    for &(data, role, task) in ends {
        let entry = table.entry(data).or_default();
        match role {
            StreamRole::Produce => entry.producers.push(task),
            StreamRole::Consume => entry.consumers.push(task),
        }
    }
    table
}

/// Reachability queries for the write-write pass, with the scratch
/// they reuse from pair to pair.
struct Reach<'a> {
    graph: &'a TaskGraph,
    /// `None` for cyclic graphs, which have no positions to prune by.
    topology: Option<&'a Topology>,
    seen: HashSet<TaskId>,
    stack: Vec<TaskId>,
}

#[cfg(test)]
thread_local! {
    /// Tasks the reachability walks of this thread entered.
    static WALKED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl<'a> Reach<'a> {
    fn new(graph: &'a TaskGraph, topology: Option<&'a Topology>) -> Self {
        Reach {
            graph,
            topology,
            seen: HashSet::new(),
            stack: Vec::new(),
        }
    }

    fn rank(&self, task: TaskId) -> Option<u32> {
        self.topology?.rank.get(task.index()).copied()
    }

    /// Is there a directed path `from -> ... -> to`?
    ///
    /// In an acyclic graph every task on such a path is positioned
    /// before `to`, so the walk never enters a task positioned after
    /// it: a pair of unordered writers costs the tasks *between* them,
    /// not every descendant of the first.
    fn reaches(&mut self, from: TaskId, to: TaskId) -> bool {
        if from == to {
            return true;
        }
        let limit = self.rank(to);
        let beyond = |me: &Self, t: TaskId| match (limit, me.rank(t)) {
            (Some(limit), Some(rank)) => rank > limit,
            _ => false,
        };
        if beyond(self, from) {
            return false;
        }
        self.seen.clear();
        self.stack.clear();
        self.stack.push(from);
        while let Some(t) = self.stack.pop() {
            for &s in self.graph.successors(t) {
                if s == to {
                    return true;
                }
                if !beyond(self, s) && self.seen.insert(s) {
                    self.stack.push(s);
                    #[cfg(test)]
                    WALKED.with(|w| w.set(w.get() + 1));
                }
            }
        }
        false
    }
}

/// Builds the verifier's node list from a platform description.
pub fn lint_nodes(platform: &Platform) -> Vec<LintNode> {
    platform
        .nodes()
        .iter()
        .map(|n| LintNode {
            name: n.name().to_string(),
            capacity: n.capacity().clone(),
        })
        .collect()
}

/// Per-task unsatisfiable-constraints check, shared by the whole-graph
/// pass and the runtimes' strict submit-time mode.
///
/// Returns `None` when some node (or enough nodes, for multi-node
/// tasks) can host the task.
pub fn check_task_constraints(
    task: TaskId,
    task_name: &str,
    req: &Constraints,
    nodes: &[LintNode],
) -> Option<Diagnostic> {
    let satisfying = nodes.iter().filter(|n| n.capacity.satisfies(req)).count() as u32;
    if satisfying >= req.required_nodes() {
        return None;
    }
    let mut d = if nodes.is_empty() {
        Diagnostic::new(
            Lint::UnsatisfiableConstraints,
            format!("task '{task_name}' cannot run: the platform has no nodes"),
        )
        .with_suggestion("add nodes to the platform")
    } else if req.is_multi_node() && satisfying > 0 {
        Diagnostic::new(
            Lint::UnsatisfiableConstraints,
            format!(
                "task '{task_name}' needs {} whole nodes but only {satisfying} of {} \
                 satisfy its per-node constraints",
                req.required_nodes(),
                nodes.len()
            ),
        )
        .with_suggestion(format!(
            "add satisfying nodes or lower the node count below {}",
            req.required_nodes().saturating_add(1)
        ))
    } else {
        // Nearest miss: the node failing the fewest dimensions.
        let (best, misses) = nodes
            .iter()
            .map(|n| (n, unmet_dimensions(&n.capacity, req)))
            .min_by_key(|(_, m)| m.len())
            .expect("nodes is non-empty");
        let mut diag = Diagnostic::new(
            Lint::UnsatisfiableConstraints,
            format!(
                "no node can host task '{task_name}'; nearest miss is '{}' failing {} \
                 requirement(s)",
                best.name,
                misses.len()
            ),
        )
        .with_suggestion(format!(
            "relax the task's constraints or upgrade node '{}' ({})",
            best.name,
            misses
                .iter()
                .map(|m| m.split(':').next().unwrap_or(m))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        for m in misses {
            diag = diag.with_witness(format!("'{}': {m}", best.name));
        }
        diag
    };
    d = d.with_task(task);
    Some(d)
}

/// The constraint dimensions `cap` fails to meet, as human-readable
/// `need X, node has Y` lines.
fn unmet_dimensions(cap: &NodeCapacity, req: &Constraints) -> Vec<String> {
    let mut out = Vec::new();
    if cap.cores() < req.required_compute_units() {
        out.push(format!(
            "compute_units: need {}, node has {}",
            req.required_compute_units(),
            cap.cores()
        ));
    }
    if cap.memory_mb() < req.required_memory_mb() {
        out.push(format!(
            "memory_mb: need {}, node has {}",
            req.required_memory_mb(),
            cap.memory_mb()
        ));
    }
    if cap.disk_mb() < req.required_disk_mb() {
        out.push(format!(
            "disk_mb: need {}, node has {}",
            req.required_disk_mb(),
            cap.disk_mb()
        ));
    }
    if cap.gpus() < req.required_gpus() {
        out.push(format!(
            "gpus: need {}, node has {}",
            req.required_gpus(),
            cap.gpus()
        ));
    }
    let missing: Vec<&str> = req
        .required_software()
        .iter()
        .filter(|p| !cap.software().contains(*p))
        .map(|p| p.as_str())
        .collect();
    if !missing.is_empty() {
        out.push(format!("software: missing {}", missing.join(", ")));
    }
    if let Some(a) = req.required_arch() {
        if a != cap.arch() {
            out.push(format!("arch: need {a}, node is {}", cap.arch()));
        }
    }
    out
}

/// Builds the read-without-producer diagnostic, shared by the
/// whole-graph pass and `LocalRuntime`'s strict submit-time mode.
pub fn read_without_producer(
    task: TaskId,
    task_name: &str,
    data: DataId,
    data_name: &str,
) -> Diagnostic {
    Diagnostic::new(
        Lint::ReadWithoutProducer,
        format!(
            "task '{task_name}' reads {data_name} ({data}@v0) but no task produces it \
             and no initial value is provided"
        ),
    )
    .with_task(task)
    .with_data(data)
    .with_witness(format!("{task} consumes {data}@v0"))
    .with_suggestion(format!(
        "provide an initial value for {data_name} (set_initial) or submit a producer first"
    ))
}

/// Returns `true` if the report contains any `Error`-severity finding.
pub fn has_errors(report: &[Diagnostic]) -> bool {
    report.iter().any(Diagnostic::is_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use continuum_dag::{AccessProcessor, TaskSpec};

    fn bundle_of(ap: AccessProcessor) -> LintBundle {
        let n = ap.catalog().len();
        let names = (0..n)
            .map(|i| {
                ap.catalog()
                    .name(DataId::from_raw(i as u64))
                    .unwrap_or("?")
                    .to_string()
            })
            .collect();
        let (_, graph) = ap.into_parts();
        LintBundle::new(graph)
            .with_data_names(names)
            .with_nodes(vec![LintNode {
                name: "n0".into(),
                capacity: NodeCapacity::new(4, 8_192),
            }])
    }

    #[test]
    fn clean_pipeline_yields_only_info() {
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        let y = ap.new_data("y");
        ap.register(TaskSpec::new("a").output(x)).unwrap();
        ap.register(TaskSpec::new("b").input(x).output(y)).unwrap();
        let report = bundle_of(ap).verify();
        assert!(!has_errors(&report), "{report:?}");
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].lint, Lint::SchedulabilityBound);
        assert_eq!(report[0].severity, Severity::Info);
    }

    #[test]
    fn unsatisfiable_constraints_names_nearest_miss() {
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        ap.register(TaskSpec::new("big").output(x)).unwrap();
        let bundle = bundle_of(ap).with_constraints(vec![Constraints::new()
            .compute_units(2)
            .memory_mb(1_000_000)
            .software("cuda")]);
        let report = bundle.verify();
        let d = report
            .iter()
            .find(|d| d.lint == Lint::UnsatisfiableConstraints)
            .expect("lint fires");
        assert!(d.is_error());
        assert_eq!(d.task, Some(TaskId::from_raw(0)));
        assert!(d.message.contains("nearest miss is 'n0'"), "{}", d.message);
        // Cores are enough (4 >= 2): only memory + software fail.
        assert_eq!(d.witness.len(), 2, "{:?}", d.witness);
        assert!(d.witness[0].contains("memory_mb: need 1000000"));
        assert!(d.witness[1].contains("software: missing cuda"));
    }

    #[test]
    fn multi_node_counts_satisfying_nodes() {
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        ap.register(TaskSpec::new("mpi").output(x)).unwrap();
        let bundle = bundle_of(ap).with_constraints(vec![Constraints::new().nodes(3)]);
        let report = bundle.verify();
        let d = report
            .iter()
            .find(|d| d.lint == Lint::UnsatisfiableConstraints)
            .expect("lint fires");
        assert!(d.message.contains("needs 3 whole nodes"), "{}", d.message);
    }

    #[test]
    fn read_without_producer_unless_initial() {
        let mut ap = AccessProcessor::new();
        let raw = ap.new_data("raw");
        let out = ap.new_data("out");
        ap.register(TaskSpec::new("t").input(raw).output(out))
            .unwrap();
        let bundle = bundle_of(ap);
        let report = bundle.verify();
        let d = report
            .iter()
            .find(|d| d.lint == Lint::ReadWithoutProducer)
            .expect("lint fires");
        assert!(d.is_error());
        assert_eq!(d.data, Some(raw));
        assert!(d.message.contains("'t' reads raw"), "{}", d.message);
        // Declaring the initial value silences it.
        let report = bundle.with_initial_data(vec![raw]).verify();
        assert!(!has_errors(&report), "{report:?}");
    }

    #[test]
    fn dead_output_flags_superseded_unread_version() {
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        ap.register(TaskSpec::new("w1").output(x)).unwrap();
        ap.register(TaskSpec::new("w2").output(x)).unwrap();
        let report = bundle_of(ap).verify();
        let d = report
            .iter()
            .find(|d| d.lint == Lint::DeadOutput)
            .expect("lint fires");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.task, Some(TaskId::from_raw(0)), "w1's version is dead");
        assert!(d.message.contains("'w1' writes x"), "{}", d.message);
        // The final version (w2's) is presumed client-read: only one
        // dead-output finding.
        assert_eq!(
            report.iter().filter(|d| d.lint == Lint::DeadOutput).count(),
            1
        );
    }

    #[test]
    fn write_write_hazard_on_unordered_writers() {
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        ap.register(TaskSpec::new("w1").output(x)).unwrap();
        ap.register(TaskSpec::new("w2").output(x)).unwrap();
        let report = bundle_of(ap).verify();
        let d = report
            .iter()
            .find(|d| d.lint == Lint::WriteWriteHazard)
            .expect("lint fires");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.task, Some(TaskId::from_raw(1)));
        assert_eq!(d.data, Some(x));
        assert!(d.witness[0].contains("no path t0 -> t1"), "{:?}", d.witness);
    }

    /// `reaches` used to walk every descendant of the first writer for
    /// each unordered pair: W writers above a wide fan-out cost W times
    /// the fan-out. Pruned by position, a pair costs the tasks between
    /// the two writers — here none.
    #[test]
    fn unordered_writers_above_a_fan_out_verify_in_linear_time() {
        const WRITERS: usize = 200;
        const FAN_OUT: usize = 10_000;
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        let sides = ap.new_data_batch("side", WRITERS);
        for side in &sides {
            ap.register(TaskSpec::new("writer").output(x).output(*side))
                .unwrap();
        }
        let hub = ap.new_data("hub");
        ap.register(TaskSpec::new("hub").inputs(sides).output(hub))
            .unwrap();
        for leaf in ap.new_data_batch("leaf", FAN_OUT) {
            ap.register(TaskSpec::new("leaf").input(hub).output(leaf))
                .unwrap();
        }
        let bundle = bundle_of(ap);
        WALKED.with(|w| w.set(0));
        let report = bundle.verify();
        let walked = WALKED.with(std::cell::Cell::get);
        assert!(
            walked <= bundle.graph.len(),
            "{walked} tasks entered for {} tasks in the graph",
            bundle.graph.len()
        );
        // The same hazards as the unpruned walk found: one per
        // consecutive pair of writers, anchored on the later one.
        let hazards: Vec<&Diagnostic> = report
            .iter()
            .filter(|d| d.lint == Lint::WriteWriteHazard)
            .collect();
        assert_eq!(hazards.len(), WRITERS - 1);
        for (i, d) in hazards.iter().enumerate() {
            assert_eq!(d.task, Some(TaskId::from_raw(i as u64 + 1)));
            assert!(
                d.witness[0].ends_with(&format!("no path t{i} -> t{}", i + 1)),
                "{:?}",
                d.witness
            );
        }
    }

    /// A writer that does reach the next one through a chain is still
    /// found ordered when the walk is pruned.
    #[test]
    fn pruned_walk_still_finds_the_ordering_path() {
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        let a = ap.new_data("a");
        let b = ap.new_data("b");
        ap.register(TaskSpec::new("w1").output(x).output(a))
            .unwrap();
        ap.register(TaskSpec::new("mid").input(a).output(b))
            .unwrap();
        ap.register(TaskSpec::new("w2").input(b).output(x)).unwrap();
        let report = bundle_of(ap).verify();
        assert_eq!(
            report
                .iter()
                .filter(|d| d.lint == Lint::WriteWriteHazard)
                .count(),
            0,
            "{report:?}"
        );
    }

    #[test]
    fn ordered_writers_are_clean() {
        // InOut chains order every write: no hazard, no dead output.
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        ap.register(TaskSpec::new("w1").output(x)).unwrap();
        ap.register(TaskSpec::new("w2").inout(x)).unwrap();
        let report = bundle_of(ap).verify();
        assert!(
            report.iter().all(|d| d.lint == Lint::SchedulabilityBound),
            "{report:?}"
        );
    }

    #[test]
    fn unclosed_stream_reader_is_an_error() {
        let mut ap = AccessProcessor::new();
        let s = ap.new_data("frames");
        let sink = ap.register(TaskSpec::new("sink").stream_in(s)).unwrap();
        let report = bundle_of(ap).verify();
        let d = report
            .iter()
            .find(|d| d.lint == Lint::UnclosedStream)
            .expect("lint fires");
        assert!(d.is_error());
        assert_eq!(d.task, Some(sink));
        assert_eq!(d.data, Some(s));
        assert!(d.message.contains("frames"), "{}", d.message);
    }

    #[test]
    fn reader_before_writer_is_a_warning() {
        let mut ap = AccessProcessor::new();
        let s = ap.new_data("frames");
        let sink = ap.register(TaskSpec::new("sink").stream_in(s)).unwrap();
        ap.register(TaskSpec::new("sensor").stream_out(s)).unwrap();
        let report = bundle_of(ap).verify();
        let d = report
            .iter()
            .find(|d| d.lint == Lint::ReaderBeforeWriter)
            .expect("lint fires");
        assert_eq!(d.severity, Severity::Warning);
        assert_eq!(d.task, Some(sink));
        assert_eq!(d.data, Some(s));
        assert!(
            d.witness[0].contains("'sensor'"),
            "witness names the late producer: {:?}",
            d.witness
        );
        // No unclosed-stream finding: the stream does have a writer.
        assert_eq!(
            report
                .iter()
                .filter(|d| d.lint == Lint::UnclosedStream)
                .count(),
            0
        );
    }

    #[test]
    fn well_ordered_stream_pipeline_is_clean() {
        let mut ap = AccessProcessor::new();
        let s = ap.new_data("frames");
        ap.register(TaskSpec::new("sensor").stream_out(s)).unwrap();
        ap.register(TaskSpec::new("sink").stream_in(s)).unwrap();
        let report = bundle_of(ap).verify();
        assert!(
            report.iter().all(|d| d.lint == Lint::SchedulabilityBound),
            "{report:?}"
        );
    }

    #[test]
    fn schedulability_reports_both_bounds() {
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        ap.register(TaskSpec::new("a").output(x)).unwrap();
        ap.register(TaskSpec::new("b").inout(x)).unwrap();
        let bundle = bundle_of(ap).with_weights(vec![2.0, 3.0]);
        let report = bundle.verify();
        let d = &report[0];
        assert_eq!(d.lint, Lint::SchedulabilityBound);
        // Chain of 2+3s on 4 cores: CP bound 5s dominates 5/4s.
        assert!(d.message.contains("lower bound 5.000s"), "{}", d.message);
        assert!(d.witness[0].contains("a -> b"), "{:?}", d.witness);
    }

    #[test]
    fn empty_graph_or_platform_yields_nothing() {
        let ap = AccessProcessor::new();
        let (_, graph) = ap.into_parts();
        assert!(LintBundle::new(graph).verify().is_empty());
    }
}
