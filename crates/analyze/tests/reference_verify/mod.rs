//! The verifier as it stood before the borrowed view and the per-datum
//! index (PR 19's `crates/analyze/src/verify.rs`), kept verbatim as the
//! reference the production passes are compared against: a clone-free
//! rewrite must not move a single diagnostic. Every pass re-derives its
//! own hash tables from the owned bundle and runs its own traversal
//! (`find_cycle`, `critical_path`), exactly as it did.
//!
//! Only the receiver changed: the passes were methods of `LintBundle`,
//! here they are methods of a wrapper that derefs to one.

use continuum_analyze::{
    check_task_constraints, read_without_producer, sort_report, Diagnostic, Lint, LintBundle,
    StreamInfo,
};
use continuum_dag::{DataId, GraphAnalysis, TaskId, VersionedData};
use continuum_platform::Constraints;
use std::collections::{HashMap, HashSet};
use std::ops::Deref;

/// `Reference(&bundle).verify()` is the parent commit's
/// `bundle.verify()`.
pub struct Reference<'a>(pub &'a LintBundle);

impl Deref for Reference<'_> {
    type Target = LintBundle;

    fn deref(&self) -> &LintBundle {
        self.0
    }
}

impl Reference<'_> {
    /// Constraints of a task (default when not provided).
    pub fn constraints_of(&self, task: TaskId) -> Constraints {
        self.constraints
            .get(task.index())
            .cloned()
            .unwrap_or_default()
    }

    /// Weight of a task (1.0 when not provided).
    pub fn weight_of(&self, task: TaskId) -> f64 {
        self.weights.get(task.index()).copied().unwrap_or(1.0)
    }

    /// Display name of a datum.
    pub fn data_name(&self, data: DataId) -> String {
        self.data_names
            .get(data.index())
            .cloned()
            .unwrap_or_else(|| data.to_string())
    }

    /// Display name of a task (`"?"` for ids outside the graph).
    fn task_name(&self, task: TaskId) -> &str {
        self.graph
            .node(task)
            .map(|n| n.spec().name())
            .unwrap_or("?")
    }

    /// Runs the full lint catalogue and returns the report in canonical
    /// order (errors first).
    pub fn verify(&self) -> Vec<Diagnostic> {
        let mut report = Vec::new();
        self.pass_constraints(&mut report);
        self.pass_read_without_producer(&mut report);
        let cyclic = self.pass_cycle(&mut report);
        self.pass_streams(&mut report);
        self.pass_stream_capacity(&mut report);
        self.pass_dead_outputs(&mut report);
        self.pass_write_write_hazards(&mut report);
        if !cyclic {
            // The schedulability pass walks a topological order, which
            // does not exist for cyclic graphs.
            self.pass_schedulability(&mut report);
        }
        sort_report(&mut report);
        report
    }

    /// Unsatisfiable-constraints pass: every task must have at least
    /// one (or, for multi-node tasks, enough) hosting node.
    fn pass_constraints(&self, report: &mut Vec<Diagnostic>) {
        for node in self.graph.nodes() {
            let req = self.constraints_of(node.id());
            if let Some(d) =
                check_task_constraints(node.id(), node.spec().name(), &req, &self.nodes)
            {
                report.push(d);
            }
        }
    }

    /// Read-without-producer pass: every consumed version must be
    /// produced by some task, or be an externally-provided initial
    /// value.
    fn pass_read_without_producer(&self, report: &mut Vec<Diagnostic>) {
        let produced: HashSet<VersionedData> = self
            .graph
            .nodes()
            .flat_map(|n| n.produced().iter().copied())
            .collect();
        let initial: HashSet<DataId> = self.initial_data.iter().copied().collect();
        for node in self.graph.nodes() {
            for vd in node.consumed() {
                if produced.contains(vd) {
                    continue;
                }
                if vd.version.is_initial() && initial.contains(&vd.data) {
                    continue;
                }
                report.push(read_without_producer(
                    node.id(),
                    node.spec().name(),
                    vd.data,
                    &self.data_name(vd.data),
                ));
            }
        }
    }

    /// Cycle pass. Returns `true` if a cycle was found.
    fn pass_cycle(&self, report: &mut Vec<Diagnostic>) -> bool {
        let Some(cycle) = GraphAnalysis::new(&self.graph).find_cycle() else {
            return false;
        };
        let mut names: Vec<String> = cycle
            .iter()
            .map(|t| format!("{t} '{}'", self.task_name(*t)))
            .collect();
        names.push(names[0].clone());
        let d = Diagnostic::new(
            Lint::Cycle,
            format!("dependency cycle through {} tasks", cycle.len()),
        )
        .with_task(cycle[0])
        .with_witness(names.join(" -> "))
        .with_suggestion(
            "graphs built through the access processor are acyclic; \
             this graph was hand-crafted or corrupted — remove one of the \
             witnessed edges",
        );
        report.push(d);
        true
    }

    /// Stream pass: `unclosed-stream` (a stream datum with a reader but
    /// no writer — the reader is never released and its first receive
    /// can never observe end-of-stream) and `reader-before-writer` (a
    /// stream consumer declared before any of its producers, so
    /// in-order admission enqueues the reader ahead of the writer that
    /// must release it).
    fn pass_streams(&self, report: &mut Vec<Diagnostic>) {
        let mut producers: HashMap<DataId, Vec<TaskId>> = HashMap::new();
        let mut consumers: HashMap<DataId, Vec<TaskId>> = HashMap::new();
        for node in self.graph.nodes() {
            for d in node.spec().stream_writes() {
                producers.entry(d).or_default().push(node.id());
            }
            for d in node.spec().stream_reads() {
                consumers.entry(d).or_default().push(node.id());
            }
        }
        let mut data: Vec<DataId> = consumers.keys().copied().collect();
        data.sort();
        for d in data {
            let readers = &consumers[&d];
            let first_reader = *readers.iter().min().expect("non-empty reader list");
            let name = self.data_name(d);
            let Some(writers) = producers.get(&d) else {
                report.push(
                    Diagnostic::new(
                        Lint::UnclosedStream,
                        format!(
                            "stream {name} has {} reader(s) but no task writes or closes \
                             it on any path",
                            readers.len()
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
            let first_writer = *writers.iter().min().expect("non-empty writer list");
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
    fn stream_info_of(&self, d: DataId) -> StreamInfo {
        self.streams
            .iter()
            .find(|s| s.data == d)
            .cloned()
            .unwrap_or(StreamInfo {
                data: d,
                capacity: 16,
                expected_elements: 0,
            })
    }

    /// Stream-capacity-deadlock pass: finds a cycle of stream edges
    /// (producer task → consumer task) in which every channel can fill.
    /// With all channels in the cycle at capacity, every producer is
    /// parked on its full downstream channel waiting for a consumer
    /// that is itself parked upstream — no task in the cycle can make
    /// progress. One edge that can never fill (unbounded, or capacity ≥
    /// expected elements) guarantees its producer always runs to
    /// completion and breaks the cycle.
    fn pass_stream_capacity(&self, report: &mut Vec<Diagnostic>) {
        // Adjacency over tasks via can-fill stream edges, in id order
        // for deterministic cycle witnesses.
        let mut producers: HashMap<DataId, Vec<TaskId>> = HashMap::new();
        let mut consumers: HashMap<DataId, Vec<TaskId>> = HashMap::new();
        for node in self.graph.nodes() {
            for d in node.spec().stream_writes() {
                producers.entry(d).or_default().push(node.id());
            }
            for d in node.spec().stream_reads() {
                consumers.entry(d).or_default().push(node.id());
            }
        }
        let mut adj: HashMap<TaskId, Vec<(DataId, TaskId)>> = HashMap::new();
        let mut data: Vec<DataId> = producers.keys().copied().collect();
        data.sort();
        for d in data {
            if !self.stream_info_of(d).can_fill() {
                continue;
            }
            let Some(readers) = consumers.get(&d) else {
                continue;
            };
            for &p in &producers[&d] {
                for &c in readers {
                    adj.entry(p).or_default().push((d, c));
                }
            }
        }

        // Iterative coloured DFS; the first back edge yields the cycle.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let n = self.graph.len();
        let mut color = vec![Color::White; n];
        let mut roots: Vec<TaskId> = adj.keys().copied().collect();
        roots.sort();
        for root in roots {
            if color[root.index()] != Color::White {
                continue;
            }
            // Path of (task, edge-to-next) pairs currently on the stack.
            let mut path: Vec<(TaskId, usize)> = vec![(root, 0)];
            color[root.index()] = Color::Grey;
            while let Some(&mut (task, ref mut next)) = path.last_mut() {
                let edges = adj.get(&task).map(Vec::as_slice).unwrap_or(&[]);
                let Some(&(via, succ)) = edges.get(*next) else {
                    color[task.index()] = Color::Black;
                    path.pop();
                    continue;
                };
                *next += 1;
                match color[succ.index()] {
                    Color::White => {
                        color[succ.index()] = Color::Grey;
                        path.push((succ, 0));
                    }
                    Color::Grey => {
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
                    Color::Black => {}
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
    fn pass_dead_outputs(&self, report: &mut Vec<Diagnostic>) {
        let consumed: HashSet<VersionedData> = self
            .graph
            .nodes()
            .flat_map(|n| n.consumed().iter().copied())
            .collect();
        let mut final_version: HashMap<DataId, u32> = HashMap::new();
        for node in self.graph.nodes() {
            for vd in node.produced() {
                let e = final_version.entry(vd.data).or_insert(0);
                *e = (*e).max(vd.version.as_u32());
            }
        }
        for node in self.graph.nodes() {
            for vd in node.produced() {
                if consumed.contains(vd) {
                    continue;
                }
                if final_version.get(&vd.data).copied() == Some(vd.version.as_u32()) {
                    continue;
                }
                let name = self.data_name(vd.data);
                report.push(
                    Diagnostic::new(
                        Lint::DeadOutput,
                        format!(
                            "task '{}' writes {name} ({vd}) but no task reads it and a \
                             later write supersedes it",
                            node.spec().name()
                        ),
                    )
                    .with_task(node.id())
                    .with_data(vd.data)
                    .with_witness(format!("{} produces {vd}; no consumer", node.id()))
                    .with_suggestion(format!(
                        "drop the Out parameter on '{}' or add a reader before the next write",
                        node.spec().name()
                    )),
                );
            }
        }
    }

    /// Write-write-hazard pass: consecutive writers of the same datum
    /// with no ordering path between them.
    fn pass_write_write_hazards(&self, report: &mut Vec<Diagnostic>) {
        let mut writers: HashMap<DataId, Vec<(u32, TaskId)>> = HashMap::new();
        for node in self.graph.nodes() {
            for vd in node.produced() {
                writers
                    .entry(vd.data)
                    .or_default()
                    .push((vd.version.as_u32(), node.id()));
            }
        }
        let mut data: Vec<DataId> = writers.keys().copied().collect();
        data.sort();
        for d in data {
            let list = writers.get_mut(&d).expect("key from map");
            list.sort();
            for pair in list.windows(2) {
                let (va, ta) = pair[0];
                let (vb, tb) = pair[1];
                if ta == tb || self.reaches(ta, tb) {
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
    fn pass_schedulability(&self, report: &mut Vec<Diagnostic>) {
        if self.graph.is_empty() || self.nodes.is_empty() {
            return;
        }
        let analysis = GraphAnalysis::new(&self.graph);
        let weight = |t: TaskId| self.weight_of(t);
        let cp = analysis.critical_path(weight);
        let total = analysis.total_weight(weight);
        let cores: u64 = self
            .nodes
            .iter()
            .map(|n| u64::from(n.capacity.cores()))
            .sum();
        let throughput_bound = if cores > 0 { total / cores as f64 } else { 0.0 };
        let bound = cp.length.max(throughput_bound);
        let path_names: Vec<String> = cp
            .tasks
            .iter()
            .take(8)
            .map(|t| self.task_name(*t).to_string())
            .collect();
        let mut witness = format!(
            "critical path ({} tasks): {}",
            cp.tasks.len(),
            path_names.join(" -> ")
        );
        if cp.tasks.len() > 8 {
            witness.push_str(" -> ...");
        }
        let suggestion = if cp.length >= throughput_bound {
            "the critical path dominates: adding nodes cannot improve the bound; \
             shorten the longest chain"
                .to_string()
        } else {
            "aggregate throughput dominates: adding cores/nodes lowers the bound".to_string()
        };
        report.push(
            Diagnostic::new(
                Lint::SchedulabilityBound,
                format!(
                    "makespan lower bound {bound:.3}s (critical path {:.3}s, total work \
                     {total:.3}s over {cores} cores = {throughput_bound:.3}s)",
                    cp.length
                ),
            )
            .with_witness(witness)
            .with_suggestion(suggestion),
        );
    }

    /// Is there a directed path `from -> ... -> to`?
    fn reaches(&self, from: TaskId, to: TaskId) -> bool {
        if from == to {
            return true;
        }
        let mut seen: HashSet<TaskId> = HashSet::new();
        let mut stack = vec![from];
        while let Some(t) = stack.pop() {
            for &s in self.graph.successors(t) {
                if s == to {
                    return true;
                }
                // In access-processor graphs edges point forward, so
                // anything past `to` cannot reach it; keep the check
                // conservative for crafted graphs by only pruning when
                // acyclicity is plausible (seen-set still bounds us).
                if seen.insert(s) {
                    stack.push(s);
                }
            }
        }
        false
    }
}
