//! Simulated workloads: a task graph plus per-task cost profiles.

use crate::profile::TaskProfile;
use continuum_analyze::{lint_nodes, LintColumns, LintView};
use continuum_dag::{
    AccessProcessor, DagError, DataCatalog, DataId, ExpandSink, GraphAnalysis, Retired, SegVec,
    TaskGraph, TaskId, TaskSpec,
};
use continuum_platform::{Constraints, NodeId, Platform};
use std::fmt;

/// Summary statistics of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStats {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of dependency edges.
    pub edges: usize,
    /// Number of logical data.
    pub data: usize,
    /// Sum of all reference durations (sequential time), seconds.
    pub total_duration_s: f64,
    /// Critical-path length under reference durations, seconds.
    pub critical_path_s: f64,
    /// Inherent average parallelism (total / critical path).
    pub average_parallelism: f64,
}

/// A cost-modelled workload for the simulated engine: the task graph
/// built through an embedded access processor, one [`TaskProfile`] per
/// task, and sizes/homes for initial (externally provided) data.
///
/// # Example
///
/// ```
/// use continuum_runtime::{SimWorkload, TaskProfile};
/// use continuum_dag::TaskSpec;
///
/// let mut w = SimWorkload::new();
/// let raw = w.initial_data("raw", 1_000_000, None);
/// let clean = w.data("clean");
/// w.task(
///     TaskSpec::new("filter").input(raw).output(clean),
///     TaskProfile::new(10.0).outputs_bytes(500_000),
/// )?;
/// assert_eq!(w.stats().tasks, 1);
/// # Ok::<(), continuum_dag::DagError>(())
/// ```
#[derive(Debug, Default)]
pub struct SimWorkload {
    ap: AccessProcessor,
    /// Indexed by task id, segment for segment beside the graph's
    /// nodes.
    profiles: SegVec<TaskProfile>,
    /// Indexed by data id, segment for segment beside the catalog.
    data_meta: SegVec<DataMeta>,
}

/// What the workload knows about a datum beyond its catalog entry.
#[derive(Debug, Clone, Copy, Default)]
struct DataMeta {
    /// Externally provided (present before any task runs).
    initial: bool,
    /// Size of the initial value.
    bytes: u64,
    /// Node the initial value is pinned to, if any.
    home: Option<NodeId>,
    /// A lazy source declared that no future task reads the datum.
    closed: bool,
}

impl SimWorkload {
    /// Creates an empty workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a logical datum produced by tasks.
    pub fn data(&mut self, name: impl AsRef<str>) -> DataId {
        self.data_meta.push(DataMeta::default());
        self.ap.new_data(name)
    }

    /// [`SimWorkload::data`] with the name formatted straight into the
    /// catalog (`w.data_fmt(format_args!("imp_{i}"))`).
    pub fn data_fmt(&mut self, name: fmt::Arguments<'_>) -> DataId {
        self.data_meta.push(DataMeta::default());
        self.ap.new_data_fmt(name)
    }

    /// Registers `n` logical data with a shared prefix.
    pub fn data_batch(&mut self, prefix: &str, n: usize) -> Vec<DataId> {
        (0..n)
            .map(|i| self.data_fmt(format_args!("{prefix}{i}")))
            .collect()
    }

    /// Registers an initial (externally provided) datum of `bytes`
    /// size. If `home` is given, the datum initially resides on that
    /// node and reading it from elsewhere costs a transfer; without a
    /// home it is considered staged everywhere (zero-cost reads).
    pub fn initial_data(
        &mut self,
        name: impl AsRef<str>,
        bytes: u64,
        home: Option<NodeId>,
    ) -> DataId {
        self.initial_data_fmt(format_args!("{}", name.as_ref()), bytes, home)
    }

    /// [`SimWorkload::initial_data`] with the name formatted straight
    /// into the catalog.
    pub fn initial_data_fmt(
        &mut self,
        name: fmt::Arguments<'_>,
        bytes: u64,
        home: Option<NodeId>,
    ) -> DataId {
        self.data_meta.push(DataMeta {
            initial: true,
            bytes,
            home,
            closed: false,
        });
        self.ap.new_data_fmt(name)
    }

    /// Registers a task with its cost profile.
    ///
    /// # Errors
    ///
    /// Propagates access-processor validation errors.
    pub fn task(&mut self, spec: TaskSpec, profile: TaskProfile) -> Result<TaskId, DagError> {
        let id = self.ap.register(spec)?;
        debug_assert_eq!(id.index(), self.profiles.len());
        self.profiles.push(profile);
        Ok(id)
    }

    /// The task graph.
    pub fn graph(&self) -> &TaskGraph {
        self.ap.graph()
    }

    /// The data catalog (names and current versions).
    pub fn catalog(&self) -> &DataCatalog {
        self.ap.catalog()
    }

    /// What the verifier sees of this workload on `platform` — the
    /// graph, data names, per-task constraints and weights from the
    /// profiles, the externally-provided initial data, all lent in
    /// place, plus `platform`'s node capacities. `.verify()` it, or
    /// `.to_bundle()` it for the owned copy the `continuum-lint` CLI
    /// reads.
    pub fn lint_bundle(&self, platform: &Platform) -> LintView<'_> {
        LintView::new(self.ap.graph(), self, lint_nodes(platform), &[])
    }

    /// The profile of a task.
    ///
    /// # Panics
    ///
    /// Panics if the task id is not from this workload.
    pub fn profile(&self, task: TaskId) -> &TaskProfile {
        &self.profiles[task.index()]
    }

    /// The profiles of all resident tasks, in task-id order.
    pub fn profiles(&self) -> impl Iterator<Item = &TaskProfile> {
        self.profiles.iter()
    }

    /// Size of an initial datum (0 if not initial or unspecified).
    pub fn initial_size(&self, data: DataId) -> u64 {
        self.data_meta.get(data.index()).map_or(0, |m| m.bytes)
    }

    /// Home node of an initial datum, if pinned.
    pub fn initial_home(&self, data: DataId) -> Option<NodeId> {
        self.data_meta.get(data.index()).and_then(|m| m.home)
    }

    /// Iterates over all initial data `(data, bytes, home)` in data-id
    /// order.
    pub fn initial_data_entries(&self) -> impl Iterator<Item = (DataId, u64, Option<NodeId>)> + '_ {
        (0..self.data_meta.len()).filter_map(|i| {
            let meta = self.data_meta.get(i).filter(|m| m.initial)?;
            Some((DataId::from_raw(i as u64), meta.bytes, meta.home))
        })
    }

    /// Records a lazy source's declaration that no future task reads
    /// `data` (see `ExpandSink::close_data`).
    pub(crate) fn close_data(&mut self, data: DataId) {
        if let Some(meta) = self.data_meta.get_mut(data.index()) {
            meta.closed = true;
        }
    }

    /// Whether [`SimWorkload::close_data`] was called for `data`.
    pub(crate) fn is_closed(&self, data: DataId) -> bool {
        match self.data_meta.get(data.index()) {
            Some(meta) => meta.closed,
            // Only retired, hence closed, data are no longer held.
            None => data.index() < self.data_meta.len(),
        }
    }

    /// Retires a completed task (see [`TaskGraph::retire_payload`]):
    /// its graph payload is freed at once, and whatever that did to
    /// its segment of the graph's nodes — evacuated, dropped — is done
    /// to the profiles too and returned for the caller's own columns.
    /// Used by lazily-materialized runs once the task and every value
    /// it produced are retired.
    ///
    /// # Errors
    ///
    /// Propagates [`TaskGraph::retire_payload`] errors.
    pub fn retire_task_payload(&mut self, task: TaskId) -> Result<Retired, DagError> {
        let outcome = self.ap.graph_mut().retire_payload(task)?;
        self.profiles.follow(&outcome);
        Ok(outcome)
    }

    /// Retires a closed datum: its catalog name reads as empty, and
    /// its segment of the catalog and of the initial-data metadata is
    /// evacuated once few of its data are live, and dropped with the
    /// last.
    pub fn retire_data(&mut self, data: DataId) {
        let outcome = self.ap.retire_data_name(data);
        self.data_meta.follow(&outcome);
    }

    /// Summary statistics under reference durations.
    pub fn stats(&self) -> WorkloadStats {
        let g = self.ap.graph();
        let analysis = GraphAnalysis::new(g);
        let weight = |t: TaskId| self.profiles[t.index()].duration_s();
        let total: f64 = self.profiles.iter().map(|p| p.duration_s()).sum();
        let cp = analysis.critical_path(weight);
        WorkloadStats {
            tasks: g.len(),
            edges: g.edge_count(),
            data: self.ap.catalog().len(),
            total_duration_s: total,
            critical_path_s: cp.length,
            average_parallelism: if cp.length > 0.0 {
                total / cp.length
            } else {
                0.0
            },
        }
    }
}

/// A workload is the sink that materializes a source in full: prime
/// it with a window spanning everything and the whole graph lands
/// here, staged everywhere. An eager workload retires nothing, so
/// close notices are dropped.
impl ExpandSink<TaskProfile> for SimWorkload {
    fn data(&mut self, name: &str) -> DataId {
        SimWorkload::data(self, name)
    }

    fn initial_data(&mut self, name: &str, bytes: u64) -> DataId {
        SimWorkload::initial_data(self, name, bytes, None)
    }

    fn data_fmt(&mut self, name: fmt::Arguments<'_>) -> DataId {
        SimWorkload::data_fmt(self, name)
    }

    fn initial_data_fmt(&mut self, name: fmt::Arguments<'_>, bytes: u64) -> DataId {
        SimWorkload::initial_data_fmt(self, name, bytes, None)
    }

    fn submit(&mut self, spec: TaskSpec, payload: TaskProfile) -> Result<TaskId, DagError> {
        self.task(spec, payload)
    }

    fn close_data(&mut self, _data: DataId) {}
}

impl LintColumns for SimWorkload {
    fn data_count(&self) -> usize {
        self.ap.catalog().len()
    }

    fn data_name(&self, data: DataId) -> Option<&str> {
        match self.ap.catalog().name(data) {
            Ok(name) => Some(name),
            // Issued, but retired and no longer held.
            Err(_) => (data.index() < self.data_count()).then_some("?"),
        }
    }

    fn constraints_of(&self, task: TaskId) -> Option<&Constraints> {
        self.profiles
            .get(task.index())
            .map(TaskProfile::constraints_ref)
    }

    fn weight_of(&self, task: TaskId) -> Option<f64> {
        self.profiles.get(task.index()).map(TaskProfile::duration_s)
    }

    fn for_each_initial(&self, f: &mut dyn FnMut(DataId)) {
        self.initial_data_entries().for_each(|(d, _, _)| f(d));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_stats() {
        let mut w = SimWorkload::new();
        let raw = w.initial_data("raw", 100, Some(NodeId::from_raw(0)));
        let mids = w.data_batch("mid", 3);
        let out = w.data("out");
        for m in &mids {
            w.task(
                TaskSpec::new("map").input(raw).output(*m),
                TaskProfile::new(10.0),
            )
            .unwrap();
        }
        w.task(
            TaskSpec::new("reduce").inputs(mids.clone()).output(out),
            TaskProfile::new(5.0),
        )
        .unwrap();
        let s = w.stats();
        assert_eq!(s.tasks, 4);
        assert_eq!(s.edges, 3);
        assert_eq!(s.data, 5);
        assert!((s.total_duration_s - 35.0).abs() < 1e-9);
        assert!((s.critical_path_s - 15.0).abs() < 1e-9);
        assert!((s.average_parallelism - 35.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn initial_data_metadata() {
        let mut w = SimWorkload::new();
        let a = w.initial_data("a", 42, Some(NodeId::from_raw(3)));
        let b = w.initial_data("b", 7, None);
        let c = w.data("c");
        assert_eq!(w.initial_size(a), 42);
        assert_eq!(w.initial_home(a), Some(NodeId::from_raw(3)));
        assert_eq!(w.initial_size(b), 7);
        assert_eq!(w.initial_home(b), None);
        assert_eq!(w.initial_size(c), 0);
        assert_eq!(w.initial_data_entries().count(), 2);
    }

    #[test]
    fn profiles_align_with_tasks() {
        let mut w = SimWorkload::new();
        let d = w.data("d");
        let t = w
            .task(TaskSpec::new("t").output(d), TaskProfile::new(3.5))
            .unwrap();
        assert_eq!(w.profile(t).duration_s(), 3.5);
        assert_eq!(w.profiles().count(), 1);
    }
}
