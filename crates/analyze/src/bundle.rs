//! The owned, serializable form of the verifier's input.

use crate::diag::Diagnostic;
use crate::verify::{lint_nodes, LintColumns, LintNode, LintView, StreamInfo};
use continuum_dag::{DataId, TaskGraph, TaskId};
use continuum_platform::{Constraints, Platform};
use serde::{Deserialize, Serialize};

/// The owned, serializable form of a [`LintView`]: the graph, the
/// platform's nodes and the per-task metadata as plain vectors.
///
/// Its JSON form is the input format of the `continuum-lint` CLI and
/// the dump format of `experiments --dump-lint`. Verifying a bundle
/// runs the passes over [`LintBundle::view`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LintBundle {
    /// The task graph to verify.
    pub graph: TaskGraph,
    /// Data names indexed by `DataId`; missing entries render as `dN`.
    pub data_names: Vec<String>,
    /// The platform's nodes (name + capacity).
    pub nodes: Vec<LintNode>,
    /// Per-task constraints indexed by `TaskId`; missing entries use
    /// `Constraints::default()`.
    pub constraints: Vec<Constraints>,
    /// Per-task weights (estimated seconds) indexed by `TaskId`;
    /// missing entries use 1.0.
    pub weights: Vec<f64>,
    /// Data whose initial (v0) value is provided externally, so reading
    /// it without a producing task is fine.
    pub initial_data: Vec<DataId>,
    /// Declared stream channel sizings; streams without an entry use
    /// the runtime's default bounded capacity with unknown traffic.
    pub streams: Vec<StreamInfo>,
}

impl LintBundle {
    /// Creates a bundle for `graph` with no platform, default
    /// constraints/weights and no initial data.
    pub fn new(graph: TaskGraph) -> Self {
        LintBundle {
            graph,
            data_names: Vec::new(),
            nodes: Vec::new(),
            constraints: Vec::new(),
            weights: Vec::new(),
            initial_data: Vec::new(),
            streams: Vec::new(),
        }
    }

    /// Populates `nodes` from a platform description.
    pub fn with_platform(mut self, platform: &Platform) -> Self {
        self.nodes = lint_nodes(platform);
        self
    }

    /// Sets the platform nodes explicitly.
    pub fn with_nodes(mut self, nodes: Vec<LintNode>) -> Self {
        self.nodes = nodes;
        self
    }

    /// Sets per-task constraints (indexed by task id).
    pub fn with_constraints(mut self, constraints: Vec<Constraints>) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets per-task weights (indexed by task id).
    pub fn with_weights(mut self, weights: Vec<f64>) -> Self {
        self.weights = weights;
        self
    }

    /// Sets data names (indexed by data id).
    pub fn with_data_names(mut self, names: Vec<String>) -> Self {
        self.data_names = names;
        self
    }

    /// Declares data whose initial version is provided externally.
    pub fn with_initial_data(mut self, initial: Vec<DataId>) -> Self {
        self.initial_data = initial;
        self
    }

    /// Declares stream channel sizings (capacity + expected traffic).
    pub fn with_streams(mut self, streams: Vec<StreamInfo>) -> Self {
        self.streams = streams;
        self
    }

    /// The bundle as the view the passes run over.
    pub fn view(&self) -> LintView<'_> {
        LintView::new(&self.graph, self, &self.nodes[..], &self.streams)
    }

    /// Runs the full lint catalogue ([`LintView::verify`]) over this
    /// bundle.
    pub fn verify(&self) -> Vec<Diagnostic> {
        self.view().verify()
    }
}

impl LintColumns for LintBundle {
    fn data_count(&self) -> usize {
        self.data_names.len()
    }

    fn data_name(&self, data: DataId) -> Option<&str> {
        self.data_names.get(data.index()).map(String::as_str)
    }

    fn constraints_of(&self, task: TaskId) -> Option<&Constraints> {
        self.constraints.get(task.index())
    }

    fn weight_of(&self, task: TaskId) -> Option<f64> {
        self.weights.get(task.index()).copied()
    }

    fn for_each_initial(&self, f: &mut dyn FnMut(DataId)) {
        self.initial_data.iter().copied().for_each(f);
    }
}
