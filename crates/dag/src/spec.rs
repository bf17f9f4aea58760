//! Task specifications submitted to the access processor.

use crate::ids::DataId;
use crate::inline_vec::InlineVec;
use crate::label::Label;
use crate::param::{Direction, Param};
use serde::{Deserialize, Serialize};

/// Declarative description of a task submission: a name (the task
/// *type*, e.g. `"impute"`) plus the ordered list of parameter
/// accesses.
///
/// `TaskSpec` deliberately carries only the information needed for
/// dependency detection; execution concerns (resource constraints, cost
/// models, bodies) are attached by the runtime layer, keeping this crate
/// free of platform dependencies.
///
/// # Example
///
/// ```
/// use continuum_dag::{TaskSpec, Direction, DataId};
///
/// let a = DataId::from_raw(0);
/// let b = DataId::from_raw(1);
/// let spec = TaskSpec::new("transform").input(a).output(b);
/// assert_eq!(spec.name(), "transform");
/// assert_eq!(spec.params().len(), 2);
/// ```
///
/// Names and group labels are [`Label`]s: the usual string literal
/// costs nothing to store or copy, a computed `String` is kept as it
/// is, and a name many tasks share can be interned once
/// ([`Label::shared`]). Up to two parameters live inline, so a typical
/// pipeline stage (one input, one output) builds its spec without
/// touching the heap.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSpec {
    name: Label,
    params: InlineVec<Param, 2>,
    /// Free-form label used for grouping in reports and DOT output.
    group: Option<Label>,
}

impl TaskSpec {
    /// Creates a task spec with the given task-type name and no
    /// parameters.
    pub fn new(name: impl Into<Label>) -> Self {
        TaskSpec {
            name: name.into(),
            params: InlineVec::new(),
            group: None,
        }
    }

    /// Adds a read-only parameter.
    pub fn input(mut self, data: DataId) -> Self {
        self.params.push(Param::input(data));
        self
    }

    /// Adds a write-only parameter.
    pub fn output(mut self, data: DataId) -> Self {
        self.params.push(Param::output(data));
        self
    }

    /// Adds a read-write parameter.
    pub fn inout(mut self, data: DataId) -> Self {
        self.params.push(Param::inout(data));
        self
    }

    /// Adds a parameter with an explicit direction.
    pub fn param(mut self, data: DataId, direction: Direction) -> Self {
        self.params.push(Param::new(data, direction));
        self
    }

    /// Adds the writing end of a streamed parameter.
    pub fn stream_out(mut self, data: DataId) -> Self {
        self.params.push(Param::stream_write(data));
        self
    }

    /// Adds the reading end of a streamed parameter.
    pub fn stream_in(mut self, data: DataId) -> Self {
        self.params.push(Param::stream_read(data));
        self
    }

    /// Adds many read-only parameters at once.
    pub fn inputs<I: IntoIterator<Item = DataId>>(mut self, data: I) -> Self {
        self.params.extend(data.into_iter().map(Param::input));
        self
    }

    /// Adds many write-only parameters at once.
    pub fn outputs<I: IntoIterator<Item = DataId>>(mut self, data: I) -> Self {
        self.params.extend(data.into_iter().map(Param::output));
        self
    }

    /// Adds many parameters at once, each with its own direction. An
    /// iterator that knows its length sizes the list in one step.
    pub fn params_from<I: IntoIterator<Item = Param>>(mut self, params: I) -> Self {
        self.params.extend(params);
        self
    }

    /// Sets a grouping label (e.g. workflow phase) used by reports.
    pub fn group(mut self, group: impl Into<Label>) -> Self {
        self.group = Some(group.into());
        self
    }

    /// The task-type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task-type name as the label it is stored as, for copying
    /// into telemetry events.
    pub fn name_label(&self) -> &Label {
        &self.name
    }

    /// The grouping label, if any.
    pub fn group_label(&self) -> Option<&str> {
        self.group.as_deref()
    }

    /// The declared parameter accesses, in declaration order.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Iterates over the data the task reads.
    pub fn reads(&self) -> impl Iterator<Item = DataId> + '_ {
        self.params
            .iter()
            .filter(|p| p.direction.reads())
            .map(|p| p.data)
    }

    /// Iterates over the data the task writes.
    pub fn writes(&self) -> impl Iterator<Item = DataId> + '_ {
        self.params
            .iter()
            .filter(|p| p.direction.writes())
            .map(|p| p.data)
    }

    /// Iterates over the streams the task consumes.
    pub fn stream_reads(&self) -> impl Iterator<Item = DataId> + '_ {
        self.params
            .iter()
            .filter(|p| p.direction == Direction::Stream(crate::param::StreamRole::Consume))
            .map(|p| p.data)
    }

    /// Iterates over the streams the task produces.
    pub fn stream_writes(&self) -> impl Iterator<Item = DataId> + '_ {
        self.params
            .iter()
            .filter(|p| p.direction == Direction::Stream(crate::param::StreamRole::Produce))
            .map(|p| p.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_params_in_order() {
        let a = DataId::from_raw(0);
        let b = DataId::from_raw(1);
        let c = DataId::from_raw(2);
        let spec = TaskSpec::new("t").input(a).inout(b).output(c);
        let dirs: Vec<Direction> = spec.params().iter().map(|p| p.direction).collect();
        assert_eq!(dirs, vec![Direction::In, Direction::InOut, Direction::Out]);
    }

    #[test]
    fn reads_and_writes_follow_directions() {
        let a = DataId::from_raw(0);
        let b = DataId::from_raw(1);
        let c = DataId::from_raw(2);
        let spec = TaskSpec::new("t").input(a).inout(b).output(c);
        let reads: Vec<DataId> = spec.reads().collect();
        let writes: Vec<DataId> = spec.writes().collect();
        assert_eq!(reads, vec![a, b]);
        assert_eq!(writes, vec![b, c]);
    }

    #[test]
    fn bulk_builders() {
        let ids: Vec<DataId> = (0..3).map(DataId::from_raw).collect();
        let spec = TaskSpec::new("t")
            .inputs(ids.iter().copied())
            .outputs([DataId::from_raw(9)]);
        assert_eq!(spec.params().len(), 4);
        assert_eq!(spec.writes().count(), 1);
    }

    #[test]
    fn stream_builders_and_iterators() {
        let s = DataId::from_raw(0);
        let t = DataId::from_raw(1);
        let spec = TaskSpec::new("stage").stream_in(s).stream_out(t);
        assert_eq!(spec.stream_reads().collect::<Vec<_>>(), vec![s]);
        assert_eq!(spec.stream_writes().collect::<Vec<_>>(), vec![t]);
        // Stream params are invisible to the versioned read/write views.
        assert_eq!(spec.reads().count(), 0);
        assert_eq!(spec.writes().count(), 0);
    }

    #[test]
    fn group_label() {
        let spec = TaskSpec::new("t").group("phase1");
        assert_eq!(spec.group_label(), Some("phase1"));
        assert_eq!(TaskSpec::new("t").group_label(), None);
    }
}
