//! Task specifications submitted to the access processor.

use crate::ids::DataId;
use crate::label::Label;
use crate::param::{Direction, Param, StreamRole};
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::iter::{FusedIterator, Zip};
use std::slice;

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
/// ([`Label::shared`]). Up to four parameters live inline, so a pipeline
/// stage (one input, one output) and a stencil task (three inputs, one
/// output) build their spec without touching the heap.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSpec {
    name: Label,
    params: ParamList,
    /// Free-form label used for grouping in reports and DOT output.
    group: Option<Label>,
}

impl TaskSpec {
    /// Creates a task spec with the given task-type name and no
    /// parameters.
    pub fn new(name: impl Into<Label>) -> Self {
        TaskSpec {
            name: name.into(),
            params: ParamList::new(),
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
    #[inline]
    pub fn params(&self) -> Params<'_> {
        self.params.iter()
    }

    /// Iterates over the data the task reads.
    pub fn reads(&self) -> impl Iterator<Item = DataId> + '_ {
        self.params()
            .filter(|p| p.direction.reads())
            .map(|p| p.data)
    }

    /// Iterates over the data the task writes.
    pub fn writes(&self) -> impl Iterator<Item = DataId> + '_ {
        self.params()
            .filter(|p| p.direction.writes())
            .map(|p| p.data)
    }

    /// Iterates over the streams the task consumes.
    pub fn stream_reads(&self) -> impl Iterator<Item = DataId> + '_ {
        self.params()
            .filter(|p| p.direction == Direction::Stream(StreamRole::Consume))
            .map(|p| p.data)
    }

    /// Iterates over the streams the task produces.
    pub fn stream_writes(&self) -> impl Iterator<Item = DataId> + '_ {
        self.params()
            .filter(|p| p.direction == Direction::Stream(StreamRole::Produce))
            .map(|p| p.data)
    }
}

/// Parameters a [`ParamList`] holds in place.
const PARAMS_INLINE: usize = 4;

/// A spec's parameter accesses. A [`Param`] is 16 bytes only because
/// its one-byte direction pads its eight-byte datum, so the inline form
/// keeps the data and the directions in two arrays: four parameters in
/// the 40 bytes that two `Param`s took. Past four, the list moves to
/// one `Vec` of `Param`s.
#[derive(Clone)]
enum ParamList {
    /// Up to [`PARAMS_INLINE`] parameters; entries past `len` are
    /// filler.
    Inline {
        len: u8,
        dirs: [Direction; PARAMS_INLINE],
        ids: [DataId; PARAMS_INLINE],
    },
    /// More than [`PARAMS_INLINE`] parameters were pushed at some point.
    Heap(Vec<Param>),
}

impl ParamList {
    fn new() -> Self {
        ParamList::Inline {
            len: 0,
            dirs: [Direction::default(); PARAMS_INLINE],
            ids: [DataId::default(); PARAMS_INLINE],
        }
    }

    #[inline]
    fn iter(&self) -> Params<'_> {
        match self {
            ParamList::Inline { len, dirs, ids } => {
                let len = *len as usize;
                Params(Cursor::Split(ids[..len].iter().zip(&dirs[..len])))
            }
            ParamList::Heap(params) => Params::of(params),
        }
    }

    fn push(&mut self, param: Param) {
        match self {
            ParamList::Inline { len, dirs, ids } if (*len as usize) < PARAMS_INLINE => {
                ids[*len as usize] = param.data;
                dirs[*len as usize] = param.direction;
                *len += 1;
            }
            ParamList::Inline { .. } => {
                self.spill(2 * PARAMS_INLINE);
                self.push(param);
            }
            ParamList::Heap(params) => params.push(param),
        }
    }

    /// Appends every parameter of `params`; one that knows its length
    /// past the inline slots sizes the heap block in one step.
    fn extend<I: IntoIterator<Item = Param>>(&mut self, params: I) {
        let params = params.into_iter();
        let wanted = self.iter().len() + params.size_hint().0;
        if wanted > PARAMS_INLINE {
            self.spill(wanted);
        }
        for param in params {
            self.push(param);
        }
    }

    /// Moves the list to a heap block with room for `capacity`.
    fn spill(&mut self, capacity: usize) {
        match self {
            ParamList::Inline { .. } => {
                let mut params = Vec::with_capacity(capacity);
                params.extend(self.iter());
                *self = ParamList::Heap(params);
            }
            ParamList::Heap(params) => params.reserve(capacity.saturating_sub(params.len())),
        }
    }
}

impl fmt::Debug for ParamList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for ParamList {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for ParamList {}

/// A plain array of parameters, whichever form holds them.
impl Serialize for ParamList {
    fn to_json_value(&self) -> Value {
        Value::Arr(self.iter().map(|p| p.to_json_value()).collect())
    }
}

impl Deserialize for ParamList {
    fn from_json_value(value: &Value) -> Option<Self> {
        let mut params = ParamList::new();
        params.extend(Vec::<Param>::from_json_value(value)?);
        Some(params)
    }
}

/// The parameters of a [`TaskSpec`], in declaration order (see
/// [`TaskSpec::params`]).
#[derive(Debug, Clone)]
pub struct Params<'a>(Cursor<'a>);

#[derive(Debug, Clone)]
enum Cursor<'a> {
    /// Over the two inline arrays.
    Split(Zip<slice::Iter<'a, DataId>, slice::Iter<'a, Direction>>),
    /// Over a list of whole parameters.
    Whole(slice::Iter<'a, Param>),
}

impl<'a> Params<'a> {
    /// The parameters of a plain list.
    pub(crate) fn of(params: &'a [Param]) -> Self {
        Params(Cursor::Whole(params.iter()))
    }
}

impl Iterator for Params<'_> {
    type Item = Param;

    #[inline]
    fn next(&mut self) -> Option<Param> {
        match &mut self.0 {
            Cursor::Split(it) => it
                .next()
                .map(|(&data, &direction)| Param { data, direction }),
            Cursor::Whole(it) => it.next().copied(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            Cursor::Split(it) => it.size_hint(),
            Cursor::Whole(it) => it.size_hint(),
        }
    }

    #[inline]
    fn nth(&mut self, n: usize) -> Option<Param> {
        match &mut self.0 {
            Cursor::Split(it) => it
                .nth(n)
                .map(|(&data, &direction)| Param { data, direction }),
            Cursor::Whole(it) => it.nth(n).copied(),
        }
    }
}

impl ExactSizeIterator for Params<'_> {}

impl FusedIterator for Params<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_params_in_order() {
        let a = DataId::from_raw(0);
        let b = DataId::from_raw(1);
        let c = DataId::from_raw(2);
        let spec = TaskSpec::new("t").input(a).inout(b).output(c);
        let dirs: Vec<Direction> = spec.params().map(|p| p.direction).collect();
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
