//! The two columns a [`TaskGraph`] keeps per task — its edges and its
//! payload — [`TaskNode`], the view that reads one task across both,
//! and the graph's JSON form, one object per task.

use super::TaskGraph;
use crate::ids::{DataVersion, TaskId, VersionedData};
use crate::inline_vec::InlineVec;
use crate::param::{Direction, Param};
use crate::seg_vec::SEGMENT_SLOTS;
use crate::spec::TaskSpec;
use serde::{Deserialize, Serialize, Value};
use std::sync::OnceLock;

/// Stream edge list of a node: one entry fits inline, which covers
/// every stage of a linear pipeline.
pub(super) type IdList = InlineVec<TaskId, 1>;

/// A node's completion edges, predecessors then successors: a chain
/// stage's one of each stays inline, and so do a stencil task's three
/// predecessors until its first successor arrives.
pub(super) type EdgeList = InlineVec<TaskId, EDGES_INLINE>;

/// Edges an [`EdgeList`] holds in place, in the 32 bytes it takes.
pub(crate) const EDGES_INLINE: usize = 3;

/// One version per parameter of a task's spec: the version an `In` or
/// `InOut` parameter reads, the version an `Out` parameter writes
/// (nothing for a stream end). Seven fit in the 32 bytes it takes.
pub(super) type VersionList = InlineVec<DataVersion, 7>;

/// First-element (stream) edges of a task. Boxed on the node because
/// most tasks have none.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(super) struct StreamEdges {
    /// Producers of streams this task consumes. Unlike completion
    /// predecessors, these edges release at the producer's *first
    /// element* (or completion, whichever comes first).
    pub(super) preds: IdList,
    /// Consumers of streams this task produces.
    pub(super) succs: IdList,
}

/// One slot of a graph's structure column: a task's id and its
/// completion and stream edges — all an engine walks once the task
/// is submitted.
#[derive(Debug, Clone)]
pub struct NodeEdges {
    pub(super) id: TaskId,
    /// Completion predecessors, then successors as later tasks add
    /// them.
    pub(super) adjacent: EdgeList,
    /// How many of `adjacent` are predecessors.
    pub(super) preds: u32,
    pub(super) streams: Option<Box<StreamEdges>>,
}

impl NodeEdges {
    pub(super) fn new(id: TaskId, preds: EdgeList, streams: Option<Box<StreamEdges>>) -> Self {
        NodeEdges {
            id,
            preds: preds.len() as u32,
            adjacent: preds,
            streams,
        }
    }

    pub(super) fn predecessors(&self) -> &[TaskId] {
        &self.adjacent[..self.preds as usize]
    }

    pub(super) fn successors(&self) -> &[TaskId] {
        &self.adjacent[self.preds as usize..]
    }

    /// Drops every edge, completion and stream.
    pub(super) fn clear(&mut self) {
        self.adjacent.clear();
        self.preds = 0;
        self.streams = None;
    }

    pub(super) fn stream_predecessors(&self) -> &[TaskId] {
        self.streams.as_ref().map_or(&[], |s| &s.preds)
    }

    pub(super) fn stream_successors(&self) -> &[TaskId] {
        self.streams.as_ref().map_or(&[], |s| &s.succs)
    }

    pub(super) fn streams_mut(&mut self) -> &mut StreamEdges {
        self.streams.get_or_insert_with(Box::default)
    }
}

/// One slot of a graph's payload column: a task's spec and the
/// versions its parameters resolved to — what the engine reads to set
/// a task up, and a lazily built graph to place and cost it.
#[derive(Debug, Clone)]
pub struct NodePayload {
    pub(super) spec: TaskSpec,
    pub(super) versions: VersionList,
}

impl Default for NodePayload {
    fn default() -> Self {
        NodePayload {
            spec: TaskSpec::new(""),
            versions: VersionList::new(),
        }
    }
}

impl NodePayload {
    /// What a task whose payload is gone reads: an empty spec and
    /// empty lists.
    pub(super) fn retired() -> &'static NodePayload {
        static RETIRED: OnceLock<NodePayload> = OnceLock::new();
        RETIRED.get_or_init(NodePayload::default)
    }
}

/// The accesses a graph's JSON form lists for a task whose spec does
/// not resolve to them — a dump edited by hand or corrupted, which the
/// verifier still reads as written: its reads as `In` parameters, then
/// its writes as `Out` ones, each beside its version. Graphs the access
/// processor builds have none.
#[derive(Debug, Clone)]
pub(super) struct Listed {
    params: Vec<Param>,
    versions: Vec<DataVersion>,
}

impl Listed {
    fn new(consumed: &[VersionedData], produced: &[VersionedData]) -> Self {
        let reads = consumed
            .iter()
            .map(|vd| (Param::input(vd.data), vd.version));
        let writes = produced
            .iter()
            .map(|vd| (Param::output(vd.data), vd.version));
        let (params, versions) = reads.chain(writes).unzip();
        Listed { params, versions }
    }
}

/// One of a task's two access lists, read off its parameters and their
/// versions: the data it reads, or the data it writes.
#[derive(Clone)]
struct AccessList<'g> {
    params: std::slice::Iter<'g, Param>,
    versions: std::slice::Iter<'g, DataVersion>,
    writes: bool,
}

impl Iterator for AccessList<'_> {
    type Item = VersionedData;

    #[inline]
    fn next(&mut self) -> Option<VersionedData> {
        loop {
            let (param, &version) = (self.params.next()?, self.versions.next()?);
            // A parameter's version is what it reads, or what an `Out`
            // writes; an `InOut` writes the one after what it read.
            let version = match (self.writes, param.direction) {
                (false, Direction::In | Direction::InOut) => version,
                (true, Direction::Out) => version,
                (true, Direction::InOut) => version.next(),
                _ => continue,
            };
            return Some(VersionedData::new(param.data, version));
        }
    }

    /// Exact, by counting what is left: `collect` and `extend` then
    /// size their buffer once, as they did for a slice.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.clone().count();
        (left, Some(left))
    }
}

impl ExactSizeIterator for AccessList<'_> {}

/// One task of a graph, read across its edges and its payload: its
/// spec, dependency wiring and data accesses. A task whose payload
/// was retired reads an empty spec and empty access lists; one retired
/// in full reads no edges either.
#[derive(Debug, Clone, Copy)]
pub struct TaskNode<'g> {
    pub(super) edges: &'g NodeEdges,
    pub(super) payload: &'g NodePayload,
    pub(super) listed: Option<&'g Listed>,
}

impl<'g> TaskNode<'g> {
    /// The task's id.
    pub fn id(self) -> TaskId {
        self.edges.id
    }

    /// The task's spec (name, parameter accesses).
    pub fn spec(self) -> &'g TaskSpec {
        &self.payload.spec
    }

    /// Direct predecessors (tasks this one depends on).
    pub fn predecessors(self) -> &'g [TaskId] {
        self.edges.predecessors()
    }

    /// Direct successors (tasks depending on this one).
    pub fn successors(self) -> &'g [TaskId] {
        self.edges.successors()
    }

    /// The spec's parameters and their versions (or what the JSON form
    /// listed instead), as the reads or the writes.
    #[inline]
    fn access_list(self, writes: bool) -> AccessList<'g> {
        let (params, versions) = match self.listed {
            Some(listed) => (&listed.params[..], &listed.versions[..]),
            None => (self.payload.spec.params(), &self.payload.versions[..]),
        };
        AccessList {
            params: params.iter(),
            versions: versions.iter(),
            writes,
        }
    }

    /// Versioned data this task reads, in declaration order.
    #[inline]
    pub fn consumed(self) -> impl ExactSizeIterator<Item = VersionedData> + Clone + 'g {
        self.access_list(false)
    }

    /// Versioned data this task produces, in declaration order.
    #[inline]
    pub fn produced(self) -> impl ExactSizeIterator<Item = VersionedData> + Clone + 'g {
        self.access_list(true)
    }

    /// Producers of streams this task consumes (first-element edges).
    pub fn stream_predecessors(self) -> &'g [TaskId] {
        self.edges.stream_predecessors()
    }

    /// Consumers of streams this task produces.
    pub fn stream_successors(self) -> &'g [TaskId] {
        self.edges.stream_successors()
    }
}

impl TaskGraph {
    /// The view of a held structure slot, with its payload if that is
    /// still held.
    pub(super) fn view<'g>(&'g self, edges: &'g NodeEdges) -> TaskNode<'g> {
        let payload = match self.payload.get(edges.id.index()) {
            Some(payload) => payload,
            None => NodePayload::retired(),
        };
        let listed = self.listed.get(&edges.id.index());
        TaskNode {
            edges,
            payload,
            listed,
        }
    }
}

/// One JSON object per task, fields in the order the graph has always
/// written them, whichever column holds each.
impl Serialize for TaskNode<'_> {
    fn to_json_value(&self) -> Value {
        let (edges, payload) = (self.edges, self.payload);
        Value::Obj(vec![
            ("id".to_string(), edges.id.to_json_value()),
            ("spec".to_string(), payload.spec.to_json_value()),
            ("preds".to_string(), edges.predecessors().to_json_value()),
            ("succs".to_string(), edges.successors().to_json_value()),
            ("streams".to_string(), edges.streams.to_json_value()),
            ("consumed".to_string(), list(self.consumed())),
            ("produced".to_string(), list(self.produced())),
        ])
    }
}

/// An access list as the JSON form writes it.
fn list(data: impl Iterator<Item = VersionedData>) -> Value {
    Value::Arr(data.map(|vd| vd.to_json_value()).collect())
}

/// A task as JSON holds it, read back whole before it is split into
/// its two columns.
#[derive(Deserialize)]
struct NodeWire {
    id: TaskId,
    spec: TaskSpec,
    preds: EdgeList,
    succs: Vec<TaskId>,
    streams: Option<Box<StreamEdges>>,
    consumed: Vec<VersionedData>,
    produced: Vec<VersionedData>,
}

/// The version of each parameter of `spec`, read off the lists the
/// JSON form writes; `None` unless they are exactly what the spec's
/// accesses resolve to (a node whose lists are not keeps them as
/// [`Listed`]).
fn versions_of(
    spec: &TaskSpec,
    consumed: &[VersionedData],
    produced: &[VersionedData],
) -> Option<VersionList> {
    let (mut reads, mut writes) = (consumed.iter(), produced.iter());
    let mut versions = VersionList::with_capacity(spec.params().len());
    for param in spec.params() {
        let next = |list: &mut std::slice::Iter<'_, VersionedData>| {
            list.next()
                .filter(|vd| vd.data == param.data)
                .map(|vd| vd.version)
        };
        let version = match param.direction {
            Direction::In | Direction::InOut => next(&mut reads)?,
            Direction::Out => next(&mut writes)?,
            Direction::Stream(_) => DataVersion::INITIAL,
        };
        if param.direction == Direction::InOut {
            let wrote = next(&mut writes)?.as_u32();
            if version.as_u32().checked_add(1) != Some(wrote) {
                return None;
            }
        }
        versions.push(version);
    }
    (reads.len() == 0 && writes.len() == 0).then_some(versions)
}

/// Writes `{"nodes": [...]}`, one object per task in id order. As for
/// a [`SegVec`](crate::SegVec), that form has no place for a gap: serializing a graph
/// that dropped or evacuated a structure segment is a logic error and
/// panics.
impl Serialize for TaskGraph {
    fn to_json_value(&self) -> Value {
        let segments = self.edges.len().div_ceil(SEGMENT_SLOTS);
        assert!(
            self.edges.resident_segments() == segments,
            "a graph that dropped or evacuated a segment has no serde form ({} of {segments} segments resident)",
            self.edges.resident_segments(),
        );
        let nodes = self.nodes().map(|n| n.to_json_value()).collect();
        Value::Obj(vec![("nodes".to_string(), Value::Arr(nodes))])
    }
}

/// Reads back what `Serialize` wrote, access lists that disagree with
/// their spec included, refusing a graph whose node at
/// position *i* does not carry id *i*: every table indexed by task id —
/// the graph's own, a run's, the verifier's — would otherwise attribute
/// that node's edges and accesses to another task, or to none.
impl Deserialize for TaskGraph {
    fn from_json_value(value: &Value) -> Option<Self> {
        let mut graph = TaskGraph::new();
        for (i, value) in value.get("nodes")?.as_arr()?.iter().enumerate() {
            let NodeWire {
                id,
                spec,
                preds,
                succs,
                streams,
                consumed,
                produced,
            } = NodeWire::from_json_value(value)?;
            if id.index() != i {
                return None;
            }
            let versions = versions_of(&spec, &consumed, &produced).unwrap_or_else(|| {
                let listed = Listed::new(&consumed, &produced);
                graph.listed.insert(i, listed);
                VersionList::new()
            });
            let mut edges = NodeEdges::new(id, preds, streams);
            edges.adjacent.extend(succs);
            graph.edges.push(edges);
            graph.payload.push(NodePayload { spec, versions });
        }
        Some(graph)
    }
}
