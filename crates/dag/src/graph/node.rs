//! The two columns a [`TaskGraph`] keeps per task — its edges and its
//! payload — [`TaskNode`], the view that reads one task across both,
//! and the graph's JSON form, one object per task.

use super::TaskGraph;
use crate::ids::{DataVersion, TaskId, VersionedData};
use crate::inline_vec::InlineVec;
use crate::param::{Direction, Param};
use crate::seg_vec::SEGMENT_SLOTS;
use crate::spec::{Params, TaskSpec};
use serde::{Deserialize, Serialize, Value};
use std::sync::OnceLock;

/// Stream edge list of a node: one entry fits inline, which covers
/// every stage of a linear pipeline.
pub(super) type IdList = InlineVec<TaskId, 1>;

/// The predecessors the access processor gathers for a new task, kept
/// in place as long as [`NodeEdges`] would keep them.
pub(super) type EdgeList = InlineVec<TaskId, EDGES_INLINE>;

/// Completion edges a [`NodeEdges`] holds in place: a stencil task's
/// three predecessors and three successors.
pub(crate) const EDGES_INLINE: usize = 6;

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

/// One slot of a graph's structure column: a task's completion and
/// stream edges — all an engine walks once the task is submitted. The
/// slot's index is the task's id.
#[derive(Debug, Clone)]
pub struct NodeEdges(Edges);

/// The two forms of a [`NodeEdges`]. Completion edges are kept
/// predecessors first, then successors as later tasks add them.
#[derive(Debug, Clone)]
enum Edges {
    /// Up to [`EDGES_INLINE`] completion edges and no stream edge.
    Inline {
        /// Live edges in `buf`; the rest is filler.
        len: u8,
        /// How many of the live edges are predecessors.
        preds: u8,
        buf: [TaskId; EDGES_INLINE],
    },
    /// More completion edges than fit in place, or any stream edge.
    Heap {
        /// How many of `adjacent` are predecessors.
        preds: u32,
        adjacent: Vec<TaskId>,
        streams: Option<Box<StreamEdges>>,
    },
}

impl NodeEdges {
    /// A task with no edges.
    fn empty() -> Self {
        NodeEdges(Edges::Inline {
            len: 0,
            preds: 0,
            buf: [TaskId::default(); EDGES_INLINE],
        })
    }

    /// A new task's edges: its completion and stream predecessors.
    pub(super) fn new(preds: EdgeList, stream_preds: IdList) -> Self {
        let streams = (!stream_preds.is_empty()).then(|| {
            Box::new(StreamEdges {
                preds: stream_preds,
                succs: IdList::new(),
            })
        });
        Self::with_streams(preds, streams)
    }

    /// A task's edges as its predecessors and stream edges give them;
    /// its successors are pushed after.
    fn with_streams(preds: EdgeList, streams: Option<Box<StreamEdges>>) -> Self {
        let count = preds.len();
        match (preds, streams) {
            (InlineVec::Inline { len, buf }, None) => NodeEdges(Edges::Inline {
                len,
                preds: len,
                buf,
            }),
            (InlineVec::Inline { len, buf }, streams) => NodeEdges(Edges::Heap {
                preds: u32::from(len),
                adjacent: buf[..usize::from(len)].to_vec(),
                streams,
            }),
            (InlineVec::Heap(adjacent), streams) => NodeEdges(Edges::Heap {
                preds: count as u32,
                adjacent,
                streams,
            }),
        }
    }

    /// Appends a completion successor.
    #[inline]
    pub(super) fn push_successor(&mut self, id: TaskId) {
        match &mut self.0 {
            Edges::Inline { len, buf, .. } if usize::from(*len) < EDGES_INLINE => {
                buf[usize::from(*len)] = id;
                *len += 1;
            }
            Edges::Inline { preds, buf, .. } => {
                let mut adjacent = Vec::with_capacity(2 * EDGES_INLINE);
                adjacent.extend_from_slice(buf);
                adjacent.push(id);
                self.0 = Edges::Heap {
                    preds: u32::from(*preds),
                    adjacent,
                    streams: None,
                };
            }
            Edges::Heap { adjacent, .. } => adjacent.push(id),
        }
    }

    /// Appends a stream successor, moving the completion edges out of
    /// place if they are still there.
    pub(super) fn push_stream_successor(&mut self, id: TaskId) {
        match &mut self.0 {
            Edges::Heap { streams, .. } => streams.get_or_insert_with(Box::default).succs.push(id),
            Edges::Inline { len, preds, buf } => {
                let streams = StreamEdges {
                    preds: IdList::new(),
                    succs: [id].into_iter().collect(),
                };
                self.0 = Edges::Heap {
                    preds: u32::from(*preds),
                    adjacent: buf[..usize::from(*len)].to_vec(),
                    streams: Some(Box::new(streams)),
                };
            }
        }
    }

    #[inline]
    pub(super) fn predecessors(&self) -> &[TaskId] {
        match &self.0 {
            Edges::Inline { preds, buf, .. } => &buf[..usize::from(*preds)],
            Edges::Heap {
                preds, adjacent, ..
            } => &adjacent[..*preds as usize],
        }
    }

    #[inline]
    pub(super) fn successors(&self) -> &[TaskId] {
        match &self.0 {
            Edges::Inline { len, preds, buf } => &buf[usize::from(*preds)..usize::from(*len)],
            Edges::Heap {
                preds, adjacent, ..
            } => &adjacent[*preds as usize..],
        }
    }

    /// Drops every edge, completion and stream.
    pub(super) fn clear(&mut self) {
        *self = NodeEdges::empty();
    }

    pub(super) fn streams(&self) -> Option<&StreamEdges> {
        match &self.0 {
            Edges::Heap {
                streams: Some(streams),
                ..
            } => Some(streams),
            _ => None,
        }
    }

    pub(super) fn stream_predecessors(&self) -> &[TaskId] {
        self.streams().map_or(&[], |s| &s.preds)
    }

    pub(super) fn stream_successors(&self) -> &[TaskId] {
        self.streams().map_or(&[], |s| &s.succs)
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
    params: Params<'g>,
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
    pub(super) id: TaskId,
    pub(super) edges: &'g NodeEdges,
    pub(super) payload: &'g NodePayload,
    pub(super) listed: Option<&'g Listed>,
}

impl<'g> TaskNode<'g> {
    /// The task's id.
    pub fn id(self) -> TaskId {
        self.id
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
            Some(listed) => (Params::of(&listed.params), &listed.versions[..]),
            None => (self.payload.spec.params(), &self.payload.versions[..]),
        };
        AccessList {
            params,
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
    /// The view of the held structure slot at `index`, with its
    /// payload if that is still held.
    pub(super) fn view<'g>(&'g self, index: usize, edges: &'g NodeEdges) -> TaskNode<'g> {
        let payload = match self.payload.get(index) {
            Some(payload) => payload,
            None => NodePayload::retired(),
        };
        let listed = self.listed.get(&index);
        TaskNode {
            id: TaskId(index as u64),
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
            ("id".to_string(), self.id.to_json_value()),
            ("spec".to_string(), payload.spec.to_json_value()),
            ("preds".to_string(), edges.predecessors().to_json_value()),
            ("succs".to_string(), edges.successors().to_json_value()),
            ("streams".to_string(), edges.streams().to_json_value()),
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
            let mut edges = NodeEdges::with_streams(preds, streams);
            for succ in succs {
                edges.push_successor(succ);
            }
            graph.edges.push(edges);
            graph.payload.push(NodePayload { spec, versions });
        }
        Some(graph)
    }
}
