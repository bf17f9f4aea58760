//! The two columns a [`TaskGraph`] keeps per task — its edges and its
//! payload — [`TaskNode`], the view that reads one task across both,
//! and the graph's JSON form, one object per task.

use super::TaskGraph;
use crate::ids::{TaskId, VersionedData};
use crate::inline_vec::InlineVec;
use crate::seg_vec::SEGMENT_SLOTS;
use crate::spec::TaskSpec;
use serde::{Deserialize, Serialize, Value};
use std::sync::OnceLock;

/// Dependency and access lists of a node: one entry fits inline, which
/// covers every stage of a linear pipeline.
pub(super) type IdList = InlineVec<TaskId, 1>;
pub(super) type ValueList = InlineVec<VersionedData, 1>;

/// First-element (stream) edges of a task. Boxed on the node because
/// most tasks have none.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(super) struct StreamEdges {
    /// Producers of streams this task consumes. Unlike `preds`, these
    /// edges release at the producer's *first element* (or completion,
    /// whichever comes first), not at completion.
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
    pub(super) preds: IdList,
    pub(super) succs: IdList,
    pub(super) streams: Option<Box<StreamEdges>>,
}

impl NodeEdges {
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
/// versions its reads and writes resolved to — what the engine reads
/// to set a task up, and a lazily built graph to place and cost it.
#[derive(Debug, Clone)]
pub struct NodePayload {
    pub(super) spec: TaskSpec,
    pub(super) consumed: ValueList,
    pub(super) produced: ValueList,
}

impl Default for NodePayload {
    fn default() -> Self {
        NodePayload {
            spec: TaskSpec::new(""),
            consumed: ValueList::new(),
            produced: ValueList::new(),
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

/// One task of a graph, read across its edges and its payload: its
/// spec, dependency wiring and data accesses. A task whose payload
/// was retired reads an empty spec and empty access lists; one retired
/// in full reads no edges either.
#[derive(Debug, Clone, Copy)]
pub struct TaskNode<'g> {
    pub(super) edges: &'g NodeEdges,
    pub(super) payload: &'g NodePayload,
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
        &self.edges.preds
    }

    /// Direct successors (tasks depending on this one).
    pub fn successors(self) -> &'g [TaskId] {
        &self.edges.succs
    }

    /// Versioned data this task reads.
    pub fn consumed(self) -> &'g [VersionedData] {
        &self.payload.consumed
    }

    /// Versioned data this task produces.
    pub fn produced(self) -> &'g [VersionedData] {
        &self.payload.produced
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

/// One JSON object per task, fields in the order the graph has always
/// written them, whichever column holds each.
impl Serialize for TaskNode<'_> {
    fn to_json_value(&self) -> Value {
        let (edges, payload) = (self.edges, self.payload);
        Value::Obj(vec![
            ("id".to_string(), edges.id.to_json_value()),
            ("spec".to_string(), payload.spec.to_json_value()),
            ("preds".to_string(), edges.preds.to_json_value()),
            ("succs".to_string(), edges.succs.to_json_value()),
            ("streams".to_string(), edges.streams.to_json_value()),
            ("consumed".to_string(), payload.consumed.to_json_value()),
            ("produced".to_string(), payload.produced.to_json_value()),
        ])
    }
}

/// A task as JSON holds it, read back whole before it is split into
/// its two columns.
#[derive(Deserialize)]
struct NodeWire {
    id: TaskId,
    spec: TaskSpec,
    preds: IdList,
    succs: IdList,
    streams: Option<Box<StreamEdges>>,
    consumed: ValueList,
    produced: ValueList,
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

/// Reads back what `Serialize` wrote, refusing a graph whose node at
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
            graph.edges.push(NodeEdges {
                id,
                preds,
                succs,
                streams,
            });
            graph.payload.push(NodePayload {
                spec,
                consumed,
                produced,
            });
        }
        Some(graph)
    }
}
