//! Task graphs, data versioning and the access processor for the
//! `continuum` workflow environment.
//!
//! This crate implements the dependency-detection core of a task-based
//! workflow runtime in the style of COMPSs/PyCOMPSs (Badia et al.,
//! *Workflow Environments for Advanced Cyberinfrastructure Platforms*,
//! ICDCS 2019): applications submit *tasks* that declare how they access
//! their parameters ([`Direction::In`], [`Direction::Out`],
//! [`Direction::InOut`]) and the [`AccessProcessor`] derives the task
//! dependency graph on the fly using data versioning, exactly like the
//! *AP* component of the COMPSs runtime.
//!
//! The produced [`TaskGraph`] holds no run state; a [`GraphRun`] over
//! it tracks the task lifecycle and the ready set for dynamic
//! scheduling, and [`GraphAnalysis`] the static analyses (levels,
//! critical path, bottom levels) needed by baseline schedulers such as
//! HEFT.
//!
//! # Example
//!
//! ```
//! use continuum_dag::{AccessProcessor, GraphRun, TaskSpec};
//!
//! let mut ap = AccessProcessor::new();
//! let matrix = ap.new_data("matrix");
//! let stats = ap.new_data("stats");
//!
//! // Producer writes `matrix`, consumer reads it and writes `stats`.
//! let gen = ap.register(TaskSpec::new("generate").output(matrix))?;
//! let red = ap.register(
//!     TaskSpec::new("reduce").input(matrix).output(stats),
//! )?;
//!
//! let graph = ap.graph();
//! assert!(graph.predecessors(red).contains(&gen));
//! assert!(GraphRun::new(graph).ready_tasks().contains(&gen));
//! # Ok::<(), continuum_dag::DagError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod access;
mod analysis;
mod dot;
mod error;
mod graph;
mod ids;
mod inline_vec;
mod label;
mod param;
mod ready;
mod seg_vec;
mod source;
mod spec;

pub use access::{AccessProcessor, DataCatalog, StreamEndpoints, VersionInfo};
pub use analysis::{CriticalPath, GraphAnalysis, LevelStats};
pub use dot::DotOptions;
pub use error::DagError;
pub use graph::{GraphRun, NodeEdges, NodePayload, TaskGraph, TaskNode, TaskState};
pub use ids::{DataId, DataVersion, TaskId, VersionedData};
pub use inline_vec::InlineVec;
pub use label::Label;
pub use param::{Direction, Param, StreamRole};
pub use ready::{ReadyIter, ReadySet};
pub use seg_vec::{Retired, SegVec, EVACUATE_LIVE, SEGMENT_SLOTS};
pub use source::{ExpandSink, GraphSource};
pub use spec::{Params, TaskSpec};
