//! Synthetic scientific workloads calibrated to the applications the
//! paper reports on.
//!
//! * [`GwasWorkload`] — a GUIDANCE-like genome-wide association
//!   campaign: per-chromosome, per-chunk pipelines (filter → impute →
//!   association) with merge stages, lognormal task durations and the
//!   *variable memory* property the paper highlights (most tasks are
//!   light; a fraction needs most of a node's memory);
//! * [`NmmbWorkload`] — an NMMB-Monarch-like multi-day weather
//!   pipeline: per-day initialisation scripts (sequential in the
//!   original, parallelised in the PyCOMPSs port), one rigid
//!   multi-node MPI simulation, post-processing and archiving, with a
//!   day-to-day restart dependency;
//! * [`patterns`] — generic DAG shapes (embarrassingly parallel,
//!   map-reduce, chains, fork-join ensembles, random layered DAGs)
//!   used by tests and micro-benchmarks;
//! * [`parse_wdl`]/[`to_wdl`] — a textual workflow description
//!   language (the Pegasus-style modality of the paper's taxonomy),
//!   round-tripping with [`continuum_runtime::SimWorkload`].
//!
//! All generators are deterministic for a given seed and produce
//! [`continuum_runtime::SimWorkload`] values ready for the simulated
//! engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod gwas;
mod nmmb;
pub mod patterns;
mod rng;
mod wdl;

pub use gwas::{GwasSource, GwasWorkload};
pub use nmmb::NmmbWorkload;
pub use rng::LogNormal;
pub use wdl::{parse_wdl, to_wdl, WdlError};

use continuum_dag::{TaskId, TaskSpec};
use continuum_runtime::{SimWorkload, TaskProfile};

/// Adds a task a generator built itself: every spec writes a datum and
/// names only ids declared on `w`, each with one direction, so none of
/// the checks [`SimWorkload::task`] makes on user-written specs fails.
fn add_task(w: &mut SimWorkload, spec: TaskSpec, profile: TaskProfile) -> TaskId {
    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: generator specs are well-formed by construction"
    )]
    let id = w.task(spec, profile).expect("valid generator task");
    id
}
