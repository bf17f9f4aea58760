//! Task-based workflow runtime for the `continuum` environment — the
//! primary contribution of the reproduced paper.
//!
//! Applications are written once against the dataflow model of
//! [`continuum_dag`] (tasks with `In`/`Out`/`InOut` parameters, plus
//! `Stream` edges whose consumers start at the first element) and can
//! then execute on either of two engines:
//!
//! * [`LocalRuntime`] — a real multithreaded executor that runs Rust
//!   closures on the host machine with dependency-driven asynchrony,
//!   constraint-aware admission and typed data handles. This is the
//!   engine a downstream library user adopts (it is what powers the
//!   `continuum-dislib` machine-learning library).
//! * [`SimRuntime`] — a deterministic discrete-event engine that runs
//!   *cost-modelled* workloads ([`SimWorkload`]) on simulated
//!   platforms: clusters of 100+ nodes, clouds, fog areas, with data
//!   transfers, locality, node failures, elastic pools and energy
//!   accounting. Every paper-scale experiment uses this engine.
//!
//! Scheduling is pluggable through the [`Scheduler`] trait; provided
//! policies are [`FifoScheduler`], [`LocalityScheduler`] (uses replica
//! locations, the paper's `getLocations`-driven placement),
//! [`HeftScheduler`] (static baseline) and [`EnergyScheduler`]
//! (consolidating, energy-first). The engine additionally supports a
//! stage-barrier execution mode that emulates synchronous,
//! Spark-style batch engines — the comparison point for the paper's
//! claim that asynchronous dataflow plus per-task constraints halves
//! execution time on memory-heterogeneous workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "conc-instrument")]
pub mod conc_targets;
mod data;
mod error;
mod lineage;
mod local;
mod lockorder;
mod profile;
mod reactor;
mod scheduler;
mod sim_engine;
mod sleeper;
mod stream;
mod task_cell;
mod value_cell;
mod workload;

pub use data::{DataRegistry, StorageResidency};
pub use error::RuntimeError;
pub use lineage::{LineageChain, LineagePolicy, LineageReport, Stage};
pub use local::{
    DataHandle, LocalConfig, LocalRuntime, StreamHandle, StreamReader, StreamRecv, StreamSend,
    StreamWriter, TaskContext,
};
pub use profile::TaskProfile;
pub use reactor::Sleep;
pub use scheduler::{
    EnergyScheduler, FifoScheduler, HeftScheduler, ListScheduler, LocalityScheduler, PlacementView,
    Scheduler,
};
pub use sim_engine::{DataLossMode, ElasticConfig, LazyRunOutcome, SimOptions, SimRuntime};
pub use workload::{SimWorkload, WorkloadStats};

/// Telemetry surface both engines accept in their configs
/// ([`LocalConfig::telemetry`], [`SimOptions::telemetry`]), re-exported
/// from [`continuum_telemetry`] for convenience.
pub use continuum_telemetry::{Recorder, RecorderHandle, RingRecorder, TraceBuffer};

/// Strict-lint surface both engines accept in their configs
/// ([`LocalConfig::strict_lints`], [`SimOptions::strict_lints`]) and
/// the diagnostics [`RuntimeError::LintRejected`] carries, re-exported
/// from `continuum_analyze` for convenience.
pub use continuum_analyze::{Diagnostic, LintMode};
