//! # continuum-telemetry
//!
//! Engine-independent observability for the continuum workflow
//! environment — the reproduction of the Paraver-centric tracing the
//! paper's COMPSs runtime ships with, generalised over both of this
//! workspace's engines.
//!
//! The crate deliberately depends on **no engine code**: it defines
//!
//! * a typed [`Event`] model — task-lifecycle spans and instants on
//!   [`Track`]s, plus sampled [`CounterKey`] metrics — stamped in
//!   integer microseconds ([`Micros`]), wall-clock or virtual;
//! * a cheap [`Recorder`] sink behind a [`RecorderHandle`] whose
//!   default ([`NoopRecorder`]) makes disabled telemetry cost one
//!   virtual call per site;
//! * exporters: [`chrome_trace`] (Chrome `trace_event` JSON),
//!   [`paraver_trace`] (Paraver-style `.prv`), [`MetricsSnapshot`]
//!   (in-memory aggregates with a summary table) and an ASCII
//!   [`gantt`] renderer.
//!
//! Engines embed a [`RecorderHandle`] in their config; users who want a
//! trace plug in a [`TraceBuffer`] via [`TraceBuffer::collector`] and
//! export the buffered events after the run. Production runs that must
//! stay observable without unbounded memory use the always-on
//! [`RingRecorder`] instead.
//!
//! On top of the raw stream sits the *continuum-observe* analysis
//! layer: [`analysis`] answers "where did the time go?" (critical
//! path via [`critical_path`], per-task [`slack`], and
//! [`RunDiagnostics`] makespan attribution), [`prometheus_text`]
//! exposes a [`MetricsSnapshot`] in Prometheus text format, and the
//! `continuum-trace` CLI binary drives all of it from standalone
//! Chrome-JSON trace files (read back via [`parse_chrome_trace`]).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod analysis;
pub mod chrome;
pub mod event;
pub mod gantt;
pub mod merge;
pub mod metrics;
mod names;
pub mod paraver;
pub mod prometheus;
pub mod recorder;
pub mod ring;
pub mod table;

pub use analysis::{
    collect_task_obs, critical_path, join_with_graph, slack, trace_critical_chain,
    CriticalPathReport, CriticalTask, NodeAttribution, RunDiagnostics, TaskObs, UtilizationMetrics,
};
pub use chrome::{chrome_trace, parse_chrome_trace, write_chrome_trace};
pub use continuum_dag::Label;
pub use event::{micros_from_seconds, CounterKey, Event, Micros, SpanContext, TaskPhase, Track};
pub use gantt::GanttSpan;
pub use merge::{
    cross_agent_report, merge_traces, AgentTrace, ClockAlignment, CriticalHop, CrossAgentReport,
    HopAttribution, MergeError, MergeReport,
};
pub use metrics::{Histogram, MetricsSnapshot, PhaseStat};
pub use paraver::paraver_trace;
pub use prometheus::{prometheus_text, prometheus_text_with_ring};
pub use recorder::{NoopRecorder, Recorder, RecorderHandle, TraceBuffer};
pub use ring::RingRecorder;
pub use table::{render_table, Align};
