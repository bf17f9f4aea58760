//! Ahead-of-run workflow verification and concurrency model checking.
//!
//! `continuum-analyze` closes the gap between the runtime's *dynamic*
//! dependency discovery and the cost of a mis-declared workflow: with
//! `In`/`Out`/`InOut` access annotations, an output nobody reads, a
//! read with no producer or a constraint no node can satisfy only
//! surfaces — or silently wastes a cluster — at execution time. This
//! crate lints the workflow program before it runs, and model-checks
//! the runtime's hand-rolled concurrency protocols before they ship.
//!
//! # The workflow verifier
//!
//! [`LintView`] borrows a task graph, the platform it should run on and
//! the per-task metadata ([`LintColumns`]); [`LintView::verify`] runs
//! the lint catalogue ([`Lint`]) and returns structured
//! [`Diagnostic`]s. [`LintBundle`] is the owned, serializable form of
//! the same inputs and verifies through a view of itself. Three front
//! ends share the catalogue:
//!
//! * the `continuum-lint` CLI (JSON and human output over a serialized
//!   bundle),
//! * strict-lints mode in both runtime engines (`LocalRuntime` checks
//!   per submission, `SimRuntime` verifies the whole workload before
//!   the run; [`LintMode::Reject`] turns errors into
//!   `RuntimeError::LintRejected`),
//! * this programmatic API.
//!
//! # The concurrency checker
//!
//! [`conc`] is a mini-loom: [`conc::sched`] runs the runtime's real
//! protocol code under a DPOR scheduler and enumerates its
//! interleavings at small bounds; deliberately-broken uses of the same
//! code prove the harness detects the historical failure modes. The
//! `model_check` binary runs them in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod bundle;
pub mod conc;
mod diag;
mod index;
mod verify;

pub use bundle::LintBundle;
pub use diag::{sort_report, Diagnostic, Lint, Severity};
pub use verify::{
    check_task_constraints, has_errors, lint_nodes, read_without_producer, LintColumns, LintNode,
    LintView, StreamInfo,
};

/// How strictly a runtime applies the workflow verifier at submit/run
/// time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LintMode {
    /// Do not run the verifier (the default).
    #[default]
    Off,
    /// Run the verifier and print findings to stderr, but execute
    /// anyway.
    Warn,
    /// Run the verifier and refuse to execute workflows with
    /// `Error`-severity findings, returning the structured report.
    Reject,
}
