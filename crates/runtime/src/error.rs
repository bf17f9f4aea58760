//! Runtime error type.

use continuum_analyze::{has_errors, Diagnostic, LintMode};
use continuum_dag::{DagError, DataId, TaskId};
use continuum_storage::StorageError;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Errors produced by the runtime engines.
#[derive(Debug)]
pub enum RuntimeError {
    /// Error from the dependency layer.
    Dag(DagError),
    /// Error from a storage backend.
    Storage(StorageError),
    /// No node in the platform can ever satisfy a task's constraints.
    Unschedulable {
        /// The task that cannot be placed.
        task: TaskId,
        /// Explanation (which requirement no node meets).
        reason: String,
    },
    /// The simulation reached a state where no progress is possible
    /// (e.g. required data lost with recovery disabled).
    Stuck {
        /// Tasks completed before the engine stalled.
        completed: usize,
        /// Tasks left unfinished.
        remaining: usize,
        /// Explanation of the stall.
        reason: String,
    },
    /// A task body panicked in the local runtime.
    TaskPanicked {
        /// The task whose body panicked.
        task: TaskId,
        /// Panic payload rendered as text, if available.
        message: String,
    },
    /// A task read an output that its body never produced, or with the
    /// wrong type.
    BadTaskIo {
        /// The offending task.
        task: TaskId,
        /// Explanation.
        detail: String,
    },
    /// A data access failed and no producing task can be blamed — e.g.
    /// reading a datum that has neither a producer nor an initial
    /// value. Errors caused by a specific task body use
    /// [`RuntimeError::BadTaskIo`] instead.
    BadDataAccess {
        /// The datum whose access failed.
        data: DataId,
        /// Explanation.
        detail: String,
    },
    /// Strict lint mode rejected the workflow before execution. The
    /// structured report carries every finding (not just the errors),
    /// identical to what `continuum-lint` prints for the same bundle.
    LintRejected {
        /// The full lint report, in canonical order.
        diagnostics: Vec<Diagnostic>,
    },
    /// An awaited operation did not finish within its deadline
    /// ([`crate::TaskContext::timeout`]).
    DeadlineExceeded {
        /// The deadline that passed.
        after: Duration,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Dag(e) => write!(f, "dependency error: {e}"),
            RuntimeError::Storage(e) => write!(f, "storage error: {e}"),
            RuntimeError::Unschedulable { task, reason } => {
                write!(f, "task {task} cannot be scheduled: {reason}")
            }
            RuntimeError::Stuck {
                completed,
                remaining,
                reason,
            } => write!(
                f,
                "simulation stuck after {completed} tasks ({remaining} remaining): {reason}"
            ),
            RuntimeError::TaskPanicked { task, message } => {
                write!(f, "task {task} panicked: {message}")
            }
            RuntimeError::BadTaskIo { task, detail } => {
                write!(f, "task {task} i/o error: {detail}")
            }
            RuntimeError::BadDataAccess { data, detail } => {
                write!(f, "data {data} access error: {detail}")
            }
            RuntimeError::LintRejected { diagnostics } => {
                let errors = diagnostics.iter().filter(|d| d.is_error()).count();
                write!(
                    f,
                    "workflow rejected by strict lints: {errors} error(s), {} finding(s) total",
                    diagnostics.len()
                )?;
                for d in diagnostics {
                    write!(f, "\n{d}")?;
                }
                Ok(())
            }
            RuntimeError::DeadlineExceeded { after } => {
                write!(f, "deadline of {after:?} exceeded")
            }
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Dag(e) => Some(e),
            RuntimeError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DagError> for RuntimeError {
    fn from(e: DagError) -> Self {
        RuntimeError::Dag(e)
    }
}

impl From<StorageError> for RuntimeError {
    fn from(e: StorageError) -> Self {
        RuntimeError::Storage(e)
    }
}

/// What a strict-lint mode makes of the findings `lint` produces, the
/// one reading both engines share. `Off` runs no lint. Under `Reject`,
/// an error-severity finding fails with [`RuntimeError::LintRejected`]
/// carrying every finding. Otherwise the findings come back for the
/// caller to print, outside any lock, before it goes on.
pub(crate) fn lint_verdict(
    mode: LintMode,
    lint: impl FnOnce() -> Vec<Diagnostic>,
) -> Result<Vec<Diagnostic>, RuntimeError> {
    if mode == LintMode::Off {
        return Ok(Vec::new());
    }
    let findings = lint();
    if mode == LintMode::Reject && has_errors(&findings) {
        return Err(RuntimeError::LintRejected {
            diagnostics: findings,
        });
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_source() {
        let e: RuntimeError = DagError::UnknownTask(TaskId::from_raw(1)).into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("dependency error"));
        let e: RuntimeError = StorageError::NotFound("k".into()).into();
        assert!(e.to_string().contains("storage error"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RuntimeError>();
    }

    #[test]
    fn stuck_message_counts() {
        let e = RuntimeError::Stuck {
            completed: 3,
            remaining: 2,
            reason: "data lost".into(),
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('2') && s.contains("data lost"));
    }
}
