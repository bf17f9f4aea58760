//! Agent-layer errors.

use continuum_storage::StorageError;
use std::error::Error;
use std::fmt;

/// Errors produced by the agent layer.
#[derive(Debug)]
pub enum AgentError {
    /// The target agent is not part of the network.
    UnknownAgent(String),
    /// No live agent can run the task (all candidates dead or the
    /// policy returned none).
    NoAgentAvailable {
        /// The operation that could not be placed.
        op: String,
    },
    /// The operation is not registered with the shared registry.
    UnknownOp(String),
    /// A task was lost (agent died mid-execution) more times than the
    /// retry budget allows.
    RetriesExhausted {
        /// The operation that kept failing.
        op: String,
        /// Attempts made.
        attempts: usize,
    },
    /// Every attempt at a task outlived the orchestrator's reply
    /// deadline.
    DeadlineExceeded {
        /// The operation whose replies kept coming late.
        op: String,
        /// Attempts made.
        attempts: usize,
    },
    /// The application's task list is not a valid DAG (unknown input
    /// key with no producer and not initial).
    InvalidApplication(String),
    /// Error from the shared store.
    Storage(StorageError),
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentError::UnknownAgent(name) => write!(f, "unknown agent `{name}`"),
            AgentError::NoAgentAvailable { op } => {
                write!(f, "no live agent can execute `{op}`")
            }
            AgentError::UnknownOp(op) => write!(f, "operation `{op}` is not registered"),
            AgentError::RetriesExhausted { op, attempts } => {
                write!(f, "task `{op}` lost {attempts} times; retries exhausted")
            }
            AgentError::DeadlineExceeded { op, attempts } => {
                write!(f, "task `{op}` missed its reply deadline {attempts} times")
            }
            AgentError::InvalidApplication(msg) => {
                write!(f, "invalid application: {msg}")
            }
            AgentError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl Error for AgentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AgentError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for AgentError {
    fn from(e: StorageError) -> Self {
        AgentError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_specific() {
        assert!(AgentError::UnknownAgent("a1".into())
            .to_string()
            .contains("`a1`"));
        assert!(AgentError::NoAgentAvailable { op: "f".into() }
            .to_string()
            .contains("`f`"));
        let e: AgentError = StorageError::NotFound("k".into()).into();
        assert!(e.source().is_some());
    }
}
