//! Discrete-event simulation toolkit for the `continuum` workflow
//! environment.
//!
//! The paper's experiments run on platforms we cannot access (the
//! MareNostrum supercomputer, clouds, fleets of fog devices), so the
//! runtime executes paper-scale workloads on a deterministic
//! discrete-event simulation of those platforms instead. This crate
//! provides the building blocks the simulated engine is assembled
//! from:
//!
//! * [`VirtualTime`] and [`EventQueue`] — a deterministic event queue
//!   with stable FIFO tie-breaking;
//! * [`NodeState`] — per-node core/memory occupancy with utilisation
//!   and energy integration over virtual time;
//! * [`TransferLedger`] — accounting of simulated data movements;
//! * [`FaultPlan`] — scheduled or stochastic node failures/recoveries
//!   (fog churn);
//! * [`RunReport`] — the metrics bundle every experiment prints.
//!
//! The engine loop itself lives in `continuum-runtime`, which combines
//! these primitives with a pluggable scheduler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod node_state;
mod queue;
mod report;
mod time;
mod trace;
mod transfer;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use node_state::NodeState;
pub use queue::EventQueue;
pub use report::{NodeUsage, RunReport};
pub use time::VirtualTime;
pub use trace::{ExecutionTrace, TraceRecord};
pub use transfer::{TransferLedger, TransferRecord};
