//! COMPSs-style autonomous agents for fog-to-cloud platforms (§VI-B
//! of the paper).
//!
//! Each [`Agent`] is an independent runtime instance deployed on one
//! device of the continuum (the paper deploys them as Docker
//! microservices; here each agent is a thread with a message inbox
//! carrying the same verbs as the REST interface: start application,
//! submit task, probe resources, add/remove resources). Agents execute
//! operations from a shared [`OpRegistry`] against a shared persistent
//! store (the dataClay role): inputs are fetched from the store and
//! every produced value is made persistent, so the loss of a fog
//! device never loses data — the [`Orchestrator`] simply re-submits
//! the lost task to another agent, exactly the recovery scenario the
//! paper describes.
//!
//! Placement across the fog/cloud layers is delegated to an
//! [`OffloadPolicy`]. The policies of §VI-B — fog-only, cloud-only and
//! latency-aware — are one rule, [`ContinuumScheduler`], which is also
//! the simulated engine's [`Scheduler`](continuum_runtime::Scheduler):
//! the offloading experiments sweep network conditions at scale with
//! the code the agents run. [`RoundRobinOffload`] is the class-blind
//! baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod agent;
mod error;
mod network;
mod offload;
mod ops;
mod orchestrator;
mod sim_sched;

pub use agent::{Agent, AgentId, AgentInfo, AgentStatus, ExecReply};
pub use error::AgentError;
pub use network::{AgentNetwork, ExecFuture};
pub use offload::{OffloadPolicy, RoundRobinOffload};
pub use ops::OpRegistry;
pub use orchestrator::{AppReport, AppTask, Application, Orchestrator};
pub use sim_sched::{ContinuumPolicy, ContinuumScheduler};
