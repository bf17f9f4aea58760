//! Resource, constraint, network, energy and elasticity models for the
//! `continuum` workflow environment.
//!
//! This crate describes the *advanced cyberinfrastructure platforms*
//! (ACPs) of the paper: heterogeneous nodes grouped into HPC clusters,
//! cloud pools, fog areas and edge devices, connected by links of very
//! different bandwidth/latency, each with an energy profile, and —
//! for clouds and SLURM-managed clusters — elastic capacity.
//!
//! The key abstractions are:
//!
//! * [`Constraints`] — per-task resource requirements (compute units,
//!   memory, GPUs, software, architecture), matching COMPSs task
//!   constraints;
//! * [`NodeSpec`]/[`Node`] — capacity, relative speed and power model
//!   of one machine, tagged with a [`DeviceClass`] (HPC, cloud VM, fog
//!   device, edge sensor);
//! * [`NetworkModel`] — zone-based bandwidth/latency used to cost data
//!   transfers across the continuum;
//! * [`Platform`] — the full machine: zones of nodes plus the network,
//!   built with [`PlatformBuilder`];
//! * [`ElasticityPolicy`] — load-driven grow/shrink decisions for
//!   elastic pools.
//!
//! # Example
//!
//! ```
//! use continuum_platform::{PlatformBuilder, NodeSpec, Constraints, DeviceClass};
//!
//! let platform = PlatformBuilder::new()
//!     .cluster("mn4", 4, NodeSpec::hpc(48, 96_000))
//!     .cloud("aws", 2, NodeSpec::cloud_vm(8, 16_000))
//!     .build();
//! assert_eq!(platform.num_nodes(), 6);
//!
//! let needs_gpu = Constraints::new().compute_units(4).gpus(1);
//! assert!(!platform.node_by_index(0).capacity().satisfies(&needs_gpu));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::await_holding_lock)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod constraints;
mod elastic;
mod energy;
mod network;
mod node;
pub mod oneshot;
mod platform;
pub mod presets;
pub mod sync;

pub use constraints::{Constraints, NodeCapacity};
pub use elastic::{ElasticAction, ElasticityPolicy};
pub use energy::{EnergyAccount, PowerModel};
pub use network::{LinkSpec, NetworkModel, TransferCost};
pub use node::{DeviceClass, Node, NodeId, NodeSpec};
pub use platform::{Platform, PlatformBuilder, Zone, ZoneId, ZoneKind};
