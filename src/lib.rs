//! `continuum` — a holistic, task-based workflow environment for
//! advanced cyberinfrastructure platforms.
//!
//! This crate is the facade of the workspace: it re-exports every
//! subsystem so applications can depend on a single crate. See the
//! member crates for the full documentation:
//!
//! * [`dag`] — tasks, data versioning, the access processor and graph
//!   analyses;
//! * [`platform`] — resources, constraints, networks, energy and
//!   elasticity models of the computing continuum;
//! * [`storage`] — the SOI/SRI storage interface with key-value
//!   (Hecuba-like) and active (dataClay-like) backends;
//! * [`sim`] — the discrete-event simulation toolkit;
//! * [`runtime`] — the execution engines: the threaded
//!   [`runtime::LocalRuntime`] and the simulated
//!   [`runtime::SimRuntime`], plus pluggable schedulers;
//! * [`agents`] — autonomous per-device agents for fog-to-cloud
//!   deployments with offloading and churn recovery;
//! * [`dislib`] — distributed machine learning (K-means, linear
//!   regression, PCA, scaling) over the runtime;
//! * [`workflows`] — synthetic scientific workload generators (GWAS
//!   campaign, NMMB weather pipeline, generic patterns);
//! * [`telemetry`] — engine-independent tracing and metrics: task
//!   lifecycle events from either engine, Chrome `trace_event` and
//!   Paraver exporters, metric snapshots.
//!
//! # Quickstart
//!
//! ```
//! use continuum::runtime::{LocalRuntime, LocalConfig};
//! use continuum::dag::TaskSpec;
//! use continuum::platform::Constraints;
//!
//! let rt = LocalRuntime::new(LocalConfig::with_workers(2));
//! let x = rt.data::<i64>("x");
//! rt.submit(TaskSpec::new("answer").output(x.id()), Constraints::new(), |ctx| {
//!     ctx.set_output(0, 42i64)
//! })?;
//! assert_eq!(*rt.get(&x)?, 42);
//! # Ok::<(), continuum::runtime::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub use continuum_agents as agents;
pub use continuum_dag as dag;
pub use continuum_dislib as dislib;
pub use continuum_platform as platform;
pub use continuum_runtime as runtime;
pub use continuum_sim as sim;
pub use continuum_storage as storage;
pub use continuum_telemetry as telemetry;
pub use continuum_workflows as workflows;
