//! Experiment harness reproducing the paper's quantitative claims.
//!
//! The paper is a vision paper without numbered result tables; its
//! evaluation-grade claims are embedded in the prose of §VI. Each
//! `eNN` module here regenerates one claim as a table (see
//! `EXPERIMENTS.md` at the repository root for the claim → experiment
//! index). Run them all with:
//!
//! ```text
//! cargo run --release -p continuum-bench --bin experiments
//! cargo run --release -p continuum-bench --bin experiments -- --quick e2 e3
//! ```
//!
//! Every experiment is also asserted by the crate's tests at `--quick`
//! scale, so `cargo test` verifies the claimed *shapes* (who wins, by
//! roughly what factor) hold.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod e01_scalability;
pub mod e02_memory;
pub mod e03_nmmb;
pub mod e04_locality;
pub mod e05_active_storage;
pub mod e06_recovery;
pub mod e07_offloading;
pub mod e08_elasticity;
pub mod e09_lineage;
pub mod e10_schedulers;
pub mod e11_energy;
pub mod e12_dislib;
pub mod e13_streaming;
pub mod fixtures;
mod table;

pub use table::{ExperimentTable, Scale};

/// Runs one experiment by id (`"e1"` … `"e12"`).
///
/// Returns `None` for unknown ids.
pub fn run_experiment(id: &str, scale: Scale) -> Option<ExperimentTable> {
    let table = match id {
        "e1" => e01_scalability::run(scale),
        "e2" => e02_memory::run(scale),
        "e3" => e03_nmmb::run(scale),
        "e4" => e04_locality::run(scale),
        "e5" => e05_active_storage::run(scale),
        "e6" => e06_recovery::run(scale),
        "e7" => e07_offloading::run(scale),
        "e8" => e08_elasticity::run(scale),
        "e9" => e09_lineage::run(scale),
        "e10" => e10_schedulers::run(scale),
        "e11" => e11_energy::run(scale),
        "e12" => e12_dislib::run(scale),
        "e13" => e13_streaming::run(scale),
        _ => return None,
    };
    Some(table)
}

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: [&str; 13] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
];
