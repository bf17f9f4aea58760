//! The workloads the retired `*_bench` binaries timed, kept for what
//! was deterministic about them: checksums, residency and parked
//! plateaus, allocation counts. The tests beside this directory assert
//! those; `benchmark/` at the repository root does the timing.

// Every test binary compiles this module and uses part of it.
#![allow(dead_code)]

pub mod local;
pub mod sim;
pub mod stream;
