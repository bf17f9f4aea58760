//! Concurrency checking for the runtime's hand-rolled protocols.
//!
//! One kind of check does the work: the [`sched`] submodule runs the
//! **real** protocol code — the task-cell park/wake handshake, the
//! oneshot cell, the bounded stream channel, the value cell, the
//! counted sleeper with its `searching` deficit rule and pass-on
//! wake-up, the work-stealing deque — under a deterministic DPOR
//! scheduler (`conc-instrument` feature) with a happens-before
//! data-race detector. The targets live next to the code they drive, in
//! `continuum_runtime::conc_targets`; every planted bug there is a
//! misuse of the shipped API, so what is proved is proved on the code
//! that ships. The hand-written explicit-state models that used to sit
//! here (deque, park/wake, counted sleeper) are gone: each described a
//! protocol that had drifted from the shipped one, and the last of them
//! stayed green through a lost wake-up the real code had (ledger in
//! `EXPERIMENTS.md` "Concurrency checking", table in `DESIGN.md`
//! §10.2).

pub mod sched;
