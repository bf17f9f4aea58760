//! Concurrency checking for the runtime's hand-rolled protocols.
//!
//! One kind of check does the work: the [`sched`] submodule runs the
//! **real** protocol code — the task-cell park/wake handshake, the
//! oneshot cell, the bounded stream channel, the value cell, the
//! counted sleeper, the work-stealing deque — under a deterministic
//! DPOR scheduler (`conc-instrument` feature) with a happens-before
//! data-race detector. The targets live next to the code they drive, in
//! `continuum_runtime::conc_targets`; every planted bug there is a
//! misuse of the shipped API, so what is proved is proved on the code
//! that ships.
//!
//! One explicit-state model remains beside it: [`sleeper`], the
//! counted-sleeper wake/sleep protocol with the executor's `searching`
//! deficit rule, explored by [`explore`](explore::explore) (DFS with
//! memoization over hand-written states; a quiescent state that is not
//! a legitimate terminal is a deadlock — for this protocol exactly a
//! lost wakeup). It stays for one measured reason: at [2 workers,
//! 2 items] the model memoises 1 206 states, while stateless DPOR over
//! the real `CountedSleeper` (`sched::executor-sleep`) exhausts
//! [1, 2] in a few hundred schedules, needs tens of thousands for
//! [2, 1] and does not exhaust [2, 2] in 200 000. The deque and
//! park/wake models that used to sit here were retired once
//! `sched::deque` and `sched::task-cell-requeue` reached their CI
//! bounds on the shipped code (ledger in `EXPERIMENTS.md`, table in
//! `DESIGN.md` "Concurrency checking").

pub mod explore;
pub mod sched;
pub mod sleeper;

pub use explore::{explore, Exploration, Model, Violation};
pub use sleeper::{SleeperModel, SleeperVariant};
