//! Schedule exploration over **real code**: a dynamic partial-order
//! reduction (DPOR) model checker that runs actual runtime protocols —
//! the task-cell handshake, the oneshot channel, the bounded stream
//! channel, the counted sleeper, the work-stealing deque — under a
//! deterministic scheduler and enumerates their thread interleavings.
//!
//! It checks the protocols' *implementation*, not a hand-written
//! abstraction of them: scenario threads execute the real
//! `continuum-runtime` / `continuum-platform` code, whose sync
//! primitives (built with the `conc-instrument` feature) report every
//! operation to an installed controller. The scheduler sequences the
//! threads one operation at a time, backtracks, and re-runs the
//! scenario under a different interleaving until the reduced schedule
//! space is exhausted. A thread that makes no instrumented operation
//! runs straight to its end, so an op-less scenario is explored in one
//! schedule in any build.
//!
//! Three layers (see `DESIGN.md` "Concurrency checking"):
//!
//! * [`controller`] — the rendezvous protocol that stops every thread
//!   at its next sync operation and releases exactly one per decision;
//! * [`explore`] — the DFS driver with sleep sets and DPOR backtracking
//!   ([`explore_sched`]), plus witness replay ([`replay_schedule`]);
//! * [`vclock`] — vector clocks, used separately for DPOR dependence
//!   tracking and for the happens-before data-race detector that flags
//!   unsynchronized conflicting accesses to
//!   [`RaceCell`](continuum_platform::sync::RaceCell) payloads.
//!
//! Every violation carries a **witness schedule**: the exact sequence
//! of thread choices that reproduces it, replayable with
//! [`replay_schedule`] or `model_check --replay`.

pub mod controller;
pub mod explore;
pub mod vclock;

pub use explore::{explore_sched, replay_schedule, ReplayReport};
pub use vclock::VClock;

/// One concrete multi-threaded scenario instance: the thread bodies to
/// run under the controller plus an optional final-state invariant.
pub struct Scenario {
    /// Thread bodies, indexed by tid. Each runs real (instrumented)
    /// code; panics are caught and reported as violations.
    pub threads: Vec<Box<dyn FnOnce() + Send>>,
    /// Checked after all threads complete cleanly; `Err` is an
    /// invariant violation with the run's schedule as witness.
    pub check: Option<Box<dyn FnOnce() -> Result<(), String> + Send>>,
}

/// A named, repeatable exploration target (a scenario factory): `make`
/// must build a structurally identical scenario every call, since the
/// explorer re-runs it once per schedule.
pub struct SchedTarget {
    /// Target name as shown by `model_check` (e.g. `sched::oneshot`).
    pub name: &'static str,
    /// One-line description of the protocol and property.
    pub about: &'static str,
    /// Whether the target is expected to verify clean or to contain a
    /// planted bug the explorer must find.
    pub expect: Expect,
    /// Scenario factory.
    pub make: Box<dyn Fn() -> Scenario + Send + Sync>,
}

/// Expected exploration outcome for a [`SchedTarget`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// All schedules must complete with no violation.
    Clean,
    /// A planted data race must be detected (CI asserts it stays
    /// detected).
    Race,
    /// A planted lost wakeup must be detected as a deadlock.
    Deadlock,
    /// A planted protocol misuse must fail the scenario's final check.
    Invariant,
}

impl Expect {
    /// Whether `violation` is the kind this expectation plants. Always
    /// `false` for [`Expect::Clean`]; a planted target found as another
    /// kind counts as missed.
    pub fn is_planted_kind(self, violation: &SchedViolation) -> bool {
        matches!(
            (self, violation),
            (Expect::Race, SchedViolation::Race { .. })
                | (Expect::Deadlock, SchedViolation::Deadlock { .. })
                | (Expect::Invariant, SchedViolation::Invariant { .. })
        )
    }
}

/// Exploration options.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOpts {
    /// Hard cap on executed runs (explored + pruned-redundant); hitting
    /// it yields [`SchedViolation::Budget`], so an "exhausted" result
    /// is always an honest one.
    pub max_schedules: u64,
    /// Schedule-space pruning algorithm.
    pub pruning: Pruning,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            max_schedules: 100_000,
            pruning: Pruning::Dpor,
        }
    }
}

/// Pruning algorithm for the DFS over schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pruning {
    /// Sleep sets + dynamic partial-order reduction (the default).
    Dpor,
    /// Every enabled thread is tried at every choice point. Only used
    /// to measure the DPOR pruning ratio.
    Naive,
}

/// Counters from one exploration.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedStats {
    /// Complete schedules executed to termination.
    pub schedules: u64,
    /// Runs cut short by sleep sets (provably redundant prefixes).
    pub redundant: u64,
    /// Total scheduling decisions across all runs.
    pub steps: u64,
    /// Longest run, in decisions.
    pub max_depth: usize,
}

/// A witness: the sequence of tids chosen at each scheduling decision.
pub type Schedule = Vec<usize>;

/// Renders a schedule as the comma-joined seed string accepted by
/// [`replay_schedule`] and `model_check --replay`.
pub fn format_schedule(s: &[usize]) -> String {
    s.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses a comma-joined seed string back into a schedule.
///
/// # Errors
///
/// A description of the first non-numeric component.
pub fn parse_schedule(s: &str) -> Result<Schedule, String> {
    s.split(',')
        .map(|part| {
            part.trim()
                .parse::<usize>()
                .map_err(|e| format!("bad schedule component {part:?}: {e}"))
        })
        .collect()
}

/// A property violation found by exploration, with its witness.
#[derive(Clone, Debug)]
pub enum SchedViolation {
    /// The happens-before detector flagged an unsynchronized
    /// conflicting access pair.
    Race {
        /// Human-readable description of the conflicting accesses.
        detail: String,
        /// Schedule reproducing the race.
        witness: Schedule,
    },
    /// Quiescence with live threads: no enabled operation but not all
    /// threads done (for wait/wake protocols this is a lost wakeup).
    Deadlock {
        /// Schedule reproducing the deadlock.
        witness: Schedule,
    },
    /// A scenario thread panicked.
    Panic {
        /// The panic message, prefixed with the thread id.
        detail: String,
        /// Schedule reproducing the panic.
        witness: Schedule,
    },
    /// The scenario's final-state check failed.
    Invariant {
        /// The check's error message.
        detail: String,
        /// Schedule reproducing the bad final state.
        witness: Schedule,
    },
    /// The run budget was exhausted before the schedule space was.
    Budget {
        /// The configured [`ExploreOpts::max_schedules`].
        limit: u64,
    },
}

impl SchedViolation {
    /// The witness schedule, if this violation kind carries one.
    pub fn witness(&self) -> Option<&Schedule> {
        match self {
            SchedViolation::Race { witness, .. }
            | SchedViolation::Deadlock { witness }
            | SchedViolation::Panic { witness, .. }
            | SchedViolation::Invariant { witness, .. } => Some(witness),
            SchedViolation::Budget { .. } => None,
        }
    }
}

impl std::fmt::Display for SchedViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedViolation::Race { detail, witness } => {
                write!(
                    f,
                    "data race: {detail} [witness {}]",
                    format_schedule(witness)
                )
            }
            SchedViolation::Deadlock { witness } => {
                write!(
                    f,
                    "deadlock (lost wakeup) [witness {}]",
                    format_schedule(witness)
                )
            }
            SchedViolation::Panic { detail, witness } => {
                write!(f, "panic: {detail} [witness {}]", format_schedule(witness))
            }
            SchedViolation::Invariant { detail, witness } => {
                write!(
                    f,
                    "invariant failed: {detail} [witness {}]",
                    format_schedule(witness)
                )
            }
            SchedViolation::Budget { limit } => {
                write!(
                    f,
                    "schedule budget of {limit} runs exhausted before the space was"
                )
            }
        }
    }
}

/// Result of one exploration: counters plus the first violation found
/// (exploration stops at the first).
#[derive(Debug)]
pub struct SchedOutcome {
    /// Counters up to the stopping point.
    pub stats: SchedStats,
    /// `None` means the reduced schedule space was exhausted clean.
    pub violation: Option<SchedViolation>,
}
