//! The rendezvous controller: the concrete [`Controller`] behind which
//! real scenario threads are sequenced by the exploration scheduler.
//!
//! Protocol (thread side ⇄ scheduler side):
//!
//! 1. A scenario thread reaches a sched point and calls
//!    `Ctl::sched_point`: it publishes its pending [`OpEvent`], wakes
//!    the scheduler, and sleeps until a grant appears in its slot.
//! 2. The scheduler calls `Ctl::await_stable`, which returns once
//!    every thread is *stable* — at a sched point, parked at a block
//!    point, or done — so exactly zero threads are executing real code
//!    when a scheduling decision is made.
//! 3. The scheduler picks one thread and delivers [`Grant::Proceed`]
//!    (run the op, continue to the next sched point), [`Grant::Block`]
//!    (the op cannot complete: the thread parks via
//!    `Ctl::block_point` until `Ctl::resume`), or [`Grant::Die`]
//!    (abort: unwind the thread).
//!
//! Because only one granted thread runs between `await_stable` calls,
//! the *real* primitives under the instrumented wrappers are always
//! uncontended; all blocking lives here.

use crossbeam::hooks::sched::{Controller, Grant, OpEvent};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long `await_stable` waits without progress before declaring the
/// harness itself wedged (a bug in the instrumentation, not the
/// scenario — scenarios block only inside the controller).
const STABILITY_TIMEOUT: Duration = Duration::from_secs(30);

/// One scenario thread's lifecycle state, as the scheduler sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum TStatus {
    /// Spawned, has not yet reached its first sched point.
    Launching,
    /// Stable at a sched point, waiting for a grant on `OpEvent`.
    AtOp(OpEvent),
    /// Granted and running real code towards its next sched point.
    Executing,
    /// Parked at a block point (condvar wait set / park without
    /// token), waiting for [`Ctl::resume`].
    Blocked,
    /// Scenario closure returned.
    Done,
    /// Scenario closure panicked with this message (controller kills
    /// are filtered out by the harness and recorded as `Done`).
    Panicked(String),
}

impl TStatus {
    fn stable(&self) -> bool {
        !matches!(self, TStatus::Launching | TStatus::Executing)
    }
}

struct CtlState {
    status: Vec<TStatus>,
    /// Per-thread grant slot (scheduler writes, thread consumes).
    granted: Vec<Option<Grant>>,
    /// Per-thread resume token for threads parked in `block_point`.
    resume: Vec<bool>,
    /// When set alongside `resume`, the resumed thread unwinds
    /// immediately instead of continuing (abort of a blocked thread).
    die_on_resume: Vec<bool>,
    /// Once set, every sched point answers [`Grant::Die`].
    aborting: bool,
}

/// The shared rendezvous object (installed process-globally for the
/// duration of one exploration; see [`super::explore`]).
pub(crate) struct Ctl {
    inner: Mutex<CtlState>,
    cv: Condvar,
}

impl Ctl {
    pub(crate) fn new() -> Self {
        Ctl {
            inner: Mutex::new(CtlState {
                status: Vec::new(),
                granted: Vec::new(),
                resume: Vec::new(),
                die_on_resume: Vec::new(),
                aborting: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Re-arms the controller for a fresh run of `n` threads. Must only
    /// be called with no scenario threads alive.
    pub(crate) fn reset(&self, n: usize) {
        let mut st = self.lock();
        st.status = vec![TStatus::Launching; n];
        st.granted = vec![None; n];
        st.resume = vec![false; n];
        st.die_on_resume = vec![false; n];
        st.aborting = false;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CtlState> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks until every thread is stable (no `Launching`/`Executing`)
    /// and all grants are consumed, then returns a snapshot of thread
    /// statuses.
    ///
    /// # Errors
    ///
    /// A description of the wedged state if no progress happens for
    /// [`STABILITY_TIMEOUT`] — indicates an instrumentation bug (an
    /// unregistered blocking op, a sched point never reached).
    pub(crate) fn await_stable(&self) -> Result<Vec<TStatus>, String> {
        let deadline = Instant::now() + STABILITY_TIMEOUT;
        let mut st = self.lock();
        loop {
            // An undelivered grant or an unconsumed resume means a
            // thread is logically executing even if its recorded
            // status hasn't caught up yet.
            let stable = st.status.iter().all(TStatus::stable)
                && st.granted.iter().all(Option::is_none)
                && st.resume.iter().all(|r| !r);
            if stable {
                return Ok(st.status.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(format!(
                    "scheduler wedged waiting for stability: {:?}",
                    st.status
                ));
            }
            let (guard, _timeout) = self
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st = guard;
        }
    }

    /// Delivers `g` to thread `tid` (which must be `AtOp`).
    pub(crate) fn grant(&self, tid: usize, g: Grant) {
        let mut st = self.lock();
        debug_assert!(
            matches!(st.status[tid], TStatus::AtOp(_)),
            "grant to non-AtOp thread"
        );
        st.granted[tid] = Some(g);
        self.cv.notify_all();
    }

    /// Resumes thread `tid` from its block point (relock granted /
    /// unpark delivered); `die` makes it unwind instead.
    pub(crate) fn resume(&self, tid: usize, die: bool) {
        let mut st = self.lock();
        st.resume[tid] = true;
        st.die_on_resume[tid] = die;
        self.cv.notify_all();
    }

    /// Switches the controller into abort mode: every thread at (or
    /// arriving at) a sched point is answered [`Grant::Die`], every
    /// blocked thread is resumed with the die flag. After this, all
    /// scenario threads unwind and can be joined.
    pub(crate) fn abort(&self) {
        let mut st = self.lock();
        st.aborting = true;
        for tid in 0..st.resume.len() {
            st.resume[tid] = true;
            st.die_on_resume[tid] = true;
            // Threads sitting in sched_point's grant-wait pick the
            // abort flag up themselves; pre-filled grants stay valid.
        }
        self.cv.notify_all();
    }

    /// Records thread `tid` as finished; `panic_msg` carries a genuine
    /// scenario panic (kills are recorded as clean `Done`).
    pub(crate) fn thread_done(&self, tid: usize, panic_msg: Option<String>) {
        let mut st = self.lock();
        st.status[tid] = match panic_msg {
            Some(m) => TStatus::Panicked(m),
            None => TStatus::Done,
        };
        self.cv.notify_all();
    }
}

impl Controller for Ctl {
    fn sched_point(&self, tid: usize, ev: OpEvent) -> Grant {
        let mut st = self.lock();
        if st.aborting {
            return Grant::Die;
        }
        st.status[tid] = TStatus::AtOp(ev);
        self.cv.notify_all();
        loop {
            if st.aborting {
                st.status[tid] = TStatus::Executing;
                return Grant::Die;
            }
            if let Some(g) = st.granted[tid].take() {
                st.status[tid] = TStatus::Executing;
                return g;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn block_point(&self, tid: usize) {
        let mut st = self.lock();
        st.status[tid] = TStatus::Blocked;
        self.cv.notify_all();
        loop {
            if st.resume[tid] {
                st.resume[tid] = false;
                let die = st.die_on_resume[tid];
                st.die_on_resume[tid] = false;
                st.status[tid] = TStatus::Executing;
                drop(st);
                if die {
                    crossbeam::hooks::sched::killed();
                }
                return;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}
