//! The DFS schedule explorer: runs a [`Scenario`](super::Scenario)
//! repeatedly under the `Ctl` controller, enumerating thread
//! interleavings with sleep-set and DPOR pruning and checking each run
//! with a happens-before race detector.
//!
//! ## How one run works
//!
//! The scenario's threads are spawned fresh; each blocks at its first
//! instrumented operation. The explorer waits for stability, computes
//! the *pending* operation of every thread (real reported ops, plus
//! the synthetic `Relock` of a notified condvar waiter and `Resume` of
//! an unparked thread), filters to the *enabled* ones (a mutex
//! acquisition is disabled while the model says the mutex is held),
//! and releases exactly one. Repeat until every thread is done
//! (complete run), or no operation is enabled (deadlock — for the
//! wait/wake protocols under test this is precisely a lost wakeup).
//!
//! ## How the tree is pruned
//!
//! A persistent DFS stack records, per decision depth: the enabled
//! set, each thread's pending op, the chosen thread, and two sets —
//! `backtrack` (threads that must still be tried here, per the DPOR
//! backtracking rule of Flanagan & Godefroid) and `sleep` (threads
//! provably redundant here, per Godefroid's sleep sets). After a run,
//! the deepest node with an untried backtrack candidate becomes the
//! divergence point of the next run, which replays the prefix and
//! picks the new candidate. When every enabled thread at a fresh node
//! is asleep, the run is *redundant*: it is finished without creating
//! nodes and counted separately.
//!
//! DPOR dependence is tracked with vector clocks per dependency object
//! (mutex, condvar, atomic, park token, plain cell, deque critical
//! section); the race detector keeps a **separate** clock system that
//! joins only on real synchronization edges — see [`super::vclock`].

use super::controller::{Ctl, TStatus};
use super::vclock::VClock;
use super::{
    ExploreOpts, Pruning, SchedOutcome, SchedStats, SchedTarget, SchedViolation, Schedule,
};
use continuum_platform::sync::panic_message;
use crossbeam::hooks::sched::{self, Grant, OpEvent, SyncOp, KILL_MSG};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex, Once, PoisonError};

/// Serializes explorations process-wide: the controller is installed
/// through a process-global hook, so only one may run at a time.
static EXPLORE_LOCK: Mutex<()> = Mutex::new(());

/// Per-run step ceiling — a scenario that makes this many decisions is
/// wedged (e.g. an unbounded retry loop) and aborted as a harness
/// error rather than explored forever.
const MAX_RUN_STEPS: usize = 100_000;

static KILL_FILTER: Once = Once::new();

/// Suppresses the default "thread panicked" stderr report for
/// controller kill-unwinds (they are routine during aborts), chaining
/// every other panic to the previously installed hook. Installed once
/// per process, under the exploration lock.
fn install_kill_filter() {
    KILL_FILTER.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| *s == KILL_MSG)
            {
                return;
            }
            prev(info);
        }));
    });
}

/// Uninstalls the process-global controller when the exploration
/// scope exits, even by panic.
struct InstallGuard;

impl Drop for InstallGuard {
    fn drop(&mut self) {
        sched::uninstall();
    }
}

// ---------------------------------------------------------------------
// Operations and dependence
// ---------------------------------------------------------------------

/// A thread's next step as the scheduler models it: its reported real
/// operation, or a synthetic continuation of an earlier blocking one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StepOp {
    /// The operation the thread reported at its sched point.
    Real(OpEvent),
    /// Reacquisition of `mutex` by a condvar waiter that has been
    /// notified (the second half of its wait).
    Relock { mutex: usize },
    /// Wakeup of a parked thread whose unpark has been delivered.
    Resume { token: usize },
}

/// Dependency-object identity: two steps can only be dependent if they
/// touch the same object in the same role.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum DepKey {
    Mutex(usize),
    Cv(usize),
    Atomic(usize),
    Token(usize),
    Plain(usize),
    Cs(usize),
}

/// One entry of a step's dependency footprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Touch {
    key: DepKey,
    /// Write-like: two touches of the same key are dependent iff at
    /// least one side is write-like.
    write: bool,
    /// For `Mutex` keys only: `Some(true)` if the op needs the mutex
    /// free (lock/relock), `Some(false)` if it needs it held
    /// (unlock, condvar wait). Ops with opposite or identical *held*
    /// requirements can never be co-enabled, which matters for DPOR
    /// backtracking: only acquire/acquire pairs race on a mutex.
    acq: Option<bool>,
}

impl Touch {
    fn plain(key: DepKey, write: bool) -> Self {
        Touch {
            key,
            write,
            acq: None,
        }
    }

    fn mutex(obj: usize, acquire: bool) -> Self {
        Touch {
            key: DepKey::Mutex(obj),
            write: true,
            acq: Some(acquire),
        }
    }
}

/// The dependency footprint of a step: the objects it touches.
fn footprint(op: StepOp) -> Vec<Touch> {
    match op {
        StepOp::Real(ev) => match ev.op {
            SyncOp::MutexLock => vec![Touch::mutex(ev.obj, true)],
            SyncOp::MutexUnlock => vec![Touch::mutex(ev.obj, false)],
            // A condvar wait atomically releases its mutex and joins
            // the wait set: it conflicts through both objects.
            SyncOp::CondvarWait { mutex } => vec![
                Touch::plain(DepKey::Cv(ev.obj), true),
                Touch::mutex(mutex, false),
            ],
            SyncOp::CondvarNotifyOne | SyncOp::CondvarNotifyAll => {
                vec![Touch::plain(DepKey::Cv(ev.obj), true)]
            }
            SyncOp::AtomicLoad => vec![Touch::plain(DepKey::Atomic(ev.obj), false)],
            SyncOp::AtomicStore | SyncOp::AtomicRmw => {
                vec![Touch::plain(DepKey::Atomic(ev.obj), true)]
            }
            SyncOp::Park => vec![Touch::plain(DepKey::Token(ev.obj), true)],
            SyncOp::Unpark { thread } => vec![Touch::plain(DepKey::Token(thread), true)],
            SyncOp::RaceRead => vec![Touch::plain(DepKey::Plain(ev.obj), false)],
            SyncOp::RaceWrite => vec![Touch::plain(DepKey::Plain(ev.obj), true)],
            SyncOp::Yield => vec![Touch::plain(DepKey::Cs(ev.obj), true)],
        },
        StepOp::Relock { mutex } => vec![Touch::mutex(mutex, true)],
        StepOp::Resume { token } => vec![Touch::plain(DepKey::Token(token), true)],
    }
}

/// Dependence: same object, at least one write-like side. (Used for
/// DPOR clock joins and sleep-set filtering.)
fn dependent(a: StepOp, b: StepOp) -> bool {
    let fa = footprint(a);
    footprint(b).iter().any(|tb| {
        fa.iter()
            .any(|ta| ta.key == tb.key && (ta.write || tb.write))
    })
}

/// May the two touches ever be simultaneously enabled? Mutex touches
/// with a *held* requirement on either side exclude each other
/// (unlock/wait needs the holder; lock needs it free), so only
/// acquire/acquire pairs can race. Everything else may be co-enabled.
fn co_enabled(a: &Touch, b: &Touch) -> bool {
    match (a.acq, b.acq) {
        (Some(x), Some(y)) => x && y,
        _ => true,
    }
}

fn describe(op: StepOp) -> String {
    match op {
        StepOp::Real(ev) => format!("{:?} on {:#x}", ev.op, ev.obj),
        StepOp::Relock { mutex } => format!("Relock on {mutex:#x}"),
        StepOp::Resume { token } => format!("Resume of T{token}"),
    }
}

// ---------------------------------------------------------------------
// The per-run model
// ---------------------------------------------------------------------

/// One recorded access to a dependency object (for DPOR backtracking).
struct ObjAccess {
    step: usize,
    tid: usize,
    write: bool,
    /// Mutex acquire/release classification (see [`Touch::acq`]).
    acq: Option<bool>,
    /// The accessing step's DPOR clock (post-update).
    dc: VClock,
}

#[derive(Default)]
struct CellState {
    last_write: Option<(usize, VClock)>,
    /// Latest read per reading thread.
    reads: Vec<(usize, VClock)>,
}

/// What the scheduler must do to release the chosen thread.
enum GrantAction {
    Grant(Grant),
    Resume,
}

/// The scheduler-side model of one run: protocol state (who owns which
/// mutex, who waits where, which park tokens are pending), the
/// happens-before clocks of the race detector, and the DPOR clocks.
struct RunModel {
    n: usize,
    step: usize,
    // Protocol state.
    mutex_owner: HashMap<usize, usize>,
    cv_waiters: HashMap<usize, VecDeque<(usize, usize)>>,
    relock_pending: Vec<Option<usize>>,
    resume_pending: Vec<bool>,
    blocked_park: Vec<bool>,
    park_token: Vec<bool>,
    // Happens-before (race detector) clocks: joined only on real sync
    // edges.
    hb: Vec<VClock>,
    mutex_vc: HashMap<usize, VClock>,
    atomic_vc: HashMap<usize, VClock>,
    cs_vc: HashMap<usize, VClock>,
    /// Clock a blocked thread acquires when it resumes (notify →
    /// relock, unpark → resume edges).
    pending_acquire: Vec<VClock>,
    /// Clock carried by a pending (pre-park) unpark token.
    token_vc: Vec<VClock>,
    cells: HashMap<usize, CellState>,
    // DPOR clocks and access history: joined on every dependent pair.
    dc: Vec<VClock>,
    accesses: HashMap<DepKey, Vec<ObjAccess>>,
}

impl RunModel {
    fn new(n: usize) -> Self {
        RunModel {
            n,
            step: 0,
            mutex_owner: HashMap::new(),
            cv_waiters: HashMap::new(),
            relock_pending: vec![None; n],
            resume_pending: vec![false; n],
            blocked_park: vec![false; n],
            park_token: vec![false; n],
            hb: vec![VClock::new(n); n],
            mutex_vc: HashMap::new(),
            atomic_vc: HashMap::new(),
            cs_vc: HashMap::new(),
            pending_acquire: vec![VClock::new(n); n],
            token_vc: vec![VClock::new(n); n],
            cells: HashMap::new(),
            dc: vec![VClock::new(n); n],
            accesses: HashMap::new(),
        }
    }

    /// Each thread's pending step, given the controller's stable
    /// statuses.
    fn pending(&self, statuses: &[TStatus]) -> Vec<Option<StepOp>> {
        (0..self.n)
            .map(|tid| match &statuses[tid] {
                TStatus::AtOp(ev) => Some(StepOp::Real(*ev)),
                TStatus::Blocked => {
                    if let Some(mutex) = self.relock_pending[tid] {
                        Some(StepOp::Relock { mutex })
                    } else if self.resume_pending[tid] {
                        Some(StepOp::Resume { token: tid })
                    } else {
                        None
                    }
                }
                TStatus::Done => None,
                s => unreachable!("unstable status {s:?} after await_stable"),
            })
            .collect()
    }

    /// Threads whose pending step can execute now, in tid order.
    fn enabled(&self, pending: &[Option<StepOp>]) -> Vec<usize> {
        pending
            .iter()
            .enumerate()
            .filter_map(|(tid, op)| match op {
                Some(StepOp::Real(ev)) if ev.op == SyncOp::MutexLock => {
                    (!self.mutex_owner.contains_key(&ev.obj)).then_some(tid)
                }
                Some(StepOp::Relock { mutex }) => {
                    (!self.mutex_owner.contains_key(mutex)).then_some(tid)
                }
                Some(_) => Some(tid),
                None => None,
            })
            .collect()
    }

    /// DPOR bookkeeping for the step `tid` is about to take: registers
    /// backtrack points at earlier nodes whose step could have been
    /// reordered with this one, and updates the DPOR clocks.
    fn dpor_step(&mut self, tid: usize, op: StepOp, stack: &mut [Node]) {
        let touches = footprint(op);
        self.dc[tid].tick(tid);
        // Backtrack registration first, against the pre-join clock: the
        // last access per object that is dependent, *may be co-enabled*
        // with this one, and is not already ordered before us. The
        // co-enabledness filter matters: a mutex release is dependent
        // with the next acquire but can never race it, and letting it
        // shadow the acquire/acquire pair would hide the real choice.
        for t in &touches {
            if let Some(list) = self.accesses.get(&t.key) {
                if let Some(acc) = list.iter().rev().find(|a| {
                    a.tid != tid
                        && (a.write || t.write)
                        && co_enabled(
                            &Touch {
                                key: t.key,
                                write: a.write,
                                acq: a.acq,
                            },
                            t,
                        )
                        && !a.dc.le(&self.dc[tid])
                }) {
                    let node = &mut stack[acc.step];
                    if node.enabled.contains(&tid) {
                        node.backtrack.insert(tid);
                    } else {
                        node.backtrack.extend(node.enabled.iter().copied());
                    }
                }
            }
        }
        // Then join every dependent predecessor into this step's clock
        // (plain dependence here — co-enabledness gates only which
        // choices are worth backtracking to, not the trace ordering).
        for t in &touches {
            if let Some(list) = self.accesses.get(&t.key) {
                let joins: Vec<VClock> = list
                    .iter()
                    .filter(|a| a.write || t.write)
                    .map(|a| a.dc.clone())
                    .collect();
                for j in &joins {
                    self.dc[tid].join(j);
                }
            }
        }
        for t in touches {
            self.accesses.entry(t.key).or_default().push(ObjAccess {
                step: self.step,
                tid,
                write: t.write,
                acq: t.acq,
                dc: self.dc[tid].clone(),
            });
        }
    }

    /// Executes `op` in the model: protocol-state transitions, HB
    /// clock updates, race checks. Returns what to tell the thread and
    /// the first race found (if any).
    fn apply(&mut self, tid: usize, op: StepOp) -> (GrantAction, Option<String>) {
        self.hb[tid].tick(tid);
        let mut race = None;
        let action = match op {
            StepOp::Real(ev) => match ev.op {
                SyncOp::MutexLock => {
                    let prev = self.mutex_owner.insert(ev.obj, tid);
                    debug_assert!(prev.is_none(), "lock granted on held mutex");
                    if let Some(vc) = self.mutex_vc.get(&ev.obj) {
                        self.hb[tid].join(vc);
                    }
                    GrantAction::Grant(Grant::Proceed)
                }
                SyncOp::MutexUnlock => {
                    let prev = self.mutex_owner.remove(&ev.obj);
                    debug_assert_eq!(prev, Some(tid), "unlock by non-owner");
                    self.mutex_vc
                        .entry(ev.obj)
                        .or_insert_with(|| VClock::new(self.n))
                        .join(&self.hb[tid]);
                    GrantAction::Grant(Grant::Proceed)
                }
                SyncOp::CondvarWait { mutex } => {
                    let prev = self.mutex_owner.remove(&mutex);
                    debug_assert_eq!(prev, Some(tid), "wait releases a mutex it holds");
                    self.mutex_vc
                        .entry(mutex)
                        .or_insert_with(|| VClock::new(self.n))
                        .join(&self.hb[tid]);
                    self.cv_waiters
                        .entry(ev.obj)
                        .or_default()
                        .push_back((tid, mutex));
                    GrantAction::Grant(Grant::Block)
                }
                SyncOp::CondvarNotifyOne => {
                    if let Some((w, m)) = self
                        .cv_waiters
                        .get_mut(&ev.obj)
                        .and_then(VecDeque::pop_front)
                    {
                        self.relock_pending[w] = Some(m);
                        let hb = self.hb[tid].clone();
                        self.pending_acquire[w].join(&hb);
                    }
                    GrantAction::Grant(Grant::Proceed)
                }
                SyncOp::CondvarNotifyAll => {
                    let hb = self.hb[tid].clone();
                    for (w, m) in self.cv_waiters.entry(ev.obj).or_default().drain(..) {
                        self.relock_pending[w] = Some(m);
                        self.pending_acquire[w].join(&hb);
                    }
                    GrantAction::Grant(Grant::Proceed)
                }
                SyncOp::AtomicLoad => {
                    if let Some(vc) = self.atomic_vc.get(&ev.obj) {
                        self.hb[tid].join(vc);
                    }
                    GrantAction::Grant(Grant::Proceed)
                }
                SyncOp::AtomicStore => {
                    self.atomic_vc
                        .entry(ev.obj)
                        .or_insert_with(|| VClock::new(self.n))
                        .join(&self.hb[tid]);
                    GrantAction::Grant(Grant::Proceed)
                }
                SyncOp::AtomicRmw => {
                    let entry = self
                        .atomic_vc
                        .entry(ev.obj)
                        .or_insert_with(|| VClock::new(self.n));
                    self.hb[tid].join(entry);
                    entry.join(&self.hb[tid]);
                    GrantAction::Grant(Grant::Proceed)
                }
                SyncOp::Park => {
                    if self.park_token[tid] {
                        self.park_token[tid] = false;
                        let vc = std::mem::replace(&mut self.token_vc[tid], VClock::new(self.n));
                        self.hb[tid].join(&vc);
                        GrantAction::Grant(Grant::Proceed)
                    } else {
                        self.blocked_park[tid] = true;
                        GrantAction::Grant(Grant::Block)
                    }
                }
                SyncOp::Unpark { thread } => {
                    let hb = self.hb[tid].clone();
                    if thread < self.n && self.blocked_park[thread] {
                        self.blocked_park[thread] = false;
                        self.resume_pending[thread] = true;
                        self.pending_acquire[thread].join(&hb);
                    } else if thread < self.n {
                        self.park_token[thread] = true;
                        self.token_vc[thread].join(&hb);
                    }
                    GrantAction::Grant(Grant::Proceed)
                }
                SyncOp::Yield => {
                    // A serialized critical section: its real lock
                    // orders entries, so model it acquire + release.
                    let entry = self
                        .cs_vc
                        .entry(ev.obj)
                        .or_insert_with(|| VClock::new(self.n));
                    self.hb[tid].join(entry);
                    entry.join(&self.hb[tid]);
                    GrantAction::Grant(Grant::Proceed)
                }
                SyncOp::RaceRead => {
                    let cell = self.cells.entry(ev.obj).or_default();
                    if let Some((wt, wvc)) = &cell.last_write {
                        if *wt != tid && !wvc.le(&self.hb[tid]) {
                            race = Some(format!(
                                "plain read of cell {:#x} by T{tid} is concurrent with the \
                                 write by T{wt} (write clock {wvc}, reader clock {})",
                                ev.obj, self.hb[tid]
                            ));
                        }
                    }
                    let hb = self.hb[tid].clone();
                    match cell.reads.iter_mut().find(|(rt, _)| *rt == tid) {
                        Some(slot) => slot.1 = hb,
                        None => cell.reads.push((tid, hb)),
                    }
                    GrantAction::Grant(Grant::Proceed)
                }
                SyncOp::RaceWrite => {
                    let cell = self.cells.entry(ev.obj).or_default();
                    if let Some((wt, wvc)) = &cell.last_write {
                        if *wt != tid && !wvc.le(&self.hb[tid]) {
                            race = Some(format!(
                                "plain write to cell {:#x} by T{tid} is concurrent with the \
                                 write by T{wt} (prior clock {wvc}, writer clock {})",
                                ev.obj, self.hb[tid]
                            ));
                        }
                    }
                    if race.is_none() {
                        if let Some((rt, rvc)) = cell
                            .reads
                            .iter()
                            .find(|(rt, rvc)| *rt != tid && !rvc.le(&self.hb[tid]))
                        {
                            race = Some(format!(
                                "plain write to cell {:#x} by T{tid} is concurrent with the \
                                 read by T{rt} (read clock {rvc}, writer clock {})",
                                ev.obj, self.hb[tid]
                            ));
                        }
                    }
                    cell.last_write = Some((tid, self.hb[tid].clone()));
                    cell.reads.retain(|(rt, _)| *rt == tid);
                    GrantAction::Grant(Grant::Proceed)
                }
            },
            StepOp::Relock { mutex } => {
                let prev = self.mutex_owner.insert(mutex, tid);
                debug_assert!(prev.is_none(), "relock granted on held mutex");
                self.relock_pending[tid] = None;
                if let Some(vc) = self.mutex_vc.get(&mutex) {
                    self.hb[tid].join(vc);
                }
                let vc = std::mem::replace(&mut self.pending_acquire[tid], VClock::new(self.n));
                self.hb[tid].join(&vc);
                GrantAction::Resume
            }
            StepOp::Resume { .. } => {
                self.resume_pending[tid] = false;
                let vc = std::mem::replace(&mut self.pending_acquire[tid], VClock::new(self.n));
                self.hb[tid].join(&vc);
                GrantAction::Resume
            }
        };
        self.step += 1;
        (action, race)
    }
}

// ---------------------------------------------------------------------
// The DFS driver
// ---------------------------------------------------------------------

/// One decision point of the persistent DFS stack.
struct Node {
    enabled: Vec<usize>,
    pending: Vec<Option<StepOp>>,
    chosen: usize,
    backtrack: BTreeSet<usize>,
    done: BTreeSet<usize>,
    sleep: BTreeSet<usize>,
}

impl Node {
    fn chosen_op(&self) -> StepOp {
        self.pending[self.chosen].expect("chosen thread has a pending op")
    }
}

enum RunKind {
    Complete,
    Deadlock,
    Panic(String),
}

struct RunEnd {
    violation: Option<SchedViolation>,
    /// The run was cut short by sleep sets (counted as redundant).
    redundant: bool,
    depth: usize,
}

/// Explores `target`'s schedule space and reports the outcome.
///
/// Serialized process-wide (the instrumentation hook is global);
/// threads not registered with the controller are unaffected, so this
/// can run inside an ordinary `cargo test` process.
///
/// # Panics
///
/// On harness-level failures: instrumentation bugs that wedge the
/// rendezvous (never caused by scenario behaviour — scenario panics
/// and deadlocks are reported as violations, not panics).
pub fn explore_sched(target: &SchedTarget, opts: &ExploreOpts) -> SchedOutcome {
    let _serial = EXPLORE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    install_kill_filter();
    let ctl = Arc::new(Ctl::new());
    sched::install(ctl.clone());
    let _uninstall = InstallGuard;

    let mut stats = SchedStats::default();
    let mut stack: Vec<Node> = Vec::new();
    loop {
        if stats.schedules + stats.redundant >= opts.max_schedules {
            return SchedOutcome {
                stats,
                violation: Some(SchedViolation::Budget {
                    limit: opts.max_schedules,
                }),
            };
        }
        let end = run_once(
            target,
            &ctl,
            Driver::Explore(&mut stack, opts.pruning),
            &mut stats,
        )
        .unwrap_or_else(|e| panic!("sched harness error on {}: {e}", target.name));
        stats.max_depth = stats.max_depth.max(end.depth);
        if end.violation.is_some() {
            return SchedOutcome {
                stats,
                violation: end.violation,
            };
        }
        if end.redundant {
            stats.redundant += 1;
        } else {
            stats.schedules += 1;
        }
        // Pop to the deepest node with an untried backtrack candidate.
        loop {
            let Some(top) = stack.last_mut() else {
                return SchedOutcome {
                    stats,
                    violation: None,
                };
            };
            top.done.insert(top.chosen);
            let next = top
                .backtrack
                .iter()
                .copied()
                .find(|q| !top.done.contains(q) && !top.sleep.contains(q));
            match next {
                Some(q) => {
                    top.chosen = q;
                    break;
                }
                None => {
                    stack.pop();
                }
            }
        }
    }
}

/// A step-by-step record of one replayed schedule.
#[derive(Debug)]
pub struct ReplayReport {
    /// One line per decision: which thread ran which operation.
    pub steps: Vec<String>,
    /// The violation the schedule reproduces, if any.
    pub violation: Option<SchedViolation>,
}

/// Replays a witness `schedule` against `target`, returning the step
/// log and the reproduced violation. Once the witness is exhausted any
/// remaining decisions fall to the lowest enabled thread.
///
/// # Panics
///
/// If the schedule diverges from the scenario (a chosen thread is not
/// enabled) — witnesses only replay against the target that made them.
pub fn replay_schedule(target: &SchedTarget, schedule: &[usize]) -> ReplayReport {
    let _serial = EXPLORE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    install_kill_filter();
    let ctl = Arc::new(Ctl::new());
    sched::install(ctl.clone());
    let _uninstall = InstallGuard;

    let mut stats = SchedStats::default();
    let mut steps = Vec::new();
    let end = run_once(
        target,
        &ctl,
        Driver::Replay(schedule, &mut steps),
        &mut stats,
    )
    .unwrap_or_else(|e| panic!("sched replay error on {}: {e}", target.name));
    ReplayReport {
        steps,
        violation: end.violation,
    }
}

/// How `run_once` picks threads: exploring (maintaining the DFS stack)
/// or replaying a fixed witness.
enum Driver<'a> {
    Explore(&'a mut Vec<Node>, Pruning),
    Replay(&'a [usize], &'a mut Vec<String>),
}

#[allow(clippy::too_many_lines)]
fn run_once(
    target: &SchedTarget,
    ctl: &Arc<Ctl>,
    mut driver: Driver<'_>,
    stats: &mut SchedStats,
) -> Result<RunEnd, String> {
    let scenario = (target.make)();
    let n = scenario.threads.len();
    let check = scenario.check;
    ctl.reset(n);
    let mut handles = Vec::with_capacity(n);
    for (tid, body) in scenario.threads.into_iter().enumerate() {
        let ctl = Arc::clone(ctl);
        let handle = std::thread::Builder::new()
            .name(format!("sched-t{tid}"))
            .spawn(move || {
                sched::register_thread(tid);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
                sched::deregister_thread();
                match result {
                    Ok(()) => ctl.thread_done(tid, None),
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        // A controller kill is a routine abort, not a
                        // scenario failure.
                        let genuine = msg != KILL_MSG;
                        ctl.thread_done(tid, genuine.then_some(msg));
                    }
                }
            })
            .map_err(|e| format!("failed to spawn scenario thread: {e}"))?;
        handles.push(handle);
    }

    let mut model = RunModel::new(n);
    let mut schedule: Schedule = Vec::new();
    let mut race: Option<String> = None;
    let mut depth = 0usize;
    let mut free_finish = false;
    let kind = loop {
        let statuses = match ctl.await_stable() {
            Ok(s) => s,
            Err(e) => {
                abort_and_join(ctl, handles);
                return Err(e);
            }
        };
        if let Some(detail) = statuses.iter().enumerate().find_map(|(tid, s)| match s {
            TStatus::Panicked(m) => Some(format!("T{tid} panicked: {m}")),
            _ => None,
        }) {
            break RunKind::Panic(detail);
        }
        let pending = model.pending(&statuses);
        let enabled = model.enabled(&pending);
        if enabled.is_empty() {
            if statuses.iter().all(|s| matches!(s, TStatus::Done)) {
                break RunKind::Complete;
            }
            break RunKind::Deadlock;
        }
        if depth >= MAX_RUN_STEPS {
            abort_and_join(ctl, handles);
            return Err(format!("run exceeded {MAX_RUN_STEPS} steps"));
        }

        let (choice, dpor) = match &mut driver {
            Driver::Explore(stack, pruning) => {
                if depth < stack.len() {
                    // Replaying the prescribed prefix.
                    if stack[depth].enabled != enabled {
                        abort_and_join(ctl, handles);
                        return Err(format!(
                            "nondeterministic scenario: enabled set at depth {depth} changed \
                             from {:?} to {enabled:?}",
                            stack[depth].enabled
                        ));
                    }
                    (stack[depth].chosen, matches!(pruning, Pruning::Dpor))
                } else if free_finish {
                    (enabled[0], false)
                } else {
                    // New decision point.
                    let sleep: BTreeSet<usize> = match pruning {
                        Pruning::Naive => BTreeSet::new(),
                        Pruning::Dpor => stack
                            .last()
                            .map(|parent| {
                                let parent_op = parent.chosen_op();
                                parent
                                    .sleep
                                    .iter()
                                    .chain(parent.done.iter())
                                    .copied()
                                    .filter(|&q| {
                                        q != parent.chosen
                                            && parent.pending[q]
                                                .is_some_and(|oq| !dependent(oq, parent_op))
                                    })
                                    .collect()
                            })
                            .unwrap_or_default(),
                    };
                    let candidate = enabled.iter().copied().find(|t| !sleep.contains(t));
                    match candidate {
                        None => {
                            // Everything enabled is asleep: this whole
                            // continuation is redundant. Finish the run
                            // without growing the tree.
                            free_finish = true;
                            (enabled[0], false)
                        }
                        Some(chosen) => {
                            let backtrack: BTreeSet<usize> = match pruning {
                                Pruning::Dpor => BTreeSet::from([chosen]),
                                Pruning::Naive => enabled.iter().copied().collect(),
                            };
                            stack.push(Node {
                                enabled: enabled.clone(),
                                pending: pending.clone(),
                                chosen,
                                backtrack,
                                done: BTreeSet::new(),
                                sleep,
                            });
                            (chosen, matches!(pruning, Pruning::Dpor))
                        }
                    }
                }
            }
            Driver::Replay(sched_choices, log) => {
                let choice = sched_choices.get(depth).copied().unwrap_or(enabled[0]);
                if !enabled.contains(&choice) {
                    abort_and_join(ctl, handles);
                    return Err(format!(
                        "witness chooses T{choice} at depth {depth}, but enabled set is \
                         {enabled:?}"
                    ));
                }
                let op = pending[choice].expect("enabled thread has a pending op");
                log.push(format!("{depth:>4}: T{choice} {}", describe(op)));
                (choice, false)
            }
        };

        let op = pending[choice].expect("enabled thread has a pending op");
        if dpor {
            if let Driver::Explore(stack, _) = &mut driver {
                model.dpor_step(choice, op, stack);
            }
        }
        let (action, step_race) = model.apply(choice, op);
        if let (None, Some(r)) = (&race, step_race) {
            race = Some(r);
        }
        schedule.push(choice);
        depth += 1;
        stats.steps += 1;
        match action {
            GrantAction::Grant(g) => ctl.grant(choice, g),
            GrantAction::Resume => ctl.resume(choice, false),
        }
    };

    let violation = match kind {
        RunKind::Complete => {
            for h in handles {
                let _ = h.join();
            }
            if let Some(detail) = race {
                Some(SchedViolation::Race {
                    detail,
                    witness: schedule,
                })
            } else if let Some(check) = check {
                check().err().map(|detail| SchedViolation::Invariant {
                    detail,
                    witness: schedule,
                })
            } else {
                None
            }
        }
        RunKind::Deadlock => {
            abort_and_join(ctl, handles);
            // A race observed on the way to a deadlock still outranks
            // it: the race is the root cause witness.
            Some(match race {
                Some(detail) => SchedViolation::Race {
                    detail,
                    witness: schedule,
                },
                None => SchedViolation::Deadlock { witness: schedule },
            })
        }
        RunKind::Panic(detail) => {
            abort_and_join(ctl, handles);
            Some(SchedViolation::Panic {
                detail,
                witness: schedule,
            })
        }
    };
    Ok(RunEnd {
        violation,
        redundant: free_finish,
        depth,
    })
}

fn abort_and_join(ctl: &Ctl, handles: Vec<std::thread::JoinHandle<()>>) {
    ctl.abort();
    for h in handles {
        let _ = h.join();
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Expect, ExploreOpts, Pruning, Scenario, SchedTarget, SchedViolation};
    use super::*;

    /// Emits one raw instrumented op from a scenario thread. Object
    /// ids are arbitrary usize values (real primitives use addresses;
    /// the model only needs identity).
    fn raw(op: SyncOp, obj: usize) {
        sched::sync_op(OpEvent { op, obj });
    }

    fn target(
        name: &'static str,
        make: impl Fn() -> Scenario + Send + Sync + 'static,
    ) -> SchedTarget {
        SchedTarget {
            name,
            about: "test",
            expect: Expect::Clean,
            make: Box::new(make),
        }
    }

    fn opts(pruning: Pruning) -> ExploreOpts {
        ExploreOpts {
            max_schedules: 10_000,
            pruning,
        }
    }

    #[test]
    fn independent_ops_collapse_to_one_schedule_under_dpor() {
        let t = target("toy::independent", || Scenario {
            threads: vec![
                Box::new(|| raw(SyncOp::AtomicStore, 0x10)),
                Box::new(|| raw(SyncOp::AtomicStore, 0x20)),
            ],
            check: None,
        });
        let dpor = explore_sched(&t, &opts(Pruning::Dpor));
        assert!(dpor.violation.is_none(), "{:?}", dpor.violation);
        assert_eq!(dpor.stats.schedules, 1, "independent ops need one order");
        let naive = explore_sched(&t, &opts(Pruning::Naive));
        assert!(naive.violation.is_none());
        assert_eq!(naive.stats.schedules, 2, "naive tries both orders");
    }

    #[test]
    fn conflicting_ops_explore_both_orders() {
        let t = target("toy::conflict", || Scenario {
            threads: vec![
                Box::new(|| raw(SyncOp::AtomicStore, 0x10)),
                Box::new(|| raw(SyncOp::AtomicStore, 0x10)),
            ],
            check: None,
        });
        let out = explore_sched(&t, &opts(Pruning::Dpor));
        assert!(out.violation.is_none());
        assert_eq!(out.stats.schedules + out.stats.redundant, 2);
        assert!(out.stats.schedules >= 2, "both orders are meaningful");
    }

    #[test]
    fn unsynchronized_writes_race_and_replay() {
        let t = target("toy::race", || Scenario {
            threads: vec![
                Box::new(|| raw(SyncOp::RaceWrite, 0x77)),
                Box::new(|| raw(SyncOp::RaceWrite, 0x77)),
            ],
            check: None,
        });
        let out = explore_sched(&t, &opts(Pruning::Dpor));
        let Some(SchedViolation::Race { detail, witness }) = out.violation else {
            panic!("expected a race, got {:?}", out.violation);
        };
        assert!(detail.contains("0x77"), "{detail}");
        let replay = replay_schedule(&t, &witness);
        assert!(
            matches!(replay.violation, Some(SchedViolation::Race { .. })),
            "witness must reproduce: {:?}",
            replay.violation
        );
        assert_eq!(replay.steps.len(), witness.len());
    }

    #[test]
    fn mutex_protected_writes_do_not_race() {
        let m = 0xa0;
        let cell = 0xb0;
        let body = move || {
            raw(SyncOp::MutexLock, m);
            raw(SyncOp::RaceWrite, cell);
            raw(SyncOp::MutexUnlock, m);
        };
        let t = target("toy::locked", move || Scenario {
            threads: vec![Box::new(body), Box::new(body)],
            check: None,
        });
        let out = explore_sched(&t, &opts(Pruning::Dpor));
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.stats.schedules >= 2, "lock orders are dependent");
    }

    #[test]
    fn lost_wakeup_is_found_as_deadlock_with_witness() {
        let m = 0xa0;
        let cv = 0xc0;
        let t = target("toy::lost-wakeup", move || Scenario {
            threads: vec![
                Box::new(move || {
                    raw(SyncOp::MutexLock, m);
                    raw(SyncOp::CondvarWait { mutex: m }, cv);
                    raw(SyncOp::MutexUnlock, m);
                }),
                Box::new(move || {
                    raw(SyncOp::MutexLock, m);
                    raw(SyncOp::CondvarNotifyOne, cv);
                    raw(SyncOp::MutexUnlock, m);
                }),
            ],
            check: None,
        });
        let out = explore_sched(&t, &opts(Pruning::Dpor));
        let Some(SchedViolation::Deadlock { witness }) = out.violation else {
            panic!("notify-before-wait must deadlock, got {:?}", out.violation);
        };
        // The witness schedules the notifier's ops before the wait.
        let replay = replay_schedule(&t, &witness);
        assert!(matches!(
            replay.violation,
            Some(SchedViolation::Deadlock { .. })
        ));
    }

    #[test]
    fn park_unpark_token_semantics_never_deadlock() {
        let t = target("toy::park", || Scenario {
            threads: vec![
                Box::new(|| raw(SyncOp::Park, 0)),
                Box::new(|| raw(SyncOp::Unpark { thread: 0 }, 0)),
            ],
            check: None,
        });
        let out = explore_sched(&t, &opts(Pruning::Dpor));
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(
            out.stats.schedules >= 2,
            "park-first and unpark-first both explored"
        );
    }

    #[test]
    fn failing_final_check_reports_invariant_violation() {
        let t = target("toy::invariant", || Scenario {
            threads: vec![Box::new(|| raw(SyncOp::AtomicStore, 0x10))],
            check: Some(Box::new(|| Err("final state wrong".to_string()))),
        });
        let out = explore_sched(&t, &opts(Pruning::Dpor));
        assert!(
            matches!(out.violation, Some(SchedViolation::Invariant { ref detail, .. }) if detail.contains("final state")),
            "{:?}",
            out.violation
        );
    }

    #[test]
    fn scenario_panic_is_reported_with_witness() {
        let t = target("toy::panic", || Scenario {
            threads: vec![
                Box::new(|| {
                    raw(SyncOp::AtomicStore, 0x10);
                    panic!("scenario blew up");
                }),
                Box::new(|| raw(SyncOp::AtomicLoad, 0x10)),
            ],
            check: None,
        });
        let out = explore_sched(&t, &opts(Pruning::Dpor));
        assert!(
            matches!(out.violation, Some(SchedViolation::Panic { ref detail, .. }) if detail.contains("blew up")),
            "{:?}",
            out.violation
        );
    }

    #[test]
    fn budget_exhaustion_is_reported_honestly() {
        let t = target("toy::budget", || Scenario {
            threads: vec![
                Box::new(|| {
                    for _ in 0..4 {
                        raw(SyncOp::AtomicStore, 0x10);
                    }
                }),
                Box::new(|| {
                    for _ in 0..4 {
                        raw(SyncOp::AtomicStore, 0x10);
                    }
                }),
            ],
            check: None,
        });
        let out = explore_sched(
            &t,
            &ExploreOpts {
                max_schedules: 3,
                pruning: Pruning::Naive,
            },
        );
        assert!(matches!(
            out.violation,
            Some(SchedViolation::Budget { limit: 3 })
        ));
    }
}
