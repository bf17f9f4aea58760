//! The client API: what a thread outside the worker pool calls to wait
//! for the whole run or for one datum, and to read the run's counts —
//! and how a waiting thread runs tasks itself meanwhile.
//!
//! A waiting client does not park while there is work it may run. It
//! claims a task from the injector, or the oldest one on a worker's
//! deque, and runs it through the workers' own claim → [`execute`] →
//! commit path, with a hand-off slot of its own; the successors its
//! commits ready beyond the handed one go to the injector. After each
//! task it re-checks what it waits for under the graph lock, and it
//! parks on the client condvar only after that re-check. What it may
//! run:
//!
//! * in `wait_all`, any ready task;
//! * in `get`, a task only while every task not completed yet is the
//!   value's producer or one of its transitive predecessors — otherwise
//!   the call could pick up unrelated work, and a long task would delay
//!   the value it returns.
//!
//! The client brings one core of its own, which only the task it runs
//! uses; the rest of that task's demand comes from the pool
//! ([`Runner::share`]). A thread that runs task bodies — a worker, or a
//! client inside one — never helps: its waits block as they always did.

use super::admission::release;
use super::dispatch::{admit_claimed, execute, Runner, Scratch, WorkerCounts};
use super::record::{CellRef, TaskMeta};
use super::{DataHandle, GraphState, LocalRuntime, Shared};
use crate::error::RuntimeError;
use crate::lockorder::{self, RANK_GRAPH};
use continuum_dag::TaskId;
use crossbeam::deque::Steal;
use parking_lot::MutexGuard;
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;

/// What waiting clients keep in the graph state between waits, so that
/// a warm wait allocates nothing.
#[derive(Default)]
pub(super) struct Clients {
    /// Dispatch buffers of the clients not waiting now.
    spare: Vec<Scratch>,
    /// The predecessor walk's queue, and its marks by task id (all
    /// `false` between walks).
    queue: Vec<TaskId>,
    seen: Vec<bool>,
    /// What clients did, summed once per wait.
    pub(super) counts: WorkerCounts,
    /// Tasks clients ran, summed once per wait.
    pub(super) tasks: u64,
}

impl Shared {
    /// Wakes the clients parked in `get`/`wait_all`, if there are any.
    pub(super) fn notify_clients(&self) {
        if self.client_waiters.load(Ordering::SeqCst) > 0 {
            self.client_cv.notify_all();
        }
    }
}

thread_local! {
    /// Whether this thread is running task bodies: a worker always, a
    /// client while it runs one. Its waits then block as they always
    /// did, so no task runs nested on another's stack.
    static RUNS_TASKS: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is running task bodies (see
/// [`RUNS_TASKS`]).
fn runs_tasks() -> bool {
    RUNS_TASKS.with(Cell::get)
}

/// Runs `f` with this thread marked as running task bodies.
pub(super) fn running_tasks<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            RUNS_TASKS.with(|r| r.set(self.0));
        }
    }
    let _restore = Restore(RUNS_TASKS.with(|r| r.replace(true)));
    f()
}

/// One task from the injector, else the oldest of a worker's deque:
/// what a waiting client claims. One at a time, since a client keeps no
/// deque to take a batch into.
fn steal_one(shared: &Shared, counts: &mut WorkerCounts) -> Option<Arc<TaskMeta>> {
    loop {
        let mut retry = false;
        match shared.injector.steal() {
            Steal::Success(meta) => return Some(meta),
            Steal::Retry => retry = true,
            Steal::Empty => {}
        }
        for stealer in &shared.stealers {
            match stealer.steal() {
                Steal::Success(meta) => {
                    counts.steals += 1;
                    return Some(meta);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
        thread::yield_now();
    }
}

impl GraphState {
    /// Whether every task not completed yet is `producer` or one of its
    /// transitive predecessors, over completion and stream edges. Only
    /// tasks not completed are walked, so one reached only through a
    /// completed task (a stream producer outliving its consumer) counts
    /// as unrelated: the answer errs toward waiting.
    fn only_feeds(&mut self, producer: TaskId) -> bool {
        let GraphState {
            ap, run, clients, ..
        } = self;
        let open = |id: TaskId| run.state(id).is_some_and(|s| !s.is_completed());
        let Clients { queue, seen, .. } = clients;
        if seen.len() < run.len() {
            seen.resize(run.len(), false);
        }
        if open(producer) {
            seen[producer.index()] = true;
            queue.push(producer);
        }
        let mut next = 0;
        while let Some(&id) = queue.get(next) {
            next += 1;
            #[expect(clippy::expect_used, reason = "INVARIANT: only specs are retired")]
            let node = ap
                .graph()
                .node(id)
                .expect("the local graph keeps every task's edges");
            for &p in node.predecessors().iter().chain(node.stream_predecessors()) {
                if !seen[p.index()] && open(p) {
                    seen[p.index()] = true;
                    queue.push(p);
                }
            }
        }
        let reached = queue.len();
        for id in queue.drain(..) {
            seen[id.index()] = false;
        }
        reached == run.len() - run.completed_count()
    }
}

/// What a waiting client may run.
#[derive(Clone, Copy)]
enum Scope {
    /// Any ready task: `wait_all` waits for every one.
    Any,
    /// What the producer of a `get`'s version needs, while that is all
    /// there is left to run (`None`: a version 0, which no task makes).
    Feeds(Option<TaskId>),
}

/// One wait's turn at the executor.
struct Helper {
    scope: Scope,
    /// Buffers and hand-off slot, borrowed from [`Clients`] at the
    /// wait's first claim.
    scratch: Option<Scratch>,
    /// Tasks run in this wait.
    ran: u64,
    /// The graph's length at the last walk, and what the walk found.
    walked: Option<(usize, bool)>,
}

impl Helper {
    fn new(scope: Scope) -> Helper {
        Helper {
            scope,
            scratch: None,
            ran: 0,
            walked: None,
        }
    }

    /// Called under the graph lock while the wait's condition does not
    /// hold: runs one task the scope allows, with the lock released, or
    /// parks until a commit notifies clients. The caller re-checks its
    /// condition either way.
    fn step(&mut self, shared: &Arc<Shared>, g: &mut MutexGuard<'_, GraphState>) {
        let Some(meta) = self.claim(shared, g) else {
            shared.client_waiters.fetch_add(1, Ordering::SeqCst);
            shared.client_cv.wait(g);
            shared.client_waiters.fetch_sub(1, Ordering::SeqCst);
            return;
        };
        #[expect(clippy::expect_used, reason = "INVARIANT: a claim takes the buffers")]
        let s = self.scratch.as_mut().expect("a claim takes the buffers");
        // A client's tasks show on the row after the last worker's.
        let row = shared.stealers.len() as u32;
        MutexGuard::unlocked(g, || {
            lockorder::released("graph", || {
                running_tasks(|| execute(shared, Runner::Client, &meta, row, s));
            });
        });
        self.ran += 1;
    }

    /// The next task this wait runs: its handed one, else one claimed
    /// and admitted. `None` when nothing is ready, or when the scope
    /// allows nothing now — a handed task then goes back.
    fn claim(&mut self, shared: &Shared, g: &mut GraphState) -> Option<Arc<TaskMeta>> {
        if !self.may_run(shared, g) {
            self.give_back(shared);
            return None;
        }
        let s = self
            .scratch
            .get_or_insert_with(|| g.clients.spare.pop().unwrap_or_default());
        if let Some(meta) = s.handed.take() {
            s.counts.handoffs += 1;
            return Some(meta);
        }
        loop {
            let meta = steal_one(shared, &mut s.counts)?;
            if admit_claimed(shared, Runner::Client, &meta) {
                return Some(meta);
            }
        }
    }

    /// Whether this wait may run tasks now. A `get` walks the graph
    /// again only once it has grown: until then, completions can only
    /// shrink the set of tasks left.
    fn may_run(&mut self, shared: &Shared, g: &mut GraphState) -> bool {
        if runs_tasks() || shared.poisoned.load(Ordering::SeqCst) {
            return false;
        }
        match self.scope {
            Scope::Any => true,
            Scope::Feeds(None) => false,
            Scope::Feeds(Some(producer)) => {
                let len = g.ap.graph().len();
                match self.walked {
                    Some((at, feeds)) if at == len => feeds,
                    _ => {
                        let feeds = g.only_feeds(producer);
                        self.walked = Some((len, feeds));
                        feeds
                    }
                }
            }
        }
    }

    /// Returns a handed task this wait will not run: what it took from
    /// the pool, its `running` and in-flight slots, and the task itself
    /// to the injector, where it is claimed afresh. Under the graph
    /// lock, like a commit's own decrement of `running`, so that a
    /// `wait_all` watching a failed run drain cannot miss it.
    fn give_back(&mut self, shared: &Shared) {
        let Some(s) = self.scratch.as_mut() else {
            return;
        };
        let Some(meta) = s.handed.take() else {
            return;
        };
        release(
            shared,
            &Runner::Client.share(&meta.demand),
            None,
            &mut s.unblocked,
        );
        meta.inflight_reserved.store(false, Ordering::SeqCst);
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        shared.running.fetch_sub(1, Ordering::SeqCst);
        s.unblocked.push(meta);
        shared.inject_ready(&mut s.unblocked);
        shared.notify_clients();
    }

    /// Ends the wait, under the graph lock: gives back a handed task,
    /// adds what the wait did to the run's counts and returns the
    /// buffers for the next wait.
    fn finish(mut self, shared: &Shared, g: &mut GraphState) {
        self.give_back(shared);
        let Some(mut s) = self.scratch else {
            return;
        };
        g.clients.counts += std::mem::take(&mut s.counts);
        g.clients.tasks += self.ran;
        g.clients.spare.push(s);
    }
}

impl LocalRuntime {
    /// Blocks until every submitted task has completed.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::TaskPanicked`] (or
    /// [`RuntimeError::BadTaskIo`] mapped to a failure) if any task
    /// body failed; the first failure wins.
    pub fn wait_all(&self) -> Result<(), RuntimeError> {
        let shared = &self.shared;
        let _order = lockorder::acquire(RANK_GRAPH, "graph");
        let mut g = shared.graph.lock();
        let mut helper = Helper::new(Scope::Any);
        let result = loop {
            if let Some((task, message)) = g.failure.clone() {
                if shared.running.load(Ordering::SeqCst) == 0 {
                    break Err(RuntimeError::TaskPanicked { task, message });
                }
            } else if g.run.all_completed() && shared.running.load(Ordering::SeqCst) == 0 {
                break Ok(());
            }
            helper.step(shared, &mut g);
        };
        helper.finish(shared, &mut g);
        result
    }

    /// Blocks until the *current* version of the datum exists and
    /// returns it.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::BadTaskIo`] — attributed to the producing
    ///   task — if the value's type is not `T`;
    /// * [`RuntimeError::BadDataAccess`] if the datum has no producer
    ///   and no initial value (no task is at fault);
    /// * [`RuntimeError::TaskPanicked`] if execution failed before the
    ///   value was produced.
    pub fn get<T: Send + Sync + 'static>(
        &self,
        handle: &DataHandle<T>,
    ) -> Result<Arc<T>, RuntimeError> {
        let shared = &self.shared;
        let _order = lockorder::acquire(RANK_GRAPH, "graph");
        let mut g = shared.graph.lock();
        let target = g.ap.current_version(handle.id)?;
        let producer = g.ap.catalog().current(handle.id)?.producer;
        let mut helper = Helper::new(Scope::Feeds(producer));
        // The pin is a reference of its own: the version stays
        // materialized however many writers supersede it and readers
        // start while this call waits. `None`: an untouched version 0.
        let pin = g.cells.current(handle.id).map(CellRef::retain);
        let result = loop {
            if let Some(v) = pin.as_ref().and_then(|pin| pin.cell().read()) {
                break v.into_shared().downcast::<T>().map_err(|_| match producer {
                    Some(task) => RuntimeError::BadTaskIo {
                        task,
                        detail: format!("value {target} does not have the requested type"),
                    },
                    None => RuntimeError::BadDataAccess {
                        data: handle.id,
                        detail: format!("initial value {target} does not have the requested type"),
                    },
                });
            }
            if let Some((task, message)) = g.failure.clone() {
                break Err(RuntimeError::TaskPanicked { task, message });
            }
            if target.version.is_initial() {
                break Err(RuntimeError::BadDataAccess {
                    data: handle.id,
                    detail: format!("datum {target} has no initial value"),
                });
            }
            helper.step(shared, &mut g);
        };
        helper.finish(shared, &mut g);
        drop(g);
        if let Some(pin) = pin {
            shared.release(pin);
        }
        result
    }

    /// Current number of completed tasks.
    pub fn completed_count(&self) -> usize {
        let _order = lockorder::acquire(RANK_GRAPH, "graph");
        self.shared.graph.lock().run.completed_count()
    }

    /// Total number of submitted tasks.
    pub fn submitted_count(&self) -> usize {
        let _order = lockorder::acquire(RANK_GRAPH, "graph");
        self.shared.graph.lock().ap.graph().len()
    }

    /// Number of materialized values currently held by the runtime
    /// (inputs kept for pending readers plus current versions). Exposed
    /// so benchmarks and tests can assert bounded memory over long
    /// version chains.
    pub fn live_value_count(&self) -> usize {
        self.shared.live_values.load(Ordering::Relaxed)
    }

    /// Async tasks currently parked on a waker (timer, stream or other
    /// future). Each costs one stored future, not one thread.
    pub fn parked_count(&self) -> usize {
        self.shared.parked.load(Ordering::SeqCst)
    }

    /// High-water mark of concurrently in-flight (running + parked)
    /// tasks over the runtime's lifetime. Exposed so benchmarks can
    /// assert that parked concurrency exceeds the worker count by
    /// orders of magnitude.
    pub fn inflight_high_water(&self) -> usize {
        self.shared.inflight_peak.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{hold_a_worker, rt, within};
    use super::runs_tasks;
    use crate::{LocalConfig, LocalRuntime, RuntimeError, TraceBuffer};
    use continuum_dag::TaskSpec;
    use continuum_platform::Constraints;
    use continuum_telemetry::{CounterKey, Event};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::Sender;
    use std::sync::{Arc, OnceLock};
    use std::thread::{self, JoinHandle, ThreadId};
    use std::time::{Duration, Instant};

    const WATCHDOG: Duration = Duration::from_secs(20);

    /// The run-end value of `key` in a trace.
    fn counter(events: &[Event], key: CounterKey) -> Option<f64> {
        events.iter().find_map(|e| match e {
            Event::Counter { key: k, value, .. } if *k == key => Some(*value),
            _ => None,
        })
    }

    #[test]
    fn wait_all_runs_the_tasks_a_held_worker_cannot() {
        // The only worker is held by a gate that the last of 100
        // independent tasks opens: only the client waiting in `wait_all`
        // can run them.
        let (buffer, telemetry) = TraceBuffer::collector();
        let rt = Arc::new(LocalRuntime::new(LocalConfig {
            telemetry,
            ..LocalConfig::with_workers(1)
        }));
        let held = hold_a_worker(&rt, Constraints::new());
        let waiter: Arc<OnceLock<ThreadId>> = Arc::default();
        let (done, on_client) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        for o in rt.data_batch::<()>("o", 100) {
            let (open, waiter) = (held.open.clone(), Arc::clone(&waiter));
            let (done, on_client) = (Arc::clone(&done), Arc::clone(&on_client));
            rt.submit(
                TaskSpec::new("t").output(o.id()),
                Constraints::new(),
                move |ctx| {
                    assert!(runs_tasks(), "a body runs marked as one");
                    if waiter.get() == Some(&thread::current().id()) {
                        on_client.fetch_add(1, Ordering::SeqCst);
                    }
                    if done.fetch_add(1, Ordering::SeqCst) == 99 {
                        open.send(()).unwrap();
                    }
                    ctx.set_output(0, ());
                },
            )
            .unwrap();
        }
        let client = Arc::clone(&rt);
        within(WATCHDOG, move || {
            waiter.set(thread::current().id()).unwrap();
            let outcome = client.wait_all();
            assert!(!runs_tasks(), "the client is a client again");
            outcome
        })
        .unwrap();
        assert_eq!(on_client.load(Ordering::SeqCst), 100);
        assert!(held.done.load(Ordering::SeqCst));
        drop(rt);
        assert_eq!(
            counter(&buffer.events(), CounterKey::ClientTasks),
            Some(100.0)
        );
    }

    #[test]
    fn a_client_walking_a_chain_counts_its_hand_offs() {
        // The worker is held by a gate the chain's last link opens: the
        // client in `wait_all` claims the first link and runs every later
        // one from its own hand-off slot.
        const N: u64 = 64;
        let (buffer, telemetry) = TraceBuffer::collector();
        let rt = Arc::new(LocalRuntime::new(LocalConfig {
            telemetry,
            ..LocalConfig::with_workers(1)
        }));
        let held = hold_a_worker(&rt, Constraints::new());
        let acc = rt.data::<u64>("acc");
        rt.submit(
            TaskSpec::new("first").output(acc.id()),
            Constraints::new(),
            |ctx| ctx.set_output(0, 0u64),
        )
        .unwrap();
        for i in 1..N {
            let open = held.open.clone();
            rt.submit(
                TaskSpec::new("link").inout(acc.id()),
                Constraints::new(),
                move |ctx| {
                    if i == N - 1 {
                        open.send(()).unwrap();
                    }
                    let v = *ctx.input::<u64>(0);
                    ctx.set_output(0, v + 1);
                },
            )
            .unwrap();
        }
        let client = Arc::clone(&rt);
        within(WATCHDOG, move || client.wait_all()).unwrap();
        assert_eq!(*rt.get(&acc).unwrap(), N - 1);
        drop(rt);
        let events = buffer.events();
        let handed = counter(&events, CounterKey::HandedOffTasks);
        assert_eq!(handed, Some((N - 1) as f64));
        assert_eq!(counter(&events, CounterKey::StolenTasks), Some(0.0));
        assert_eq!(counter(&events, CounterKey::ClientTasks), Some(N as f64));
    }

    #[test]
    fn get_runs_what_its_value_needs_while_the_worker_is_held() {
        // `sum` reads the gate and eight parts, and the parts open the
        // gate: everything left feeds `sum`, so `get` runs the parts.
        let rt = Arc::new(rt(1));
        let held = hold_a_worker(&rt, Constraints::new());
        let parts = rt.data_batch::<u64>("part", 8);
        let left = Arc::new(AtomicUsize::new(parts.len()));
        for (i, p) in parts.iter().enumerate() {
            let (left, open) = (Arc::clone(&left), held.open.clone());
            rt.submit(
                TaskSpec::new("part").output(p.id()),
                Constraints::new(),
                move |ctx| {
                    if left.fetch_sub(1, Ordering::SeqCst) == 1 {
                        open.send(()).unwrap();
                    }
                    ctx.set_output(0, i as u64 + 1);
                },
            )
            .unwrap();
        }
        let sum = rt.data::<u64>("sum");
        let spec = TaskSpec::new("sum")
            .input(held.out.id())
            .inputs(parts.iter().map(|p| p.id()))
            .output(sum.id());
        rt.submit(spec, Constraints::new(), |ctx| {
            let total: u64 = (1..ctx.input_count()).map(|i| *ctx.input::<u64>(i)).sum();
            ctx.set_output(0, total);
        })
        .unwrap();
        let client = Arc::clone(&rt);
        assert_eq!(within(WATCHDOG, move || *client.get(&sum).unwrap()), 36);
    }

    /// Opens a held gate once a client has parked on `rt`, or at the
    /// watchdog's deadline should none park.
    fn open_once_a_client_parks(rt: &Arc<LocalRuntime>, open: Sender<()>) -> JoinHandle<()> {
        let rt = Arc::clone(rt);
        thread::spawn(move || {
            let since = Instant::now();
            while rt.shared.client_waiters.load(Ordering::SeqCst) == 0 && since.elapsed() < WATCHDOG
            {
                thread::yield_now();
            }
            open.send(()).unwrap();
        })
    }

    #[test]
    fn a_get_leaves_unrelated_work_to_the_workers() {
        // `fast` needs nothing, but the held gate and `slow`, queued
        // first, are left beside it: the client waits, and the worker
        // runs both once the gate opens.
        let rt = Arc::new(rt(1));
        let held = hold_a_worker(&rt, Constraints::new());
        let waiter: Arc<OnceLock<ThreadId>> = Arc::default();
        let ran_on_client = Arc::new(AtomicUsize::new(0));
        let (slow, fast) = (rt.data::<u64>("slow"), rt.data::<u64>("fast"));
        for (d, v) in [(slow, 1u64), (fast, 2)] {
            let (waiter, ran_on_client) = (Arc::clone(&waiter), Arc::clone(&ran_on_client));
            rt.submit(
                TaskSpec::new("t").output(d.id()),
                Constraints::new(),
                move |ctx| {
                    if waiter.get() == Some(&thread::current().id()) {
                        ran_on_client.fetch_add(1, Ordering::SeqCst);
                    }
                    ctx.set_output(0, v);
                },
            )
            .unwrap();
        }
        let opener = open_once_a_client_parks(&rt, held.open);
        let client = Arc::clone(&rt);
        let got = within(WATCHDOG, move || {
            waiter.set(thread::current().id()).unwrap();
            *client.get(&fast).unwrap()
        });
        opener.join().unwrap();
        assert_eq!(got, 2);
        assert_eq!(ran_on_client.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_thread_running_a_body_waits_without_helping() {
        // A body on `outer` waits in `get` on `inner`, whose only worker
        // a gate holds; `make`, ready beside the gate, feeds the value,
        // so a waiting client would run it. The body's thread blocks
        // instead, and `make` runs on `inner`'s worker once the gate
        // opens, never nested on the body's stack.
        let (outer, inner) = (Arc::new(rt(1)), Arc::new(rt(1)));
        let held = hold_a_worker(&inner, Constraints::new());
        let (made_on, result) = (inner.data::<ThreadId>("m"), inner.data::<ThreadId>("r"));
        inner
            .submit(
                TaskSpec::new("make").output(made_on.id()),
                Constraints::new(),
                |ctx| ctx.set_output(0, thread::current().id()),
            )
            .unwrap();
        let spec = TaskSpec::new("result")
            .input(held.out.id())
            .input(made_on.id())
            .output(result.id());
        inner
            .submit(spec, Constraints::new(), |ctx| {
                ctx.set_output(0, *ctx.input::<ThreadId>(1))
            })
            .unwrap();
        let opener = open_once_a_client_parks(&inner, held.open);
        let nested = outer.data::<bool>("nested");
        outer
            .submit(
                TaskSpec::new("waits").output(nested.id()),
                Constraints::new(),
                move |ctx| {
                    let maker = *inner.get(&result).unwrap();
                    ctx.set_output(0, maker == thread::current().id());
                },
            )
            .unwrap();
        let client = Arc::clone(&outer);
        assert!(!within(WATCHDOG, move || *client.get(&nested).unwrap()));
        opener.join().unwrap();
    }

    #[test]
    fn a_get_helps_only_while_all_that_is_left_feeds_its_value() {
        // Stream edges count: the consumer needs its producer, which
        // needs the gate. A task beside them breaks the rule for both.
        let rt = rt(1);
        let held = hold_a_worker(&rt, Constraints::new());
        let s = rt.stream::<u64>("s", 4);
        let (d, other) = (rt.data::<u64>("d"), rt.data::<u64>("other"));
        rt.submit(
            TaskSpec::new("producer")
                .input(held.out.id())
                .stream_out(s.id()),
            Constraints::new(),
            |ctx| {
                let w = ctx.stream_writer::<u64>(0);
                (1..=3).for_each(|v| assert!(w.send(v)));
            },
        )
        .unwrap();
        let consumer = rt
            .submit(
                TaskSpec::new("consumer").stream_in(s.id()).output(d.id()),
                Constraints::new(),
                |ctx| {
                    let total = ctx.stream_reader::<u64>(0).iter().sum::<u64>();
                    ctx.set_output(0, total);
                },
            )
            .unwrap();
        let feeds = |producer| rt.shared.graph.lock().only_feeds(producer);
        assert!(feeds(consumer));
        let beside = rt
            .submit(
                TaskSpec::new("beside")
                    .input(held.out.id())
                    .output(other.id()),
                Constraints::new(),
                |ctx| ctx.set_output(0, 0u64),
            )
            .unwrap();
        assert!(!feeds(consumer));
        assert!(!feeds(beside));
        held.open.send(()).unwrap();
        assert_eq!(*rt.get(&d).unwrap(), 6);
        rt.wait_all().unwrap();
        assert!(feeds(consumer), "nothing is left at all");
    }

    #[test]
    fn a_get_gives_its_handed_task_back_when_unrelated_work_arrives() {
        // A 300-MB chain and a 500-MB gate feed `total` on a 1 000-MB
        // machine whose only worker the gate holds. The client in `get`
        // runs the first link; meanwhile another thread submits a reader
        // of `total`, which `total` does not need, so the client must
        // give the next link back — with its 300 MB — and wait.
        let rt = Arc::new(LocalRuntime::new(LocalConfig {
            memory_mb: 1000,
            ..LocalConfig::with_workers(1)
        }));
        let held = hold_a_worker(&rt, Constraints::new().memory_mb(500));
        let links = Arc::new(AtomicUsize::new(0));
        let (started_tx, started) = std::sync::mpsc::channel::<()>();
        let (go_tx, go) = std::sync::mpsc::channel::<()>();
        let acc = rt.data::<u64>("acc");
        let first = Arc::clone(&links);
        rt.submit(
            TaskSpec::new("link").output(acc.id()),
            Constraints::new().memory_mb(300),
            move |ctx| {
                first.fetch_add(1, Ordering::SeqCst);
                started_tx.send(()).unwrap();
                go.recv().unwrap();
                ctx.set_output(0, 1u64);
            },
        )
        .unwrap();
        for _ in 1..4 {
            let links = Arc::clone(&links);
            rt.submit(
                TaskSpec::new("link").inout(acc.id()),
                Constraints::new().memory_mb(300),
                move |ctx| {
                    links.fetch_add(1, Ordering::SeqCst);
                    let v = *ctx.input::<u64>(0);
                    ctx.set_output(0, v + 1);
                },
            )
            .unwrap();
        }
        let total = rt.data::<u64>("total");
        rt.submit(
            TaskSpec::new("total")
                .input(held.out.id())
                .input(acc.id())
                .output(total.id()),
            Constraints::new(),
            |ctx| {
                let v = *ctx.input::<u64>(1);
                ctx.set_output(0, v);
            },
        )
        .unwrap();
        let bringer = {
            let rt = Arc::clone(&rt);
            thread::spawn(move || {
                started.recv().unwrap();
                let after = rt.data::<u64>("after");
                rt.submit(
                    TaskSpec::new("after").input(total.id()).output(after.id()),
                    Constraints::new(),
                    |ctx| ctx.set_output(0, 0u64),
                )
                .unwrap();
                go_tx.send(()).unwrap();
                held.open.send(()).unwrap();
            })
        };
        let client = Arc::clone(&rt);
        let seen = within(WATCHDOG, move || {
            let links_at_first_get = Arc::clone(&links);
            let v = *client.get(&total).unwrap();
            (v, links_at_first_get.load(Ordering::SeqCst))
        });
        assert_eq!(seen, (4, 4));
        let ran = rt.shared.graph.lock().clients.tasks;
        assert_eq!(ran, 1, "the client ran the first link only");
        bringer.join().unwrap();
        // Every megabyte came back: a task that needs the whole machine
        // runs.
        let whole = rt.data::<()>("whole");
        rt.submit(
            TaskSpec::new("whole").output(whole.id()),
            Constraints::new().memory_mb(1000),
            |ctx| ctx.set_output(0, ()),
        )
        .unwrap();
        let client = Arc::clone(&rt);
        within(WATCHDOG, move || client.wait_all()).unwrap();
        assert_eq!(rt.shared.running.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_client_task_brings_its_core_and_takes_the_rest_from_the_pool() {
        // The only worker is held by a 600-MB gate on a 1 000-MB machine:
        // no core is free, yet the client runs 300-MB tasks on its own.
        // The 500-MB task it claims first does not fit beside the gate,
        // so it parks until the last small task has opened the gate.
        let rt = Arc::new(LocalRuntime::new(LocalConfig {
            memory_mb: 1000,
            ..LocalConfig::with_workers(1)
        }));
        let held = hold_a_worker(&rt, Constraints::new().memory_mb(600));
        let (big, gate_done) = (rt.data::<()>("big"), Arc::clone(&held.done));
        rt.submit(
            TaskSpec::new("big").output(big.id()),
            Constraints::new().memory_mb(500),
            move |ctx| {
                assert!(gate_done.load(Ordering::SeqCst), "ran beside the gate");
                ctx.set_output(0, ());
            },
        )
        .unwrap();
        let left = Arc::new(AtomicUsize::new(3));
        for o in rt.data_batch::<()>("small", 3) {
            let (left, open) = (Arc::clone(&left), held.open.clone());
            rt.submit(
                TaskSpec::new("small").output(o.id()),
                Constraints::new().memory_mb(300),
                move |ctx| {
                    if left.fetch_sub(1, Ordering::SeqCst) == 1 {
                        open.send(()).unwrap();
                    }
                    ctx.set_output(0, ());
                },
            )
            .unwrap();
        }
        let client = Arc::clone(&rt);
        within(WATCHDOG, move || client.wait_all()).unwrap();
        assert_eq!(rt.shared.pool.lock().free.memory_mb, 1000);
        assert_eq!(rt.shared.pool.lock().free.cores, 1, "the client added none");
    }

    #[test]
    fn get_after_failure_errors_instead_of_hanging() {
        let rt = rt(2);
        let d = rt.data::<i32>("d");
        rt.submit(
            TaskSpec::new("boom").output(d.id()),
            Constraints::new(),
            |_| {
                panic!("dead");
            },
        )
        .unwrap();
        assert!(rt.get(&d).is_err());
    }

    #[test]
    fn type_mismatch_in_get_blames_the_producer() {
        let rt = rt(2);
        let d = rt.data::<String>("d");
        let id = rt
            .submit(
                TaskSpec::new("w").output(d.id()),
                Constraints::new(),
                |ctx| ctx.set_output(0, 7i32),
            )
            .unwrap();
        match rt.get(&d).unwrap_err() {
            RuntimeError::BadTaskIo { task, .. } => assert_eq!(task, id),
            other => panic!("expected BadTaskIo, got {other}"),
        }
    }

    #[test]
    fn missing_initial_value_is_a_data_error() {
        let rt = rt(1);
        let d = rt.data::<i32>("d");
        match rt.get(&d).unwrap_err() {
            RuntimeError::BadDataAccess { data, .. } => assert_eq!(data, d.id()),
            other => panic!("expected BadDataAccess, got {other}"),
        }
    }
}
