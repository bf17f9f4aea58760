//! The task record: what the dispatch queues carry, what an async
//! task's waker is, and the references that keep a version's cell
//! readable.
//!
//! A record is alive from submission until its task committed and no
//! reader or column references one of its output cells — at the end of
//! a task storm, one per datum. So every field is paid for by every
//! task, and a field only some tasks use (streams, an async body) costs
//! the others no more than an empty pointer: DESIGN §9.1 prices each.

use super::admission::Demand;
use super::{Shared, TaskContext};
use crate::stream::StreamChannel;
use crate::task_cell::{TaskCell, WakeOutcome};
use crate::value_cell::{Slots, ValueCell};
use continuum_dag::{DataId, Label, TaskId};
use continuum_telemetry::{Event as TelemetryEvent, TaskPhase, Track};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::task::Wake;

/// A counted reference to one version's cell: what a reader's record,
/// the catalog column ([`DatumCells::current`]) and a waiting `get`
/// hold. Cloning is [`CellRef::retain`], and every clone made while
/// the runtime is up ends in [`Shared::release`], which is what frees
/// the value; only teardown drops references uncounted.
#[must_use]
#[derive(Clone)]
pub(super) enum CellRef {
    /// Output `index` of `producer`, which also keeps the record — the
    /// cell's storage — alive.
    Output { producer: Arc<TaskMeta>, index: u32 },
    /// Version 0 of a datum.
    Initial(Arc<ValueCell>),
}

impl CellRef {
    pub(super) fn cell(&self) -> &ValueCell {
        match self {
            CellRef::Output { producer, index } => &producer.outputs.as_slice()[*index as usize],
            CellRef::Initial(cell) => cell,
        }
    }

    /// The counted clone; a bare `clone` leaves the cell's count behind.
    pub(super) fn retain(&self) -> CellRef {
        self.cell().retain();
        self.clone()
    }
}

/// A closure task's body, in the record's [`Claim`] until its first
/// dispatch: with telemetry on a [`Named`] closure, which carries the
/// task's name to the events its run records; with telemetry off the
/// closure alone, so a closure that captures nothing boxes nothing.
pub(super) trait Body: Send {
    /// Takes the task's name for telemetry out of the body; `None`
    /// when telemetry is disabled.
    fn take_name(&mut self) -> Option<Label>;

    /// Runs the body to completion.
    fn run(self: Box<Self>, ctx: &mut TaskContext);
}

pub(super) type TaskBody = Box<dyn Body>;

impl<F: FnOnce(&mut TaskContext) + Send> Body for F {
    fn take_name(&mut self) -> Option<Label> {
        None
    }

    fn run(self: Box<Self>, ctx: &mut TaskContext) {
        (*self)(ctx);
    }
}

/// A closure body with its task's name, boxed in one block.
pub(super) struct Named<F> {
    pub(super) name: Option<Label>,
    pub(super) body: F,
}

impl<F: FnOnce(&mut TaskContext) + Send> Body for Named<F> {
    fn take_name(&mut self) -> Option<Label> {
        self.name.take()
    }

    fn run(self: Box<Self>, ctx: &mut TaskContext) {
        (self.body)(ctx);
    }
}

/// A pinned, type-erased async task body between polls.
pub(super) type TaskFuture = Pin<Box<dyn Future<Output = TaskContext> + Send>>;

/// The kind of a task's body: a run-to-completion closure or a
/// poll-based async body with its park/wake cell.
pub(super) enum TaskPayload {
    /// Original API: runs once on the claiming worker, never parks. The
    /// body itself sits in the record's [`Claim`], taken with the inputs.
    Closure,
    /// Async API ([`LocalRuntime::submit_async`]): polled on whichever
    /// worker claims it; parks on `Poll::Pending`. Boxed, so a closure
    /// task's record pays a pointer for it, not the body.
    Async(Box<AsyncBody>),
}

/// What a task's first dispatch takes out of its record, in one lock.
#[derive(Default)]
pub(super) struct Claim {
    /// The cells this task reads, in declaration order: resolved to
    /// values and released at first dispatch — which also lets go of
    /// the producers' records, so a version chain never hangs off its
    /// newest task.
    pub(super) inputs: Slots<CellRef>,
    /// A closure task's body; `None` for an async task, whose body
    /// stays in [`TaskPayload::Async`] across polls.
    pub(super) body: Option<TaskBody>,
}

/// State of one async task body between polls, with the user's factory
/// inline as its tail: built as `AsyncBody<Mutex<Option<F>>>` and
/// carried as `Box<AsyncBody<dyn Start>>` — one block for both. The
/// mutexes are uncontended by construction — exactly one worker owns a
/// claimed task, and the cell's CAS handshake serializes ownership
/// handoffs — so they exist only to satisfy `Sync`, not to arbitrate.
pub(super) struct AsyncBody<S: ?Sized = dyn Start> {
    /// Park/wake handshake (see [`crate::task_cell`]).
    pub(super) cell: TaskCell,
    /// The future between polls: `Some` exactly while the task is
    /// parked or re-queued after its first poll.
    pub(super) future: Mutex<Option<TaskFuture>>,
    /// Wall-clock µs when the task last parked (for the
    /// [`TaskPhase::Parked`] telemetry span emitted at wake).
    pub(super) parked_at_us: AtomicU64,
    /// Task name for telemetry; `None` when telemetry is disabled.
    pub(super) name: Option<Label>,
    /// The runtime, for the task's waker to re-dispatch into. Weak, so
    /// stale waker clones (e.g. left in a timer-wheel bucket or channel
    /// waiter queue) can neither keep the executor alive nor form an
    /// `Arc` cycle through it.
    pub(super) shared: Weak<Shared>,
    /// Builds the future at first poll. Consumed exactly once.
    pub(super) factory: S,
}

/// The erased factory of an [`AsyncBody`]: a deferred constructor that
/// runs on the first poll, once the inputs have been resolved into a
/// [`TaskContext`].
pub(super) trait Start: Send + Sync {
    /// Takes the factory and builds the future.
    ///
    /// # Panics
    ///
    /// Panics if called twice, or where the factory itself panics.
    fn start(&self, ctx: TaskContext) -> TaskFuture;

    /// Drops the factory unrun, if it has not run.
    fn discard(&self);
}

impl<F, Fut> Start for Mutex<Option<F>>
where
    F: FnOnce(TaskContext) -> Fut + Send,
    Fut: Future<Output = TaskContext> + Send + 'static,
{
    fn start(&self, ctx: TaskContext) -> TaskFuture {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: a task's first poll, the only caller, runs once — a resumed task polls its stored future instead."
        )]
        let factory = self.lock().take().expect("async body constructed once");
        Box::pin(factory(ctx))
    }

    fn discard(&self) {
        *self.lock() = None;
    }
}

/// Everything a worker needs to run a task, carried through the
/// dispatch queues so claiming and executing a task touches no graph
/// state. The [`Claim`] is taken exactly once, at first dispatch.
pub(super) struct TaskMeta {
    pub(super) id: TaskId,
    /// What admission counts; the rest of the task's constraints was
    /// checked at submit.
    pub(super) demand: Demand,
    /// The inputs and the closure body, taken together once.
    pub(super) claim: Mutex<Claim>,
    /// One cell per written parameter, in declaration order, reached
    /// through [`CellRef::Output`].
    pub(super) outputs: Slots<ValueCell>,
    /// The channels behind the spec's stream params; `None`, one empty
    /// pointer, for a task without streams.
    pub(super) streams: Option<Box<StreamPorts>>,
    /// Whether this task was already counted into the in-flight set
    /// (set at its first claim, or when a commit hands it to its
    /// worker; resource-blocked and resumed re-dispatches must not
    /// count twice). Only the claiming worker touches it.
    pub(super) inflight_reserved: AtomicBool,
    pub(super) payload: TaskPayload,
}

/// What only a stream task's record needs, boxed apart so that every
/// other record pays one empty pointer for it.
pub(super) struct StreamPorts {
    /// The first `writers` are the spec's `stream_out` channels, the
    /// rest its `stream_in` ones, each in declaration order.
    pub(super) channels: Box<[Arc<StreamChannel>]>,
    /// How many of `channels` this task writes; it is a registered
    /// writer of each until its body finishes.
    pub(super) writers: u32,
    /// Whether this producer's first element already released its
    /// stream consumers (checked lock-free on every send).
    pub(super) released: AtomicBool,
}

impl TaskMeta {
    /// Channels behind the spec's `stream_out` params.
    pub(super) fn stream_outs(&self) -> &[Arc<StreamChannel>] {
        self.streams
            .as_ref()
            .map_or(&[], |p| &p.channels[..p.writers as usize])
    }

    /// Channels behind the spec's `stream_in` params.
    pub(super) fn stream_ins(&self) -> &[Arc<StreamChannel>] {
        self.streams
            .as_ref()
            .map_or(&[], |p| &p.channels[p.writers as usize..])
    }
}

/// An async task's meta *is* its waker — the wake half of the
/// task-cell handshake — so every resume builds its `Waker` from the
/// `Arc` the dispatch queues already carry: a reference count, not an
/// allocation.
impl Wake for TaskMeta {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let TaskPayload::Async(body) = &self.payload else {
            debug_assert!(false, "task waker attached to a closure task");
            return;
        };
        if body.cell.wake() != WakeOutcome::Enqueue {
            return;
        }
        // This invocation won the handoff and owns re-dispatch.
        let Some(shared) = body.shared.upgrade() else {
            return; // runtime torn down; the task is abandoned
        };
        shared.parked.fetch_sub(1, Ordering::SeqCst);
        if let Some(name) = &body.name {
            let now = shared.now_us();
            let start = body.parked_at_us.load(Ordering::SeqCst);
            shared.telemetry.record(TelemetryEvent::Span {
                track: Track::Run,
                name: name.clone(),
                phase: TaskPhase::Parked,
                start_us: start,
                dur_us: now.saturating_sub(start),
                ctx: None,
            });
        }
        shared.pending.fetch_add(1, Ordering::SeqCst);
        shared.injector.push(Arc::clone(self));
        shared.sleeper.wake_for(1);
    }
}

/// The cells of one datum, in the column indexed by dense data id.
#[derive(Default)]
pub(super) struct DatumCells {
    /// The column's own reference to the current version's cell —
    /// what a reader registered now, or a `get`, would consume. `None`
    /// while that is a version 0 nobody has touched.
    pub(super) current: Option<CellRef>,
}

/// Every datum's cells: the column of current versions, and beside it
/// the few version-0 cells that `set_initial` or a reader of version 0
/// needed, keyed by datum.
#[derive(Default)]
pub(super) struct CellColumn {
    /// One entry per datum, by dense data id ([`CellColumn::size`]).
    data: Vec<DatumCells>,
    /// The version-0 cells handed out so far. Kept past their
    /// supersession so that a late `set_initial` still reaches readers
    /// registered before the writer.
    initial: HashMap<DataId, Arc<ValueCell>>,
}

impl CellColumn {
    /// Grows the column to `known` data — when a datum is touched, not
    /// declared: data come in bulk, long before their use.
    pub(super) fn size(&mut self, known: usize) {
        if self.data.len() < known {
            self.data.resize_with(known, DatumCells::default);
        }
    }

    /// The column's reference to the datum's current version, if it
    /// has a cell yet.
    pub(super) fn current(&self, data: DataId) -> Option<&CellRef> {
        self.data.get(data.index())?.current.as_ref()
    }

    /// The column's reference to the current version of a datum in
    /// the column. A version 0 nobody has touched gets its (empty)
    /// cell here, so that a reader registered before `set_initial` is
    /// found by it.
    pub(super) fn touch(&mut self, data: DataId) -> &CellRef {
        let initial = &mut self.initial;
        self.data[data.index()].current.get_or_insert_with(|| {
            let cell = Arc::new(ValueCell::new());
            initial.insert(data, Arc::clone(&cell));
            CellRef::Initial(cell)
        })
    }

    /// The version-0 cell `set_initial` publishes into, touched first;
    /// `None` for a datum outside the column, or one superseded before
    /// anyone read or set its version 0.
    pub(super) fn initial(&mut self, data: DataId) -> Option<Arc<ValueCell>> {
        if data.index() >= self.data.len() {
            return None;
        }
        self.touch(data);
        self.initial.get(&data).cloned()
    }

    /// Makes `cell` the datum's current version; returns the column's
    /// reference to the one it supersedes.
    pub(super) fn replace(&mut self, data: DataId, cell: CellRef) -> Option<CellRef> {
        self.data[data.index()].current.replace(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    #[test]
    fn task_record_stays_on_budget() {
        // Every record of a task storm is alive at its heap peak, so a
        // byte here is a byte per task; DESIGN §9.1 prices the fields.
        assert_eq!(size_of::<Demand>(), 16);
        assert!(
            size_of::<TaskPayload>() <= 32,
            "payload is {} B",
            size_of::<TaskPayload>()
        );
        assert!(
            size_of::<TaskMeta>() <= 152,
            "record is {} B",
            size_of::<TaskMeta>()
        );
    }

    #[test]
    fn datum_cells_stay_on_budget() {
        // One per datum of the column, alive as long as the runtime: the
        // version-0 cells live in the side table, not here.
        assert!(
            size_of::<DatumCells>() <= 16,
            "datum cells are {} B",
            size_of::<DatumCells>()
        );
    }
}
