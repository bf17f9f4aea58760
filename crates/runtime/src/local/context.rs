//! What a task body sees: the typed handles to data and streams, the
//! [`TaskContext`] a body reads its inputs from and writes its outputs
//! to, and the stream endpoints it sends and receives on, blocking or
//! as futures.

use super::dispatch::release_stream_successors;
use super::record::{CellRef, TaskMeta};
use super::Shared;
use crate::reactor::{ReactorInner, Sleep};
use crate::stream::{PollRecv, PollSend, Side, StreamChannel};
use crate::value_cell::{Slots, Value};
use continuum_dag::DataId;
use continuum_telemetry::{Event as TelemetryEvent, TaskPhase, Track};
use std::future::Future;
use std::marker::PhantomData;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Typed handle to a logical datum managed by a [`LocalRuntime`](super::LocalRuntime).
///
/// The phantom type parameter gives compile-time documentation of what
/// flows through the datum; actual type checks happen at access time.
#[derive(Debug)]
pub struct DataHandle<T> {
    pub(super) id: DataId,
    pub(super) _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for DataHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for DataHandle<T> {}

impl<T> DataHandle<T> {
    /// The underlying datum id, usable in [`TaskSpec`](continuum_dag::TaskSpec) builders.
    pub fn id(&self) -> DataId {
        self.id
    }
}

impl<T> From<DataHandle<T>> for DataId {
    fn from(h: DataHandle<T>) -> DataId {
        h.id
    }
}

/// Typed handle to a stream datum: a bounded channel of `T` elements
/// flowing between tasks, created by [`LocalRuntime::stream`](super::LocalRuntime::stream).
///
/// Unlike a [`DataHandle`], a stream has no versions and no final
/// value to `get` — tasks access it through
/// [`TaskContext::stream_writer`] / [`TaskContext::stream_reader`].
#[derive(Debug)]
pub struct StreamHandle<T> {
    pub(super) id: DataId,
    pub(super) _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for StreamHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for StreamHandle<T> {}

impl<T> StreamHandle<T> {
    /// The underlying datum id, usable in [`TaskSpec`](continuum_dag::TaskSpec) builders
    /// (`stream_out` / `stream_in`).
    pub fn id(&self) -> DataId {
        self.id
    }
}

impl<T> From<StreamHandle<T>> for DataId {
    fn from(h: StreamHandle<T>) -> DataId {
        h.id
    }
}

/// Execution context passed to task bodies: read inputs, write
/// outputs.
///
/// Inputs are the values of the reading parameters (`In`/`InOut`) in
/// declaration order; output slots correspond to the writing
/// parameters (`Out`/`InOut`) in declaration order.
pub struct TaskContext {
    pub(super) inputs: Vec<Value>,
    pub(super) outputs: Vec<Option<Value>>,
    /// Writer endpoints for the spec's `stream_out` params, in
    /// declaration order. Empty for non-streaming tasks.
    stream_outs: Vec<StreamEndpointCore>,
    /// Reader endpoints for the spec's `stream_in` params, in
    /// declaration order. Empty for non-streaming tasks.
    stream_ins: Vec<StreamEndpointCore>,
    /// Timer-reactor handle; `Some` only for async bodies
    /// ([`LocalRuntime::submit_async`](super::LocalRuntime::submit_async)), whose futures may await
    /// [`TaskContext::sleep`].
    reactor: Option<Arc<ReactorInner>>,
}

impl TaskContext {
    /// The number of inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// The number of output slots.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Borrows the `i`-th input, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range or the stored type is not
    /// `T` — both are task programming errors, surfaced as a task
    /// failure by the runtime.
    pub fn input<T: Send + Sync + 'static>(&self, i: usize) -> &T {
        self.inputs[i]
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("input {i} has unexpected type"))
    }

    /// Clones the `i`-th input `Arc`, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TaskContext::input`].
    pub fn input_arc<T: Send + Sync + 'static>(&self, i: usize) -> Arc<T> {
        self.inputs[i]
            .clone()
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("input {i} has unexpected type"))
    }

    /// Fills the `i`-th output slot.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn set_output<T: Send + Sync + 'static>(&mut self, i: usize, value: T) {
        self.outputs[i] = Some(Arc::new(value));
    }

    /// The number of `stream_out` params.
    pub fn stream_out_count(&self) -> usize {
        self.stream_outs.len()
    }

    /// The number of `stream_in` params.
    pub fn stream_in_count(&self) -> usize {
        self.stream_ins.len()
    }

    /// The writing end of the `i`-th `stream_out` param, typed as a
    /// stream of `T`. The handle is owned (it clones shared state), so
    /// it can outlive borrows of the context inside the body.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range, or — naming the datum — if
    /// the stream carries another element type than `T` (fixed by
    /// [`LocalRuntime::stream`](super::LocalRuntime::stream), or by the first endpoint of a stream
    /// created on demand). Both are task programming errors, surfaced
    /// as a task failure by the runtime.
    pub fn stream_writer<T: Send + 'static>(&self, i: usize) -> StreamWriter<T> {
        let core = self.stream_outs[i].clone();
        core.chan.bind::<T>();
        StreamWriter {
            core,
            _marker: PhantomData,
        }
    }

    /// The reading end of the `i`-th `stream_in` param, typed as a
    /// stream of `T`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`TaskContext::stream_writer`].
    pub fn stream_reader<T: Send + 'static>(&self, i: usize) -> StreamReader<T> {
        let core = self.stream_ins[i].clone();
        core.chan.bind::<T>();
        StreamReader {
            core,
            _marker: PhantomData,
        }
    }

    /// A future resolving after `dur`, served by the runtime's timer
    /// wheel: awaiting it parks the *task* (one waker clone in a wheel
    /// bucket) and frees the worker thread. Resolution granularity is
    /// [`LocalConfig::reactor_tick`](super::LocalConfig::reactor_tick).
    ///
    /// # Panics
    ///
    /// Panics in a closure task body — only async bodies
    /// ([`LocalRuntime::submit_async`](super::LocalRuntime::submit_async)) can suspend; a closure should
    /// use `std::thread::sleep`, which holds its worker.
    pub fn sleep(&self, dur: Duration) -> Sleep {
        self.sleep_until(Instant::now() + dur)
    }

    /// Like [`TaskContext::sleep`], but with an absolute deadline —
    /// useful to park many tasks until one common instant.
    ///
    /// # Panics
    ///
    /// Panics in a closure task body (see [`TaskContext::sleep`]).
    #[expect(clippy::expect_used, reason = "misuse in a closure body: `# Panics`")]
    pub fn sleep_until(&self, deadline: Instant) -> Sleep {
        let inner = self
            .reactor
            .as_ref()
            .expect("TaskContext::sleep requires an async task body (LocalRuntime::submit_async)");
        Sleep::new(Arc::clone(inner), deadline)
    }

    /// The context `meta`'s body runs in on `worker`: the values behind
    /// the task's input references `claimed`, each released once read,
    /// one empty slot per output, and its stream endpoints. `inputs`
    /// and `outputs` are empty buffers.
    pub(super) fn for_task(
        shared: &Arc<Shared>,
        meta: &Arc<TaskMeta>,
        worker: u32,
        claimed: Slots<CellRef>,
        mut inputs: Vec<Value>,
        mut outputs: Vec<Option<Value>>,
        reactor: Option<Arc<ReactorInner>>,
    ) -> TaskContext {
        claimed.into_each(|input| {
            inputs.push(
                input
                    .cell()
                    .read()
                    .unwrap_or_else(missing_input_placeholder),
            );
            shared.release(input);
        });
        outputs.resize_with(meta.outputs.as_slice().len(), || None);
        let endpoint = |chan: &Arc<StreamChannel>| StreamEndpointCore {
            chan: Arc::clone(chan),
            shared: Arc::clone(shared),
            meta: Arc::clone(meta),
            worker,
        };
        TaskContext {
            inputs,
            outputs,
            stream_outs: meta.stream_outs().iter().map(endpoint).collect(),
            stream_ins: meta.stream_ins().iter().map(endpoint).collect(),
            reactor,
        }
    }
}

/// Placeholder for inputs whose value is missing (initial data never
/// set). Task bodies that touch it fail with a type error, which the
/// runtime reports as a task failure.
fn missing_input_placeholder() -> Value {
    struct MissingInput;
    Arc::new(MissingInput)
}

/// Shared plumbing of one stream endpoint inside a running task: the
/// channel, the runtime (for first-element release and telemetry), the
/// owning task's meta (for the release-once flag) and the worker the
/// body runs on (for wait-span attribution).
#[derive(Clone)]
struct StreamEndpointCore {
    chan: Arc<StreamChannel>,
    shared: Arc<Shared>,
    meta: Arc<TaskMeta>,
    worker: u32,
}

impl StreamEndpointCore {
    /// Emits a [`TaskPhase::StreamWait`] span covering a just-finished
    /// blocked interval, if telemetry is on and the wait was nonzero.
    fn emit_wait(&self, blocked_us: u64) {
        if blocked_us == 0 || !self.shared.telemetry.enabled() {
            return;
        }
        let end_us = self.shared.now_us();
        self.shared.telemetry.record(TelemetryEvent::Span {
            track: Track::Worker(self.worker),
            name: format!("stream:{}", self.chan.name()).into(),
            phase: TaskPhase::StreamWait,
            start_us: end_us.saturating_sub(blocked_us),
            dur_us: blocked_us,
            ctx: None,
        });
    }
}

/// The writing end of a stream, obtained from
/// [`TaskContext::stream_writer`] inside a producer's body.
pub struct StreamWriter<T> {
    core: StreamEndpointCore,
    _marker: PhantomData<fn(T)>,
}

impl<T: Send + 'static> StreamWriter<T> {
    /// Sends one element, blocking while the channel is full
    /// (backpressure). The element moves into the channel: it is
    /// handed to exactly one consumer, or dropped if the run fails
    /// first.
    ///
    /// The producer's *first* send — on any of its output streams —
    /// releases its stream consumers for dispatch, before this call
    /// can block: by the time a producer has filled a channel, every
    /// consumer is already queued for a worker.
    ///
    /// Returns `false` if the channel was force-closed (the run failed
    /// or is shutting down); a well-behaved producer stops streaming
    /// then.
    pub fn send(&self, value: T) -> bool {
        release_stream_successors(&self.core.shared, &self.core.meta);
        let (accepted, blocked_us) = self.core.chan.send(value);
        self.core.emit_wait(blocked_us);
        accepted
    }

    /// Async variant of [`StreamWriter::send`]: where `send` blocks the
    /// worker thread on a full channel, awaiting this future parks the
    /// *task* and frees the worker (the parked interval shows up as a
    /// [`TaskPhase::Parked`] span rather than a `StreamWait` span).
    /// Only meaningful inside an async body
    /// ([`LocalRuntime::submit_async`](super::LocalRuntime::submit_async)).
    ///
    /// Stream-successor release happens eagerly when the future is
    /// created, preserving the `send` guarantee that consumers are
    /// dispatchable before backpressure can suspend their producer.
    pub fn send_async(&self, value: T) -> StreamSend<'_, T> {
        release_stream_successors(&self.core.shared, &self.core.meta);
        StreamSend {
            core: &self.core,
            slot: Some(value),
            registered: None,
        }
    }
}

/// In-flight [`StreamWriter::send_async`] operation. Resolves to the
/// same `bool` as the blocking send.
pub struct StreamSend<'a, T> {
    core: &'a StreamEndpointCore,
    /// The element, until the channel accepts it.
    slot: Option<T>,
    /// This operation's entry in the channel's waiter queue, if a poll
    /// returned `Full` — withdrawn on completion or drop.
    registered: Option<Waker>,
}

// The element is only ever moved out of the slot, never pinned.
impl<T> Unpin for StreamSend<'_, T> {}

impl<T: Send + 'static> Future for StreamSend<'_, T> {
    type Output = bool;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        let this = self.get_mut();
        match this
            .core
            .chan
            .poll_send(&mut this.slot, Some(cx.waker()), &mut this.registered)
        {
            PollSend::Accepted => Poll::Ready(true),
            PollSend::Closed => Poll::Ready(false),
            PollSend::Full => Poll::Pending,
        }
    }
}

impl<T> Drop for StreamSend<'_, T> {
    fn drop(&mut self) {
        if let Some(w) = self.registered.take() {
            self.core.chan.cancel_waiter(Side::Send, &w);
        }
    }
}

/// The reading end of a stream, obtained from
/// [`TaskContext::stream_reader`] inside a consumer's body.
pub struct StreamReader<T> {
    core: StreamEndpointCore,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Send + 'static> StreamReader<T> {
    /// Receives the next element, by value, blocking while the channel
    /// is empty and a producer is still open: each element goes to
    /// exactly one consumer, which owns it. Returns `None` at
    /// end-of-stream: every registered producer has finished and the
    /// queue is drained (or the run was force-closed).
    pub fn recv(&self) -> Option<T> {
        let (value, blocked_us) = self.core.chan.recv();
        self.core.emit_wait(blocked_us);
        value
    }

    /// Iterates the stream to exhaustion (`recv` until `None`),
    /// yielding owned elements.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv())
    }

    /// Async variant of [`StreamReader::recv`]: where `recv` blocks the
    /// worker thread on an empty channel, awaiting this future parks
    /// the *task* and frees the worker. Resolves to the owned element,
    /// or `None` at end-of-stream. Only meaningful inside an async body
    /// ([`LocalRuntime::submit_async`](super::LocalRuntime::submit_async)).
    pub fn recv_async(&self) -> StreamRecv<'_, T> {
        StreamRecv {
            core: &self.core,
            registered: None,
            _marker: PhantomData,
        }
    }
}

/// In-flight [`StreamReader::recv_async`] operation.
pub struct StreamRecv<'a, T> {
    core: &'a StreamEndpointCore,
    /// This operation's entry in the channel's waiter queue, if a poll
    /// returned `Empty` — withdrawn on completion or drop.
    registered: Option<Waker>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Send + 'static> Future for StreamRecv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let this = self.get_mut();
        match this
            .core
            .chan
            .poll_recv(Some(cx.waker()), &mut this.registered)
        {
            PollRecv::Element(v) => Poll::Ready(Some(v)),
            PollRecv::EndOfStream => Poll::Ready(None),
            PollRecv::Empty => Poll::Pending,
        }
    }
}

impl<T> Drop for StreamRecv<'_, T> {
    fn drop(&mut self) {
        if let Some(w) = self.registered.take() {
            self.core.chan.cancel_waiter(Side::Recv, &w);
        }
    }
}
