//! Bounded MPMC stream channels: the transport behind
//! [`Direction::Stream`](continuum_dag::Direction) edges in the local
//! runtime.
//!
//! One [`StreamChannel`] backs one stream datum and carries its
//! elements **by value**: the queue is a `VecDeque<T>` whose element
//! type is fixed by `LocalRuntime::stream::<T>` (or, for a channel
//! created on demand, by the first typed endpoint) and only the *queue*
//! is type-erased, once, behind [`ElementQueue`] — so the untyped
//! graph-side owners (`TaskMeta`, the channel map) need no type
//! parameter while a send is one move into the ring and a receive one
//! move out. An element is delivered to exactly one consumer, so there
//! is nothing to share and `T` only has to be `Send`.
//!
//! Producers append at the tail and park when the channel is at
//! capacity (backpressure); consumers pop from the head and park when
//! it is empty. End-of-stream is a *close protocol*, not a sentinel
//! element: every producer task is registered as an open writer at
//! submission and deregistered when its body finishes (even on panic),
//! so a receive on an empty channel returns `None` exactly when no
//! registered writer can ever push again. A failed or dropped run
//! force-closes every channel so blocked endpoints wake instead of
//! hanging the teardown; elements still queued then are dropped.
//!
//! # Waker-based parking, wake-one fairness
//!
//! Both sides block through [`std::task::Waker`]s, not condvars. A
//! blocked endpoint — an async task body awaiting
//! [`poll_send`](StreamChannel::poll_send) /
//! [`poll_recv`](StreamChannel::poll_recv), or a synchronous
//! [`send`](StreamChannel::send) / [`recv`](StreamChannel::recv)
//! parking its thread behind a thread-unpark waker — registers exactly
//! one waker in the channel's waiter queue. Each accepted element wakes
//! exactly **one** parked consumer and each freed slot wakes exactly
//! **one** parked producer (FIFO), so a 1-capacity channel with W
//! blocked senders performs O(elements) wakes, not O(elements × W).
//! Only the terminal events broadcast: the last writer closing and a
//! force-close wake every waiter, because all of them must observe
//! end-of-stream. Every wake is counted in [`StreamStats::wakes`] so
//! tests can pin the fairness bound.
//!
//! Each in-flight operation owns its registration (the `registered`
//! slot its caller threads through the polls), so the waiter queues are
//! touched only by operations that actually waited: a completing
//! operation removes its own entry, and a *cancelled* one (its future
//! dropped) that had already been popped — woken for a slot or element
//! it will now never take — hands that wake to the next waiter on its
//! side instead of swallowing the wake-one credit.
//!
//! Element/byte counts, the occupancy high-water mark and the wake
//! count are plain fields of the channel state, updated under the mutex
//! the operation already holds and read as one [`StreamStats`]
//! snapshot; blocked time is added when a blocked thread resumes (one
//! extra lock per thread park, none per element). The runtime publishes
//! the aggregate at end of run and emits per-wait
//! [`StreamWait`](continuum_telemetry::TaskPhase) spans.
//!
//! The channel mutex is a leaf in the executor's lock order (rank
//! `pool/sleep`): it is only ever acquired with the graph lock held
//! (force-close on failure) or with no tracked lock held (send/recv on
//! the data path), never the other way around. Wakers captured under
//! the lock are invoked — and force-closed elements dropped — only
//! after the guard is released: a task waker acquires the executor's
//! sleep lock, an equal-rank leaf, and an element's `Drop` is user code.

#![deny(clippy::await_holding_lock)]

use crate::lockorder::{self, RANK_STREAM};
use continuum_platform::sync::{self, Mutex};
use std::any::Any;
use std::collections::VecDeque;
use std::task::Waker;
use std::time::Instant;

/// Largest queue allocated up front; a bigger capacity grows on demand.
const PRESIZE_LIMIT: usize = 1024;

/// One snapshot of a channel's monotone counters.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StreamStats {
    /// Elements sent (and accepted) over the channel's lifetime.
    pub elements: u64,
    /// Payload bytes accepted (element count × `size_of::<T>()`).
    pub bytes: u64,
    /// Total microseconds producers spent blocked on a full channel.
    pub blocked_send_us: u64,
    /// Total microseconds consumers spent blocked on an empty channel.
    pub blocked_recv_us: u64,
    /// Highest queue occupancy ever observed right after a send.
    pub occupancy_high_water: u64,
    /// Waker invocations the channel performed. With wake-one fairness
    /// this grows O(elements + waiters), never O(elements × waiters).
    pub wakes: u64,
}

/// The element queue, a `VecDeque<T>`, as the untyped channel state
/// sees it.
trait ElementQueue: Send {
    fn len(&self) -> usize;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Send + 'static> ElementQueue for VecDeque<T> {
    fn len(&self) -> usize {
        VecDeque::len(self)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Which end of the channel an operation (and its waiter entry) is on.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Side {
    Send,
    Recv,
}

struct ChannelState {
    /// `None` until the element type is known, and again once a
    /// force-close has dropped the undelivered elements.
    queue: Option<Box<dyn ElementQueue>>,
    /// `type_name` of the elements, for the mismatch message.
    element_type: &'static str,
    /// Producer tasks submitted but not yet finished. The channel is
    /// exhausted once this reaches zero with an empty queue.
    open_writers: usize,
    /// Set when the run fails or the runtime shuts down: all blocked
    /// endpoints wake, sends are refused, receives return `None`.
    force_closed: bool,
    /// Producers parked on a full queue, FIFO.
    send_waiters: VecDeque<Waker>,
    /// Consumers parked on an empty queue, FIFO.
    recv_waiters: VecDeque<Waker>,
    stats: StreamStats,
}

impl ChannelState {
    fn occupancy(&self) -> usize {
        self.queue.as_ref().map_or(0, |q| q.len())
    }

    fn waiters(&mut self, side: Side) -> &mut VecDeque<Waker> {
        match side {
            Side::Send => &mut self.send_waiters,
            Side::Recv => &mut self.recv_waiters,
        }
    }

    /// Queues `waker` on `side` unless an equivalent waker (same task /
    /// same parked thread) is already there, and records it as the
    /// operation's registration.
    fn register(&mut self, side: Side, waker: &Waker, registered: &mut Option<Waker>) {
        if registered.as_ref().is_some_and(|r| !r.will_wake(waker)) {
            // Re-polled from a different task context.
            self.settle(side, registered);
        }
        let waiters = self.waiters(side);
        if !waiters.iter().any(|w| w.will_wake(waker)) {
            waiters.push_back(waker.clone());
        }
        if registered.is_none() {
            *registered = Some(waker.clone());
        }
    }

    /// The operation finished: its registration, if it ever made one,
    /// must not stay behind to swallow a wake-one credit.
    fn settle(&mut self, side: Side, registered: &mut Option<Waker>) {
        if let Some(w) = registered.take() {
            self.waiters(side).retain(|q| !q.will_wake(&w));
        }
    }

    /// Takes the longest-parked waiter of `side` for a wake-one.
    fn pop_waiter(&mut self, side: Side) -> Option<Waker> {
        let waker = self.waiters(side).pop_front();
        self.stats.wakes += u64::from(waker.is_some());
        waker
    }

    /// Takes every waiter of `side` for a terminal broadcast.
    fn take_waiters(&mut self, side: Side) -> VecDeque<Waker> {
        let all = std::mem::take(self.waiters(side));
        self.stats.wakes += all.len() as u64;
        all
    }
}

/// Outcome of a non-blocking send attempt.
#[derive(Debug)]
pub(crate) enum PollSend {
    /// The element was queued (and one parked consumer woken).
    Accepted,
    /// The channel was force-closed; the element stays with the
    /// caller, to drop.
    Closed,
    /// The queue is full; if a waker was supplied it is registered for
    /// exactly one wake when a slot frees.
    Full,
}

/// Outcome of a non-blocking receive attempt.
#[derive(Debug)]
pub(crate) enum PollRecv<T> {
    /// The head element (one parked producer woken).
    Element(T),
    /// No element can ever arrive: every writer closed, or the channel
    /// was force-closed.
    EndOfStream,
    /// Nothing queued but a writer is still open; if a waker was
    /// supplied it is registered for exactly one wake.
    Empty,
}

/// A bounded multi-producer multi-consumer channel for one stream
/// datum.
pub(crate) struct StreamChannel {
    name: String,
    capacity: usize,
    state: Mutex<ChannelState>,
}

impl StreamChannel {
    /// Creates a channel holding at most `capacity` (≥ 1) elements; the
    /// first typed use fixes what they are.
    pub(crate) fn new(name: impl Into<String>, capacity: usize) -> Self {
        StreamChannel {
            name: name.into(),
            capacity: capacity.max(1),
            state: Mutex::new(ChannelState {
                queue: None,
                element_type: "",
                open_writers: 0,
                force_closed: false,
                send_waiters: VecDeque::new(),
                recv_waiters: VecDeque::new(),
                stats: StreamStats::default(),
            }),
        }
    }

    /// The stream datum's name (for telemetry span labels).
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// The queue as a `VecDeque<T>`, created on the first typed use.
    ///
    /// # Panics
    ///
    /// Panics, naming the datum, if the channel already carries another
    /// element type.
    fn queue_of<'a, T: Send + 'static>(&self, st: &'a mut ChannelState) -> &'a mut VecDeque<T> {
        let carried = st.element_type;
        let queue = st.queue.get_or_insert_with(|| {
            st.element_type = std::any::type_name::<T>();
            Box::new(VecDeque::<T>::with_capacity(
                self.capacity.min(PRESIZE_LIMIT),
            ))
        });
        queue.as_any_mut().downcast_mut().unwrap_or_else(|| {
            panic!(
                "stream `{}` carries `{carried}` elements, not `{}`",
                self.name,
                std::any::type_name::<T>()
            )
        })
    }

    /// Fixes the element type to `T`, or checks it against the type
    /// already fixed: what a typed endpoint does once, up front, so a
    /// mismatch fails where the endpoint is made.
    ///
    /// # Panics
    ///
    /// Panics, naming the datum, if the channel carries another type.
    pub(crate) fn bind<T: Send + 'static>(&self) {
        let _order = lockorder::acquire(RANK_STREAM, "stream");
        let mut st = self.state.lock();
        if !st.force_closed {
            self.queue_of::<T>(&mut st);
        }
    }

    /// Registers one producer task (called at submission, before the
    /// producer could possibly run).
    pub(crate) fn register_writer(&self) {
        let _order = lockorder::acquire(RANK_STREAM, "stream");
        self.state.lock().open_writers += 1;
    }

    /// Deregisters one producer task (called when its body finishes,
    /// committed or failed). Closing the last writer wakes every
    /// parked consumer so each can observe end-of-stream.
    pub(crate) fn writer_done(&self) {
        let waiters;
        {
            let _order = lockorder::acquire(RANK_STREAM, "stream");
            let mut st = self.state.lock();
            debug_assert!(st.open_writers > 0, "writer_done without register_writer");
            st.open_writers = st.open_writers.saturating_sub(1);
            if st.open_writers > 0 {
                return;
            }
            waiters = st.take_waiters(Side::Recv);
        }
        waiters.into_iter().for_each(Waker::wake);
    }

    /// Force-closes the channel: every parked endpoint wakes, further
    /// sends are refused, receives return `None` and the elements still
    /// queued are dropped. Used when the run poisons or the runtime
    /// shuts down, so stream tasks wind down instead of deadlocking the
    /// teardown. Idempotent.
    pub(crate) fn force_close(&self) {
        let (undelivered, senders, receivers);
        {
            let _order = lockorder::acquire(RANK_STREAM, "stream");
            let mut st = self.state.lock();
            st.force_closed = true;
            undelivered = st.queue.take();
            senders = st.take_waiters(Side::Send);
            receivers = st.take_waiters(Side::Recv);
        }
        drop(undelivered);
        senders.into_iter().chain(receivers).for_each(Waker::wake);
    }

    /// Attempts to queue the element in `value` without blocking.
    ///
    /// `registered` is the calling operation's waiter registration,
    /// `None` before its first poll: on [`PollSend::Full`] with a waker
    /// supplied, the waker is queued (deduplicated) for exactly one
    /// wake when a slot frees and remembered there; on any other
    /// outcome the registration is withdrawn.
    ///
    /// The element leaves `value` only when accepted: a `Full` caller
    /// retries with the same slot, a `Closed` one drops it.
    pub(crate) fn poll_send<T: Send + 'static>(
        &self,
        value: &mut Option<T>,
        waker: Option<&Waker>,
        registered: &mut Option<Waker>,
    ) -> PollSend {
        let to_wake;
        {
            let _order = lockorder::acquire(RANK_STREAM, "stream");
            let mut st = self.state.lock();
            if st.force_closed {
                st.settle(Side::Send, registered);
                return PollSend::Closed;
            }
            let queue = self.queue_of::<T>(&mut st);
            if queue.len() >= self.capacity {
                if let Some(w) = waker {
                    st.register(Side::Send, w, registered);
                }
                return PollSend::Full;
            }
            queue.push_back(value.take().expect("poll_send needs an element"));
            let occupancy = queue.len() as u64;
            st.stats.occupancy_high_water = st.stats.occupancy_high_water.max(occupancy);
            st.stats.elements += 1;
            st.stats.bytes += std::mem::size_of::<T>() as u64;
            st.settle(Side::Send, registered);
            // One new element: wake exactly one parked consumer.
            to_wake = st.pop_waiter(Side::Recv);
        }
        if let Some(w) = to_wake {
            w.wake();
        }
        PollSend::Accepted
    }

    /// Attempts to pop the head element without blocking. `registered`
    /// is the operation's waiter registration as in
    /// [`poll_send`](Self::poll_send): on [`PollRecv::Empty`] with a
    /// waker supplied, the waker is queued (deduplicated) for exactly
    /// one wake when an element arrives or the stream terminates; on
    /// any other outcome the registration is withdrawn.
    pub(crate) fn poll_recv<T: Send + 'static>(
        &self,
        waker: Option<&Waker>,
        registered: &mut Option<Waker>,
    ) -> PollRecv<T> {
        let (element, to_wake);
        {
            let _order = lockorder::acquire(RANK_STREAM, "stream");
            let mut st = self.state.lock();
            if st.force_closed {
                st.settle(Side::Recv, registered);
                return PollRecv::EndOfStream;
            }
            match self.queue_of::<T>(&mut st).pop_front() {
                Some(v) => element = v,
                None if st.open_writers == 0 => {
                    st.settle(Side::Recv, registered);
                    return PollRecv::EndOfStream;
                }
                None => {
                    if let Some(w) = waker {
                        st.register(Side::Recv, w, registered);
                    }
                    return PollRecv::Empty;
                }
            }
            st.settle(Side::Recv, registered);
            // One freed slot: wake exactly one parked producer.
            to_wake = st.pop_waiter(Side::Send);
        }
        if let Some(w) = to_wake {
            w.wake();
        }
        PollRecv::Element(element)
    }

    /// Withdraws the registration of an operation on `side` that will
    /// never be polled again (its future was dropped). If the waker is
    /// still queued it is removed and no wake was spent on it. If it is
    /// not, the operation had been woken for a freed slot (or a queued
    /// element) that it now leaves untaken: that wake passes to the
    /// next waiter on the same side, which would otherwise sleep
    /// through it.
    pub(crate) fn cancel_waiter(&self, side: Side, waker: &Waker) {
        let to_wake;
        {
            let _order = lockorder::acquire(RANK_STREAM, "stream");
            let mut st = self.state.lock();
            let waiters = st.waiters(side);
            let queued = waiters.len();
            waiters.retain(|w| !w.will_wake(waker));
            if waiters.len() < queued {
                return;
            }
            let can_proceed = match side {
                Side::Send => st.occupancy() < self.capacity,
                Side::Recv => st.occupancy() > 0,
            };
            if !can_proceed {
                return;
            }
            to_wake = st.pop_waiter(side);
        }
        if let Some(w) = to_wake {
            w.wake();
        }
    }

    /// Appends one element, parking the calling thread while the
    /// channel is full.
    ///
    /// Returns `(accepted, blocked_us)`: `accepted` is `false` when
    /// the channel was force-closed (the element is dropped and the
    /// producer should stop), `blocked_us` is how long the call waited
    /// on backpressure.
    pub(crate) fn send<T: Send + 'static>(&self, value: T) -> (bool, u64) {
        let mut slot = Some(value);
        let mut registered = None;
        match self.poll_send(&mut slot, None, &mut registered) {
            PollSend::Accepted => return (true, 0),
            PollSend::Closed => return (false, 0),
            PollSend::Full => {}
        }
        let waker = sync::thread_waker();
        let t0 = Instant::now();
        loop {
            match self.poll_send(&mut slot, Some(&waker), &mut registered) {
                PollSend::Accepted => return (true, self.note_blocked(Side::Send, t0)),
                PollSend::Closed => return (false, self.note_blocked(Side::Send, t0)),
                PollSend::Full => sync::park(),
            }
        }
    }

    /// Pops the next element, parking the calling thread while the
    /// channel is empty and a registered writer might still push.
    ///
    /// Returns `(element, blocked_us)`; the element is `None` at
    /// end-of-stream (no open writers and nothing queued) or when the
    /// channel was force-closed.
    pub(crate) fn recv<T: Send + 'static>(&self) -> (Option<T>, u64) {
        let mut registered = None;
        match self.poll_recv(None, &mut registered) {
            PollRecv::Element(v) => return (Some(v), 0),
            PollRecv::EndOfStream => return (None, 0),
            PollRecv::Empty => {}
        }
        let waker = sync::thread_waker();
        let t0 = Instant::now();
        loop {
            match self.poll_recv(Some(&waker), &mut registered) {
                PollRecv::Element(v) => return (Some(v), self.note_blocked(Side::Recv, t0)),
                PollRecv::EndOfStream => return (None, self.note_blocked(Side::Recv, t0)),
                PollRecv::Empty => sync::park(),
            }
        }
    }

    /// Adds the time since `t0` to `side`'s blocked total: once per
    /// call that parked its thread, not per element.
    fn note_blocked(&self, side: Side, t0: Instant) -> u64 {
        let us = t0.elapsed().as_micros() as u64;
        let _order = lockorder::acquire(RANK_STREAM, "stream");
        let stats = &mut self.state.lock().stats;
        match side {
            Side::Send => stats.blocked_send_us += us,
            Side::Recv => stats.blocked_recv_us += us,
        }
        us
    }

    /// Current queue occupancy (for tests and diagnostics).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn occupancy(&self) -> usize {
        let _order = lockorder::acquire(RANK_STREAM, "stream");
        self.state.lock().occupancy()
    }

    /// One consistent snapshot of the channel's counters.
    pub(crate) fn stats(&self) -> StreamStats {
        let _order = lockorder::acquire(RANK_STREAM, "stream");
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::Wake;
    use std::thread;

    /// Waker that counts how often it fired (manual-poll tests).
    #[derive(Default)]
    struct CountingWake(AtomicUsize);

    impl Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWake>, Waker) {
        let count = Arc::new(CountingWake::default());
        (Arc::clone(&count), Waker::from(count))
    }

    /// Element that counts its drops.
    struct Tracked(Arc<AtomicUsize>);

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn waiter_count(c: &StreamChannel, side: Side) -> usize {
        let _order = lockorder::acquire(RANK_STREAM, "stream");
        c.state.lock().waiters(side).len()
    }

    #[test]
    fn fifo_order_within_capacity() {
        let c = StreamChannel::new("s", 4);
        c.register_writer();
        for i in 0..4u64 {
            let (ok, blocked) = c.send(i);
            assert!(ok);
            assert_eq!(blocked, 0, "under capacity, sends never block");
        }
        assert_eq!(c.occupancy(), 4);
        for i in 0..4u64 {
            assert_eq!(c.recv::<u64>().0, Some(i));
        }
        c.writer_done();
        assert_eq!(
            c.recv::<u64>().0,
            None,
            "empty + no writers = end of stream"
        );
    }

    #[test]
    fn no_writers_means_immediately_exhausted() {
        let c = StreamChannel::new("s", 1);
        let (v, blocked) = c.recv::<u64>();
        assert!(v.is_none());
        assert_eq!(
            blocked, 0,
            "must not wait for writers that never registered"
        );
    }

    #[test]
    fn full_channel_blocks_sender_until_drained() {
        let c = Arc::new(StreamChannel::new("s", 1));
        c.register_writer();
        assert!(c.send(0u64).0);
        let tx = Arc::clone(&c);
        let producer = thread::spawn(move || {
            let (ok, blocked_us) = tx.send(1u64);
            tx.writer_done();
            (ok, blocked_us)
        });
        thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(c.occupancy(), 1, "second element waits for space");
        assert_eq!(c.recv::<u64>().0, Some(0));
        let (ok, blocked_us) = producer.join().unwrap();
        assert!(ok);
        assert!(blocked_us > 0, "the sender measurably blocked");
        assert_eq!(c.recv::<u64>().0, Some(1));
        assert_eq!(c.recv::<u64>().0, None);
        let stats = c.stats();
        assert!(stats.blocked_send_us > 0);
        assert_eq!(stats.elements, 2);
        assert_eq!(stats.bytes, 16);
        assert_eq!(stats.occupancy_high_water, 1);
    }

    #[test]
    fn empty_channel_blocks_reader_until_send() {
        let c = Arc::new(StreamChannel::new("s", 4));
        c.register_writer();
        let rx = Arc::clone(&c);
        let consumer = thread::spawn(move || rx.recv::<u64>());
        thread::sleep(std::time::Duration::from_millis(20));
        assert!(c.send(7u64).0);
        let (v, _) = consumer.join().unwrap();
        assert_eq!(v, Some(7));
        assert!(c.stats().blocked_recv_us > 0);
    }

    #[test]
    fn force_close_wakes_a_blocked_sender() {
        let c = Arc::new(StreamChannel::new("s", 1));
        c.register_writer();
        assert!(c.send(0u64).0);
        let tx = Arc::clone(&c);
        let blocked_sender = thread::spawn(move || tx.send(1u64).0);
        thread::sleep(std::time::Duration::from_millis(20));
        c.force_close();
        assert!(!blocked_sender.join().unwrap(), "send refused after close");
    }

    #[test]
    fn force_close_wakes_a_blocked_reader() {
        let c = Arc::new(StreamChannel::new("s", 1));
        c.register_writer();
        let rx = Arc::clone(&c);
        // Blocks: the channel is empty but a writer is still open.
        let blocked_reader = thread::spawn(move || rx.recv::<u64>().0);
        thread::sleep(std::time::Duration::from_millis(20));
        c.force_close();
        assert!(
            blocked_reader.join().unwrap().is_none(),
            "reader observes the close"
        );
    }

    #[test]
    fn writer_count_gates_end_of_stream() {
        let c = StreamChannel::new("s", 4);
        c.register_writer();
        c.register_writer();
        assert!(c.send(1u64).0);
        c.writer_done();
        // One writer still open: the queued element drains, then a
        // second writer could still push — but once it closes, `None`.
        assert!(c.recv::<u64>().0.is_some());
        c.writer_done();
        assert!(c.recv::<u64>().0.is_none());
    }

    #[test]
    fn wake_one_fairness_is_o_elements_not_o_elements_times_waiters() {
        // The satellite regression: 8 senders blocked on a 1-capacity
        // channel must not be herd-woken on every recv. With wake-one
        // fairness, total wakes stay O(elements + waiters); a condvar
        // notify_all design would be O(elements × waiters).
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 64;
        const ELEMENTS: u64 = WRITERS * PER_WRITER;
        let c = Arc::new(StreamChannel::new("s", 1));
        for _ in 0..WRITERS {
            c.register_writer();
        }
        let producers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let tx = Arc::clone(&c);
                thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        assert!(tx.send(w * PER_WRITER + i).0);
                    }
                    tx.writer_done();
                })
            })
            .collect();
        let mut received = 0u64;
        while c.recv::<u64>().0.is_some() {
            received += 1;
        }
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(received, ELEMENTS);
        let wakes = c.stats().wakes;
        // Each recv wakes ≤ 1 sender, each send wakes ≤ 1 receiver,
        // plus one terminal broadcast: a generous linear bound.
        let linear_bound = 2 * ELEMENTS + 4 * WRITERS + 16;
        assert!(
            wakes <= linear_bound,
            "wake-one fairness violated: {wakes} wakes for {ELEMENTS} elements \
             (linear bound {linear_bound})"
        );
        // And far below the thundering-herd regime.
        assert!(
            wakes < ELEMENTS * WRITERS / 2,
            "wakes {wakes} approach O(elements × waiters)"
        );
    }

    #[test]
    fn stale_waiters_are_deregistered_on_completion() {
        let c = StreamChannel::new("s", 1);
        c.register_writer();
        let (x_wakes, x) = counting_waker();
        let (_, y) = counting_waker();
        let (mut x_reg, mut y_reg) = (None, None);
        assert!(matches!(
            c.poll_recv::<u64>(Some(&x), &mut x_reg),
            PollRecv::Empty
        ));
        assert!(matches!(
            c.poll_recv::<u64>(Some(&y), &mut y_reg),
            PollRecv::Empty
        ));
        assert_eq!(waiter_count(&c, Side::Recv), 2);
        // A spurious re-poll must not queue the same operation twice.
        assert!(matches!(
            c.poll_recv::<u64>(Some(&y), &mut y_reg),
            PollRecv::Empty
        ));
        assert_eq!(waiter_count(&c, Side::Recv), 2);
        // The element wakes X (FIFO) but Y polls first and takes it:
        // completing withdraws Y's still-queued registration.
        assert!(c.send(1u64).0);
        assert_eq!(x_wakes.0.load(Ordering::SeqCst), 1);
        assert!(matches!(
            c.poll_recv::<u64>(Some(&y), &mut y_reg),
            PollRecv::Element(1)
        ));
        assert!(y_reg.is_none());
        assert_eq!(waiter_count(&c, Side::Recv), 0);
        // X finds nothing and queues again; cancelling a still-queued
        // waiter removes it and wakes nobody.
        assert!(matches!(
            c.poll_recv::<u64>(Some(&x), &mut x_reg),
            PollRecv::Empty
        ));
        assert_eq!(waiter_count(&c, Side::Recv), 1);
        let wakes = c.stats().wakes;
        c.cancel_waiter(Side::Recv, &x_reg.take().unwrap());
        assert_eq!(waiter_count(&c, Side::Recv), 0);
        assert_eq!(c.stats().wakes, wakes);
    }

    #[test]
    fn cancelled_sender_passes_its_wake_on() {
        // Capacity 1, senders A and B parked; the receiver pops (wakes
        // A); A is dropped before it re-polls. B must be offered the
        // slot, or it sleeps forever once the receiver parks on empty.
        let c = StreamChannel::new("s", 1);
        c.register_writer();
        assert!(c.send(0u64).0);
        let (a_wakes, a) = counting_waker();
        let (b_wakes, b) = counting_waker();
        let (mut a_slot, mut a_reg) = (Some(1u64), None);
        let (mut b_slot, mut b_reg) = (Some(2u64), None);
        assert!(matches!(
            c.poll_send(&mut a_slot, Some(&a), &mut a_reg),
            PollSend::Full
        ));
        assert!(matches!(
            c.poll_send(&mut b_slot, Some(&b), &mut b_reg),
            PollSend::Full
        ));
        assert_eq!(c.recv::<u64>().0, Some(0));
        assert_eq!(a_wakes.0.load(Ordering::SeqCst), 1, "wake-one: A only");
        assert_eq!(b_wakes.0.load(Ordering::SeqCst), 0);
        // A's future is dropped instead of re-polled.
        c.cancel_waiter(Side::Send, &a_reg.take().unwrap());
        assert_eq!(b_wakes.0.load(Ordering::SeqCst), 1, "B inherits the slot");
        assert!(matches!(
            c.poll_send(&mut b_slot, Some(&b), &mut b_reg),
            PollSend::Accepted
        ));
        assert_eq!(c.recv::<u64>().0, Some(2));
        assert_eq!(waiter_count(&c, Side::Send), 0);
    }

    #[test]
    fn cancelled_receiver_passes_its_wake_on() {
        let c = StreamChannel::new("s", 1);
        c.register_writer();
        let (a_wakes, a) = counting_waker();
        let (b_wakes, b) = counting_waker();
        let (mut a_reg, mut b_reg) = (None, None);
        assert!(matches!(
            c.poll_recv::<u64>(Some(&a), &mut a_reg),
            PollRecv::Empty
        ));
        assert!(matches!(
            c.poll_recv::<u64>(Some(&b), &mut b_reg),
            PollRecv::Empty
        ));
        assert!(c.send(9u64).0);
        assert_eq!(a_wakes.0.load(Ordering::SeqCst), 1);
        c.cancel_waiter(Side::Recv, &a_reg.take().unwrap());
        assert_eq!(
            b_wakes.0.load(Ordering::SeqCst),
            1,
            "B inherits the element"
        );
        assert!(matches!(
            c.poll_recv::<u64>(Some(&b), &mut b_reg),
            PollRecv::Element(9)
        ));
        // A wake that was spent on a slot somebody else already took is
        // not passed on: there is nothing to offer.
        assert!(matches!(
            c.poll_recv::<u64>(Some(&a), &mut a_reg),
            PollRecv::Empty
        ));
        assert!(matches!(
            c.poll_recv::<u64>(Some(&b), &mut b_reg),
            PollRecv::Empty
        ));
        assert!(c.send(10u64).0);
        assert_eq!(c.recv::<u64>().0, Some(10), "a third consumer barges in");
        c.cancel_waiter(Side::Recv, &a_reg.take().unwrap());
        assert_eq!(
            b_wakes.0.load(Ordering::SeqCst),
            1,
            "queue empty: B stays parked"
        );
        assert_eq!(waiter_count(&c, Side::Recv), 1);
    }

    #[test]
    fn undelivered_elements_drop_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let tracked = || Tracked(Arc::clone(&drops));
        // Force-close drops what is queued, at the close.
        let c = StreamChannel::new("s", 4);
        c.register_writer();
        for _ in 0..3 {
            assert!(c.send(tracked()).0);
        }
        drop(c.recv::<Tracked>().0.expect("one delivered"));
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        c.force_close();
        assert_eq!(drops.load(Ordering::SeqCst), 3);
        assert_eq!(c.occupancy(), 0);
        // A send refused by the closed channel drops its element too.
        assert!(!c.send(tracked()).0);
        assert_eq!(drops.load(Ordering::SeqCst), 4);
        drop(c);
        assert_eq!(drops.load(Ordering::SeqCst), 4, "nothing dropped twice");
        // A channel dropped with elements queued drops them with it.
        let c = StreamChannel::new("s", 4);
        c.register_writer();
        assert!(c.send(tracked()).0);
        assert!(c.send(tracked()).0);
        drop(c);
        assert_eq!(drops.load(Ordering::SeqCst), 6);
    }

    #[test]
    #[should_panic(expected = "stream `readings` carries `u64` elements, not `u32`")]
    fn a_second_element_type_is_refused_by_name() {
        let c = StreamChannel::new("readings", 4);
        c.bind::<u64>();
        c.bind::<u64>();
        c.bind::<u32>();
    }
}
