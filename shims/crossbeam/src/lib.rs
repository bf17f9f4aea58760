//! Offline drop-in stand-in for the `crossbeam` crate surface this
//! workspace uses: `channel::{unbounded, bounded, Sender, Receiver}`
//! and `deque::{Worker, Stealer, Injector, Steal}`. Channels are
//! backed by `std::sync::mpsc`, whose `Sender` has been `Sync` since
//! Rust 1.72, so the sharing patterns crossbeam enables still work;
//! deques are backed by mutex-guarded ring buffers, preserving the
//! crossbeam semantics (owner pops one end, thieves steal the other,
//! contended steals report `Retry`) without the lock-free unsafe code.

/// Test hooks for deterministic-interleaving and chaos testing.
///
/// The deque operations call [`hooks::yield_point`] at the entry of
/// every critical section. By default this is a single relaxed atomic
/// load; concurrency tests (`continuum-analyze`'s chaos stress tests)
/// enable chaos mode to insert scheduler yields at exactly the points
/// where a preemption widens the push/steal race windows, driving the
/// thread interleaving through far more schedules per run than the OS
/// would produce naturally.
pub mod hooks {
    use std::sync::atomic::{AtomicBool, Ordering};

    static CHAOS: AtomicBool = AtomicBool::new(false);

    /// Globally enables or disables chaos yields. Affects every deque
    /// in the process; intended for dedicated stress-test binaries or
    /// serial `#[test]`s, not production.
    pub fn set_chaos(enabled: bool) {
        CHAOS.store(enabled, Ordering::SeqCst);
    }

    /// Returns `true` if chaos mode is on.
    pub fn chaos_enabled() -> bool {
        CHAOS.load(Ordering::Relaxed)
    }

    /// The controllable yield point: a no-op unless chaos mode is on.
    #[inline]
    pub fn yield_point() {
        if CHAOS.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
    }

    /// Scheduler-controlled execution: the channel through which a
    /// deterministic exploration scheduler (see
    /// `continuum_analyze::conc::sched`) observes and serializes every
    /// synchronization operation of a set of *registered* threads.
    ///
    /// The contract:
    ///
    /// * A controller is installed process-globally with
    ///   [`install`](sched::install); threads taking part in a
    ///   controlled scenario register with
    ///   [`register_thread`](sched::register_thread). Unregistered
    ///   threads (the rest of the test process) pass through every
    ///   hook untouched, so exploration can run inside an ordinary
    ///   multi-threaded `cargo test` process.
    /// * Instrumented primitives report each operation through
    ///   [`sync_op`](sched::sync_op) (or fetch the controller with
    ///   [`controller_for_current`](sched::controller_for_current)
    ///   when they need the split grant/block protocol, e.g. a condvar
    ///   wait that must release
    ///   its mutex between the two). The controller blocks the calling
    ///   thread until the scheduler grants the operation, which is how
    ///   a single schedule choice sequences real threads.
    /// * The fast path — no controller installed — is one relaxed
    ///   atomic load.
    pub mod sched {
        use std::cell::Cell;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Mutex};

        /// One synchronization operation, as reported by an
        /// instrumented primitive *before* it executes.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum SyncOp {
            /// Mutex acquisition (blocks until the scheduler's
            /// ownership model says the mutex is free).
            MutexLock,
            /// Mutex release.
            MutexUnlock,
            /// Condvar wait; atomically releases the mutex identified
            /// by `mutex` (its object id) and blocks until notified
            /// *and* granted the relock.
            CondvarWait {
                /// Object id of the mutex the wait releases.
                mutex: usize,
            },
            /// Condvar notify-one (FIFO waiter selection under the
            /// controller, for determinism).
            CondvarNotifyOne,
            /// Condvar notify-all.
            CondvarNotifyAll,
            /// Atomic load (acquire edge from prior writers).
            AtomicLoad,
            /// Atomic store (release edge to later readers).
            AtomicStore,
            /// Atomic read-modify-write (acquire + release).
            AtomicRmw,
            /// `thread::park` equivalent; consumes a pending unpark
            /// token or blocks until one arrives.
            Park,
            /// Unpark of the registered thread `thread` (its tid).
            Unpark {
                /// Registered tid of the thread being unparked.
                thread: usize,
            },
            /// Plain (non-atomic, unsynchronized) read of a data cell
            /// — fodder for the happens-before race detector.
            RaceRead,
            /// Plain write of a data cell.
            RaceWrite,
            /// A critical-section entry that is serialized but carries
            /// no ordering semantics of its own (the shim deque's
            /// lock-protected windows).
            Yield,
        }

        /// An operation plus the identity of the object it targets
        /// (address-derived, stable for the lifetime of the scenario).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub struct OpEvent {
            /// What the thread is about to do.
            pub op: SyncOp,
            /// Which object it does it to.
            pub obj: usize,
        }

        /// The scheduler's answer to a reported operation.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Grant {
            /// Execute the operation and run to the next sched point.
            Proceed,
            /// The operation cannot complete yet (park without a
            /// token, condvar wait): call
            /// [`Controller::block_point`] and wait to be resumed.
            Block,
            /// The exploration is being aborted (a deadlock witness
            /// was found, or the budget ran out mid-run): unwind the
            /// scenario thread via [`killed`] so it can be joined
            /// instead of leaked.
            Die,
        }

        /// Panic payload that identifies a controller-initiated kill
        /// (an aborted run), as opposed to a genuine scenario panic.
        pub const KILL_MSG: &str = "continuum-sched: scenario thread killed by exploration abort";

        /// Unwinds the calling scenario thread with the recognizable
        /// [`KILL_MSG`] payload. The exploration harness catches it and
        /// records the thread as killed, not panicked.
        pub fn killed() -> ! {
            std::panic::panic_any(KILL_MSG)
        }

        /// The exploration scheduler's view of controlled threads.
        pub trait Controller: Send + Sync {
            /// Reports that registered thread `tid` is about to
            /// perform `ev`; blocks until the scheduler grants it.
            fn sched_point(&self, tid: usize, ev: OpEvent) -> Grant;

            /// Parks `tid` at a blocking operation until the
            /// scheduler resumes it (the second half of a
            /// [`Grant::Block`]).
            fn block_point(&self, tid: usize);
        }

        static ACTIVE: AtomicBool = AtomicBool::new(false);
        static CONTROLLER: Mutex<Option<Arc<dyn Controller>>> = Mutex::new(None);

        thread_local! {
            static TID: Cell<Option<usize>> = const { Cell::new(None) };
        }

        /// Installs `controller` process-globally. Only registered
        /// threads are affected; the installer must serialize
        /// explorations itself (one controller at a time).
        pub fn install(controller: Arc<dyn Controller>) {
            *CONTROLLER
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(controller);
            ACTIVE.store(true, Ordering::SeqCst);
        }

        /// Removes the installed controller.
        pub fn uninstall() {
            ACTIVE.store(false, Ordering::SeqCst);
            *CONTROLLER
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
        }

        /// Registers the calling thread as controlled scenario thread
        /// `tid`.
        pub fn register_thread(tid: usize) {
            TID.with(|t| t.set(Some(tid)));
        }

        /// Deregisters the calling thread.
        pub fn deregister_thread() {
            TID.with(|t| t.set(None));
        }

        /// The calling thread's registered tid, if any.
        pub fn current_tid() -> Option<usize> {
            TID.with(|t| t.get())
        }

        /// The installed controller and the caller's tid — `None`
        /// unless a controller is active *and* this thread is
        /// registered. Primitives needing the split grant/block
        /// protocol drive the [`Controller`] directly through this.
        #[inline]
        pub fn controller_for_current() -> Option<(Arc<dyn Controller>, usize)> {
            if !ACTIVE.load(Ordering::Relaxed) {
                return None;
            }
            let tid = TID.with(|t| t.get())?;
            let ctl = CONTROLLER
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clone()?;
            Some((ctl, tid))
        }

        /// Reports `ev` for the calling thread and waits for the
        /// grant, handling [`Grant::Block`] by parking at the block
        /// point. Returns `true` if the thread is controlled (the
        /// operation was serialized), `false` for the untouched fast
        /// path.
        #[inline]
        pub fn sync_op(ev: OpEvent) -> bool {
            let Some((ctl, tid)) = controller_for_current() else {
                return false;
            };
            match ctl.sched_point(tid, ev) {
                Grant::Proceed => {}
                Grant::Block => ctl.block_point(tid),
                Grant::Die => killed(),
            }
            true
        }

        /// Convenience: reports a serialized critical-section entry
        /// on object `obj` (used by the shim deque so schedule
        /// exploration can drive the Chase-Lev protocol).
        #[inline]
        pub fn yield_op(obj: usize) {
            if ACTIVE.load(Ordering::Relaxed) {
                sync_op(OpEvent {
                    op: SyncOp::Yield,
                    obj,
                });
            }
        }
    }
}

/// Multi-producer channels, mirroring `crossbeam::channel`.
pub mod channel {
    use std::fmt;
    use std::sync::mpsc;

    /// Error returned when the receiving side has hung up.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T: Send> std::error::Error for SendError<T> {}

    /// Error returned when the channel is empty and disconnected.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty, disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("channel is empty"),
                TryRecvError::Disconnected => f.write_str("channel is disconnected"),
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// The sending half of a channel.
    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Sender<T> {
        /// Sends a message, failing if all receivers are gone.
        ///
        /// # Errors
        ///
        /// [`SendError`] returning the unsent message.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.inner
                .send(msg)
                .map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders are dropped.
        ///
        /// # Errors
        ///
        /// [`RecvError`] once the channel is empty and disconnected.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.recv().map_err(|_| RecvError)
        }

        /// Non-blocking receive.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] or [`TryRecvError::Disconnected`].
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }

        /// A blocking iterator over received messages.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            self.inner.iter()
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender { inner: tx }, Receiver { inner: rx })
    }

    /// Creates a "bounded" channel. The std backing is unbounded; the
    /// capacity is accepted for API compatibility, which is safe for the
    /// workspace's uses (bounds there only limit memory, not semantics).
    pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
        unbounded()
    }
}

/// Work-stealing deques, mirroring `crossbeam::deque`.
///
/// The owner of a [`deque::Worker`] pushes and pops at one end without
/// coordination beyond a short critical section; [`deque::Stealer`]
/// handles held by other threads take batches from the opposite end,
/// and a shared [`deque::Injector`] serves as the global FIFO entry
/// queue. Contended steals return [`deque::Steal::Retry`] rather than
/// blocking, matching the lock-free original's progress guarantees at
/// the API level.
pub mod deque {
    use crate::hooks::sched::yield_op;
    use crate::hooks::yield_point;
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Mutex, MutexGuard, TryLockError};

    /// Most items a single batch steal may transfer, mirroring
    /// crossbeam's `MAX_BATCH`.
    const MAX_BATCH: usize = 32;

    /// The outcome of a steal attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Steal<T> {
        /// The source queue was empty.
        Empty,
        /// One item was stolen.
        Success(T),
        /// The attempt lost a race; retrying may succeed.
        Retry,
    }

    impl<T> Steal<T> {
        /// Returns `true` if the queue was observed empty.
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }

        /// Returns `true` if the attempt should be retried.
        pub fn is_retry(&self) -> bool {
            matches!(self, Steal::Retry)
        }

        /// Returns the stolen item, if any.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(v) => Some(v),
                _ => None,
            }
        }
    }

    /// Pop order of a [`Worker`]'s owner end.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Flavor {
        Fifo,
        Lifo,
    }

    #[derive(Debug)]
    struct Buffer<T> {
        items: VecDeque<T>,
    }

    fn lock_or_retry<T>(queue: &Mutex<Buffer<T>>) -> Result<MutexGuard<'_, Buffer<T>>, ()> {
        match queue.try_lock() {
            Ok(guard) => Ok(guard),
            // Poisoning cannot happen (no user code runs under the
            // lock), but map it defensively to a retry.
            Err(TryLockError::Poisoned(p)) => Ok(p.into_inner()),
            Err(TryLockError::WouldBlock) => Err(()),
        }
    }

    /// Takes the front half of `items` (at most [`MAX_BATCH`]) as the
    /// item the thief runs now and the rest of its batch. A one-item
    /// batch — a lone resumed task — has no rest and allocates nothing.
    fn take_batch<T>(items: &mut VecDeque<T>) -> Option<(T, Vec<T>)> {
        let n = items.len().div_ceil(2).min(MAX_BATCH);
        let first = items.pop_front()?;
        Some((first, items.drain(..n - 1).collect()))
    }

    /// A deque owned by one worker thread.
    pub struct Worker<T> {
        queue: Arc<Mutex<Buffer<T>>>,
        flavor: Flavor,
    }

    impl<T> Worker<T> {
        fn with_flavor(flavor: Flavor) -> Self {
            Worker {
                queue: Arc::new(Mutex::new(Buffer {
                    items: VecDeque::new(),
                })),
                flavor,
            }
        }

        /// Creates a worker whose owner pops oldest-first.
        pub fn new_fifo() -> Self {
            Worker::with_flavor(Flavor::Fifo)
        }

        /// Creates a worker whose owner pops newest-first.
        pub fn new_lifo() -> Self {
            Worker::with_flavor(Flavor::Lifo)
        }

        /// Creates a [`Stealer`] handle for other threads.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }

        /// This deque's identity for the sched controller: the shared
        /// buffer's address, common to the worker and its stealers.
        fn obj(&self) -> usize {
            Arc::as_ptr(&self.queue) as usize
        }

        /// Pushes an item onto the owner end.
        pub fn push(&self, item: T) {
            yield_point();
            yield_op(self.obj());
            self.lock().items.push_back(item);
        }

        /// Pops an item from the owner end (per the flavor).
        pub fn pop(&self) -> Option<T> {
            yield_point();
            yield_op(self.obj());
            let mut buf = self.lock();
            match self.flavor {
                Flavor::Fifo => buf.items.pop_front(),
                Flavor::Lifo => buf.items.pop_back(),
            }
        }

        /// Returns `true` if the deque is empty.
        pub fn is_empty(&self) -> bool {
            self.lock().items.is_empty()
        }

        /// Number of queued items.
        pub fn len(&self) -> usize {
            self.lock().items.len()
        }

        /// The owner blocks rather than retrying: its own operations
        /// never deadlock and contention windows are a few instructions.
        fn lock(&self) -> MutexGuard<'_, Buffer<T>> {
            self.queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }
    }

    impl<T> fmt::Debug for Worker<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Worker { .. }")
        }
    }

    /// A handle that steals from a [`Worker`]'s opposite end.
    pub struct Stealer<T> {
        queue: Arc<Mutex<Buffer<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    impl<T> Stealer<T> {
        /// The source deque's identity for the sched controller.
        fn obj(&self) -> usize {
            Arc::as_ptr(&self.queue) as usize
        }

        /// Steals one item from the front (oldest) end.
        pub fn steal(&self) -> Steal<T> {
            yield_point();
            yield_op(self.obj());
            match lock_or_retry(&self.queue) {
                Ok(mut buf) => match buf.items.pop_front() {
                    Some(v) => Steal::Success(v),
                    None => Steal::Empty,
                },
                Err(()) => Steal::Retry,
            }
        }

        /// Steals up to half the items (capped) into `dest`, returning
        /// one of them.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            yield_point();
            yield_op(self.obj());
            let (first, rest) = match lock_or_retry(&self.queue) {
                Ok(mut buf) => match take_batch(&mut buf.items) {
                    Some(batch) => batch,
                    None => return Steal::Empty,
                },
                Err(()) => return Steal::Retry,
            };
            // The stolen batch is only visible to this thread here: a
            // preemption between the source drain and the dest publish
            // is the widest race window in the protocol.
            yield_point();
            yield_op(dest.obj());
            if !rest.is_empty() {
                let mut dst = dest.lock();
                dst.items.extend(rest);
            }
            Steal::Success(first)
        }

        /// Returns `true` if the source deque looks empty.
        pub fn is_empty(&self) -> bool {
            match lock_or_retry(&self.queue) {
                Ok(buf) => buf.items.is_empty(),
                Err(()) => false,
            }
        }
    }

    impl<T> fmt::Debug for Stealer<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Stealer { .. }")
        }
    }

    /// A shared FIFO entry queue all workers can push to and steal from.
    pub struct Injector<T> {
        queue: Mutex<Buffer<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Injector::new()
        }
    }

    impl<T> Injector<T> {
        /// Creates an empty injector.
        pub fn new() -> Self {
            Injector {
                queue: Mutex::new(Buffer {
                    items: VecDeque::new(),
                }),
            }
        }

        /// This injector's identity for the sched controller.
        fn obj(&self) -> usize {
            std::ptr::from_ref(&self.queue) as usize
        }

        /// Pushes an item onto the back of the queue.
        pub fn push(&self, item: T) {
            yield_op(self.obj());
            self.queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .items
                .push_back(item);
        }

        /// Steals one item from the front of the queue.
        pub fn steal(&self) -> Steal<T> {
            yield_op(self.obj());
            match lock_or_retry(&self.queue) {
                Ok(mut buf) => match buf.items.pop_front() {
                    Some(v) => Steal::Success(v),
                    None => Steal::Empty,
                },
                Err(()) => Steal::Retry,
            }
        }

        /// Steals up to half the items (capped) into `dest`, returning
        /// one of them.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            yield_op(self.obj());
            let (first, rest) = match lock_or_retry(&self.queue) {
                Ok(mut buf) => match take_batch(&mut buf.items) {
                    Some(batch) => batch,
                    None => return Steal::Empty,
                },
                Err(()) => return Steal::Retry,
            };
            if !rest.is_empty() {
                let mut dst = dest.lock();
                dst.items.extend(rest);
            }
            Steal::Success(first)
        }

        /// Returns `true` if the queue looks empty.
        pub fn is_empty(&self) -> bool {
            match lock_or_retry(&self.queue) {
                Ok(buf) => buf.items.is_empty(),
                Err(()) => false,
            }
        }

        /// Number of queued items.
        pub fn len(&self) -> usize {
            self.queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .items
                .len()
        }
    }

    impl<T> fmt::Debug for Injector<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Injector { .. }")
        }
    }
}

#[cfg(test)]
mod deque_tests {
    use super::deque::{Injector, Steal, Worker};
    use std::sync::Arc;

    #[test]
    fn lifo_owner_pops_newest_thief_steals_oldest() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop(), Some(3), "owner end is LIFO");
        assert_eq!(s.steal(), Steal::Success(1), "thieves take the oldest");
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert!(s.steal().is_empty());
    }

    #[test]
    fn fifo_owner_pops_oldest() {
        let w = Worker::new_fifo();
        w.push(1);
        w.push(2);
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), Some(2));
        assert!(w.is_empty());
    }

    #[test]
    fn injector_is_fifo_and_batch_steals_move_half() {
        let inj = Injector::new();
        for i in 0..10 {
            inj.push(i);
        }
        assert_eq!(inj.len(), 10);
        let w = Worker::new_lifo();
        // Half of 10 = 5: one returned, four land in the dest deque.
        assert_eq!(inj.steal_batch_and_pop(&w), Steal::Success(0));
        assert_eq!(w.len(), 4);
        assert_eq!(inj.len(), 5);
        let s = w.stealer();
        assert_eq!(s.steal(), Steal::Success(1), "dest preserved FIFO order");
    }

    #[test]
    fn stealer_batch_from_worker() {
        let w = Worker::new_lifo();
        for i in 0..8 {
            w.push(i);
        }
        let dest = Worker::new_lifo();
        let s = w.stealer();
        assert_eq!(s.steal_batch_and_pop(&dest), Steal::Success(0));
        assert_eq!(dest.len(), 3);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn empty_sources_report_empty() {
        let w: Worker<u32> = Worker::new_lifo();
        let inj: Injector<u32> = Injector::new();
        assert!(w.stealer().steal().is_empty());
        assert!(inj.steal().is_empty());
        assert!(inj.steal_batch_and_pop(&w).is_empty());
        assert!(w.stealer().steal_batch_and_pop(&w).is_empty());
        assert!(inj.is_empty() && w.stealer().is_empty());
    }

    #[test]
    fn steal_success_accessors() {
        assert_eq!(Steal::Success(7).success(), Some(7));
        assert_eq!(Steal::<u32>::Empty.success(), None);
        assert!(Steal::<u32>::Retry.is_retry());
    }

    #[test]
    fn concurrent_producers_and_thieves_lose_nothing() {
        let inj = Arc::new(Injector::new());
        let total = 4000u64;
        let producer = {
            let inj = Arc::clone(&inj);
            std::thread::spawn(move || {
                for i in 0..total {
                    inj.push(i);
                }
            })
        };
        let mut sums = Vec::new();
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let inj = Arc::clone(&inj);
                std::thread::spawn(move || {
                    let local = Worker::new_lifo();
                    let mut sum = 0u64;
                    let mut dry = 0;
                    while dry < 200 {
                        match inj.steal_batch_and_pop(&local) {
                            Steal::Success(v) => {
                                dry = 0;
                                sum += v;
                                while let Some(v) = local.pop() {
                                    sum += v;
                                }
                            }
                            Steal::Retry => {}
                            Steal::Empty => {
                                dry += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    sum
                })
            })
            .collect();
        producer.join().unwrap();
        for t in thieves {
            sums.push(t.join().unwrap());
        }
        assert_eq!(sums.iter().sum::<u64>(), total * (total - 1) / 2);
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError, TryRecvError};

    #[test]
    fn send_recv_across_threads() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let h = std::thread::spawn(move || {
            tx2.send(41u32).unwrap();
            tx.send(1).unwrap();
        });
        h.join().unwrap();
        assert_eq!(rx.recv().unwrap() + rx.recv().unwrap(), 42);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn try_recv_reports_state() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(5u8).unwrap();
        assert_eq!(rx.try_recv(), Ok(5));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1u8).is_err());
    }
}
