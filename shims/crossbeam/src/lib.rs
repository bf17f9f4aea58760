//! Offline drop-in stand-in for the `crossbeam` crate surface this
//! workspace uses: `deque::{Worker, Stealer, Injector, Steal}`, plus
//! the test [`hooks`] the deques report to. The deques are backed by
//! mutex-guarded ring buffers, preserving the crossbeam semantics
//! (owner pops one end, thieves steal the other, contended steals
//! report `Retry`) without the lock-free unsafe code. It has no
//! channels: the agents' inboxes are `std::sync::mpsc` and their
//! replies `continuum_platform::oneshot` cells.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

/// Test hooks for deterministic-interleaving testing: the deque
/// operations report the entry of every critical section to
/// [`hooks::sched`], so a schedule explorer can preempt a thread at
/// exactly the points where the push/steal race windows open.
pub mod hooks {
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
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

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

    /// Steals the front item of `queue`.
    fn steal<T>(queue: &Mutex<Buffer<T>>) -> Steal<T> {
        match lock_or_retry(queue) {
            Ok(mut buf) => buf.items.pop_front().map_or(Steal::Empty, Steal::Success),
            Err(()) => Steal::Retry,
        }
    }

    /// Steals the front half of `queue` (at most [`MAX_BATCH`]): returns
    /// the item the thief runs now and moves the rest of its batch to
    /// `dest`, staged in `dest`'s batch buffer, calling `before_publish`
    /// once the source is unlocked.
    fn steal_batch<T>(
        queue: &Mutex<Buffer<T>>,
        dest: &Worker<T>,
        before_publish: impl FnOnce(),
    ) -> Steal<T> {
        let mut rest = dest.batch.lock().unwrap_or_else(PoisonError::into_inner);
        let first = match lock_or_retry(queue) {
            Ok(mut buf) => {
                let n = buf.items.len().div_ceil(2).min(MAX_BATCH);
                let Some(first) = buf.items.pop_front() else {
                    return Steal::Empty;
                };
                rest.extend(buf.items.drain(..n - 1));
                first
            }
            Err(()) => return Steal::Retry,
        };
        before_publish();
        if !rest.is_empty() {
            dest.lock().items.extend(rest.drain(..));
        }
        Steal::Success(first)
    }

    /// Whether `queue` looks empty; a contended one does not.
    fn looks_empty<T>(queue: &Mutex<Buffer<T>>) -> bool {
        lock_or_retry(queue).is_ok_and(|buf| buf.items.is_empty())
    }

    /// A deque owned by one worker thread.
    pub struct Worker<T> {
        queue: Arc<Mutex<Buffer<T>>>,
        /// Where a batch stolen into this deque waits while the source
        /// is locked, made at full size with the deque: a steal never
        /// allocates, however often the source holds a batch.
        batch: Mutex<Vec<T>>,
    }

    impl<T> Worker<T> {
        /// Creates a worker whose owner pops newest-first.
        pub fn new_lifo() -> Self {
            Worker {
                queue: Arc::new(Mutex::new(Buffer {
                    items: VecDeque::new(),
                })),
                batch: Mutex::new(Vec::with_capacity(MAX_BATCH)),
            }
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
            yield_op(self.obj());
            self.lock().items.push_back(item);
        }

        /// Pops the newest item from the owner end.
        pub fn pop(&self) -> Option<T> {
            yield_op(self.obj());
            self.lock().items.pop_back()
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
            self.queue.lock().unwrap_or_else(PoisonError::into_inner)
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
            yield_op(self.obj());
            steal(&self.queue)
        }

        /// Steals up to half the items (capped) into `dest`, returning
        /// one of them.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            yield_op(self.obj());
            // The stolen batch is only visible to this thread between
            // the source drain and the dest publish: a preemption there
            // is the widest race window in the protocol.
            steal_batch(&self.queue, dest, || yield_op(dest.obj()))
        }

        /// Returns `true` if the source deque looks empty.
        pub fn is_empty(&self) -> bool {
            looks_empty(&self.queue)
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
                .unwrap_or_else(PoisonError::into_inner)
                .items
                .push_back(item);
        }

        /// Steals one item from the front of the queue.
        pub fn steal(&self) -> Steal<T> {
            yield_op(self.obj());
            steal(&self.queue)
        }

        /// Steals up to half the items (capped) into `dest`, returning
        /// one of them.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            yield_op(self.obj());
            steal_batch(&self.queue, dest, || {})
        }

        /// Returns `true` if the queue looks empty.
        pub fn is_empty(&self) -> bool {
            looks_empty(&self.queue)
        }

        /// Number of queued items.
        pub fn len(&self) -> usize {
            self.queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
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
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
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

    /// Three thieves race the pushes through every steal path, the
    /// injector's and the owner deque's, one item and batches; every
    /// item is consumed exactly once. With `owner_deque` the owner puts
    /// every other item on its LIFO deque and pops between pushes;
    /// without it, everything goes through the injector.
    fn each_item_consumed_once(owner_deque: bool) {
        const ITEMS: usize = 20_000;
        let seen: Arc<Vec<AtomicUsize>> =
            Arc::new((0..ITEMS).map(|_| AtomicUsize::new(0)).collect());
        let consumed = Arc::new(AtomicUsize::new(0));
        let take = {
            let (seen, consumed) = (Arc::clone(&seen), Arc::clone(&consumed));
            move |i: usize| {
                seen[i].fetch_add(1, SeqCst);
                consumed.fetch_add(1, SeqCst);
            }
        };
        let injector = Arc::new(Injector::new());
        let owner = Worker::new_lifo();
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let (injector, stealer) = (Arc::clone(&injector), owner.stealer());
                let (consumed, take) = (Arc::clone(&consumed), take.clone());
                std::thread::spawn(move || {
                    let local = Worker::new_lifo();
                    while consumed.load(SeqCst) < ITEMS {
                        let mut progress = false;
                        for got in [
                            injector.steal_batch_and_pop(&local),
                            injector.steal(),
                            stealer.steal_batch_and_pop(&local),
                            stealer.steal(),
                        ] {
                            if let Steal::Success(i) = got {
                                take(i);
                                progress = true;
                            }
                        }
                        while let Some(i) = local.pop() {
                            take(i);
                            progress = true;
                        }
                        if !progress {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for i in 0..ITEMS {
            if owner_deque && i % 2 == 0 {
                owner.push(i);
            } else {
                injector.push(i);
            }
            if owner_deque && i % 3 == 0 {
                if let Some(j) = owner.pop() {
                    take(j);
                }
            }
        }
        while consumed.load(SeqCst) < ITEMS {
            match owner.pop() {
                Some(j) => take(j),
                None => std::thread::yield_now(),
            }
        }
        for t in thieves {
            t.join().unwrap();
        }
        for (i, n) in seen.iter().enumerate() {
            let n = n.load(SeqCst);
            assert_eq!(
                n, 1,
                "item {i} consumed {n} times (owner deque: {owner_deque})"
            );
        }
    }

    #[test]
    fn concurrent_producers_and_thieves_lose_nothing() {
        for owner_deque in [false, true] {
            each_item_consumed_once(owner_deque);
        }
    }
}
