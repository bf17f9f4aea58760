//! The stack's synchronization primitives, routed through one module
//! so a schedule-exploration controller can interpose on every
//! operation.
//!
//! By default (`conc-instrument` feature **off**) this module is a set
//! of plain re-exports — `Mutex`/`Condvar` from `parking_lot`, the
//! `std` atomics, `std::thread` parking — with zero overhead: release
//! builds of the runtime are bit-for-bit unaffected.
//!
//! With `conc-instrument` **on**, each primitive is wrapped so that
//! every lock, unlock, condvar wait/notify, atomic access and
//! park/unpark first reports itself to the controller installed via
//! `crossbeam::hooks::sched` (see `continuum_analyze::conc::sched` for
//! the exploration scheduler that drives it). Threads that are *not*
//! registered with the controller pass straight through to the real
//! primitive, so an instrumented build still behaves normally outside
//! a controlled scenario — `cargo test --features conc-instrument`
//! runs the whole ordinary suite unchanged.
//!
//! Under a controller, exactly one registered thread runs between
//! scheduler decisions, which makes the *real* primitives trivially
//! uncontended: the real mutex acquire after a granted `MutexLock` can
//! never block, because the scheduler only grants the operation when
//! its own ownership model says the mutex is free. The real primitives
//! thus become the executable "body" of the operation while all
//! blocking moves into the controller.

use std::any::Any;
use std::sync::Arc;
use std::task::{Wake, Waker};

#[cfg(feature = "conc-instrument")]
pub use instrumented::{
    park, park_handle, park_timeout, AtomicBool, AtomicU8, AtomicUsize, Condvar, Mutex, MutexGuard,
    ParkHandle,
};
#[cfg(not(feature = "conc-instrument"))]
pub use uninstrumented::{
    park, park_handle, park_timeout, AtomicBool, AtomicU8, AtomicUsize, Condvar, Mutex, MutexGuard,
    ParkHandle,
};

/// Waker that unparks a blocked OS thread: the bridge that lets a
/// synchronous surface (`StreamChannel::send`/`recv`,
/// `OneshotReceiver::wait`) ride the same waker protocol as async
/// endpoints. The park/unpark token (std semantics, preserved by the
/// instrumented layer) makes the register-then-park sequence lossless:
/// an unpark landing between the failed poll and the park is consumed
/// by the park.
struct ThreadUnpark(ParkHandle);

impl Wake for ThreadUnpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

thread_local! {
    /// The calling thread's unpark waker, built on its first blocked
    /// call: after that, blocking allocates nothing.
    static THREAD_WAKER: Waker = Waker::from(Arc::new(ThreadUnpark(park_handle())));
}

/// A waker that [`ParkHandle::unpark`]s the calling thread. Register
/// it, then [`park`] in a loop that re-checks the awaited condition.
pub fn thread_waker() -> Waker {
    THREAD_WAKER.with(Waker::clone)
}

/// The message a caught unwind carried (`catch_unwind`'s or
/// `JoinHandle::join`'s `Err`): `panic!`'s string, or a placeholder for
/// a payload of any other type.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// A shared `u64` cell whose accesses are deliberately reported to the
/// race detector as **plain** (unsynchronized) reads and writes.
///
/// Physically the cell is an `AtomicU64`, so even a genuinely racy
/// scenario has defined behaviour at the machine level; *logically*
/// the exploration scheduler's vector-clock detector treats `get`/
/// `set` as data accesses and flags any conflicting pair that is not
/// ordered by the happens-before relation built from the instrumented
/// sync operations around it. Instrumented concurrency targets use it
/// as the "payload" whose protection the protocol under test must
/// provide.
#[derive(Debug, Default)]
pub struct RaceCell {
    v: std::sync::atomic::AtomicU64,
}

impl RaceCell {
    /// A cell holding `v`.
    pub const fn new(v: u64) -> Self {
        RaceCell {
            v: std::sync::atomic::AtomicU64::new(v),
        }
    }

    /// Plain read (reported as `RaceRead` under a controller).
    pub fn get(&self) -> u64 {
        #[cfg(feature = "conc-instrument")]
        crossbeam::hooks::sched::sync_op(crossbeam::hooks::sched::OpEvent {
            op: crossbeam::hooks::sched::SyncOp::RaceRead,
            obj: std::ptr::from_ref(self) as usize,
        });
        self.v.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Plain write (reported as `RaceWrite` under a controller).
    pub fn set(&self, v: u64) {
        #[cfg(feature = "conc-instrument")]
        crossbeam::hooks::sched::sync_op(crossbeam::hooks::sched::OpEvent {
            op: crossbeam::hooks::sched::SyncOp::RaceWrite,
            obj: std::ptr::from_ref(self) as usize,
        });
        self.v.store(v, std::sync::atomic::Ordering::SeqCst)
    }
}

#[cfg(not(feature = "conc-instrument"))]
mod uninstrumented {
    //! Plain re-exports: the exact primitives the stack always used.

    pub use parking_lot::{Condvar, Mutex, MutexGuard};
    pub use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize};
    use std::thread;
    use std::time::Duration;

    /// A handle that can unpark one specific thread (clone of
    /// `std::thread::Thread` with the instrumentable surface).
    #[derive(Clone, Debug)]
    pub struct ParkHandle {
        thread: thread::Thread,
    }

    impl ParkHandle {
        /// Unparks the handle's thread (std token semantics: an
        /// unpark landing before the park is consumed by it).
        pub fn unpark(&self) {
            self.thread.unpark();
        }
    }

    /// A [`ParkHandle`] for the calling thread.
    pub fn park_handle() -> ParkHandle {
        ParkHandle {
            thread: thread::current(),
        }
    }

    /// Parks the calling thread until unparked (std token semantics).
    #[inline]
    pub fn park() {
        thread::park();
    }

    /// Parks the calling thread until unparked or `dur` elapses,
    /// whichever comes first (std token semantics).
    #[inline]
    pub fn park_timeout(dur: Duration) {
        thread::park_timeout(dur);
    }
}

#[cfg(feature = "conc-instrument")]
mod instrumented {
    //! Controller-aware wrappers. Every operation reports to the
    //! installed `crossbeam::hooks::sched` controller first; threads
    //! not registered with a controller fall through to the real
    //! primitive untouched.

    use crossbeam::hooks::sched::{self, Grant, OpEvent, SyncOp};
    use std::ops::{Deref, DerefMut};
    use std::thread;
    use std::time::Duration;

    pub use atomics::{AtomicBool, AtomicU8, AtomicUsize};

    /// Instrumented mutual-exclusion lock (parking_lot-style API).
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: parking_lot::Mutex<T>,
    }

    /// Guard for [`Mutex`]; reports the unlock on drop. Holds the real
    /// guard in an `Option` so [`Condvar::wait`] can release and
    /// reacquire it around the controller's blocking window.
    pub struct MutexGuard<'a, T> {
        mutex: &'a Mutex<T>,
        inner: Option<parking_lot::MutexGuard<'a, T>>,
        controlled: bool,
    }

    impl<T> Mutex<T> {
        /// Creates a mutex.
        pub const fn new(value: T) -> Self {
            Mutex {
                inner: parking_lot::Mutex::new(value),
            }
        }

        fn obj(&self) -> usize {
            std::ptr::from_ref(self) as usize
        }

        /// Acquires the lock. Under a controller the acquisition is a
        /// sched point: the controller blocks the thread until its
        /// ownership model says the mutex is free, at which point the
        /// real acquire cannot contend.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            let controlled = sched::sync_op(OpEvent {
                op: SyncOp::MutexLock,
                obj: self.obj(),
            });
            MutexGuard {
                mutex: self,
                inner: Some(self.inner.lock()),
                controlled,
            }
        }

        /// Mutable access without locking (requires exclusive borrow).
        pub fn get_mut(&mut self) -> &mut T {
            self.inner.get_mut()
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // During an unwind (including a controller kill) the run is
            // abandoned: skip the report — a sched point here could
            // panic again and abort the process — and let the real
            // guard release on its own as the fields drop.
            if self.controlled && self.inner.is_some() && !thread::panicking() {
                // Report before the real release: the scheduler marks
                // the mutex free at the grant and will only run the
                // next thread once this one reaches its next sched
                // point — by which time the real guard is long gone.
                sched::sync_op(OpEvent {
                    op: SyncOp::MutexUnlock,
                    obj: self.mutex.obj(),
                });
            }
        }
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;

        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: only `Condvar::wait` empties `inner`, and it holds the guard's one `&mut` until it puts it back"
        )]
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard present outside wait")
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        #[expect(clippy::expect_used, reason = "INVARIANT: as for `deref`")]
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard present outside wait")
        }
    }

    /// Instrumented condition variable.
    #[derive(Debug, Default)]
    pub struct Condvar {
        inner: parking_lot::Condvar,
    }

    impl Condvar {
        /// Creates a condition variable.
        pub const fn new() -> Self {
            Condvar {
                inner: parking_lot::Condvar::new(),
            }
        }

        fn obj(&self) -> usize {
            std::ptr::from_ref(self) as usize
        }

        /// Atomically releases the guard's lock and waits to be
        /// notified, reacquiring before returning. Under a controller
        /// this is the split protocol: report the wait (the scheduler
        /// releases the mutex in its model and moves the thread to
        /// the condvar's wait set), drop the real guard, block in the
        /// controller until notified *and* granted the relock, then
        /// take the real (uncontended) lock back.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            if guard.controlled {
                if let Some((ctl, tid)) = sched::controller_for_current() {
                    match ctl.sched_point(
                        tid,
                        OpEvent {
                            op: SyncOp::CondvarWait {
                                mutex: guard.mutex.obj(),
                            },
                            obj: self.obj(),
                        },
                    ) {
                        Grant::Block => {}
                        Grant::Die => sched::killed(),
                        Grant::Proceed => unreachable!("condvar wait always blocks"),
                    }
                    guard.inner = None;
                    ctl.block_point(tid);
                    guard.inner = Some(guard.mutex.inner.lock());
                    return;
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: a guard holds its lock from `lock` on, except inside a wait, and this thread is not in one."
            )]
            let mut inner = guard.inner.take().expect("guard present before wait");
            self.inner.wait(&mut inner);
            guard.inner = Some(inner);
        }

        /// Wakes one waiting thread (FIFO under a controller, for
        /// deterministic schedules).
        pub fn notify_one(&self) {
            if sched::sync_op(OpEvent {
                op: SyncOp::CondvarNotifyOne,
                obj: self.obj(),
            }) {
                // Controlled waiters block in the controller, not on
                // the real condvar: the model notification is all.
                return;
            }
            self.inner.notify_one();
        }

        /// Wakes all waiting threads.
        pub fn notify_all(&self) {
            if sched::sync_op(OpEvent {
                op: SyncOp::CondvarNotifyAll,
                obj: self.obj(),
            }) {
                return;
            }
            self.inner.notify_all();
        }
    }

    mod atomics {
        use super::{sched, OpEvent, SyncOp};
        use std::sync::atomic::Ordering;

        macro_rules! instrumented_atomic {
            ($(#[$doc:meta])* $name:ident, $inner:ty, $raw:ty) => {
                $(#[$doc])*
                #[derive(Debug, Default)]
                pub struct $name {
                    inner: $inner,
                }

                impl $name {
                    /// Creates the atomic with an initial value.
                    pub const fn new(v: $raw) -> Self {
                        $name { inner: <$inner>::new(v) }
                    }

                    fn report(&self, op: SyncOp) {
                        sched::sync_op(OpEvent {
                            op,
                            obj: std::ptr::from_ref(self) as usize,
                        });
                    }

                    /// Instrumented load.
                    pub fn load(&self, order: Ordering) -> $raw {
                        self.report(SyncOp::AtomicLoad);
                        self.inner.load(order)
                    }

                    /// Instrumented store.
                    pub fn store(&self, v: $raw, order: Ordering) {
                        self.report(SyncOp::AtomicStore);
                        self.inner.store(v, order)
                    }

                    /// Instrumented swap.
                    pub fn swap(&self, v: $raw, order: Ordering) -> $raw {
                        self.report(SyncOp::AtomicRmw);
                        self.inner.swap(v, order)
                    }

                    /// Instrumented compare-exchange.
                    ///
                    /// # Errors
                    ///
                    /// The observed value, when it differs from
                    /// `current` (same as std).
                    pub fn compare_exchange(
                        &self,
                        current: $raw,
                        new: $raw,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$raw, $raw> {
                        self.report(SyncOp::AtomicRmw);
                        self.inner.compare_exchange(current, new, success, failure)
                    }
                }
            };
        }

        instrumented_atomic!(
            /// Instrumented `AtomicU8` (the task-cell state word).
            AtomicU8,
            std::sync::atomic::AtomicU8,
            u8
        );
        instrumented_atomic!(
            /// Instrumented `AtomicUsize` (sleeper mirrors, counters).
            AtomicUsize,
            std::sync::atomic::AtomicUsize,
            usize
        );
        instrumented_atomic!(
            /// Instrumented `AtomicBool` (readiness / shutdown flags).
            AtomicBool,
            std::sync::atomic::AtomicBool,
            bool
        );

        impl AtomicUsize {
            /// Instrumented fetch-add.
            pub fn fetch_add(&self, v: usize, order: Ordering) -> usize {
                self.report(SyncOp::AtomicRmw);
                self.inner.fetch_add(v, order)
            }

            /// Instrumented fetch-sub.
            pub fn fetch_sub(&self, v: usize, order: Ordering) -> usize {
                self.report(SyncOp::AtomicRmw);
                self.inner.fetch_sub(v, order)
            }
        }
    }

    /// A handle that can unpark one specific thread. For a registered
    /// scenario thread the unpark is routed through the controller's
    /// token model; otherwise it is a real `std` unpark.
    #[derive(Clone, Debug)]
    pub struct ParkHandle {
        thread: thread::Thread,
        tid: Option<usize>,
    }

    impl ParkHandle {
        /// Unparks the handle's thread (token semantics both under a
        /// controller and without one).
        pub fn unpark(&self) {
            if let Some(tid) = self.tid {
                if sched::sync_op(OpEvent {
                    op: SyncOp::Unpark { thread: tid },
                    obj: tid,
                }) {
                    return;
                }
            }
            self.thread.unpark();
        }
    }

    /// A [`ParkHandle`] for the calling thread.
    pub fn park_handle() -> ParkHandle {
        ParkHandle {
            thread: thread::current(),
            tid: sched::current_tid(),
        }
    }

    /// Parks the calling thread until unparked. Under a controller
    /// the park consumes a pending token or blocks in the scheduler.
    pub fn park() {
        if let Some(tid) = sched::current_tid() {
            if sched::sync_op(OpEvent {
                op: SyncOp::Park,
                obj: tid,
            }) {
                return;
            }
        }
        thread::park();
    }

    /// Parks the calling thread until unparked or `dur` elapses. The
    /// controller has no clock, so under it a timed park is a
    /// scheduling point that returns at once, as if `dur` had elapsed:
    /// every caller re-checks its condition and its own deadline after
    /// a park, and a pending unpark token is left for the next park.
    pub fn park_timeout(dur: Duration) {
        if let Some(tid) = sched::current_tid() {
            if sched::sync_op(OpEvent {
                op: SyncOp::Yield,
                obj: tid,
            }) {
                return;
            }
        }
        thread::park_timeout(dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn mutex_condvar_roundtrip_without_controller() {
        let shared = Arc::new((Mutex::new(0u32), Condvar::new()));
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (lock, cv) = &*shared;
                *lock.lock() = 7;
                cv.notify_all();
            })
        };
        let (lock, cv) = &*shared;
        let mut guard = lock.lock();
        while *guard != 7 {
            cv.wait(&mut guard);
        }
        drop(guard);
        worker.join().unwrap();
        assert_eq!(*lock.lock(), 7);
    }

    #[test]
    fn park_handle_unparks_across_threads() {
        let (tx, rx) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            tx.send(park_handle()).unwrap();
            park();
            42u32
        });
        let handle = rx.recv().unwrap();
        handle.unpark();
        assert_eq!(t.join().unwrap(), 42);
    }

    #[test]
    fn race_cell_is_plain_storage_without_controller() {
        let c = RaceCell::new(3);
        assert_eq!(c.get(), 3);
        c.set(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    fn atomics_behave_like_std() {
        let a = AtomicU8::new(1);
        assert_eq!(a.swap(2, Ordering::SeqCst), 1);
        assert_eq!(
            a.compare_exchange(2, 3, Ordering::SeqCst, Ordering::SeqCst),
            Ok(2)
        );
        a.store(5, Ordering::SeqCst);
        assert_eq!(a.load(Ordering::SeqCst), 5);
        let u = AtomicUsize::new(0);
        assert_eq!(u.fetch_add(4, Ordering::SeqCst), 0);
        assert_eq!(u.fetch_sub(1, Ordering::SeqCst), 4);
        assert_eq!(u.load(Ordering::SeqCst), 3);
        let b = AtomicBool::new(false);
        b.store(true, Ordering::SeqCst);
        assert!(b.load(Ordering::SeqCst));
    }
}
