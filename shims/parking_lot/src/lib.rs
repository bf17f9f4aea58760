//! Offline drop-in stand-in for `parking_lot`: `Mutex`, `RwLock`, and
//! `Condvar` with parking_lot's ergonomics (no `Result` from `lock`,
//! `Condvar::wait(&mut guard)`), backed by `std::sync`. Poisoning is
//! transparently ignored, matching parking_lot semantics.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;

/// A mutual-exclusion lock whose `lock` returns the guard directly.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

/// Guard for [`Mutex`].
///
/// Holds the std guard in an `Option` so [`Condvar::wait`] and
/// [`MutexGuard::unlocked`] can move it out and back without unsafe
/// code, and the mutex to take it again.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a sync::Mutex<T>,
    guard: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking the current thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            mutex: &self.inner,
            guard: Some(
                self.inner
                    .lock()
                    .unwrap_or_else(sync::PoisonError::into_inner),
            ),
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(guard) => Some(MutexGuard {
                mutex: &self.inner,
                guard: Some(guard),
            }),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                mutex: &self.inner,
                guard: Some(p.into_inner()),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Releases the lock while `f` runs and takes it again before
    /// returning, as parking_lot's `MutexGuard::unlocked` does. If `f`
    /// panics the lock stays released; dropping the guard then is a
    /// no-op.
    pub fn unlocked<F: FnOnce() -> U, U>(s: &mut Self, f: F) -> U {
        drop(s.guard.take());
        let out = f();
        s.guard = Some(s.mutex.lock().unwrap_or_else(sync::PoisonError::into_inner));
        out
    }

    fn inner(&self) -> &sync::MutexGuard<'a, T> {
        self.guard
            .as_ref()
            .expect("guard present outside Condvar::wait")
    }

    fn inner_mut(&mut self) -> &mut sync::MutexGuard<'a, T> {
        self.guard
            .as_mut()
            .expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner()
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A condition variable working with [`MutexGuard`].
#[derive(Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Atomically releases the guard's lock and waits for a
    /// notification, reacquiring before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.guard.take().expect("guard present before wait");
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(sync::PoisonError::into_inner);
        guard.guard = Some(inner);
    }

    /// Waits with a timeout; returns `true` if the wait timed out.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) -> bool {
        let inner = guard.guard.take().expect("guard present before wait");
        let (inner, result) = match self.inner.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r)
            }
        };
        guard.guard = Some(inner);
        result.timed_out()
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

/// A reader-writer lock whose `read`/`write` return guards directly.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: sync::RwLockReadGuard<'a, T>,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: sync::RwLockWriteGuard<'a, T>,
}

impl<T> RwLock<T> {
    /// Creates a reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            guard: self
                .inner
                .read()
                .unwrap_or_else(sync::PoisonError::into_inner),
        }
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            guard: self
                .inner
                .write()
                .unwrap_or_else(sync::PoisonError::into_inner),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(guard) => f.debug_struct("RwLock").field("data", &&*guard).finish(),
            Err(_) => f.write_str("RwLock { <locked> }"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_and_condvar_coordinate_threads() {
        let shared = Arc::new((Mutex::new(0u32), Condvar::new()));
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (lock, cv) = &*shared;
                *lock.lock() = 10;
                cv.notify_all();
            })
        };
        let (lock, cv) = &*shared;
        let mut guard = lock.lock();
        while *guard != 10 {
            cv.wait(&mut guard);
        }
        drop(guard);
        worker.join().unwrap();
        assert_eq!(*lock.lock(), 10);
    }

    #[test]
    fn unlocked_lets_others_in_and_relocks() {
        let lock = Mutex::new(1u32);
        let mut guard = lock.lock();
        let seen = MutexGuard::unlocked(&mut guard, || {
            let mut other = lock.try_lock().expect("released while unlocked");
            *other += 1;
            *other
        });
        assert_eq!(seen, 2);
        assert!(lock.try_lock().is_none(), "held again");
        assert_eq!(*guard, 2);
    }

    #[test]
    fn wait_for_times_out() {
        let lock = Mutex::new(());
        let cv = Condvar::new();
        let mut guard = lock.lock();
        assert!(cv.wait_for(&mut guard, Duration::from_millis(10)));
    }

    #[test]
    fn rwlock_allows_parallel_reads() {
        let lock = RwLock::new(5u32);
        let a = lock.read();
        let b = lock.read();
        assert_eq!(*a + *b, 10);
        drop((a, b));
        *lock.write() += 1;
        assert_eq!(*lock.read(), 6);
    }
}
