//! Debug-only lock-order checker for the local runtime.
//!
//! The executor's documented lock order is `graph → pool/sleep` (see
//! the module docs of `local.rs`): the pool and sleep locks are leaves
//! that must never be held across another of the tracked locks. (Value
//! cells are outside the order: their slot mutex never has anything
//! acquired under it.) This module encodes that order in a static rank table
//! and panics on any inversion, turning a would-be deadlock that only
//! strikes under rare interleavings into a deterministic test failure.
//!
//! Each tracked acquisition site calls [`acquire`] with its rank
//! *immediately before* taking the mutex and binds the returned
//! [`LockToken`] *before* the guard, so Rust's reverse-declaration drop
//! order releases the token after the lock. In release builds the whole
//! mechanism compiles to nothing.

/// Rank of the graph/access-processor mutex (acquired first).
pub const RANK_GRAPH: u8 = 0;
/// Rank of the resource-pool mutex (leaf).
pub const RANK_POOL: u8 = 2;
/// Rank of the sleep-protocol mutex (leaf; never nests with the pool).
pub const RANK_SLEEP: u8 = 2;
/// Rank of a stream-channel mutex (leaf; acquired either standalone on
/// the send/recv data path or under the graph lock when a failing run
/// force-closes channels — never the other way around, and never
/// nested with the pool or sleep locks). Wakers captured under a
/// channel lock are invoked only *after* the guard is released — a
/// task waker takes the sleep lock (equal rank), so firing it with the
/// channel lock held would be an inversion.
pub const RANK_STREAM: u8 = 2;
/// Rank of the reactor's timer-wheel mutex (leaf). Acquired standalone
/// by the reactor thread and by tasks registering sleep deadlines; the
/// reactor fires due wakers only after dropping the wheel lock, for
/// the same reason as [`RANK_STREAM`].
pub const RANK_REACTOR: u8 = 2;

#[cfg(debug_assertions)]
mod imp {
    use std::cell::RefCell;

    thread_local! {
        /// Stack of (rank, name) for locks this thread currently holds.
        static HELD: RefCell<Vec<(u8, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII record of one tracked lock acquisition.
    pub struct LockToken {
        name: &'static str,
    }

    /// Records that the current thread is about to take the lock
    /// `name` of the given rank.
    ///
    /// # Panics
    ///
    /// Panics if the thread already holds a tracked lock of an equal or
    /// higher rank — a lock-order inversion.
    pub fn acquire(rank: u8, name: &'static str) -> LockToken {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top_rank, top_name)) = held.last() {
                assert!(
                    rank > top_rank,
                    "lock-order inversion: acquiring '{name}' (rank {rank}) \
                     while holding '{top_name}' (rank {top_rank}); \
                     documented order is graph -> pool/sleep"
                );
            }
            held.push((rank, name));
        });
        LockToken { name }
    }

    /// Runs `f` with the innermost tracked lock, `name`, taken off the
    /// thread's record — for a caller that releases that lock around
    /// `f`, so that `f` may take it, or any other, afresh. The record is
    /// restored when `f` returns or unwinds.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not the innermost lock the thread holds.
    pub fn released<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
        let entry = HELD.with(|held| held.borrow_mut().pop());
        assert_eq!(
            entry.map(|(_, n)| n),
            Some(name),
            "only the innermost tracked lock can be released"
        );
        struct Restore(Option<(u8, &'static str)>);
        impl Drop for Restore {
            fn drop(&mut self) {
                HELD.with(|held| held.borrow_mut().extend(self.0.take()));
            }
        }
        let _restore = Restore(entry);
        f()
    }

    impl Drop for LockToken {
        fn drop(&mut self) {
            HELD.with(|held| {
                let popped = held.borrow_mut().pop();
                debug_assert_eq!(
                    popped.map(|(_, n)| n),
                    Some(self.name),
                    "lock tokens must drop in reverse acquisition order"
                );
            });
        }
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    /// RAII record of one tracked lock acquisition (release: unit).
    pub struct LockToken;

    /// Release builds: no tracking, no cost.
    #[inline(always)]
    pub fn acquire(_rank: u8, _name: &'static str) -> LockToken {
        LockToken
    }

    /// Release builds: runs `f`.
    #[inline(always)]
    pub fn released<R>(_name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

pub use imp::{acquire, released};

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn documented_order_is_accepted() {
        let _graph = acquire(RANK_GRAPH, "graph");
        let _pool = acquire(RANK_POOL, "pool");
    }

    #[test]
    fn reacquiring_after_release_is_fine() {
        {
            let _pool = acquire(RANK_POOL, "pool");
        }
        let _graph = acquire(RANK_GRAPH, "graph");
        let _sleep = acquire(RANK_SLEEP, "sleep");
    }

    #[test]
    fn a_released_lock_can_be_taken_again_inside() {
        let _graph = acquire(RANK_GRAPH, "graph");
        released("graph", || {
            let _graph = acquire(RANK_GRAPH, "graph");
            let _pool = acquire(RANK_POOL, "pool");
        });
        let _pool = acquire(RANK_POOL, "pool");
    }

    #[test]
    #[should_panic(expected = "lock-order inversion")]
    fn inversion_panics() {
        let _pool = acquire(RANK_POOL, "pool");
        let _graph = acquire(RANK_GRAPH, "graph");
    }

    #[test]
    #[should_panic(expected = "lock-order inversion")]
    fn equal_rank_nesting_panics() {
        let _pool = acquire(RANK_POOL, "pool");
        let _sleep = acquire(RANK_SLEEP, "sleep");
    }
}
