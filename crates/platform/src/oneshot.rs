//! Single-use, waker-aware reply cells: the bridge between the
//! blocking service threads of the stack (storage backends, agent
//! inboxes) and async task bodies polled by an executor.
//!
//! A [`channel`] pair carries exactly one value. The sender side lives
//! on a service thread and [`send`](OneshotSender::send)s the reply
//! when the blocking call finishes; the receiver side is a
//! [`Future`] an async task awaits, parking itself (costing a waker
//! clone, not a thread) until the reply lands — or, for a caller that
//! is a plain thread, [`wait`](OneshotReceiver::wait) blocks on the
//! same future, or [`wait_timeout`](OneshotReceiver::wait_timeout) until
//! a deadline, after which the caller gets the receiver back. Dropping the sender without sending resolves the
//! receiver to `None`, so a dying service thread can never strand a
//! parked task.
//!
//! The cell is executor-agnostic — it speaks only `std::task::Waker` —
//! which keeps the lower layers of the stack free of any dependency on
//! the runtime crate. The registered waker is always invoked *after*
//! the internal lock is released, so executors whose wakers take their
//! own locks (the runtime's scheduler does) cannot deadlock through a
//! reply.

use crate::sync::{self, Mutex};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

struct Inner<T> {
    /// The reply, once sent.
    value: Option<T>,
    /// Waker of the awaiting task, registered at the latest poll.
    waker: Option<Waker>,
    /// The sender is gone (dropped or consumed by a send).
    closed: bool,
}

/// Producer half: fulfilled once by the service thread.
pub struct OneshotSender<T> {
    inner: Arc<Mutex<Inner<T>>>,
}

/// Consumer half: a [`Future`] resolving to `Some(reply)`, or `None`
/// if the sender was dropped without replying.
pub struct OneshotReceiver<T> {
    inner: Arc<Mutex<Inner<T>>>,
}

/// Creates a connected reply-cell pair.
pub fn channel<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let inner = Arc::new(Mutex::new(Inner {
        value: None,
        waker: None,
        closed: false,
    }));
    (
        OneshotSender {
            inner: Arc::clone(&inner),
        },
        OneshotReceiver { inner },
    )
}

impl<T> OneshotSender<T> {
    /// Delivers the reply and wakes the awaiting task. Returns `false`
    /// if a reply was already delivered (the extra value is dropped).
    pub fn send(&self, value: T) -> bool {
        let waker = {
            let mut s = self.inner.lock();
            if s.closed {
                return false;
            }
            s.value = Some(value);
            s.closed = true;
            s.waker.take()
        };
        // Outside the lock: the waker may re-enter the executor.
        if let Some(w) = waker {
            w.wake();
        }
        true
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        let waker = {
            let mut s = self.inner.lock();
            if s.closed {
                return;
            }
            // No reply will ever come; resolve the receiver to `None`
            // rather than stranding it parked.
            s.closed = true;
            s.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut s = self.inner.lock();
        if let Some(v) = s.value.take() {
            return Poll::Ready(Some(v));
        }
        if s.closed {
            return Poll::Ready(None);
        }
        // Re-register only when the stored waker would not already
        // wake this task.
        match &s.waker {
            Some(w) if w.will_wake(cx.waker()) => {}
            _ => s.waker = Some(cx.waker().clone()),
        }
        Poll::Pending
    }
}

impl<T> OneshotReceiver<T> {
    /// Blocks the calling thread until the reply lands: the same poll
    /// as `.await`, with the thread's own unpark waker registered and
    /// the thread parked between polls. `None` if the sender was
    /// dropped without replying.
    pub fn wait(mut self) -> Option<T> {
        let waker = sync::thread_waker();
        let mut cx = Context::from_waker(&waker);
        loop {
            match Pin::new(&mut self).poll(&mut cx) {
                Poll::Ready(reply) => return reply,
                Poll::Pending => sync::park(),
            }
        }
    }

    /// [`wait`](Self::wait) with a deadline: `Ok(reply)` as `wait`
    /// would return it if the reply (or the sender's drop) lands
    /// within `timeout`, and `Err(self)` if it does not. The receiver
    /// handed back is still connected, so the caller may keep waiting
    /// on it or drop it; a reply sent after the drop is discarded.
    ///
    /// A timeout too large to add to the clock waits without one.
    pub fn wait_timeout(mut self, timeout: Duration) -> Result<Option<T>, Self> {
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return Ok(self.wait());
        };
        let waker = sync::thread_waker();
        let mut cx = Context::from_waker(&waker);
        loop {
            if let Poll::Ready(reply) = Pin::new(&mut self).poll(&mut cx) {
                return Ok(reply);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(self);
            }
            sync::park_timeout(deadline - now);
        }
    }
}

impl<T> std::fmt::Debug for OneshotSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OneshotSender")
    }
}

impl<T> std::fmt::Debug for OneshotReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OneshotReceiver")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::task::Wake;

    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn poll_once<T>(rx: &mut OneshotReceiver<T>, waker: &Waker) -> Poll<Option<T>> {
        Pin::new(rx).poll(&mut Context::from_waker(waker))
    }

    #[test]
    fn send_before_poll_resolves_immediately() {
        let (tx, mut rx) = channel::<u32>();
        assert!(tx.send(7));
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        assert_eq!(poll_once(&mut rx, &waker), Poll::Ready(Some(7)));
        assert_eq!(counter.0.load(Ordering::SeqCst), 0, "no park, no wake");
    }

    #[test]
    fn send_after_poll_wakes_exactly_once() {
        let (tx, mut rx) = channel::<u32>();
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        assert_eq!(poll_once(&mut rx, &waker), Poll::Pending);
        assert_eq!(poll_once(&mut rx, &waker), Poll::Pending, "re-poll is fine");
        assert!(tx.send(9));
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        assert_eq!(poll_once(&mut rx, &waker), Poll::Ready(Some(9)));
        assert!(!tx.send(10), "second send is rejected");
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dropped_sender_resolves_to_none() {
        let (tx, mut rx) = channel::<u32>();
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        assert_eq!(poll_once(&mut rx, &waker), Poll::Pending);
        drop(tx);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
        assert_eq!(poll_once(&mut rx, &waker), Poll::Ready(None));
    }

    #[test]
    fn wait_returns_a_reply_sent_before_the_call() {
        let (tx, rx) = channel::<u32>();
        assert!(tx.send(7));
        assert_eq!(rx.wait(), Some(7));
    }

    #[test]
    fn wait_is_woken_by_a_late_reply_or_a_dropped_sender() {
        for reply in [Some(9), None] {
            let (tx, rx) = channel::<u32>();
            let waiter = std::thread::spawn(move || rx.wait());
            // The receiver registers its waker (under the cell's lock)
            // only on its way to `park`.
            while tx.inner.lock().waker.is_none() {
                std::thread::yield_now();
            }
            match reply {
                Some(v) => assert!(tx.send(v)),
                None => drop(tx),
            }
            assert_eq!(waiter.join().unwrap(), reply);
        }
    }

    #[test]
    fn wait_timeout_returns_a_reply_that_lands_before_the_deadline() {
        let (tx, rx) = channel::<u32>();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            assert!(tx.send(5));
        });
        assert_eq!(rx.wait_timeout(Duration::from_secs(30)).ok(), Some(Some(5)));
        sender.join().unwrap();
    }

    #[test]
    fn wait_timeout_hands_the_receiver_back_and_a_later_wait_gets_the_value() {
        let (tx, rx) = channel::<u32>();
        let start = Instant::now();
        let rx = rx
            .wait_timeout(Duration::from_millis(30))
            .expect_err("no reply was sent");
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "returned early"
        );
        // Still connected: the reply sent after the deadline is the
        // one a later wait sees.
        assert!(tx.send(11));
        assert_eq!(rx.wait(), Some(11));
    }

    #[test]
    fn wait_timeout_sees_a_dropped_sender_as_no_reply() {
        let (tx, rx) = channel::<u32>();
        drop(tx);
        assert_eq!(rx.wait_timeout(Duration::from_secs(30)).ok(), Some(None));
        let (tx, rx) = channel::<u32>();
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        assert_eq!(rx.wait_timeout(Duration::from_secs(30)).ok(), Some(None));
        dropper.join().unwrap();
    }
}
