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
//!
//! A thread that waits on many replies at once takes them from one
//! [`ReplyQueue`] instead: each of its [senders](ReplyQueue::sender) is
//! an ordinary [`OneshotSender`] that shares the queue and carries a
//! tag, so the replies arrive tagged, in the order they land, with no
//! cell of their own.

use crate::sync::{self, Mutex};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
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
    to: Target<T>,
}

/// Where a sender's one reply goes.
enum Target<T> {
    /// The cell its [`channel`]'s receiver reads.
    Cell(Arc<Mutex<Inner<T>>>),
    /// A [`ReplyQueue`], under `tag`; `sent` once a reply went.
    Queue {
        queue: Arc<Mutex<Queued<T>>>,
        tag: u64,
        sent: AtomicBool,
    },
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
            to: Target::Cell(Arc::clone(&inner)),
        },
        OneshotReceiver { inner },
    )
}

impl<T> OneshotSender<T> {
    /// Delivers the reply and wakes the awaiting task. Returns `false`
    /// if a reply was already delivered (the extra value is dropped).
    pub fn send(&self, value: T) -> bool {
        self.deliver(Some(value))
    }

    /// Delivers `reply` unless one went already: a value, or `None`
    /// for a sender dropped unanswered. The waker is woken outside the
    /// lock, as it may re-enter the executor.
    fn deliver(&self, reply: Option<T>) -> bool {
        let waker = match &self.to {
            Target::Cell(inner) => {
                let mut s = inner.lock();
                if s.closed {
                    return false;
                }
                s.value = reply;
                s.closed = true;
                s.waker.take()
            }
            Target::Queue { queue, tag, sent } => {
                if sent.swap(true, Ordering::Relaxed) {
                    return false;
                }
                let mut q = queue.lock();
                q.replies.push_back((*tag, reply));
                q.waker.take()
            }
        };
        if let Some(w) = waker {
            w.wake();
        }
        true
    }
}

impl<T> Drop for OneshotSender<T> {
    /// No reply will ever come: the receiver resolves to `None`, and a
    /// queue gets `None` under the sender's tag, rather than the waiter
    /// being stranded.
    fn drop(&mut self) {
        self.deliver(None);
    }
}

/// Replies of many [`OneshotSender`]s, taken by one waiting thread in
/// the order they land, each under the tag its sender was made with.
/// A sender holds the queue's one shared block: making one allocates
/// nothing.
pub struct ReplyQueue<T> {
    shared: Arc<Mutex<Queued<T>>>,
}

struct Queued<T> {
    /// Replies not yet taken; `None` from a sender dropped unanswered.
    replies: VecDeque<(u64, Option<T>)>,
    /// The waiting thread's waker, registered when it found no reply.
    waker: Option<Waker>,
}

impl<T> ReplyQueue<T> {
    /// An empty queue with room for `capacity` replies before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        ReplyQueue {
            shared: Arc::new(Mutex::new(Queued {
                replies: VecDeque::with_capacity(capacity),
                waker: None,
            })),
        }
    }

    /// A sender whose one reply arrives here under `tag`.
    pub fn sender(&self, tag: u64) -> OneshotSender<T> {
        OneshotSender {
            to: Target::Queue {
                queue: Arc::clone(&self.shared),
                tag,
                sent: AtomicBool::new(false),
            },
        }
    }

    /// The earliest reply not yet taken, blocking the calling thread
    /// until one lands; `None` once `deadline` passes without one. With
    /// no deadline, waits as long as it takes.
    pub fn wait_until(&self, deadline: Option<Instant>) -> Option<(u64, Option<T>)> {
        park_until(deadline, |cx| {
            let mut q = self.shared.lock();
            let reply = q.replies.pop_front();
            if reply.is_none() {
                register(&mut q.waker, cx);
            }
            reply.map_or(Poll::Pending, Poll::Ready)
        })
    }
}

/// Stores `cx`'s waker in `slot`, unless the one there already wakes
/// the same task.
fn register(slot: &mut Option<Waker>, cx: &Context<'_>) {
    if !slot.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
        *slot = Some(cx.waker().clone());
    }
}

/// Polls with the calling thread's own unpark waker registered, parking
/// the thread between polls, until `poll` is ready; `None` once
/// `deadline` passes first.
fn park_until<R>(
    deadline: Option<Instant>,
    mut poll: impl FnMut(&mut Context<'_>) -> Poll<R>,
) -> Option<R> {
    let waker = sync::thread_waker();
    let mut cx = Context::from_waker(&waker);
    loop {
        if let Poll::Ready(ready) = poll(&mut cx) {
            return Some(ready);
        }
        let Some(deadline) = deadline else {
            sync::park();
            continue;
        };
        let now = Instant::now();
        if now >= deadline {
            return None;
        }
        sync::park_timeout(deadline - now);
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
        register(&mut s.waker, cx);
        Poll::Pending
    }
}

impl<T> OneshotReceiver<T> {
    /// Blocks the calling thread until the reply lands: the same poll
    /// as `.await`, with the thread's own unpark waker registered and
    /// the thread parked between polls. `None` if the sender was
    /// dropped without replying.
    pub fn wait(mut self) -> Option<T> {
        park_until(None, |cx| Pin::new(&mut self).poll(cx)).flatten()
    }

    /// [`wait`](Self::wait) with a deadline: `Ok(reply)` as `wait`
    /// would return it if the reply (or the sender's drop) lands
    /// within `timeout`, and `Err(self)` if it does not. The receiver
    /// handed back is still connected, so the caller may keep waiting
    /// on it or drop it; a reply sent after the drop is discarded.
    ///
    /// A timeout too large to add to the clock waits without one.
    pub fn wait_timeout(mut self, timeout: Duration) -> Result<Option<T>, Self> {
        let deadline = Instant::now().checked_add(timeout);
        park_until(deadline, |cx| Pin::new(&mut self).poll(cx)).ok_or(self)
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
            let Target::Cell(cell) = &tx.to else {
                unreachable!("a channel's sender feeds its cell")
            };
            while cell.lock().waker.is_none() {
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

    #[test]
    fn a_queue_takes_tagged_replies_in_landing_order() {
        let queue = ReplyQueue::with_capacity(2);
        let (first, second, dropped) = (queue.sender(7), queue.sender(3), queue.sender(5));
        assert!(second.send("b"));
        assert!(!second.send("again"), "one reply per sender");
        drop(dropped);
        assert!(first.send("a"));
        drop(first);
        let now = Some(Instant::now());
        assert_eq!(queue.wait_until(now), Some((3, Some("b"))));
        assert_eq!(queue.wait_until(now), Some((5, None)), "dropped unanswered");
        assert_eq!(queue.wait_until(now), Some((7, Some("a"))));
        assert_eq!(queue.wait_until(now), None, "nothing more, deadline passed");
        // A reply from another thread wakes a waiter without a deadline.
        let late = queue.sender(9);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            late.send("c")
        });
        assert_eq!(queue.wait_until(None), Some((9, Some("c"))));
        assert!(matches!(sender.join(), Ok(true)));
    }
}
