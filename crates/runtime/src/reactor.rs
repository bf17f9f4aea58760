//! The reactor: a hashed timer wheel driving `sleep`/deadline futures
//! for the M:N executor, and [`TaskContext::timeout`], the deadline an
//! async body puts on any future it awaits.
//!
//! One reactor thread serves every timer in the runtime. Deadlines are
//! bucketed into wheel slots by tick index (`slot = tick & (SLOTS-1)`),
//! so registering a timer is O(1) and a sweep touches only the slots
//! whose ticks elapsed — with a million sleeps sharing one deadline the
//! sweep is a single bucket drain, not a million heap pops. Resolution
//! is the configured tick (default 1 ms,
//! [`crate::LocalConfig::reactor_tick`]): a sleep fires on the first
//! tick boundary at or after its deadline.
//!
//! The wheel mutex is a leaf in the executor's lock order
//! ([`crate::lockorder::RANK_REACTOR`]). Due wakers are collected under
//! the lock but *invoked after it is released* — a task waker acquires
//! the executor's sleep lock (an equal-rank leaf), so firing it with
//! the wheel lock held would be a lock-order inversion.
//!
//! A dropped-but-registered sleep leaves a stale waker in its slot
//! until the deadline tick passes; the wake it then fires is coalesced
//! into a no-op by the task cell. The cost of a parked timer is one
//! waker clone in a wheel bucket.

#![deny(clippy::await_holding_lock)]

use crate::lockorder::{self, RANK_REACTOR};
use crate::{RuntimeError, TaskContext};
use parking_lot::{Condvar, Mutex};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::thread;
use std::time::{Duration, Instant};

/// Wheel slot count (power of two). Collisions (deadlines `SLOTS`
/// ticks apart sharing a slot) are resolved by storing the absolute
/// deadline tick with each entry.
const SLOTS: u64 = 256;

/// One registered timer: the absolute deadline tick and the waker to
/// fire when it passes.
type TimerEntry = (u64, Waker);

struct Wheel {
    slots: Vec<Vec<TimerEntry>>,
    /// Every tick ≤ `fired_tick` has been swept.
    fired_tick: u64,
    /// Registered-but-unfired timers across all slots.
    pending: usize,
}

/// Shared state of the reactor: the wheel plus the tick thread's
/// wakeup protocol.
pub(crate) struct ReactorInner {
    wheel: Mutex<Wheel>,
    cv: Condvar,
    shutdown: AtomicBool,
    tick: Duration,
    origin: Instant,
    /// Timers ever registered (diagnostics).
    registered: AtomicU64,
}

impl ReactorInner {
    /// Absolute tick index of `deadline`: the first tick boundary at or
    /// after it. A timer in slot `t` is due once the reactor has
    /// observed elapsed time ≥ `t * tick` — i.e. real time passed the
    /// deadline.
    fn deadline_tick(&self, deadline: Instant) -> u64 {
        let rel = deadline.saturating_duration_since(self.origin);
        rel.as_micros().div_ceil(self.tick.as_micros().max(1)) as u64
    }

    /// Registers `waker` to fire at `deadline`. Returns `false` when
    /// the deadline tick already passed — the caller wakes itself
    /// instead of waiting for a sweep that will never revisit the slot.
    fn register(&self, deadline: Instant, waker: Waker) -> bool {
        let tick = self.deadline_tick(deadline);
        let _order = lockorder::acquire(RANK_REACTOR, "reactor-wheel");
        let mut wheel = self.wheel.lock();
        if tick <= wheel.fired_tick || self.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        let was_idle = wheel.pending == 0;
        wheel.slots[(tick & (SLOTS - 1)) as usize].push((tick, waker));
        wheel.pending += 1;
        self.registered.fetch_add(1, Ordering::Relaxed);
        if was_idle {
            // The tick thread parks indefinitely while no timer is
            // pending; hand it the first one.
            self.cv.notify_one();
        }
        true
    }

    /// Sweeps every slot whose tick has elapsed, collecting due wakers
    /// into `due`. Called by the tick thread with the wheel locked.
    fn sweep_into(&self, wheel: &mut Wheel, due: &mut Vec<Waker>) {
        let now_tick =
            self.origin.elapsed().as_micros() as u64 / self.tick.as_micros().max(1) as u64;
        if now_tick <= wheel.fired_tick {
            return;
        }
        let already_due = due.len();
        // If more than a full wheel revolution elapsed, every slot is a
        // candidate exactly once.
        let first = if now_tick - wheel.fired_tick >= SLOTS {
            now_tick - SLOTS + 1
        } else {
            wheel.fired_tick + 1
        };
        for t in first..=now_tick {
            let slot = &mut wheel.slots[(t & (SLOTS - 1)) as usize];
            let mut i = 0;
            while i < slot.len() {
                if slot[i].0 <= now_tick {
                    due.push(slot.swap_remove(i).1);
                } else {
                    i += 1;
                }
            }
        }
        wheel.pending -= due.len() - already_due;
        wheel.fired_tick = now_tick;
    }

    /// Clears every registered waker (dropping them breaks any
    /// reference cycle through parked task futures) and stops the tick
    /// thread.
    fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _order = lockorder::acquire(RANK_REACTOR, "reactor-wheel");
        let mut wheel = self.wheel.lock();
        for slot in &mut wheel.slots {
            slot.clear();
        }
        wheel.pending = 0;
        self.cv.notify_one();
    }

    /// Registered-but-unfired timer count (tests and diagnostics).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn pending_timers(&self) -> usize {
        let _order = lockorder::acquire(RANK_REACTOR, "reactor-wheel");
        self.wheel.lock().pending
    }
}

/// The tick thread: sweep due slots, fire their wakers with the wheel
/// unlocked, then sleep one tick (or indefinitely while no timer is
/// pending).
fn reactor_loop(inner: &Arc<ReactorInner>) {
    let mut due: Vec<Waker> = Vec::new();
    loop {
        {
            let _order = lockorder::acquire(RANK_REACTOR, "reactor-wheel");
            let mut wheel = inner.wheel.lock();
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
            inner.sweep_into(&mut wheel, &mut due);
            if due.is_empty() {
                if wheel.pending == 0 {
                    inner.cv.wait(&mut wheel);
                } else {
                    inner.cv.wait_for(&mut wheel, inner.tick);
                }
            }
        }
        // Lock released: task wakers may take the executor's sleep
        // lock, an equal-rank leaf.
        for waker in due.drain(..) {
            waker.wake();
        }
    }
}

/// Handle owning the reactor: the shared wheel plus the tick thread.
/// Dropping it (via [`Reactor::stop`]) clears the wheel and joins the
/// thread.
pub(crate) struct Reactor {
    inner: Arc<ReactorInner>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Reactor {
    /// Starts a reactor whose timers resolve to `tick` boundaries,
    /// measuring deadlines against `origin` (the runtime's start).
    pub(crate) fn start(origin: Instant, tick: Duration) -> Reactor {
        let inner = Arc::new(ReactorInner {
            wheel: Mutex::new(Wheel {
                slots: (0..SLOTS).map(|_| Vec::new()).collect(),
                fired_tick: 0,
                pending: 0,
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tick: tick.max(Duration::from_micros(50)),
            origin,
            registered: AtomicU64::new(0),
        });
        let thread = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("continuum-reactor".into())
                .spawn(move || reactor_loop(&inner))
                .expect("spawn reactor thread")
        };
        Reactor {
            inner,
            thread: Some(thread),
        }
    }

    /// The shared wheel, for handing to sleep futures.
    pub(crate) fn inner(&self) -> &Arc<ReactorInner> {
        &self.inner
    }

    /// Clears the wheel and joins the tick thread. Idempotent.
    pub(crate) fn stop(&mut self) {
        self.inner.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A future resolving once a deadline passes, obtained from
/// [`crate::TaskContext::sleep`] / [`crate::TaskContext::sleep_until`]
/// inside an async task body.
///
/// Awaiting it parks the task (one waker clone in a wheel bucket) and
/// frees its worker thread; resolution granularity is the runtime's
/// reactor tick.
pub struct Sleep {
    deadline: Instant,
    inner: Arc<ReactorInner>,
}

impl Sleep {
    pub(crate) fn new(inner: Arc<ReactorInner>, deadline: Instant) -> Sleep {
        Sleep { deadline, inner }
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if Instant::now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.inner.register(self.deadline, cx.waker().clone()) {
            // The deadline tick already elapsed (or the reactor is
            // shutting down): re-poll promptly instead of waiting for
            // a sweep that will not come.
            cx.waker().wake_by_ref();
        }
        Poll::Pending
    }
}

impl TaskContext {
    /// Awaits `fut` for at most `dur`: `Ok` with its output if it
    /// finishes first, [`RuntimeError::DeadlineExceeded`] if the
    /// deadline passes first. The deadline is a [`Sleep`] on the
    /// runtime's timer wheel, so the wait parks the task, not its
    /// worker, and fires at tick granularity. On timeout `fut` is
    /// dropped: a reply cell it awaited discards a late reply.
    ///
    /// # Panics
    ///
    /// Panics in a closure task body (see [`TaskContext::sleep`]).
    pub fn timeout<F: Future>(
        &self,
        dur: Duration,
        fut: F,
    ) -> impl Future<Output = Result<F::Output, RuntimeError>> {
        let mut deadline = self.sleep(dur);
        async move {
            let mut fut = std::pin::pin!(fut);
            std::future::poll_fn(|cx| {
                if let Poll::Ready(out) = fut.as_mut().poll(cx) {
                    return Poll::Ready(Ok(out));
                }
                match Pin::new(&mut deadline).poll(cx) {
                    Poll::Ready(()) => {
                        Poll::Ready(Err(RuntimeError::DeadlineExceeded { after: dur }))
                    }
                    Poll::Pending => Poll::Pending,
                }
            })
            .await
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::task::Wake;

    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn due_timer_fires_and_drains() {
        let reactor = Reactor::start(Instant::now(), Duration::from_micros(200));
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        let registered = reactor
            .inner()
            .register(Instant::now() + Duration::from_millis(5), waker);
        assert!(registered);
        assert_eq!(reactor.inner().pending_timers(), 1);
        let t0 = Instant::now();
        while counter.0.load(Ordering::SeqCst) == 0 {
            assert!(t0.elapsed() < Duration::from_secs(5), "timer never fired");
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(reactor.inner().pending_timers(), 0);
    }

    #[test]
    fn colliding_slots_fire_only_due_entries() {
        // Two deadlines a full wheel revolution apart share a slot; a
        // sweep must fire only the near one.
        let reactor = Reactor::start(Instant::now(), Duration::from_micros(500));
        let near = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let far = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let now = Instant::now();
        let tick = Duration::from_micros(500);
        assert!(reactor
            .inner()
            .register(now + tick * 4, Waker::from(Arc::clone(&near))));
        assert!(reactor.inner().register(
            now + tick * (4 + SLOTS as u32),
            Waker::from(Arc::clone(&far))
        ));
        let t0 = Instant::now();
        while near.0.load(Ordering::SeqCst) == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "near timer never fired"
            );
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            far.0.load(Ordering::SeqCst),
            0,
            "far timer must not fire early"
        );
        assert_eq!(reactor.inner().pending_timers(), 1);
    }

    struct RecordingWaker {
        label: &'static str,
        log: Arc<Mutex<Vec<&'static str>>>,
    }

    impl Wake for RecordingWaker {
        fn wake(self: Arc<Self>) {
            self.log.lock().push(self.label);
        }
    }

    fn await_log_len(log: &Arc<Mutex<Vec<&'static str>>>, n: usize) {
        let t0 = Instant::now();
        while log.lock().len() < n {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "expected {n} fires, got {:?}",
                log.lock().clone()
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn deadline_exactly_on_tick_boundary_fires_once() {
        // A deadline landing exactly on a tick boundary must round to
        // that tick (not the next) and fire exactly once — the
        // div_ceil edge where remainder is zero.
        let origin = Instant::now();
        let tick = Duration::from_millis(1);
        let reactor = Reactor::start(origin, tick);
        assert_eq!(reactor.inner().deadline_tick(origin + tick * 50), 50);
        let log = Arc::new(Mutex::new(Vec::new()));
        assert!(reactor.inner().register(
            origin + tick * 50,
            Waker::from(Arc::new(RecordingWaker {
                label: "boundary",
                log: Arc::clone(&log),
            }))
        ));
        await_log_len(&log, 1);
        // Let several more sweeps pass: the entry must not fire again.
        thread::sleep(tick * 20);
        assert_eq!(*log.lock(), vec!["boundary"]);
        assert_eq!(reactor.inner().pending_timers(), 0);
    }

    #[test]
    fn deadline_beyond_full_wheel_revolution_fires_once() {
        // A deadline more than SLOTS ticks out wraps around the wheel:
        // intermediate sweeps revisit its slot (entry not yet due) and
        // the deadline sweep fires it exactly once.
        let origin = Instant::now();
        let tick = Duration::from_micros(200);
        let reactor = Reactor::start(origin, tick);
        let log = Arc::new(Mutex::new(Vec::new()));
        let target = tick * (SLOTS as u32 + 10);
        assert!(reactor.inner().register(
            origin + target,
            Waker::from(Arc::new(RecordingWaker {
                label: "wrapped",
                log: Arc::clone(&log),
            }))
        ));
        // Mid-revolution the entry is still parked in its slot.
        thread::sleep(target / 2);
        assert_eq!(reactor.inner().pending_timers(), 1);
        assert!(log.lock().is_empty(), "fired a revolution early");
        await_log_len(&log, 1);
        thread::sleep(tick * 20);
        assert_eq!(*log.lock(), vec!["wrapped"]);
        assert_eq!(reactor.inner().pending_timers(), 0);
    }

    #[test]
    fn same_slot_different_tick_collision_fires_in_deadline_order() {
        // Two deadlines exactly SLOTS ticks apart share a wheel slot.
        // The absolute tick stored with each entry must fire the near
        // one first and the far one a revolution later — each once.
        let origin = Instant::now();
        let tick = Duration::from_micros(500);
        let reactor = Reactor::start(origin, tick);
        let log = Arc::new(Mutex::new(Vec::new()));
        // Register far first so firing order cannot be insertion order.
        assert!(reactor.inner().register(
            origin + tick * (6 + SLOTS as u32),
            Waker::from(Arc::new(RecordingWaker {
                label: "far",
                log: Arc::clone(&log),
            }))
        ));
        assert!(reactor.inner().register(
            origin + tick * 6,
            Waker::from(Arc::new(RecordingWaker {
                label: "near",
                log: Arc::clone(&log),
            }))
        ));
        await_log_len(&log, 2);
        thread::sleep(tick * 20);
        assert_eq!(*log.lock(), vec!["near", "far"]);
        assert_eq!(reactor.inner().pending_timers(), 0);
    }

    #[test]
    fn past_deadline_registration_is_refused() {
        let reactor = Reactor::start(
            Instant::now() - Duration::from_secs(1),
            Duration::from_millis(1),
        );
        // Give the tick thread a moment to sweep past the origin.
        thread::sleep(Duration::from_millis(20));
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        let registered = reactor.inner().register(
            Instant::now() - Duration::from_millis(500),
            Waker::from(counter),
        );
        assert!(!registered, "an elapsed tick must be refused, not dropped");
    }

    #[test]
    fn stop_clears_pending_wakers() {
        let mut reactor = Reactor::start(Instant::now(), Duration::from_millis(1));
        let counter = Arc::new(CountingWaker(AtomicUsize::new(0)));
        assert!(reactor.inner().register(
            Instant::now() + Duration::from_secs(60),
            Waker::from(counter)
        ));
        reactor.stop();
        assert_eq!(reactor.inner().pending_timers(), 0);
    }

    #[test]
    fn timeout_passes_a_prompt_future_through_and_cuts_a_stuck_one() {
        use crate::{LocalConfig, LocalRuntime};
        use continuum_dag::TaskSpec;
        use continuum_platform::Constraints;
        let rt = LocalRuntime::new(LocalConfig::with_workers(1));
        let out = rt.data::<(bool, bool)>("out");
        rt.submit_async(
            TaskSpec::new("t").output(out.id()),
            Constraints::new(),
            |mut ctx| async move {
                let prompt = ctx.sleep(Duration::from_millis(1));
                let prompt = ctx.timeout(Duration::from_secs(30), prompt).await;
                let stuck = std::future::pending::<()>();
                let stuck = ctx.timeout(Duration::from_millis(5), stuck).await;
                let cut = matches!(stuck, Err(RuntimeError::DeadlineExceeded { after })
                    if after == Duration::from_millis(5));
                ctx.set_output(0, (prompt.is_ok(), cut));
                ctx
            },
        )
        .unwrap();
        assert_eq!(*rt.get(&out).unwrap(), (true, true));
    }
}
