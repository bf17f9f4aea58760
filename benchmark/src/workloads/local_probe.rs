//! Benchmark-side probes shared by the workloads.

use continuum::telemetry::{CounterKey, Event};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// Lets task bodies time themselves on the traced run; a no-op (one
/// branch) otherwise.
#[derive(Clone)]
pub struct BodyClock(Option<Arc<AtomicU64>>);

impl BodyClock {
    pub fn new(enabled: bool) -> Self {
        BodyClock(enabled.then(|| Arc::new(AtomicU64::new(0))))
    }

    #[inline]
    pub fn time<T>(&self, body: impl FnOnce() -> T) -> T {
        match &self.0 {
            None => body(),
            Some(total) => {
                let t = Instant::now();
                let out = body();
                // A statistic: publishes nothing else.
                total.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                out
            }
        }
    }

    /// Seconds spent inside timed bodies (0 when disabled).
    pub fn seconds(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |t| t.load(Ordering::Relaxed) as f64 * 1e-9)
    }
}

/// How the driver thread waits for a run to finish: on a signal from
/// the last task's body, not inside `wait_all`/`get`. A client parked
/// in those is woken by every completion and every park; whether the
/// OS then keeps client and worker on one CPU or two moved the wall
/// time of these workloads by 30 % for minutes at a stretch on the
/// reference host. `wait_all` and `get` are still called — after the
/// signal, when they return at once.
pub struct Finish(Receiver<()>);

/// The sending half, moved into the last task's body.
pub struct Finished(SyncSender<()>);

pub fn finish_signal() -> (Finished, Finish) {
    let (tx, rx) = sync_channel(1);
    (Finished(tx), Finish(rx))
}

impl Finished {
    pub fn signal(&self) {
        // The driver may already have given up (a failed run); nothing
        // to do about it here.
        let _ = self.0.send(());
    }
}

impl Finish {
    /// Blocks until the last task signalled, or its body was dropped
    /// unrun (a failed run: the caller's `wait_all` reports why).
    pub fn wait(self) {
        let _ = self.0.recv();
    }
}

/// Mean of nanosecond samples taken on several threads. A statistic:
/// publishes nothing else, hence Relaxed.
#[derive(Default)]
pub struct MeanNs {
    total: AtomicU64,
    samples: AtomicU64,
}

impl MeanNs {
    pub fn add(&self, ns: u64) {
        self.total.fetch_add(ns, Ordering::Relaxed);
        self.samples.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds the time elapsed since `start`.
    pub fn since(&self, start: Instant) {
        self.add(start.elapsed().as_nanos() as u64);
    }

    pub fn mean(&self) -> f64 {
        self.total.load(Ordering::Relaxed) as f64
            / self.samples.load(Ordering::Relaxed).max(1) as f64
    }
}

/// Highest sample of an engine counter in a recorded trace (0 when the
/// engine never published it).
pub fn counter_max(events: &[Event], key: CounterKey) -> f64 {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Counter { key: k, value, .. } if *k == key => Some(*value),
            _ => None,
        })
        .fold(0.0, f64::max)
}

/// OS threads of this process right now (`Threads:` in
/// `/proc/self/status`; 0 if unreadable).
pub fn os_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}
