//! Recorders: where engines hand events.
//!
//! The default [`NoopRecorder`] reports `enabled() == false`, letting
//! instrumentation sites skip even the string formatting needed to
//! build an event — the cost of leaving telemetry off is one virtual
//! call returning a constant.

use crate::event::{CounterKey, Event, Micros};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A sink for telemetry events.
pub trait Recorder: Send + Sync {
    /// Whether this recorder wants events at all. Instrumentation sites
    /// check this before building event payloads.
    fn enabled(&self) -> bool {
        false
    }

    /// Accepts one event. No-op by default.
    fn record(&self, _event: Event) {}
}

/// A recorder that drops everything (the default).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A shareable, cloneable handle to a recorder, embedded in engine
/// configuration structs. Defaults to the no-op recorder.
#[derive(Clone)]
pub struct RecorderHandle {
    inner: Arc<dyn Recorder>,
}

impl RecorderHandle {
    /// Wraps a recorder.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        RecorderHandle { inner: recorder }
    }

    /// The no-op handle.
    pub fn noop() -> Self {
        RecorderHandle {
            inner: Arc::new(NoopRecorder),
        }
    }

    /// Whether events should be built and recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    /// Forwards one event to the recorder.
    #[inline]
    pub fn record(&self, event: Event) {
        self.inner.record(event);
    }

    /// Records one counter sample, skipping the event build when the
    /// recorder is disabled.
    #[inline]
    pub fn counter(&self, key: CounterKey, at_us: Micros, value: f64) {
        if self.enabled() {
            self.record(Event::Counter { key, at_us, value });
        }
    }

    /// Emits the end-of-run counter set every engine is expected to
    /// publish, so [`crate::MetricsSnapshot`] fields are populated (or
    /// explicitly zero) regardless of which engine produced the trace.
    ///
    /// Engines with no data movement (e.g. a shared-memory local
    /// runtime) pass zeros rather than staying silent: a reader can
    /// then distinguish "no transfers happened" from "this trace
    /// predates transfer accounting".
    pub fn run_end_counters(
        &self,
        at_us: Micros,
        transfer_bytes: u64,
        transfer_stall_us: Micros,
        lineage_replays: u64,
    ) {
        if !self.enabled() {
            return;
        }
        self.counter(CounterKey::TransferBytes, at_us, transfer_bytes as f64);
        self.counter(
            CounterKey::TransferStallMicros,
            at_us,
            transfer_stall_us as f64,
        );
        self.counter(CounterKey::LineageReplays, at_us, lineage_replays as f64);
    }

    /// Emits the aggregate stream-channel counter set. Engines that ran
    /// at least one stream call this at end of run; engines without
    /// streams stay silent (absent keys mean "no streams", unlike the
    /// always-published transfer counters).
    pub fn run_end_stream_counters(
        &self,
        at_us: Micros,
        occupancy_high_water: u64,
        blocked_send_us: Micros,
        blocked_recv_us: Micros,
        elements: u64,
        bytes: u64,
    ) {
        if !self.enabled() {
            return;
        }
        self.counter(
            CounterKey::StreamOccupancyHighWater,
            at_us,
            occupancy_high_water as f64,
        );
        self.counter(
            CounterKey::StreamBlockedSendMicros,
            at_us,
            blocked_send_us as f64,
        );
        self.counter(
            CounterKey::StreamBlockedRecvMicros,
            at_us,
            blocked_recv_us as f64,
        );
        self.counter(CounterKey::StreamElements, at_us, elements as f64);
        self.counter(CounterKey::StreamBytes, at_us, bytes as f64);
    }
}

impl Default for RecorderHandle {
    fn default() -> Self {
        RecorderHandle::noop()
    }
}

impl fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecorderHandle")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// A recorder that buffers every event in memory, in arrival order,
/// for export after the run.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    events: Mutex<Vec<Event>>,
}

impl TraceBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer plus a handle feeding it — the usual way to
    /// capture a run: plug the handle into the engine config, read the
    /// buffer afterwards.
    pub fn collector() -> (Arc<TraceBuffer>, RecorderHandle) {
        let buffer = Arc::new(TraceBuffer::new());
        let handle = RecorderHandle::new(Arc::clone(&buffer) as Arc<dyn Recorder>);
        (buffer, handle)
    }

    /// A copy of the buffered events.
    pub fn events(&self) -> Vec<Event> {
        self.lock_events().clone()
    }

    /// Drains the buffer, handing the events over at their length: the
    /// capacity the recording grew into is given back (in place), not
    /// carried through the exports that read the events next.
    pub fn take(&self) -> Vec<Event> {
        let mut events = std::mem::take(&mut *self.lock_events());
        events.shrink_to_fit();
        events
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.lock_events().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffer. Nothing that holds it can panic midway (a push, a
    /// clone, a take), so a poisoned lock still guards whole events.
    fn lock_events(&self) -> MutexGuard<'_, Vec<Event>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Recorder for TraceBuffer {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        self.lock_events().push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CounterKey, Event};

    #[test]
    fn noop_is_disabled_and_silent() {
        let handle = RecorderHandle::default();
        assert!(!handle.enabled());
        handle.record(Event::Counter {
            key: CounterKey::QueueDepth,
            at_us: 0,
            value: 1.0,
        });
    }

    #[test]
    fn buffer_collects_in_order() {
        let (buffer, handle) = TraceBuffer::collector();
        assert!(handle.enabled());
        for i in 0..3 {
            handle.record(Event::Counter {
                key: CounterKey::QueueDepth,
                at_us: i,
                value: i as f64,
            });
        }
        let events = buffer.events();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].at_us() <= w[1].at_us()));
        let taken = buffer.take();
        assert_eq!(taken.len(), 3);
        assert_eq!(taken.capacity(), 3, "handed over at its length");
        assert!(buffer.is_empty());
    }
}
