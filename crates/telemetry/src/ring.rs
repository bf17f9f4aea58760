//! An always-on bounded recorder: a fixed-capacity ring of the most
//! recent events, with optional 1-in-N span sampling.
//!
//! The unbounded [`crate::TraceBuffer`] is the right tool for offline
//! experiments, but leaving it attached to a production run grows
//! memory without bound. [`RingRecorder`] keeps the last `capacity`
//! events and overwrites the oldest ones, so a long-lived engine can
//! keep telemetry on permanently and still hand a postmortem tool the
//! tail of the run (a "flight recorder"). When even full span volume
//! is too much, [`RingRecorder::with_sampling`] keeps 1 in N spans;
//! instants and counters are always kept because they are the cheap,
//! load-bearing records for diagnostics (commit markers, queue depth).

use crate::event::Event;
use crate::recorder::{Recorder, RecorderHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct RingState {
    /// Stored events; once full, `next` is the oldest slot.
    slots: Vec<Event>,
    /// Slot the next event lands in.
    next: usize,
    /// Events evicted because the ring was full.
    overwritten: u64,
}

/// A bounded, always-on event recorder. See the module docs.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    /// Keep one span in `sample_every` (1 = keep all).
    sample_every: u64,
    spans_seen: AtomicU64,
    state: Mutex<RingState>,
}

impl RingRecorder {
    /// A ring keeping the last `capacity` events (capacity is clamped
    /// to at least 1).
    pub fn new(capacity: usize) -> Self {
        Self::with_sampling(capacity, 1)
    }

    /// A ring that additionally keeps only 1 in `sample_every` spans
    /// (instants and counters are never sampled out). `sample_every`
    /// of 0 or 1 keeps every span.
    pub fn with_sampling(capacity: usize, sample_every: u64) -> Self {
        RingRecorder {
            capacity: capacity.max(1),
            sample_every: sample_every.max(1),
            spans_seen: AtomicU64::new(0),
            state: Mutex::new(RingState::default()),
        }
    }

    /// A ring plus a handle feeding it — mirrors
    /// [`crate::TraceBuffer::collector`].
    pub fn collector(capacity: usize) -> (Arc<RingRecorder>, RecorderHandle) {
        let ring = Arc::new(RingRecorder::new(capacity));
        let handle = RecorderHandle::new(Arc::clone(&ring) as Arc<dyn Recorder>);
        (ring, handle)
    }

    /// A sampling ring plus a handle feeding it.
    pub fn sampling_collector(
        capacity: usize,
        sample_every: u64,
    ) -> (Arc<RingRecorder>, RecorderHandle) {
        let ring = Arc::new(RingRecorder::with_sampling(capacity, sample_every));
        let handle = RecorderHandle::new(Arc::clone(&ring) as Arc<dyn Recorder>);
        (ring, handle)
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events (≤ capacity, always).
    pub fn len(&self) -> usize {
        self.state.lock().expect("ring lock").slots.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted to make room (0 until the ring wraps).
    pub fn overwritten(&self) -> u64 {
        self.state.lock().expect("ring lock").overwritten
    }

    /// Spans skipped by 1-in-N sampling.
    pub fn sampled_out(&self) -> u64 {
        let seen = self.spans_seen.load(Ordering::Relaxed);
        seen - seen.div_ceil(self.sample_every)
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let state = self.state.lock().expect("ring lock");
        if state.slots.len() < self.capacity {
            state.slots.clone()
        } else {
            let mut out = Vec::with_capacity(state.slots.len());
            out.extend_from_slice(&state.slots[state.next..]);
            out.extend_from_slice(&state.slots[..state.next]);
            out
        }
    }
}

impl Recorder for RingRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        if let Event::Span { .. } = event {
            // fetch_add gives each span a distinct index even under
            // concurrent recording; keep indices 0, N, 2N, ...
            let n = self.spans_seen.fetch_add(1, Ordering::Relaxed);
            if !n.is_multiple_of(self.sample_every) {
                return;
            }
        }
        let mut state = self.state.lock().expect("ring lock");
        if state.slots.len() < self.capacity {
            state.slots.push(event);
            state.next = state.slots.len() % self.capacity;
        } else {
            let next = state.next;
            state.slots[next] = event;
            state.next = (next + 1) % self.capacity;
            state.overwritten += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CounterKey, TaskPhase, Track};

    fn counter(at_us: u64) -> Event {
        Event::Counter {
            key: CounterKey::QueueDepth,
            at_us,
            value: at_us as f64,
        }
    }

    fn span(at_us: u64) -> Event {
        Event::Span {
            track: Track::Worker(0),
            name: format!("t{at_us}").into(),
            phase: TaskPhase::Executing,
            start_us: at_us,
            dur_us: 1,
            ctx: None,
        }
    }

    #[test]
    fn keeps_the_most_recent_events_in_order() {
        let (ring, handle) = RingRecorder::collector(4);
        assert!(handle.enabled());
        for i in 0..10 {
            handle.record(counter(i));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.overwritten(), 6);
        let kept: Vec<u64> = ring.events().iter().map(Event::at_us).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest first, newest kept");
    }

    #[test]
    fn memory_is_bounded_by_capacity() {
        let (ring, handle) = RingRecorder::collector(8);
        for i in 0..10_000 {
            handle.record(span(i));
        }
        assert_eq!(ring.len(), 8);
        assert!(ring.events().len() <= ring.capacity());
    }

    #[test]
    fn partial_fill_returns_arrival_order() {
        let (ring, handle) = RingRecorder::collector(100);
        for i in 0..5 {
            handle.record(counter(i));
        }
        assert_eq!(ring.overwritten(), 0);
        let kept: Vec<u64> = ring.events().iter().map(Event::at_us).collect();
        assert_eq!(kept, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sampling_keeps_one_span_in_n_but_every_marker() {
        let (ring, handle) = RingRecorder::sampling_collector(1024, 4);
        for i in 0..100 {
            handle.record(span(i));
        }
        for i in 0..10 {
            handle.record(counter(i));
        }
        let events = ring.events();
        let spans = events
            .iter()
            .filter(|e| matches!(e, Event::Span { .. }))
            .count();
        let counters = events
            .iter()
            .filter(|e| matches!(e, Event::Counter { .. }))
            .count();
        assert_eq!(spans, 25, "1 in 4 spans kept");
        assert_eq!(counters, 10, "counters are never sampled out");
        assert_eq!(ring.sampled_out(), 75);
    }
}
