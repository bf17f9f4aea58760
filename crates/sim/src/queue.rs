//! Deterministic event queue over virtual time with stable FIFO
//! tie-breaking for simultaneous events.
//!
//! One binary min-heap ordered by `(time, sequence-number)`. The
//! engine's queue never holds more events than the platform has busy
//! slots (a few hundred at 10⁶ tasks), where `O(log n)` is a handful of
//! comparisons on one contiguous allocation that is reused for the whole
//! run. DESIGN §12 has the measurements behind choosing it over a
//! calendar queue.

use crate::time::VirtualTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct HeapItem<E> {
    time: VirtualTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapItem<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapItem<E> {}

impl<E> PartialOrd for HeapItem<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapItem<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; seq breaks ties FIFO.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A simulation event queue.
///
/// Events are popped in non-decreasing time order; events scheduled for
/// the same instant are popped in insertion order, making simulations
/// fully deterministic.
///
/// # Example
///
/// ```
/// use continuum_sim::{EventQueue, VirtualTime};
///
/// let mut q = EventQueue::new();
/// q.push(VirtualTime::from_seconds(2.0), "late");
/// q.push(VirtualTime::from_seconds(1.0), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapItem<E>>,
    seq: u64,
    now: VirtualTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: VirtualTime::ZERO,
        }
    }

    /// Schedules an event. Events scheduled in the past are clamped to
    /// the current time (they fire "immediately").
    pub fn push(&mut self, time: VirtualTime, event: E) {
        let time = time.max(self.now);
        self.heap.push(HeapItem {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedules an event `delay` seconds after the current time.
    pub fn push_after(&mut self, delay: f64, event: E) {
        self.push(self.now.after(delay), event);
    }

    /// Pops the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(VirtualTime, E)> {
        let item = self.heap.pop()?;
        self.now = item.time;
        Some((item.time, item.event))
    }

    /// The time of the next event without popping it.
    pub fn peek_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|i| i.time)
    }

    /// The current simulation clock (time of the last popped event).
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(VirtualTime::from_seconds(3.0), 3);
        q.push(VirtualTime::from_seconds(1.0), 1);
        q.push(VirtualTime::from_seconds(2.0), 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = VirtualTime::from_seconds(1.0);
        for i in 0..10 {
            q.push(t, i);
        }
        assert_eq!(drain(&mut q), (0..10).collect::<Vec<_>>());
    }

    /// The tie-break audit: the exact collision the engine produces — a
    /// fault injection, a task completion and a stream delivery landing
    /// on the same instant — drains in insertion order, interleaved
    /// with earlier/later events.
    #[test]
    fn colliding_fault_completion_stream_pop_in_insertion_order() {
        #[derive(Debug, PartialEq, Clone, Copy)]
        enum Ev {
            Fault,
            TaskDone,
            StreamSend,
            Earlier,
            Later,
        }
        let t = VirtualTime::from_seconds(42.0);
        let mut q = EventQueue::new();
        q.push(VirtualTime::from_seconds(100.0), Ev::Later);
        q.push(t, Ev::Fault);
        q.push(t, Ev::TaskDone);
        q.push(VirtualTime::from_seconds(1.0), Ev::Earlier);
        q.push(t, Ev::StreamSend);
        assert_eq!(
            drain(&mut q),
            vec![
                Ev::Earlier,
                Ev::Fault,
                Ev::TaskDone,
                Ev::StreamSend,
                Ev::Later
            ],
        );
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(VirtualTime::from_seconds(5.0), 0);
        assert_eq!(q.now(), VirtualTime::ZERO);
        q.pop();
        assert_eq!(q.now().as_seconds(), 5.0);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.push(VirtualTime::from_seconds(5.0), 0);
        q.pop();
        q.push(VirtualTime::from_seconds(1.0), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.as_seconds(), 5.0, "cannot travel back in time");
    }

    #[test]
    fn push_after_uses_current_clock() {
        let mut q = EventQueue::new();
        q.push(VirtualTime::from_seconds(10.0), 0);
        q.pop();
        q.push_after(2.5, 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.as_seconds(), 12.5);
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(VirtualTime::from_seconds(1.0), 0);
        q.push(VirtualTime::from_seconds(0.5), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time().unwrap().as_seconds(), 0.5);
    }

    #[test]
    fn far_future_outliers_interleave_correctly() {
        // Fault-plan-style outliers orders of magnitude past the bulk:
        // they must surface exactly when the clock reaches them.
        let mut q = EventQueue::new();
        q.push(VirtualTime::from_seconds(1e9), -1);
        q.push(VirtualTime::from_seconds(2e9), -2);
        for i in 0..1000 {
            q.push(VirtualTime::from_seconds(i as f64 * 0.25), i);
        }
        let mut expect: Vec<i32> = (0..1000).collect();
        expect.push(-1);
        expect.push(-2);
        assert_eq!(drain(&mut q), expect);
    }

    /// One scripted operation.
    #[derive(Debug, Clone)]
    enum Op {
        PushAbs(f64),
        PushAfter(f64),
        Pop,
    }

    /// Pops the queue and the model — the pending pushes as
    /// `(clamped time, tag)`, tags rising in push order, so the next
    /// event is the minimum of that list — and compares them.
    fn pop_both(q: &mut EventQueue<u32>, pending: &mut Vec<(VirtualTime, u32)>) -> bool {
        let expect = pending.iter().copied().min();
        pending.retain(|p| Some(*p) != expect);
        assert_eq!(q.pop(), expect);
        assert_eq!(q.len(), pending.len());
        if let Some((t, _)) = expect {
            assert_eq!(q.now(), t);
        }
        expect.is_some()
    }

    /// Runs `ops` on the queue and on the model beside it, then drains
    /// both.
    fn check_against_model(ops: &[Op]) {
        let mut q = EventQueue::new();
        let mut pending = Vec::new();
        let mut tag = 0u32;
        for op in ops {
            let time = match op {
                Op::PushAbs(t) => VirtualTime::from_seconds(*t),
                Op::PushAfter(d) => q.now().after(*d),
                Op::Pop => {
                    pop_both(&mut q, &mut pending);
                    continue;
                }
            };
            q.push(time, tag);
            pending.push((time.max(q.now()), tag));
            tag += 1;
            assert_eq!(q.peek_time(), pending.iter().map(|p| p.0).min());
        }
        while pop_both(&mut q, &mut pending) {}
    }

    /// Mimics the engine: pop one, push a few completions relative to
    /// the new clock, repeat — as a script for the model check.
    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut ops: Vec<Op> = (0..64).map(|i| Op::PushAbs(i as f64)).collect();
        for e in 0..2000u32 {
            ops.push(Op::Pop);
            ops.push(Op::PushAfter((e % 7) as f64 * 1.5));
            if e % 5 == 0 {
                ops.push(Op::PushAfter((e % 3) as f64 * 400.0));
            }
        }
        check_against_model(&ops);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of absolute pushes (near, far-future
        /// outliers, a handful of heavily colliding instants), relative
        /// `push_after` pushes (zero delay included) and pops drain in
        /// the model's order: by clamped time, FIFO within an instant.
        #[test]
        fn drains_like_the_stably_sorted_push_history(
            ops in proptest::collection::vec(
                prop_oneof![
                    (0.0f64..100.0).prop_map(Op::PushAbs),
                    (1e6f64..1e12).prop_map(Op::PushAbs),
                    (0u8..5).prop_map(|t| Op::PushAbs(t as f64)),
                    (0.0f64..50.0).prop_map(Op::PushAfter),
                    Just(Op::PushAfter(0.0)),
                    Just(Op::Pop),
                    Just(Op::Pop),
                ],
                1..200,
            ),
        ) {
            check_against_model(&ops);
        }
    }
}
