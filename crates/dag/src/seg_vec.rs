//! A segmented vector whose old segments can be dropped.
//!
//! Per-task and per-datum columns are indexed by dense ids that are
//! issued forever but only *resident* for a while: a lazily
//! materialized campaign retires tasks behind its execution frontier.
//! A plain `Vec` column keeps every slot ever issued (and `memmove`s
//! the whole campaign each time it doubles). [`SegVec`] stores
//! [`SEGMENT_SLOTS`] slots per heap block instead: indices stay global
//! and stable, nothing already stored is ever moved by a later `push`,
//! and a block whose slots have all been [retired](SegVec::retire) is
//! dropped and handed to the next segment — so resident memory follows
//! the live window, not the number of ids issued.
//!
//! Columns that never retire (eager graphs) simply never drop. The
//! first block grows geometrically like a `Vec`, so small graphs do not
//! pay for a full segment.

use serde::{Deserialize, Serialize, Value};
use std::ops::{Index, IndexMut};

/// Slots per segment of a [`SegVec`].
pub const SEGMENT_SLOTS: usize = 1024;

/// A push-only vector stored in fixed-size segments (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct SegVec<T> {
    /// `None` once a segment was dropped.
    segments: Vec<Option<Vec<T>>>,
    /// Ids issued so far (dropped slots included).
    len: usize,
    /// Slots retired per segment.
    retired: Vec<u16>,
    /// The most recently dropped block, reused by the next segment.
    spare: Option<Vec<T>>,
    resident: usize,
}

impl<T> Default for SegVec<T> {
    fn default() -> Self {
        SegVec {
            segments: Vec::new(),
            len: 0,
            retired: Vec::new(),
            spare: None,
            resident: 0,
        }
    }
}

impl<T> SegVec<T> {
    /// Creates an empty vector (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots ever pushed, dropped ones included: the index
    /// the next `push` returns.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Segments currently holding memory.
    pub fn resident_segments(&self) -> usize {
        self.resident
    }

    /// Appends a slot and returns its index.
    pub fn push(&mut self, value: T) -> usize {
        let index = self.len;
        if index.is_multiple_of(SEGMENT_SLOTS) {
            // The first block grows like a `Vec`; later ones are sized
            // once, or reuse the block of a dropped segment.
            let block = match self.spare.take() {
                Some(block) => block,
                None if index == 0 => Vec::new(),
                None => Vec::with_capacity(SEGMENT_SLOTS),
            };
            self.segments.push(Some(block));
            self.retired.push(0);
            self.resident += 1;
        }
        self.segments[index / SEGMENT_SLOTS]
            .as_mut()
            .expect("the tail segment is never dropped")
            .push(value);
        self.len += 1;
        index
    }

    /// The slot at `index`; `None` if it was never pushed or its
    /// segment was dropped.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.segments
            .get(index / SEGMENT_SLOTS)?
            .as_ref()?
            .get(index % SEGMENT_SLOTS)
    }

    /// Mutable form of [`SegVec::get`].
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.segments
            .get_mut(index / SEGMENT_SLOTS)?
            .as_mut()?
            .get_mut(index % SEGMENT_SLOTS)
    }

    /// Iterates resident slots in index order, skipping dropped
    /// segments.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.segments.iter().flatten().flatten()
    }

    /// Iterates resident slots with index `>= start`, in index order.
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = &T> {
        let first = start / SEGMENT_SLOTS;
        self.segments
            .iter()
            .enumerate()
            .skip(first)
            .filter_map(|(s, block)| block.as_ref().map(|b| (s, b)))
            .flat_map(move |(s, block)| {
                let skip = if s == first { start % SEGMENT_SLOTS } else { 0 };
                block.iter().skip(skip)
            })
    }

    /// Counts the slot at `index` as retired. When that makes every
    /// slot of a full segment retired, the segment is dropped and its
    /// number returned, so parallel columns can
    /// [`drop_segment`](SegVec::drop_segment) the same one. The caller
    /// retires each slot at most once.
    pub fn retire(&mut self, index: usize) -> Option<usize> {
        let segment = index / SEGMENT_SLOTS;
        let count = self.retired.get_mut(segment)?;
        *count += 1;
        if *count as usize == SEGMENT_SLOTS {
            self.drop_segment(segment);
            return Some(segment);
        }
        None
    }

    /// Drops a full segment: its slots are destroyed and its block is
    /// kept for the next segment. A partially filled tail, an unknown
    /// or an already dropped segment is left alone.
    pub fn drop_segment(&mut self, segment: usize) {
        let Some(slot) = self.segments.get_mut(segment) else {
            return;
        };
        if slot.as_ref().is_none_or(|b| b.len() < SEGMENT_SLOTS) {
            return;
        }
        let mut block = slot.take().expect("checked above");
        block.clear();
        self.spare = Some(block);
        self.resident -= 1;
    }
}

impl<T> Index<usize> for SegVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        self.get(index)
            .unwrap_or_else(|| panic!("slot {index} is out of range or was retired"))
    }
}

impl<T> IndexMut<usize> for SegVec<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        self.get_mut(index)
            .unwrap_or_else(|| panic!("slot {index} is out of range or was retired"))
    }
}

impl<T> FromIterator<T> for SegVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut v = SegVec::new();
        for item in items {
            v.push(item);
        }
        v
    }
}

/// Serializes as the flat sequence of resident slots.
impl<T: Serialize> Serialize for SegVec<T> {
    fn to_json_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Deserialize> Deserialize for SegVec<T> {
    fn from_json_value(value: &Value) -> Option<Self> {
        value.as_arr()?.iter().map(T::from_json_value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> SegVec<usize> {
        (0..n).collect()
    }

    #[test]
    fn push_get_and_index_are_global() {
        let mut v = filled(2 * SEGMENT_SLOTS + 5);
        assert_eq!(v.len(), 2 * SEGMENT_SLOTS + 5);
        assert_eq!(v.resident_segments(), 3);
        assert_eq!(v[0], 0);
        assert_eq!(v[SEGMENT_SLOTS], SEGMENT_SLOTS);
        assert_eq!(v.get(2 * SEGMENT_SLOTS + 4), Some(&(2 * SEGMENT_SLOTS + 4)));
        assert_eq!(v.get(2 * SEGMENT_SLOTS + 5), None);
        v[3] = 99;
        assert_eq!(v[3], 99);
        assert_eq!(v.iter().count(), v.len());
    }

    #[test]
    fn small_vectors_do_not_reserve_a_whole_segment() {
        let mut v = SegVec::new();
        for i in 0..5u64 {
            v.push(i);
        }
        let block = v.segments[0].as_ref().unwrap();
        assert!(block.capacity() < 64, "capacity {}", block.capacity());
    }

    #[test]
    fn retiring_every_slot_drops_the_segment_and_recycles_its_block() {
        let mut v = filled(SEGMENT_SLOTS + 1);
        let block_ptr = v.segments[0].as_ref().unwrap().as_ptr();
        for i in 0..SEGMENT_SLOTS - 1 {
            assert_eq!(v.retire(i), None);
        }
        assert_eq!(v.retire(SEGMENT_SLOTS - 1), Some(0));
        assert_eq!(v.resident_segments(), 1);
        assert_eq!(v.get(7), None, "dropped slots read as absent");
        assert_eq!(v.len(), SEGMENT_SLOTS + 1, "ids are never reissued");
        assert_eq!(v[SEGMENT_SLOTS], SEGMENT_SLOTS);
        // The next segment reuses the dropped block instead of
        // allocating a fresh one.
        for i in SEGMENT_SLOTS + 1..=2 * SEGMENT_SLOTS {
            v.push(i);
        }
        assert_eq!(v.segments[2].as_ref().unwrap().as_ptr(), block_ptr);
        assert_eq!(v.resident_segments(), 2);
    }

    #[test]
    fn partial_tail_segments_are_never_dropped() {
        let mut v = filled(10);
        for i in 0..10 {
            assert_eq!(v.retire(i), None);
        }
        v.drop_segment(0);
        v.drop_segment(5);
        assert_eq!(v.resident_segments(), 1);
        assert_eq!(v[9], 9);
    }

    #[test]
    fn iteration_skips_gaps_and_iter_from_starts_mid_segment() {
        let mut v = filled(3 * SEGMENT_SLOTS);
        v.drop_segment(1);
        let seen: Vec<usize> = v.iter().copied().collect();
        assert_eq!(seen.len(), 2 * SEGMENT_SLOTS);
        assert_eq!(seen[SEGMENT_SLOTS - 1], SEGMENT_SLOTS - 1);
        assert_eq!(seen[SEGMENT_SLOTS], 2 * SEGMENT_SLOTS);
        assert_eq!(v.iter().next_back(), Some(&(3 * SEGMENT_SLOTS - 1)));
        let tail: Vec<usize> = v.iter_from(SEGMENT_SLOTS - 2).copied().collect();
        assert_eq!(
            tail[..3],
            [SEGMENT_SLOTS - 2, SEGMENT_SLOTS - 1, 2 * SEGMENT_SLOTS]
        );
        assert_eq!(v.iter_from(3 * SEGMENT_SLOTS).count(), 0);
        assert_eq!(
            v.iter_from(2 * SEGMENT_SLOTS + 3).next(),
            Some(&(2 * SEGMENT_SLOTS + 3))
        );
    }

    #[test]
    fn serde_round_trips_as_a_flat_sequence() {
        let v: SegVec<u32> = (0..SEGMENT_SLOTS as u32 + 3).collect();
        let text = serde::to_string(&v);
        assert!(text.starts_with("[0,1,2,"));
        let back: SegVec<u32> = serde::from_str(&text).unwrap();
        assert_eq!(back.len(), v.len());
        assert!(back.iter().eq(v.iter()));
        assert_eq!(serde::to_string(&SegVec::<u32>::new()), "[]");
    }
}
