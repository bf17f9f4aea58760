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
//! dropped and handed to a later segment.
//!
//! A long-lived slot beside short-lived ones — a reduction whose
//! result waits for the end of the campaign — must not keep its 1 023
//! retired neighbours resident: once a full segment is down to
//! [`EVACUATE_LIVE`] live slots, the survivors move to a small table
//! sorted by index and the block is recycled all the same. Lookups
//! consult the table only where the segment is gone, so resident
//! memory follows the live set, not the number of ids issued and not
//! the number of stragglers.
//!
//! Columns that never retire (eager graphs) never drop, never evacuate
//! and allocate no retirement marks. The first block grows
//! geometrically like a `Vec`, so small graphs do not pay for a full
//! segment.

use crate::inline_vec::InlineVec;
use serde::{Deserialize, Serialize, Value};
use std::ops::{Index, IndexMut, Range};

/// Slots per segment of a [`SegVec`].
pub const SEGMENT_SLOTS: usize = 1024;

/// Live slots at or below which a full segment is evacuated: its
/// survivors move to the side table and its block is recycled.
///
/// Chosen on two cuts of the benchmark's 99 k-task lazy GWAS campaign,
/// 22 chromosomes × 1 500 chunks and 220 × 150 (peak live heap of the
/// run, MB; 23.35 and 66.17 with no evacuation at all):
///
/// | threshold | 1 | 2 | 3 | 4 | 8 | 16 | 64 |
/// |---|---|---|---|---|---|---|---|
/// | 22 × 1 500 | 14.30 | 14.30 | 14.31 | 14.31 | 14.34 | 14.38 | 14.64 |
/// | 220 × 150 | 63.08 | 23.52 | 11.61 | 11.61 | 11.77 | 12.09 | 14.06 |
///
/// The second cut has a chromosome merge every 451 ids, up to three to
/// a segment, so a threshold below 3 leaves its segments pinned. Above
/// that, each further slot costs what the columns that
/// [follow](SegVec::follow) keep for it until the segment's last
/// survivor retires (they are not told when a survivor does). 8 frees
/// a segment with a straggler every 128 slots for 0.16 MB over the
/// least.
pub const EVACUATE_LIVE: usize = 8;

/// Blocks of dropped segments a [`SegVec`] keeps for later segments.
///
/// A lazily materialized campaign drops segments in bursts — a merge
/// completing retires the chunks it waited for — and opens new ones
/// one at a time, so a single spare misses most bursts. Measured on
/// the benchmark's 99 k-task lazy GWAS campaign, with its task columns
/// in lockstep (allocations per task; peak live heap, MB):
///
/// | spares | 1 | 2 | 3 | 4 | 8 |
/// |---|---|---|---|---|---|
/// | allocations | 0.0237 | 0.0223 | 0.0209 | 0.0197 | 0.0187 |
/// | peak | 13.99 | 13.99 | 13.99 | 13.99 | 15.06 |
///
/// Each spare is a block of memory held unused until a segment takes
/// it; two pay for the second task column that keeps payloads beside
/// the edges, and stay clear of the peak.
pub(crate) const SPARE_BLOCKS: usize = 2;

/// What [`SegVec::retire`] did to the slot's segment. Columns kept in
/// lockstep with the one that retires [`follow`](SegVec::follow) it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "parallel columns have to follow what a retirement dropped or evacuated"]
pub enum Retired {
    /// The segment keeps what it held.
    Nothing,
    /// The last live slot of this segment retired: nothing of it is
    /// left, neither block nor evacuated slots.
    Dropped(usize),
    /// The segment's block was dropped; the slots still live, listed
    /// in ascending index order, moved to the side table.
    Evacuated {
        /// The segment whose block is gone.
        segment: usize,
        /// Indices of the slots that survive it.
        survivors: InlineVec<usize, EVACUATE_LIVE>,
    },
}

/// A push-only vector stored in fixed-size segments (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct SegVec<T> {
    /// `None` once a segment was dropped or evacuated.
    segments: Vec<Option<Vec<T>>>,
    /// Ids issued so far (dropped slots included).
    len: usize,
    /// Slots retired per segment.
    retired: Vec<u16>,
    /// One bit per slot, set by `retire`; grown by `retire` only, and
    /// only as far as the highest index retired.
    retired_bits: Vec<u64>,
    /// Live slots of evacuated segments, sorted by index.
    evacuated: Vec<(usize, T)>,
    /// Blocks of dropped segments, reused by the next ones.
    spares: [Option<Vec<T>>; SPARE_BLOCKS],
    resident: usize,
}

impl<T> Default for SegVec<T> {
    fn default() -> Self {
        SegVec {
            segments: Vec::new(),
            len: 0,
            retired: Vec::new(),
            retired_bits: Vec::new(),
            evacuated: Vec::new(),
            spares: Default::default(),
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

    /// Segments currently holding a block. Evacuated segments do not
    /// count: what they still hold is
    /// [`evacuated_slots`](SegVec::evacuated_slots).
    pub fn resident_segments(&self) -> usize {
        self.resident
    }

    /// Live slots held in the side table on behalf of evacuated
    /// segments.
    pub fn evacuated_slots(&self) -> usize {
        self.evacuated.len()
    }

    /// Whether [`SegVec::retire`] was called for `index`.
    pub fn is_retired(&self, index: usize) -> bool {
        self.retired_bits
            .get(index / 64)
            .is_some_and(|word| word >> (index % 64) & 1 == 1)
    }

    /// Appends a slot and returns its index.
    pub fn push(&mut self, value: T) -> usize {
        let index = self.len;
        if index.is_multiple_of(SEGMENT_SLOTS) {
            // The first block grows like a `Vec`; later ones are sized
            // once, or reuse the block of a dropped segment.
            let block = match self.spares.iter_mut().find_map(Option::take) {
                Some(block) => block,
                None if index == 0 => Vec::new(),
                None => Vec::with_capacity(SEGMENT_SLOTS),
            };
            self.segments.push(Some(block));
            self.retired.push(0);
            self.resident += 1;
        }
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: only a full segment is dropped or evacuated, and the one a push lands in has room: it was created just above if the last one was full"
        )]
        self.segments[index / SEGMENT_SLOTS]
            .as_mut()
            .expect("the tail segment is never dropped")
            .push(value);
        self.len += 1;
        index
    }

    /// Position of `index` in the side table. Takes the table, not
    /// `self`, so `get_mut` can look while it holds `segments`.
    fn evacuated_at(evacuated: &[(usize, T)], index: usize) -> Option<usize> {
        evacuated.binary_search_by_key(&index, |(i, _)| *i).ok()
    }

    /// Positions in the side table of `segment`'s slots with index
    /// `>= from`.
    fn evacuated_range(&self, segment: usize, from: usize) -> Range<usize> {
        let base = segment * SEGMENT_SLOTS;
        let lo = self.evacuated.partition_point(|(i, _)| *i < from.max(base));
        let hi = self
            .evacuated
            .partition_point(|(i, _)| *i < base + SEGMENT_SLOTS);
        lo..hi.max(lo)
    }

    /// The slot at `index`; `None` if it was never pushed, or its
    /// segment was dropped, or evacuated without it.
    pub fn get(&self, index: usize) -> Option<&T> {
        match self.segments.get(index / SEGMENT_SLOTS)? {
            Some(block) => block.get(index % SEGMENT_SLOTS),
            None => Self::evacuated_at(&self.evacuated, index).map(|at| &self.evacuated[at].1),
        }
    }

    /// Mutable form of [`SegVec::get`].
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        match self.segments.get_mut(index / SEGMENT_SLOTS)? {
            Some(block) => block.get_mut(index % SEGMENT_SLOTS),
            None => {
                let at = Self::evacuated_at(&self.evacuated, index)?;
                Some(&mut self.evacuated[at].1)
            }
        }
    }

    /// What `segment` still holds at index `>= from`, in index order:
    /// its block, or its evacuated slots.
    fn segment_slots(&self, segment: usize, from: usize) -> impl DoubleEndedIterator<Item = &T> {
        let (block, side): (&[T], &[(usize, T)]) = match &self.segments[segment] {
            Some(block) => {
                let skip = from.saturating_sub(segment * SEGMENT_SLOTS);
                (&block[skip.min(block.len())..], &[])
            }
            None => (&[], &self.evacuated[self.evacuated_range(segment, from)]),
        };
        block.iter().chain(side.iter().map(|(_, value)| value))
    }

    /// Iterates the slots still held — resident or evacuated — in
    /// index order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        self.iter_from(0)
    }

    /// Iterates the slots still held with index `>= start`, in index
    /// order.
    pub fn iter_from(&self, start: usize) -> impl DoubleEndedIterator<Item = &T> {
        (start / SEGMENT_SLOTS..self.segments.len())
            .flat_map(move |segment| self.segment_slots(segment, start))
    }

    /// Marks the slot at `index` as retired; a second call for the
    /// same slot, or one for an index never pushed, changes nothing.
    /// A full segment whose last live slot this was is dropped; one
    /// left with at most [`EVACUATE_LIVE`] live slots is evacuated.
    /// Either way its block is kept for a later segment, and the
    /// result says which it was, so that parallel columns can
    /// [`follow`](SegVec::follow).
    ///
    /// A retired slot of a resident segment stays readable until the
    /// segment goes; a retired slot of an evacuated segment is gone at
    /// once.
    pub fn retire(&mut self, index: usize) -> Retired {
        if index >= self.len || self.is_retired(index) {
            return Retired::Nothing;
        }
        let word = index / 64;
        if self.retired_bits.len() <= word {
            self.retired_bits.resize(word + 1, 0);
        }
        self.retired_bits[word] |= 1 << (index % 64);
        let segment = index / SEGMENT_SLOTS;
        self.retired[segment] += 1;
        // Meaningful for a full segment, and only a full segment can
        // reach zero.
        let live = SEGMENT_SLOTS - self.retired[segment] as usize;
        let Some(block) = &self.segments[segment] else {
            // Evacuated earlier: the slot leaves the side table.
            if let Some(at) = Self::evacuated_at(&self.evacuated, index) {
                self.evacuated.remove(at);
            }
            return match live {
                0 => Retired::Dropped(segment),
                _ => Retired::Nothing,
            };
        };
        if block.len() < SEGMENT_SLOTS || live > EVACUATE_LIVE {
            return Retired::Nothing;
        }
        if live == 0 {
            self.drop_segment(segment);
            return Retired::Dropped(segment);
        }
        let base = segment * SEGMENT_SLOTS;
        let survivors: InlineVec<usize, EVACUATE_LIVE> = (base..base + SEGMENT_SLOTS)
            .filter(|&i| !self.is_retired(i))
            .collect();
        self.evacuate(segment, &survivors);
        Retired::Evacuated { segment, survivors }
    }

    /// Does to this column what a [`retire`](SegVec::retire) did to
    /// the column it is kept in lockstep with.
    pub fn follow(&mut self, outcome: &Retired) {
        match outcome {
            Retired::Nothing => {}
            Retired::Dropped(segment) => self.drop_segment(*segment),
            Retired::Evacuated { segment, survivors } => self.evacuate(*segment, survivors),
        }
    }

    /// Takes the block of a full resident segment; `None` for a
    /// partially filled tail, an unknown or an already dropped segment.
    fn take_block(&mut self, segment: usize) -> Option<Vec<T>> {
        let slot = self.segments.get_mut(segment)?;
        if slot.as_ref()?.len() < SEGMENT_SLOTS {
            return None;
        }
        self.resident -= 1;
        slot.take()
    }

    /// Drops a full segment: its slots are destroyed and its block is
    /// kept for a later segment; of an evacuated segment, the slots
    /// left in the side table are destroyed. A partially filled tail,
    /// an unknown or an already dropped segment is left alone.
    pub fn drop_segment(&mut self, segment: usize) {
        match self.take_block(segment) {
            Some(block) => self.keep_spare(block),
            None => {
                self.evacuated.drain(self.evacuated_range(segment, 0));
            }
        }
    }

    /// Moves the slots of a full segment listed in `survivors`
    /// (ascending) to the side table, destroys the others and keeps
    /// the block for a later segment.
    fn evacuate(&mut self, segment: usize, survivors: &[usize]) {
        let Some(mut block) = self.take_block(segment) else {
            return;
        };
        let base = segment * SEGMENT_SLOTS;
        let at = self.evacuated_range(segment, 0).start;
        // Highest first: `swap_remove` then only ever disturbs slots
        // above the ones still to be taken, and inserting each at `at`
        // leaves them ascending.
        for &index in survivors.iter().rev() {
            self.evacuated
                .insert(at, (index, block.swap_remove(index - base)));
        }
        self.keep_spare(block);
    }

    /// Empties a dropped segment's block and keeps it for a later
    /// segment if fewer than [`SPARE_BLOCKS`] are kept already.
    fn keep_spare(&mut self, mut block: Vec<T>) {
        block.clear();
        if let Some(free) = self.spares.iter_mut().find(|spare| spare.is_none()) {
            *free = Some(block);
        }
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

/// Serializes as the flat sequence of slots, position = index.
///
/// That form has no place for a gap, so a column that dropped or
/// evacuated a segment is refused rather than written with every
/// later index shifted: serializing one is a logic error and panics.
/// Only columns that never retired a whole segment (eager graphs)
/// have a serde form. Retirement marks are not written; a column read
/// back starts with nothing retired.
impl<T: Serialize> Serialize for SegVec<T> {
    fn to_json_value(&self) -> Value {
        assert!(
            self.resident == self.segments.len(),
            "a SegVec that dropped or evacuated a segment has no serde form ({} of {} segments resident)",
            self.resident,
            self.segments.len()
        );
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

    /// Retires every slot of `range` except `keep`; returns what was
    /// reported along the way, `Nothing`s left out.
    fn retire_all_but(v: &mut SegVec<usize>, range: Range<usize>, keep: &[usize]) -> Vec<Retired> {
        range
            .filter(|i| !keep.contains(i))
            .map(|i| v.retire(i))
            .filter(|r| *r != Retired::Nothing)
            .collect()
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
    fn columns_that_never_retire_keep_no_marks() {
        let v = filled(3 * SEGMENT_SLOTS);
        assert_eq!(v.retired_bits.capacity(), 0);
        assert_eq!(v.evacuated.capacity(), 0);
    }

    #[test]
    fn retiring_every_slot_drops_the_segment_and_recycles_its_block() {
        let mut v = filled(SEGMENT_SLOTS + 1);
        let block_ptr = v.segments[0].as_ref().unwrap().as_ptr();
        let reported = retire_all_but(&mut v, 0..SEGMENT_SLOTS, &[]);
        // Evacuated on the way down, dropped with the last survivor.
        assert_eq!(reported.len(), 2);
        assert!(matches!(reported[0], Retired::Evacuated { segment: 0, .. }));
        assert_eq!(reported[1], Retired::Dropped(0));
        assert_eq!(v.resident_segments(), 1);
        assert_eq!(v.evacuated_slots(), 0);
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
    fn a_burst_of_drops_keeps_spare_blocks_for_the_next_segments() {
        let mut v = filled(4 * SEGMENT_SLOTS);
        let block_ptr =
            |v: &SegVec<usize>, segment: usize| v.segments[segment].as_ref().unwrap().as_ptr();
        let dropped: Vec<_> = (0..=SPARE_BLOCKS).map(|s| block_ptr(&v, s)).collect();
        for segment in 0..=SPARE_BLOCKS {
            v.drop_segment(segment);
        }
        for i in 0..SPARE_BLOCKS * SEGMENT_SLOTS {
            v.push(i);
        }
        let reused: Vec<_> = (4..4 + SPARE_BLOCKS).map(|s| block_ptr(&v, s)).collect();
        assert!(
            reused.iter().all(|p| dropped.contains(p)),
            "spares were reused"
        );
        assert!(reused.windows(2).all(|w| w[0] != w[1]), "one block each");
    }

    #[test]
    fn a_straggler_is_evacuated_and_its_block_recycled() {
        let mut v = filled(3 * SEGMENT_SLOTS);
        let stragglers = [SEGMENT_SLOTS + 3, 2 * SEGMENT_SLOTS - 1];
        let block_ptr = v.segments[1].as_ref().unwrap().as_ptr();
        let reported = retire_all_but(&mut v, SEGMENT_SLOTS..2 * SEGMENT_SLOTS, &stragglers);
        // Evacuated as soon as EVACUATE_LIVE slots were left; the
        // later retirements found their slots in the side table.
        let [Retired::Evacuated {
            segment: 1,
            survivors,
        }] = &reported[..]
        else {
            panic!("expected one evacuation, got {reported:?}");
        };
        assert_eq!(survivors.len(), EVACUATE_LIVE);
        assert!(survivors.windows(2).all(|w| w[0] < w[1]));
        assert!(stragglers.iter().all(|s| survivors.contains(s)));
        assert_eq!(v.resident_segments(), 2);
        assert_eq!(v.evacuated_slots(), 2);
        for s in stragglers {
            assert_eq!(v[s], s);
            assert!(!v.is_retired(s));
        }
        v[stragglers[0]] = 7;
        assert_eq!(v.get(stragglers[0]), Some(&7));
        assert_eq!(v.get(SEGMENT_SLOTS + 4), None, "retired beside a survivor");
        assert!(v.is_retired(SEGMENT_SLOTS + 4));
        // Iteration stays ascending by index across the gap.
        let seen: Vec<usize> = v.iter_from(SEGMENT_SLOTS - 1).copied().take(4).collect();
        assert_eq!(
            seen,
            [SEGMENT_SLOTS - 1, 7, stragglers[1], 2 * SEGMENT_SLOTS]
        );
        assert_eq!(v.iter().count(), 2 * SEGMENT_SLOTS + 2);
        assert_eq!(v.iter().next_back(), Some(&(3 * SEGMENT_SLOTS - 1)));
        assert_eq!(v.iter_from(stragglers[0] + 1).next(), Some(&stragglers[1]));
        // The block went to the next segment.
        v.push(0);
        assert_eq!(v.segments[3].as_ref().unwrap().as_ptr(), block_ptr);
        // The last survivor takes the segment with it.
        assert_eq!(v.retire(stragglers[0]), Retired::Nothing);
        assert_eq!(v.get(stragglers[0]), None);
        assert_eq!(v.retire(stragglers[1]), Retired::Dropped(1));
        assert_eq!(v.evacuated_slots(), 0);
    }

    #[test]
    fn a_parallel_column_follows_evacuation_and_drop() {
        let mut lead = filled(2 * SEGMENT_SLOTS);
        let mut beside: SegVec<String> = (0..2 * SEGMENT_SLOTS).map(|i| i.to_string()).collect();
        let straggler = SEGMENT_SLOTS / 2;
        for i in (0..2 * SEGMENT_SLOTS).filter(|&i| i != straggler) {
            beside.follow(&lead.retire(i));
        }
        assert_eq!(lead.resident_segments(), 0);
        assert_eq!(beside.resident_segments(), 0);
        assert_eq!(lead.evacuated_slots(), 1);
        assert_eq!(beside[straggler], straggler.to_string());
        // The follower keeps slots the leader retired after the
        // evacuation until the segment's last survivor goes.
        assert!(beside.evacuated_slots() >= 1 && beside.evacuated_slots() <= EVACUATE_LIVE);
        beside.follow(&lead.retire(straggler));
        assert_eq!(beside.evacuated_slots(), 0);
        assert_eq!(beside.get(straggler), None);
    }

    #[test]
    fn retiring_a_slot_twice_counts_once() {
        let mut v = filled(SEGMENT_SLOTS);
        for _ in 0..2 {
            for i in 0..SEGMENT_SLOTS - 1 {
                let _ = v.retire(i);
            }
        }
        assert_eq!(
            v[SEGMENT_SLOTS - 1],
            SEGMENT_SLOTS - 1,
            "the live slot survives"
        );
        assert_eq!(v.resident_segments() + v.evacuated_slots(), 1);
        assert_eq!(
            v.retire(2 * SEGMENT_SLOTS),
            Retired::Nothing,
            "never pushed"
        );
        assert_eq!(v.retire(SEGMENT_SLOTS - 1), Retired::Dropped(0));
        assert_eq!(v.retire(SEGMENT_SLOTS - 1), Retired::Nothing);
    }

    #[test]
    fn partial_tail_segments_are_never_dropped() {
        let mut v = filled(10);
        for i in 0..10 {
            assert_eq!(v.retire(i), Retired::Nothing);
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
        let mut v: SegVec<u32> = (0..SEGMENT_SLOTS as u32 + 3).collect();
        // Retired slots of resident segments are no gap.
        let _ = v.retire(5);
        let text = serde::to_string(&v);
        assert!(text.starts_with("[0,1,2,"));
        let back: SegVec<u32> = serde::from_str(&text).unwrap();
        assert_eq!(back.len(), v.len());
        assert!(back.iter().eq(v.iter()));
        assert!(!back.is_retired(5), "marks are not written");
        assert_eq!(serde::to_string(&SegVec::<u32>::new()), "[]");
    }

    #[test]
    #[should_panic(expected = "no serde form")]
    fn a_column_with_a_gap_refuses_to_serialize() {
        let mut v: SegVec<u32> = (0..2 * SEGMENT_SLOTS as u32).collect();
        v.drop_segment(0);
        let _ = serde::to_string(&v);
    }
}
