//! The ready set: a hierarchical bitset over task ids.

use crate::ids::TaskId;
use serde::{Deserialize, Serialize, Value};

const BITS: usize = 64;

/// The set of ready tasks, iterated in ascending id order.
///
/// Three levels of 64-bit words: bit `i` of level 0 says task `i` is
/// ready, and a bit of level `k + 1` says the corresponding word of
/// level `k` is non-zero. Insert and remove touch at most three words
/// and never allocate once the levels cover the highest id seen;
/// iteration skips empty regions a word (64, 4 096 or 262 144 ids) at a
/// time, so a one-element set costs the same to walk whether the graph
/// holds ten tasks or ten million. One bit per id ever issued is the
/// only campaign-length state.
#[derive(Debug, Clone, Default)]
pub struct ReadySet {
    levels: [Vec<u64>; 3],
    len: usize,
}

impl ReadySet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ready tasks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no task is ready.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if `task` is in the set.
    pub fn contains(&self, task: &TaskId) -> bool {
        let i = task.index();
        self.levels[0]
            .get(i / BITS)
            .is_some_and(|w| w >> (i % BITS) & 1 == 1)
    }

    /// Adds `task`; returns `true` if it was not already present.
    pub fn insert(&mut self, task: TaskId) -> bool {
        let mut i = task.index();
        if self.contains(&task) {
            return false;
        }
        for level in &mut self.levels {
            let word = i / BITS;
            if word >= level.len() {
                level.resize(word + 1, 0);
            }
            let was_empty = level[word] == 0;
            level[word] |= 1 << (i % BITS);
            if !was_empty {
                break;
            }
            i = word;
        }
        self.len += 1;
        true
    }

    /// Removes `task`; returns `true` if it was present.
    pub fn remove(&mut self, task: &TaskId) -> bool {
        if !self.contains(task) {
            return false;
        }
        let mut i = task.index();
        for level in &mut self.levels {
            let word = i / BITS;
            level[word] &= !(1 << (i % BITS));
            if level[word] != 0 {
                break;
            }
            i = word;
        }
        self.len -= 1;
        true
    }

    /// The lowest ready id.
    pub fn first(&self) -> Option<TaskId> {
        self.iter().next()
    }

    /// The highest ready id.
    pub fn last(&self) -> Option<TaskId> {
        let mut word = self.levels[2].iter().rposition(|w| *w != 0)?;
        for level in [2, 1, 0] {
            let bits = self.levels[level][word];
            word = word * BITS + (BITS - 1 - bits.leading_zeros() as usize);
        }
        Some(TaskId::from_raw(word as u64))
    }

    /// Iterates the ready ids in ascending order.
    pub fn iter(&self) -> ReadyIter<'_> {
        ReadyIter {
            set: self,
            word: [0; 3],
            bits: [0, 0, self.levels[2].first().copied().unwrap_or(0)],
        }
    }
}

/// Equality is over the ids held, not over how far the levels grew.
impl PartialEq for ReadySet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for ReadySet {}

/// Ascending iterator over a [`ReadySet`].
#[derive(Debug, Clone)]
pub struct ReadyIter<'a> {
    set: &'a ReadySet,
    /// Index of the word being drained at each level.
    word: [usize; 3],
    /// Bits of that word not yet visited.
    bits: [u64; 3],
}

impl Iterator for ReadyIter<'_> {
    type Item = TaskId;

    fn next(&mut self) -> Option<TaskId> {
        loop {
            if self.bits[0] != 0 {
                let bit = self.bits[0].trailing_zeros() as usize;
                self.bits[0] &= self.bits[0] - 1;
                return Some(TaskId::from_raw((self.word[0] * BITS + bit) as u64));
            }
            // Refill level 0 from the next set bit of level 1, level 1
            // from level 2, and level 2 from its next word.
            if self.bits[1] != 0 {
                let bit = self.bits[1].trailing_zeros() as usize;
                self.bits[1] &= self.bits[1] - 1;
                self.word[0] = self.word[1] * BITS + bit;
                self.bits[0] = self.set.levels[0][self.word[0]];
            } else if self.bits[2] != 0 {
                let bit = self.bits[2].trailing_zeros() as usize;
                self.bits[2] &= self.bits[2] - 1;
                self.word[1] = self.word[2] * BITS + bit;
                self.bits[1] = self.set.levels[1][self.word[1]];
            } else {
                self.word[2] += 1;
                self.bits[2] = *self.set.levels[2].get(self.word[2])?;
            }
        }
    }
}

impl<'a> IntoIterator for &'a ReadySet {
    type Item = TaskId;
    type IntoIter = ReadyIter<'a>;

    fn into_iter(self) -> ReadyIter<'a> {
        self.iter()
    }
}

impl FromIterator<TaskId> for ReadySet {
    fn from_iter<I: IntoIterator<Item = TaskId>>(tasks: I) -> Self {
        let mut set = ReadySet::new();
        for task in tasks {
            set.insert(task);
        }
        set
    }
}

/// Serializes as the ascending array of ids.
impl Serialize for ReadySet {
    fn to_json_value(&self) -> Value {
        Value::Arr(self.iter().map(|t| t.to_json_value()).collect())
    }
}

impl Deserialize for ReadySet {
    fn from_json_value(value: &Value) -> Option<Self> {
        value
            .as_arr()?
            .iter()
            .map(TaskId::from_json_value)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn t(i: u64) -> TaskId {
        TaskId::from_raw(i)
    }

    #[test]
    fn behaves_like_an_ordered_set() {
        let mut set = ReadySet::new();
        let mut model = BTreeSet::new();
        // Deterministic pseudo-random inserts/removes across all three
        // levels (ids up to ~600 000).
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..4_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let id = match state % 4 {
                0 => state % 70,
                1 => state % 5_000,
                _ => state % 600_000,
            };
            if state >> 60 < 10 {
                assert_eq!(set.insert(t(id)), model.insert(t(id)));
            } else {
                assert_eq!(set.remove(&t(id)), model.remove(&t(id)));
            }
            assert_eq!(set.len(), model.len());
        }
        assert!(!model.is_empty());
        assert!(set.iter().eq(model.iter().copied()));
        assert_eq!(set.first(), model.first().copied());
        assert_eq!(set.last(), model.last().copied());
        for id in &model {
            assert!(set.contains(id));
        }
        for id in model.clone() {
            assert!(set.remove(&id));
        }
        assert!(set.is_empty());
        assert_eq!(set.iter().next(), None);
        assert_eq!(set.last(), None);
    }

    #[test]
    fn empty_and_sparse_sets_iterate_correctly() {
        let mut set = ReadySet::new();
        assert_eq!(set.first(), None);
        assert!(!set.contains(&t(12)));
        set.insert(t(300_000));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![t(300_000)]);
        set.insert(t(0));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![t(0), t(300_000)]);
        assert!(!set.insert(t(0)), "duplicate insert");
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn serde_round_trips_as_an_id_array() {
        let set: ReadySet = [t(5), t(1), t(64)].into_iter().collect();
        let text = serde::to_string(&set);
        assert_eq!(text, "[1,5,64]");
        let back: ReadySet = serde::from_str(&text).unwrap();
        assert_eq!(back, set);
    }
}
