//! A small vector that lives inline until it outgrows `N` elements.
//!
//! Dependency lists, access lists and replica sets are almost always
//! one or two entries long (a GWAS pipeline stage has one input, one
//! output, one predecessor and one successor), so a `Vec` per list
//! costs a heap allocation per list per task. [`InlineVec`] keeps up to
//! `N` elements in place and spills to a `Vec` beyond that; it derefs
//! to a slice, so accessors returning `&[T]` are unaffected by which
//! representation is live.
//!
//! The implementation is safe code: inline slots are initialised with
//! `T::default()`, which is why elements must be `Copy + Default`
//! (ids, parameter accesses).

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A vector of `Copy` elements with inline capacity `N` (at most 255).
#[derive(Clone)]
pub enum InlineVec<T, const N: usize> {
    /// Up to `N` elements stored in place; `buf[len..]` is filler.
    Inline {
        /// Number of live elements in `buf`.
        len: u8,
        /// Inline storage.
        buf: [T; N],
    },
    /// More than `N` elements were pushed at some point.
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector (no allocation).
    pub fn new() -> Self {
        debug_assert!(N <= u8::MAX as usize);
        InlineVec::Inline {
            len: 0,
            buf: [T::default(); N],
        }
    }

    /// Creates an empty vector with room for `capacity` elements: inline
    /// up to `N`, one heap block of exactly that size beyond, so filling
    /// it allocates once instead of doubling from the inline slots.
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity <= N {
            Self::new()
        } else {
            InlineVec::Heap(Vec::with_capacity(capacity))
        }
    }

    /// The live elements.
    pub fn as_slice(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, buf } => &buf[..*len as usize],
            InlineVec::Heap(v) => v,
        }
    }

    /// The live elements, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline { len, buf } => &mut buf[..*len as usize],
            InlineVec::Heap(v) => v,
        }
    }

    /// Returns `true` once the contents moved to the heap.
    pub fn spilled(&self) -> bool {
        matches!(self, InlineVec::Heap(_))
    }

    /// Inserts `value` at `index`, shifting later elements right.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        match self {
            InlineVec::Inline { len, buf } => {
                let n = *len as usize;
                assert!(index <= n, "insertion index {index} out of range {n}");
                if n < N {
                    buf.copy_within(index..n, index + 1);
                    buf[index] = value;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity((N * 2).max(4));
                    v.extend_from_slice(&buf[..index]);
                    v.push(value);
                    v.extend_from_slice(&buf[index..n]);
                    *self = InlineVec::Heap(v);
                }
            }
            InlineVec::Heap(v) => v.insert(index, value),
        }
    }

    /// Appends `value`.
    pub fn push(&mut self, value: T) {
        let at = self.len();
        self.insert(at, value);
    }

    /// Removes and returns the element at `index`, shifting later
    /// elements left.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        match self {
            InlineVec::Inline { len, buf } => {
                let n = *len as usize;
                assert!(index < n, "removal index {index} out of range {n}");
                let value = buf[index];
                buf.copy_within(index + 1..n, index);
                *len -= 1;
                value
            }
            InlineVec::Heap(v) => v.remove(index),
        }
    }

    /// Shortens the vector to at most `new_len` elements.
    pub fn truncate(&mut self, new_len: usize) {
        match self {
            InlineVec::Inline { len, .. } => {
                if new_len < *len as usize {
                    *len = new_len as u8;
                }
            }
            InlineVec::Heap(v) => v.truncate(new_len),
        }
    }

    /// Removes every element and releases any heap block.
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// Appends every element of `items`.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        let items = items.into_iter();
        let wanted = self.len() + items.size_hint().0;
        if wanted > N {
            self.spill(wanted);
        }
        for item in items {
            self.push(item);
        }
    }

    /// Moves the contents to a heap block with room for `capacity`.
    fn spill(&mut self, capacity: usize) {
        match self {
            InlineVec::Inline { .. } => {
                let mut v = Vec::with_capacity(capacity);
                v.extend_from_slice(self.as_slice());
                *self = InlineVec::Heap(v);
            }
            InlineVec::Heap(v) => v.reserve(capacity.saturating_sub(v.len())),
        }
    }
}

impl<T: Copy + Default + Ord, const N: usize> InlineVec<T, N> {
    /// Inserts into an ascending vector, keeping it sorted and free of
    /// duplicates; returns `true` if `value` was newly added.
    pub fn insert_sorted(&mut self, value: T) -> bool {
        match self.binary_search(&value) {
            Ok(_) => false,
            Err(pos) => {
                self.insert(pos, value);
                true
            }
        }
    }

    /// Removes `value` from an ascending vector; returns `true` if it
    /// was present.
    pub fn remove_sorted(&mut self, value: &T) -> bool {
        match self.binary_search(value) {
            Ok(pos) => {
                self.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Sorts ascending and drops duplicates.
    pub fn sort_dedup(&mut self) {
        let items = self.as_mut_slice();
        if items.len() < 2 {
            return;
        }
        items.sort_unstable();
        let mut kept = 1;
        for i in 1..items.len() {
            if items[i] != items[kept - 1] {
                items[kept] = items[i];
                kept += 1;
            }
        }
        self.truncate(kept);
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut v = Self::new();
        v.extend(items);
        v
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default + Serialize, const N: usize> Serialize for InlineVec<T, N> {
    fn to_json_value(&self) -> Value {
        self.as_slice().to_json_value()
    }
}

impl<T: Copy + Default + Deserialize, const N: usize> Deserialize for InlineVec<T, N> {
    fn from_json_value(value: &Value) -> Option<Self> {
        value.as_arr()?.iter().map(T::from_json_value).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type V2 = InlineVec<u32, 2>;

    #[test]
    fn stays_inline_up_to_capacity_then_spills() {
        let mut v = V2::new();
        assert!(v.is_empty() && !v.spilled());
        v.push(7);
        v.push(9);
        assert_eq!(&*v, &[7, 9]);
        assert!(!v.spilled(), "two elements fit inline");
        v.push(11);
        assert!(v.spilled());
        assert_eq!(&*v, &[7, 9, 11]);
        v.push(13);
        assert_eq!(v.len(), 4);
        assert_eq!(v.iter().sum::<u32>(), 40);
    }

    #[test]
    fn with_capacity_spills_only_past_the_inline_slots() {
        let mut v = V2::with_capacity(2);
        assert!(!v.spilled());
        let mut wide = V2::with_capacity(16);
        assert!(wide.spilled() && wide.is_empty());
        wide.extend(0..16u32);
        let InlineVec::Heap(block) = &wide else {
            unreachable!("spilled above");
        };
        assert_eq!(block.capacity(), 16, "no regrowth while filling");
        v.extend(0..2u32);
        assert_eq!(v, [0u32, 1].into_iter().collect());
    }

    #[test]
    fn insert_and_remove_shift_in_both_representations() {
        for extra in [0usize, 5] {
            let mut v = V2::new();
            v.extend((0..extra as u32).map(|i| 100 + i));
            v.insert(0, 1);
            v.insert(1, 3);
            v.insert(1, 2);
            assert_eq!(&v[..3], &[1, 2, 3]);
            assert_eq!(v.remove(1), 2);
            assert_eq!(&v[..2], &[1, 3]);
            assert_eq!(v.len(), 2 + extra);
            v.truncate(1);
            assert_eq!(&*v, &[1]);
            v.clear();
            assert!(v.is_empty() && !v.spilled());
        }
    }

    #[test]
    fn sorted_insert_keeps_order_and_rejects_duplicates() {
        let mut v = V2::new();
        for x in [5u32, 3, 9, 1, 7, 0, 4] {
            assert!(v.insert_sorted(x));
        }
        assert_eq!(&*v, &[0, 1, 3, 4, 5, 7, 9]);
        assert!(!v.insert_sorted(5), "duplicate is a no-op");
        assert!(v.remove_sorted(&3));
        assert!(!v.remove_sorted(&3));
        assert!(!v.remove_sorted(&8));
        assert_eq!(&*v, &[0, 1, 4, 5, 7, 9]);
        // The inline representation behaves the same.
        let mut small = V2::new();
        assert!(small.insert_sorted(8));
        assert!(small.insert_sorted(2));
        assert!(!small.insert_sorted(8));
        assert_eq!(&*small, &[2, 8]);
        assert!(small.remove_sorted(&2));
        assert_eq!(&*small, &[8]);
    }

    #[test]
    fn sort_dedup_matches_vec() {
        let mut v: V2 = [4u32, 1, 4, 2, 1, 1].into_iter().collect();
        v.sort_dedup();
        assert_eq!(&*v, &[1, 2, 4]);
        let mut one: V2 = [6u32, 6].into_iter().collect();
        one.sort_dedup();
        assert_eq!(&*one, &[6]);
    }

    #[test]
    fn extend_reserves_once_and_equality_ignores_representation() {
        let mut spilled = V2::new();
        spilled.extend(0..10u32);
        spilled.truncate(2);
        assert!(spilled.spilled());
        let inline: V2 = [0u32, 1].into_iter().collect();
        assert!(!inline.spilled());
        assert_eq!(spilled, inline);
        assert_eq!(format!("{inline:?}"), "[0, 1]");
    }

    #[test]
    fn serde_round_trips_as_a_plain_array() {
        let v: V2 = [3u32, 1, 2].into_iter().collect();
        let text = serde::to_string(&v);
        assert_eq!(text, "[3,1,2]");
        let back: V2 = serde::from_str(&text).unwrap();
        assert_eq!(back, v);
    }
}
