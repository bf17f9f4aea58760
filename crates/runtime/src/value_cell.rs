//! The value cell: where one version of a datum is published, found
//! and freed.
//!
//! Data renaming gives every version exactly one producing task and a
//! reader set known at registration, so nobody needs to look a version
//! up by key: the cell sits inside the record of the task that
//! produces it (version 0: in an `Arc` of its own), and everyone who
//! may still read it — the catalog column while the version is
//! current, each registered reader until it starts, a client `get`
//! while it waits — holds a counted reference (`CellRef` in
//! `local.rs`). Liveness *is* that count: the last release takes the
//! value out of the cell.
//!
//! The protocol lives here, away from the executor, so it can be
//! unit-tested and schedule-explored (`sched::value-cell` in
//! [`crate::conc_targets`]) in isolation. Its sync operations go
//! through [`continuum_platform::sync`] for that reason.

use continuum_platform::sync::{AtomicUsize, Mutex};
use std::any::Any;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Declares [`Value`] with one by-value variant per listed scalar type.
macro_rules! value {
    ($($variant:ident($ty:ty)),* $(,)?) => {
        /// A type-erased value flowing between tasks: a scalar of one
        /// of the listed types stored by value, anything else shared
        /// behind an `Arc`. The type alone picks the representation,
        /// so a scalar never costs a heap block of its own.
        #[derive(Clone)]
        pub(crate) enum Value {
            /// Any other type.
            Shared(Arc<dyn Any + Send + Sync>),
            $($variant($ty),)*
        }

        impl Value {
            /// Wraps `value`: by value if its type is a listed scalar,
            /// in a new `Arc` otherwise.
            pub(crate) fn new<T: Send + Sync + 'static>(value: T) -> Value {
                let any: &dyn Any = &value;
                $(if let Some(v) = any.downcast_ref::<$ty>() {
                    return Value::$variant(*v);
                })*
                Value::Shared(Arc::new(value))
            }

            /// The value, if it is a `T`.
            pub(crate) fn downcast_ref<T: 'static>(&self) -> Option<&T> {
                let any: &dyn Any = match self {
                    Value::Shared(v) => &**v,
                    $(Value::$variant(v) => v,)*
                };
                any.downcast_ref()
            }

            /// The value as a shared `Arc`: the stored one, or a new
            /// one around a scalar.
            pub(crate) fn into_shared(self) -> Arc<dyn Any + Send + Sync> {
                match self {
                    Value::Shared(v) => v,
                    $(Value::$variant(v) => Arc::new(v),)*
                }
            }
        }
    };
}

// The scalars the runtime's users pass between tasks.
value! {
    Unit(()),
    Bool(bool),
    I32(i32),
    U32(u32),
    I64(i64),
    U64(u64),
    Usize(usize),
    F64(f64),
}

/// Storage and reference count of one version of a datum.
///
/// The slot mutex is a leaf held for one clone, store or take; it is
/// not ranked in [`crate::lockorder`] because nothing is ever acquired
/// under it. (`#![forbid(unsafe_code)]` rules out a bare write-once
/// slot: the last release must *take* the value, not just stop
/// reading it.)
pub(crate) struct ValueCell {
    /// Who may still read this version. References are only ever made
    /// from a live one, so zero is final.
    refs: AtomicUsize,
    /// The value, from publication until the last reference goes.
    slot: Mutex<Option<Value>>,
}

impl ValueCell {
    /// An empty cell holding its creator's reference.
    pub(crate) fn new() -> Self {
        ValueCell {
            refs: AtomicUsize::new(1),
            slot: Mutex::new(None),
        }
    }

    /// Adds a reference. The caller holds one already.
    pub(crate) fn retain(&self) {
        // Relaxed, as for an `Arc` clone: the new reference publishes
        // nothing, and the one it was made from keeps the count above
        // zero meanwhile.
        let held = self.refs.fetch_add(1, Ordering::Relaxed);
        debug_assert!(held > 0, "reference made from a dead cell");
    }

    /// Stores the value and returns whether the cell went from empty
    /// to materialized. A cell nobody references any more — its
    /// version was superseded with no readers before it was produced —
    /// drops the value instead (dead on arrival). A second publication
    /// replaces the first (`set_initial` twice: last write wins for
    /// readers that have not run).
    pub(crate) fn publish(&self, value: Value) -> bool {
        let mut slot = self.slot.lock();
        // Checked under the slot lock, which the last `release` takes
        // after its decrement: either it finds the value stored here,
        // or this load sees its zero.
        if self.refs.load(Ordering::Acquire) == 0 {
            drop(slot);
            return false;
        }
        let displaced = slot.replace(value);
        // A payload's own `Drop` runs outside the slot lock.
        drop(slot);
        displaced.is_none()
    }

    /// The value, if published and not yet freed.
    pub(crate) fn read(&self) -> Option<Value> {
        self.slot.lock().clone()
    }

    /// Whether a value is currently stored.
    pub(crate) fn is_set(&self) -> bool {
        self.slot.lock().is_some()
    }

    /// Gives up one reference. The last one empties the cell and hands
    /// the value back for the caller to account and drop.
    pub(crate) fn release(&self) -> Option<Value> {
        // AcqRel: every holder's reads of the value happen before the
        // take below, whichever thread ends up doing it.
        if self.refs.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.slot.lock().take()
        } else {
            None
        }
    }
}

/// A fixed list with no heap block for zero or one element — what
/// nearly every task record holds of cells (its outputs) and of
/// references to cells (its inputs); a merge spills.
#[derive(Default)]
pub(crate) enum Slots<T> {
    /// No element.
    #[default]
    None,
    /// One element, inline.
    One(T),
    /// Two or more, in one heap block.
    Many(Box<[T]>),
}

impl<T> Slots<T> {
    /// Collects an iterator of known length.
    pub(crate) fn collect(mut items: impl ExactSizeIterator<Item = T>) -> Self {
        match items.len() {
            0 => Slots::None,
            // An exact-size iterator of length 1 yields one item.
            1 => items.next().map_or(Slots::None, Slots::One),
            _ => Slots::Many(items.collect()),
        }
    }

    /// The elements, in order.
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Slots::None => &[],
            Slots::One(item) => std::slice::from_ref(item),
            Slots::Many(items) => items,
        }
    }

    /// Consumes the list, handing each element to `f` in order.
    pub(crate) fn into_each(self, mut f: impl FnMut(T)) {
        match self {
            Slots::None => {}
            Slots::One(item) => f(item),
            Slots::Many(items) => items.into_vec().into_iter().for_each(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(v: u64) -> Value {
        Value::new(v)
    }

    fn get(cell: &ValueCell) -> Option<u64> {
        cell.read().and_then(|v| v.downcast_ref::<u64>().copied())
    }

    #[test]
    fn last_release_takes_the_value() {
        let cell = ValueCell::new();
        cell.retain();
        assert!(cell.publish(value(7)));
        assert_eq!(get(&cell), Some(7));
        assert!(cell.release().is_none(), "one reference remains");
        assert!(cell.is_set());
        let freed = cell.release().expect("last reference frees");
        assert_eq!(freed.downcast_ref::<u64>(), Some(&7));
        assert!(!cell.is_set());
    }

    #[test]
    fn publication_into_a_dead_cell_is_dropped() {
        let cell = ValueCell::new();
        assert!(cell.release().is_none(), "nothing stored yet");
        let payload: Arc<dyn Any + Send + Sync> = Arc::new(vec![1u64]);
        assert!(!cell.publish(Value::Shared(Arc::clone(&payload))));
        assert!(!cell.is_set());
        assert_eq!(Arc::strong_count(&payload), 1, "dead on arrival");
    }

    #[test]
    fn scalars_are_stored_by_value_and_the_rest_shared() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert!(matches!(Value::new(()), Value::Unit(())));
        assert!(matches!(Value::new(7u64), Value::U64(7)));
        assert!(matches!(Value::new(-0.5f64), Value::F64(v) if v == -0.5));
        // Neither a narrower integer nor a scalar already in an `Arc`
        // is one of the eight.
        assert!(matches!(Value::new(7u8), Value::Shared(_)));
        assert!(matches!(Value::new(Arc::new(7u64)), Value::Shared(_)));
        let v = Value::new(7u64);
        assert_eq!(v.downcast_ref::<u64>(), Some(&7));
        assert_eq!(v.downcast_ref::<i64>(), None);
        assert!(v.into_shared().downcast::<u64>().is_ok_and(|v| *v == 7));
    }

    #[test]
    fn slots_keep_order_inline_and_spilled() {
        for n in 0..4usize {
            let slots = Slots::collect(0..n);
            assert_eq!(slots.as_slice(), (0..n).collect::<Vec<_>>());
            assert_eq!(matches!(slots, Slots::Many(_)), n > 1);
            let mut seen = Vec::new();
            slots.into_each(|i| seen.push(i));
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn republication_replaces_without_recounting() {
        let cell = ValueCell::new();
        assert!(cell.publish(value(1)));
        assert!(!cell.publish(value(2)), "already materialized");
        assert_eq!(get(&cell), Some(2));
    }
}
