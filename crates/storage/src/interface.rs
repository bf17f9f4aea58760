//! The storage interfaces: SOI (programmer-facing) and SRI
//! (runtime-facing), as defined in §VI-A1 of the paper.

use crate::error::StorageError;
use bytes::Bytes;
use continuum_platform::NodeId;
use serde::{Deserialize, Serialize, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Key identifying a persisted object.
///
/// Runtimes typically derive keys from versioned data
/// (`"d12@v3"`-style); applications may use arbitrary strings.
///
/// Every agent hop hands keys on (the task's inputs and output, the
/// store's entry, the log's record), so cloning one never allocates: a
/// key of up to 22 bytes is kept inside the key's own 24 bytes, and a
/// longer one in an `Arc<str>` that clones share. Whichever form a key
/// takes, it compares, orders, hashes, prints and serializes as its
/// text, so `ObjectKey::new(s)` hashes exactly like `s`.
///
/// ```
/// use continuum_storage::ObjectKey;
///
/// let short = ObjectKey::new("sensor7:raw");
/// let long = ObjectKey::new("campaign/chromosome-21/association.out");
/// assert_eq!(short.clone(), short);
/// assert_eq!(long.as_str(), "campaign/chromosome-21/association.out");
/// assert_eq!(std::mem::size_of::<ObjectKey>(), 24);
/// ```
#[derive(Clone)]
pub struct ObjectKey(Repr);

/// The longest key kept in place: with its length byte and the
/// variant's tag it takes the 24 bytes an `Arc<str>` and a tag take.
const INLINE: usize = 22;

#[derive(Clone)]
enum Repr {
    /// `len` bytes of UTF-8 text at the front of `bytes`.
    Inline { len: u8, bytes: [u8; INLINE] },
    /// A longer key, shared by its clones.
    Shared(Arc<str>),
}

impl ObjectKey {
    /// Creates a key, copying the text: in place if it fits, else into
    /// one shared allocation.
    pub fn new(key: impl AsRef<str>) -> Self {
        let key = key.as_ref();
        if key.len() > INLINE {
            return ObjectKey(Repr::Shared(Arc::from(key)));
        }
        let mut bytes = [0; INLINE];
        bytes[..key.len()].copy_from_slice(key.as_bytes());
        ObjectKey(Repr::Inline {
            len: key.len() as u8,
            bytes,
        })
    }

    /// The key as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // The bytes are a whole `str` copied in by `new`, so they
            // are always valid UTF-8 and the fallback is never taken.
            Repr::Inline { .. } => std::str::from_utf8(self.as_bytes()).unwrap_or_default(),
            Repr::Shared(s) => s,
        }
    }

    /// The key's text as bytes, without re-checking the UTF-8.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared(s) => s.as_bytes(),
        }
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Prints as `ObjectKey("text")`, whichever form the key takes.
impl fmt::Debug for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ObjectKey").field(&self.as_str()).finish()
    }
}

impl PartialEq for ObjectKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for ObjectKey {}

impl PartialOrd for ObjectKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte order, which is the order of the text.
impl Ord for ObjectKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

/// Hashes as the `str`, so a key's placement does not depend on its
/// form.
impl Hash for ObjectKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl Serialize for ObjectKey {
    fn to_json_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for ObjectKey {
    fn from_json_value(value: &Value) -> Option<Self> {
        value.as_str().map(ObjectKey::new)
    }
}

impl From<&str> for ObjectKey {
    fn from(s: &str) -> Self {
        ObjectKey::new(s)
    }
}

impl From<String> for ObjectKey {
    fn from(s: String) -> Self {
        ObjectKey::new(s)
    }
}

/// A stored value with its (optional) class tag, enabling active-store
/// method execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredValue {
    /// Serialized payload.
    pub payload: Bytes,
    /// Class name for active objects, `None` for plain blobs.
    pub class: Option<String>,
}

impl StoredValue {
    /// A plain blob without class information.
    pub fn blob(payload: impl Into<Bytes>) -> Self {
        StoredValue {
            payload: payload.into(),
            class: None,
        }
    }

    /// An object of a registered class.
    pub fn object(payload: impl Into<Bytes>, class: impl Into<String>) -> Self {
        StoredValue {
            payload: payload.into(),
            class: Some(class.into()),
        }
    }

    /// Size of the payload in bytes.
    pub fn size(&self) -> usize {
        self.payload.len()
    }
}

/// The **Storage Runtime Interface** (SRI): the contract between the
/// workflow runtime and a storage backend.
///
/// This mirrors the paper's interface: the runtime pushes and pulls
/// values and — crucially for scheduling — asks `locations` (the
/// paper's `getLocations`) where replicas live so tasks can be placed
/// next to their data.
pub trait StorageRuntime: Send + Sync {
    /// Stores a value, preferring placement near `hint` if given.
    /// Returns the nodes holding replicas.
    ///
    /// # Errors
    ///
    /// Backend-specific; e.g. the hint names an unknown node.
    fn put(
        &self,
        key: ObjectKey,
        value: StoredValue,
        hint: Option<NodeId>,
    ) -> Result<Vec<NodeId>, StorageError>;

    /// Retrieves a value.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] if absent,
    /// [`StorageError::AllReplicasDown`] if no live replica remains.
    fn get(&self, key: &ObjectKey) -> Result<StoredValue, StorageError>;

    /// Live replica locations of a key (the paper's `getLocations`).
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] if the key was never stored.
    fn locations(&self, key: &ObjectKey) -> Result<Vec<NodeId>, StorageError>;

    /// Removes a key. Removing an absent key is not an error.
    fn delete(&self, key: &ObjectKey);

    /// Returns `true` if at least one live replica exists.
    fn contains(&self, key: &ObjectKey) -> bool;
}

/// The **Storage Object Interface** (SOI): the programmer-facing trait.
///
/// Implemented by application object wrappers; calling
/// [`make_persistent`](PersistentObject::make_persistent) pushes the
/// object to the backend, after which it is used like a regular value
/// (the backend keeps it durable and replicated).
pub trait PersistentObject {
    /// Serializes the object for storage.
    fn to_payload(&self) -> Bytes;

    /// Class name, for active-store method registration.
    fn class_name(&self) -> Option<&str> {
        None
    }

    /// Pushes the object to `store` under `key`, making it persistent.
    ///
    /// # Errors
    ///
    /// Propagates backend errors from `put`.
    fn make_persistent(
        &self,
        store: &dyn StorageRuntime,
        key: ObjectKey,
    ) -> Result<Vec<NodeId>, StorageError> {
        let value = match self.class_name() {
            Some(c) => StoredValue::object(self.to_payload(), c),
            None => StoredValue::blob(self.to_payload()),
        };
        store.put(key, value, None)
    }

    /// Removes the object from `store`.
    fn delete_persistent(&self, store: &dyn StorageRuntime, key: &ObjectKey) {
        store.delete(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_conversions() {
        let a: ObjectKey = "k1".into();
        let b: ObjectKey = String::from("k1").into();
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "k1");
        assert_eq!(a.to_string(), "k1");
    }

    #[test]
    fn stored_value_kinds() {
        let blob = StoredValue::blob(vec![1, 2, 3]);
        assert_eq!(blob.size(), 3);
        assert!(blob.class.is_none());
        let obj = StoredValue::object(vec![0; 10], "Matrix");
        assert_eq!(obj.class.as_deref(), Some("Matrix"));
        assert_eq!(obj.size(), 10);
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes(_: &dyn StorageRuntime) {}
    }
}
