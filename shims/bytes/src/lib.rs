//! Offline drop-in stand-in for the `bytes` crate: a cheaply-clonable,
//! immutable byte buffer backed by `Arc<Vec<u8>>`, so `From<Vec<u8>>`
//! takes the vector's buffer over instead of copying it, as the real
//! crate does. Covers the surface this workspace uses (`new`, `from`,
//! `from_static`, `copy_from_slice`, deref to `[u8]`); zero-copy
//! sub-slicing is not provided.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable immutable contiguous byte buffer.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A buffer copied from a slice.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// A buffer borrowing nothing: copies the static slice once.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The contents as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Copies the contents into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    /// Takes ownership of `data`'s buffer; nothing is copied.
    fn from(data: Vec<u8>) -> Self {
        Bytes {
            data: Arc::new(data),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::copy_from_slice(data)
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(data: [u8; N]) -> Self {
        Bytes::copy_from_slice(&data)
    }
}

impl From<&str> for Bytes {
    fn from(data: &str) -> Self {
        Bytes::copy_from_slice(data.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(data: String) -> Self {
        Bytes::from(data.into_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b, Bytes::copy_from_slice(&[1, 2, 3]));
        assert!(Bytes::new().is_empty());
        assert_eq!(&Bytes::from_static(b"ab")[..], b"ab");
    }

    #[test]
    fn from_vec_keeps_the_vectors_buffer() {
        let v = vec![7u8; 64 * 1024];
        let addr = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), addr);
        let s = String::from("a reading");
        let addr = s.as_ptr();
        assert_eq!(Bytes::from(s).as_ptr(), addr);
    }

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![0u8; 1024]);
        let b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }
}
