//! Identifier newtypes for tasks and data.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a task registered with an [`crate::AccessProcessor`].
///
/// Task ids are dense indices assigned in submission order, which lets
/// graph structures use `Vec`-backed storage.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TaskId(pub(crate) u64);

impl TaskId {
    /// Creates a task id from a raw index.
    ///
    /// Primarily useful in tests and when reconstructing graphs from
    /// serialized traces; ids produced by an access processor are dense.
    pub fn from_raw(raw: u64) -> Self {
        TaskId(raw)
    }

    /// Returns the raw dense index of this task.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the raw dense index as a `usize` for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a logical datum (a file, object or future value)
/// accessed by tasks.
///
/// A `DataId` names the *logical* entity; each write access creates a
/// new [`DataVersion`] of it, mirroring the renaming performed by the
/// COMPSs runtime to avoid write-after-read hazards.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct DataId(pub(crate) u64);

impl DataId {
    /// Creates a data id from a raw index.
    pub fn from_raw(raw: u64) -> Self {
        DataId(raw)
    }

    /// Returns the raw dense index of this datum.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the raw dense index as a `usize` for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DataId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Version number of a datum. Version 0 is the initial (external) value;
/// each `Out`/`InOut` access produces the next version.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct DataVersion(pub(crate) u32);

impl DataVersion {
    /// The initial version, present before any task writes the datum.
    pub const INITIAL: DataVersion = DataVersion(0);

    /// Creates a version from a raw number.
    pub fn from_raw(raw: u32) -> Self {
        DataVersion(raw)
    }

    /// Returns the raw version number.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the next version.
    pub fn next(self) -> DataVersion {
        DataVersion(self.0 + 1)
    }

    /// Returns `true` if this is the initial version.
    pub fn is_initial(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for DataVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A concrete `(DataId, DataVersion)` pair: one immutable value in the
/// dataflow. This is the unit tracked by data managers and storage
/// backends.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct VersionedData {
    /// The logical datum.
    pub data: DataId,
    /// The version of the datum.
    pub version: DataVersion,
}

impl VersionedData {
    /// Creates a versioned-data reference.
    pub fn new(data: DataId, version: DataVersion) -> Self {
        VersionedData { data, version }
    }

    /// The initial version of a datum.
    pub fn initial(data: DataId) -> Self {
        VersionedData {
            data,
            version: DataVersion::INITIAL,
        }
    }
}

impl fmt::Display for VersionedData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.data, self.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_id_roundtrip() {
        let id = TaskId::from_raw(7);
        assert_eq!(id.as_u64(), 7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "t7");
    }

    #[test]
    fn data_id_roundtrip() {
        let id = DataId::from_raw(3);
        assert_eq!(id.as_u64(), 3);
        assert_eq!(id.to_string(), "d3");
    }

    #[test]
    fn version_ordering_and_next() {
        let v0 = DataVersion::INITIAL;
        assert!(v0.is_initial());
        let v1 = v0.next();
        assert!(!v1.is_initial());
        assert!(v0 < v1);
        assert_eq!(v1.as_u32(), 1);
    }

    #[test]
    fn versioned_data_display() {
        let vd = VersionedData::new(DataId::from_raw(2), DataVersion::from_raw(5));
        assert_eq!(vd.to_string(), "d2@v5");
        assert_eq!(
            VersionedData::initial(DataId::from_raw(2)).version,
            DataVersion::INITIAL
        );
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(TaskId::from_raw(1) < TaskId::from_raw(2));
        assert!(DataId::from_raw(0) < DataId::from_raw(9));
    }
}
