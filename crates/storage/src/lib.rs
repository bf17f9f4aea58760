//! Persistent storage for the `continuum` workflow environment.
//!
//! Implements the storage interface of the paper (§VI-A1): a **Storage
//! Object Interface** (SOI) offered to application programmers —
//! objects become persistent with [`PersistentObject::make_persistent`]
//! and are then accessed like regular values — and a **Storage Runtime
//! Interface** (SRI, the [`StorageRuntime`] trait) used by the runtime
//! to place data, query replica locations (`locations`, the paper's
//! `getLocations`) and exploit data locality when scheduling.
//!
//! Two backends implement the SRI, mirroring the BSC storage stack:
//!
//! * [`KvStore`] — a Hecuba-like partitioned, replicated key-value
//!   store (Python-dict-to-Cassandra-table in the paper; here a
//!   token-range partitioned map over storage nodes);
//! * [`ActiveStore`] — a dataClay-like *active* object store that also
//!   holds class methods and executes them inside the store node that
//!   owns the object, so only (small) results travel, not objects.
//!
//! A [`WriteAheadLog`] provides the persistence substrate the COMPSs
//! agents use to recover tasks lost on fog-node failures (§VI-B).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::await_holding_lock)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod active;
mod async_handle;
mod error;
mod interface;
mod kv;
mod wal;

pub use active::{ActiveStore, ClassDef, MethodFn, ShippingStats};
pub use async_handle::{AsyncStorage, StorageReply};
pub use error::StorageError;
pub use interface::{ObjectKey, PersistentObject, StorageRuntime, StoredValue};
pub use kv::{KvConfig, KvStats, KvStore};
pub use wal::{WalEntry, WriteAheadLog};
