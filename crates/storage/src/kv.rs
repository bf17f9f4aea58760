//! Hecuba-like partitioned, replicated key-value store.
//!
//! Keys are hash-partitioned over a set of storage nodes (the
//! "token-range" scheme of Cassandra/ScyllaDB that Hecuba maps Python
//! dictionaries onto) with R-way replication on successor nodes. The
//! runtime consumes [`KvStore::locations`] (the SRI `getLocations`) to
//! schedule tasks next to their data.

use crate::error::StorageError;
use crate::interface::{ObjectKey, StorageRuntime, StoredValue};
use continuum_platform::NodeId;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// Configuration of a [`KvStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvConfig {
    /// Number of replicas per key (including the primary).
    pub replication: usize,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig { replication: 2 }
    }
}

/// Operation counters of a [`KvStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvStats {
    /// Successful `put` operations.
    pub puts: u64,
    /// Successful `get` operations.
    pub gets: u64,
    /// Bytes written (payload × replicas).
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
}

#[derive(Debug)]
struct Entry {
    value: StoredValue,
    replicas: Vec<NodeId>,
}

#[derive(Debug, Default)]
struct Inner {
    data: HashMap<ObjectKey, Entry>,
    down: HashSet<NodeId>,
    stats: KvStats,
    bytes_per_node: HashMap<NodeId, u64>,
}

/// A partitioned, replicated in-process key-value store deployed over a
/// set of platform nodes.
///
/// # Example
///
/// ```
/// use continuum_storage::{KvStore, KvConfig, ObjectKey, StoredValue, StorageRuntime};
/// use continuum_platform::NodeId;
///
/// let nodes: Vec<NodeId> = (0..4).map(NodeId::from_raw).collect();
/// let store = KvStore::new(nodes, KvConfig { replication: 2 })?;
/// let replicas = store.put("table:row1".into(), StoredValue::blob(vec![7; 64]), None)?;
/// assert_eq!(replicas.len(), 2);
/// assert_eq!(store.locations(&"table:row1".into())?, replicas);
/// # Ok::<(), continuum_storage::StorageError>(())
/// ```
#[derive(Debug)]
pub struct KvStore {
    nodes: Vec<NodeId>,
    config: KvConfig,
    inner: Mutex<Inner>,
}

impl KvStore {
    /// Creates a store over the given storage nodes.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidConfig`] if no nodes are given or
    /// the replication factor is zero or exceeds the node count.
    pub fn new(nodes: Vec<NodeId>, config: KvConfig) -> Result<Self, StorageError> {
        if nodes.is_empty() {
            return Err(StorageError::InvalidConfig(
                "store needs at least one node".into(),
            ));
        }
        if config.replication == 0 || config.replication > nodes.len() {
            return Err(StorageError::InvalidConfig(format!(
                "replication {} not in 1..={}",
                config.replication,
                nodes.len()
            )));
        }
        Ok(KvStore {
            nodes,
            config,
            inner: Mutex::new(Inner::default()),
        })
    }

    /// The storage nodes this store is deployed on.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The replication factor.
    pub fn replication(&self) -> usize {
        self.config.replication
    }

    /// Marks a storage node as failed: its replicas become unavailable
    /// until [`KvStore::recover_node`] (data is retained, as on disk).
    pub fn fail_node(&self, node: NodeId) {
        self.inner.lock().down.insert(node);
    }

    /// Brings a failed node back; its replicas become readable again.
    pub fn recover_node(&self, node: NodeId) {
        self.inner.lock().down.remove(&node);
    }

    /// Permanently erases a node's replicas (disk loss). Keys whose
    /// replicas all lived there become unreadable.
    pub fn wipe_node(&self, node: NodeId) {
        let mut inner = self.inner.lock();
        inner.bytes_per_node.remove(&node);
        for entry in inner.data.values_mut() {
            entry.replicas.retain(|r| *r != node);
        }
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> KvStats {
        self.inner.lock().stats
    }

    /// Bytes currently attributed to each node.
    pub fn bytes_on(&self, node: NodeId) -> u64 {
        *self.inner.lock().bytes_per_node.get(&node).unwrap_or(&0)
    }

    /// Number of keys stored (including currently unreachable ones).
    pub fn len(&self) -> usize {
        self.inner.lock().data.len()
    }

    /// Returns `true` if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn primary_index(&self, key: &ObjectKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.nodes.len() as u64) as usize
    }

    /// The replica set a key maps to, given current node liveness and a
    /// placement hint. The hint — if it names a live storage node —
    /// becomes the primary, so producers can co-locate outputs.
    fn place(&self, inner: &Inner, key: &ObjectKey, hint: Option<NodeId>) -> Vec<NodeId> {
        let start = hint
            .filter(|h| !inner.down.contains(h))
            .and_then(|h| self.nodes.iter().position(|n| *n == h))
            .unwrap_or_else(|| self.primary_index(key));
        let mut replicas = Vec::with_capacity(self.config.replication);
        let n = self.nodes.len();
        for off in 0..n {
            let candidate = self.nodes[(start + off) % n];
            if !inner.down.contains(&candidate) {
                replicas.push(candidate);
                if replicas.len() == self.config.replication {
                    break;
                }
            }
        }
        // If fewer live nodes than the replication factor, store on
        // whatever is alive (degraded but available), matching the
        // availability-first behaviour of Cassandra with ANY/ONE.
        replicas
    }
}

impl StorageRuntime for KvStore {
    fn put(
        &self,
        key: ObjectKey,
        value: StoredValue,
        hint: Option<NodeId>,
    ) -> Result<Vec<NodeId>, StorageError> {
        let mut inner = self.inner.lock();
        let replicas = self.place(&inner, &key, hint);
        if replicas.is_empty() {
            return Err(StorageError::InvalidConfig("no live storage nodes".into()));
        }
        let size = value.size() as u64;
        inner.stats.puts += 1;
        inner.stats.bytes_written += size * replicas.len() as u64;
        for r in &replicas {
            *inner.bytes_per_node.entry(*r).or_insert(0) += size;
        }
        if let Some(old) = inner.data.insert(
            key,
            Entry {
                value,
                replicas: replicas.clone(),
            },
        ) {
            let old_size = old.value.size() as u64;
            for r in &old.replicas {
                if let Some(b) = inner.bytes_per_node.get_mut(r) {
                    *b = b.saturating_sub(old_size);
                }
            }
        }
        Ok(replicas)
    }

    fn get(&self, key: &ObjectKey) -> Result<StoredValue, StorageError> {
        let mut inner = self.inner.lock();
        let entry = inner
            .data
            .get(key)
            .ok_or_else(|| StorageError::NotFound(key.clone()))?;
        let live = entry.replicas.iter().any(|r| !inner.down.contains(r));
        if !live {
            return Err(StorageError::AllReplicasDown(key.clone()));
        }
        let value = entry.value.clone();
        inner.stats.gets += 1;
        inner.stats.bytes_read += value.size() as u64;
        Ok(value)
    }

    fn locations(&self, key: &ObjectKey) -> Result<Vec<NodeId>, StorageError> {
        let inner = self.inner.lock();
        let entry = inner
            .data
            .get(key)
            .ok_or_else(|| StorageError::NotFound(key.clone()))?;
        Ok(entry
            .replicas
            .iter()
            .filter(|r| !inner.down.contains(r))
            .copied()
            .collect())
    }

    fn delete(&self, key: &ObjectKey) {
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.data.remove(key) {
            let size = entry.value.size() as u64;
            for r in &entry.replicas {
                if let Some(b) = inner.bytes_per_node.get_mut(r) {
                    *b = b.saturating_sub(size);
                }
            }
        }
    }

    fn contains(&self, key: &ObjectKey) -> bool {
        let inner = self.inner.lock();
        inner
            .data
            .get(key)
            .is_some_and(|e| e.replicas.iter().any(|r| !inner.down.contains(r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(n: usize, r: usize) -> KvStore {
        KvStore::new(
            (0..n as u32).map(NodeId::from_raw).collect(),
            KvConfig { replication: r },
        )
        .unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store(4, 2);
        s.put("a".into(), StoredValue::blob(vec![1, 2, 3]), None)
            .unwrap();
        let v = s.get(&"a".into()).unwrap();
        assert_eq!(&v.payload[..], &[1, 2, 3]);
        assert!(s.contains(&"a".into()));
        assert!(!s.contains(&"b".into()));
    }

    #[test]
    fn replication_factor_respected() {
        let s = store(5, 3);
        let reps = s
            .put("k".into(), StoredValue::blob(vec![0; 8]), None)
            .unwrap();
        assert_eq!(reps.len(), 3);
        let unique: HashSet<_> = reps.iter().collect();
        assert_eq!(unique.len(), 3, "replicas are distinct nodes");
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(KvStore::new(vec![], KvConfig { replication: 1 }).is_err());
        assert!(store_result(2, 0).is_err());
        assert!(store_result(2, 3).is_err());
    }

    fn store_result(n: usize, r: usize) -> Result<KvStore, StorageError> {
        KvStore::new(
            (0..n as u32).map(NodeId::from_raw).collect(),
            KvConfig { replication: r },
        )
    }

    #[test]
    fn hint_places_primary_locally() {
        let s = store(4, 2);
        let hint = NodeId::from_raw(2);
        let reps = s
            .put("k".into(), StoredValue::blob(vec![0; 4]), Some(hint))
            .unwrap();
        assert_eq!(reps[0], hint, "hinted node becomes the primary");
    }

    #[test]
    fn down_hint_ignored() {
        let s = store(4, 1);
        let hint = NodeId::from_raw(2);
        s.fail_node(hint);
        let reps = s
            .put("k".into(), StoredValue::blob(vec![0; 4]), Some(hint))
            .unwrap();
        assert_ne!(reps[0], hint);
    }

    #[test]
    fn survives_single_node_failure_with_r2() {
        let s = store(4, 2);
        let reps = s
            .put("k".into(), StoredValue::blob(vec![9; 16]), None)
            .unwrap();
        s.fail_node(reps[0]);
        assert!(s.contains(&"k".into()));
        assert_eq!(s.get(&"k".into()).unwrap().payload.len(), 16);
        let locs = s.locations(&"k".into()).unwrap();
        assert_eq!(locs, vec![reps[1]]);
    }

    #[test]
    fn unavailable_when_all_replicas_down() {
        let s = store(3, 2);
        let reps = s.put("k".into(), StoredValue::blob(vec![1]), None).unwrap();
        for r in &reps {
            s.fail_node(*r);
        }
        assert_eq!(
            s.get(&"k".into()).unwrap_err(),
            StorageError::AllReplicasDown("k".into())
        );
        assert!(!s.contains(&"k".into()));
        // Recovery restores availability.
        s.recover_node(reps[0]);
        assert!(s.get(&"k".into()).is_ok());
    }

    #[test]
    fn wipe_node_loses_solo_replicas() {
        let s = store(2, 1);
        let reps = s.put("k".into(), StoredValue::blob(vec![1]), None).unwrap();
        s.wipe_node(reps[0]);
        let locs = s.locations(&"k".into()).unwrap();
        assert!(locs.is_empty());
    }

    #[test]
    fn stats_and_byte_accounting() {
        let s = store(2, 2);
        s.put("k".into(), StoredValue::blob(vec![0; 100]), None)
            .unwrap();
        s.get(&"k".into()).unwrap();
        let st = s.stats();
        assert_eq!(st.puts, 1);
        assert_eq!(st.gets, 1);
        assert_eq!(st.bytes_written, 200, "payload × 2 replicas");
        assert_eq!(st.bytes_read, 100);
        let total: u64 = s.nodes().iter().map(|n| s.bytes_on(*n)).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn overwrite_replaces_accounting() {
        let s = store(2, 1);
        s.put("k".into(), StoredValue::blob(vec![0; 100]), None)
            .unwrap();
        s.put("k".into(), StoredValue::blob(vec![0; 10]), None)
            .unwrap();
        let total: u64 = s.nodes().iter().map(|n| s.bytes_on(*n)).sum();
        assert_eq!(total, 10);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn delete_is_idempotent() {
        let s = store(2, 1);
        s.put("k".into(), StoredValue::blob(vec![1]), None).unwrap();
        s.delete(&"k".into());
        s.delete(&"k".into());
        assert!(s.is_empty());
        assert!(s.get(&"k".into()).is_err());
    }

    #[test]
    fn placement_is_deterministic() {
        let s1 = store(8, 3);
        let s2 = store(8, 3);
        for i in 0..32 {
            let k: ObjectKey = format!("key{i}").into();
            let r1 = s1.put(k.clone(), StoredValue::blob(vec![0]), None).unwrap();
            let r2 = s2.put(k, StoredValue::blob(vec![0]), None).unwrap();
            assert_eq!(r1, r2);
        }
    }

    #[test]
    fn keys_spread_over_nodes() {
        let s = store(4, 1);
        for i in 0..64 {
            s.put(
                format!("key{i}").into(),
                StoredValue::blob(vec![0; 10]),
                None,
            )
            .unwrap();
        }
        let populated = s.nodes().iter().filter(|n| s.bytes_on(**n) > 0).count();
        assert!(populated >= 3, "hash partitioning should use most nodes");
    }
}
