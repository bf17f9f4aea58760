//! The data registry: the one table of everything the engine knows
//! about each versioned datum.
//!
//! This is the runtime's data-management view: per [`VersionedData`],
//! the set of nodes holding a copy, its size, and whether the value was
//! persisted to the storage backend (which makes it survive node
//! failures — the recovery mechanism of §VI-B). The same record also
//! carries what the simulated engine needs for lineage and retirement —
//! the producing task, the materialized readers still pending and
//! whether the value was produced — so one probe per access answers
//! every question about a value.
//!
//! Placement queries are the hottest path of paper-scale simulations
//! (every scheduler probe asks "where does this input live?" for every
//! candidate node), so the registry keeps a **locality index**
//! alongside the records: replica sets are stored sorted in inline
//! small-vector storage (most data has ≤ 4 replicas, so probes touch
//! no heap at all), and per-node resident-byte totals are maintained
//! incrementally on every mutation, making [`DataRegistry::bytes_on`]
//! O(1) and [`DataRegistry::locations_iter`] allocation-free.

use continuum_dag::{InlineVec, TaskId, VersionedData};
use continuum_platform::NodeId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Whether a datum is additionally held by the persistent store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StorageResidency {
    /// Only on compute nodes; lost if all of them fail.
    #[default]
    VolatileOnly,
    /// Persisted: survives any number of node failures.
    Persisted,
}

/// Replicas rarely exceed a handful of nodes, so the set lives inline
/// until the fifth copy; it is kept sorted ascending so membership is
/// a short search and iteration order is deterministic.
type ReplicaSet = InlineVec<NodeId, 4>;

/// Hasher for keys made of dense ids (a [`VersionedData`] is a `u64`
/// and a `u32`): one multiply per field, high half folded into the low
/// half at the end. The keys are issued by this program, so the
/// collision resistance of the default SipHash buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Everything known about one value. A record exists from the moment
/// the engine first hears of the value (its producer or a reader is
/// materialized) but only counts as *placed* — visible to placement
/// queries and to [`DataRegistry::len`] — once it was registered as
/// initial data or produced on a node.
#[derive(Debug, Clone, Default)]
pub(crate) struct ValueRecord {
    bytes: u64,
    replicas: ReplicaSet,
    /// The task that produces this value, once it is materialized.
    producer: Option<TaskId>,
    /// Materialized readers that have not completed yet (lazy runs).
    pending_readers: u32,
    placed: bool,
    /// Staged everywhere (initial data without a pinned home).
    ubiquitous: bool,
    residency: StorageResidency,
    /// The producing task completed in this run (lazy runs).
    produced: bool,
}

impl ValueRecord {
    /// Size in bytes (0 until placed).
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Live replica locations, ascending.
    pub(crate) fn replicas(&self) -> &[NodeId] {
        &self.replicas
    }

    /// Registered as initial data or produced at least once.
    pub(crate) fn is_placed(&self) -> bool {
        self.placed
    }

    /// Staged everywhere.
    pub(crate) fn is_ubiquitous(&self) -> bool {
        self.ubiquitous
    }

    /// A copy exists on `node` (or the value is staged everywhere).
    pub(crate) fn is_on(&self, node: NodeId) -> bool {
        self.ubiquitous || self.replicas.binary_search(&node).is_ok()
    }

    /// Readable from somewhere: a node copy, ubiquitous staging, or
    /// the persistent store.
    pub(crate) fn is_available(&self) -> bool {
        self.ubiquitous
            || !self.replicas.is_empty()
            || self.residency == StorageResidency::Persisted
    }

    /// The producing task, if materialized.
    pub(crate) fn producer(&self) -> Option<TaskId> {
        self.producer
    }
}

/// A liveness update applied by [`DataRegistry::settle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Settle {
    /// The producing task completed.
    Produced,
    /// One materialized reader completed.
    ReaderDone,
    /// Nothing changed on the value itself (its datum was closed).
    Closed,
}

/// Registry of versioned data placement.
#[derive(Debug, Clone, Default)]
pub struct DataRegistry {
    entries: HashMap<VersionedData, ValueRecord, BuildHasherDefault<IdHasher>>,
    /// Records that are placed (see [`ValueRecord`]).
    placed: usize,
    /// Locality index: resident bytes per node (indexed by
    /// [`NodeId::index`]), maintained incrementally on every replica
    /// mutation so `bytes_on` never scans the entries.
    node_bytes: Vec<u64>,
}

fn add_node_bytes(node_bytes: &mut Vec<u64>, node: NodeId, bytes: u64) {
    let idx = node.index();
    if idx >= node_bytes.len() {
        node_bytes.resize(idx + 1, 0);
    }
    node_bytes[idx] += bytes;
}

fn sub_node_bytes(node_bytes: &mut [u64], node: NodeId, bytes: u64) {
    if let Some(total) = node_bytes.get_mut(node.index()) {
        *total -= bytes;
    }
}

impl DataRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records production of a datum on a node.
    pub fn record_production(&mut self, vd: VersionedData, node: NodeId, bytes: u64) {
        let rec = self.entries.entry(vd).or_default();
        if !rec.placed {
            rec.placed = true;
            self.placed += 1;
        }
        let old_bytes = std::mem::replace(&mut rec.bytes, bytes);
        let inserted = rec.replicas.insert_sorted(node);
        // Reconcile the index: existing replicas were accounted at the
        // old size, and the producing node gains a copy at the new one.
        if old_bytes != bytes {
            for &holder in rec.replicas.iter().filter(|&&r| !(inserted && r == node)) {
                sub_node_bytes(&mut self.node_bytes, holder, old_bytes);
                add_node_bytes(&mut self.node_bytes, holder, bytes);
            }
        }
        if inserted {
            add_node_bytes(&mut self.node_bytes, node, bytes);
        }
    }

    /// Registers an initial datum pinned to a home node (staged
    /// everywhere without one), replacing whatever was known about it.
    pub fn record_initial(&mut self, vd: VersionedData, home: Option<NodeId>, bytes: u64) {
        let rec = self.entries.entry(vd).or_default();
        for &node in rec.replicas.iter() {
            sub_node_bytes(&mut self.node_bytes, node, rec.bytes);
        }
        if !rec.placed {
            self.placed += 1;
        }
        *rec = ValueRecord {
            bytes,
            placed: true,
            ubiquitous: home.is_none(),
            ..ValueRecord::default()
        };
        if let Some(h) = home {
            rec.replicas.push(h);
            add_node_bytes(&mut self.node_bytes, h, bytes);
        }
    }

    /// Adds a replica after a transfer.
    pub fn add_replica(&mut self, vd: VersionedData, node: NodeId) {
        if let Some(rec) = self.entries.get_mut(&vd).filter(|r| r.placed) {
            if rec.replicas.insert_sorted(node) {
                add_node_bytes(&mut self.node_bytes, node, rec.bytes);
            }
        }
    }

    /// Marks a datum as persisted to storage.
    pub fn persist(&mut self, vd: VersionedData) {
        if let Some(rec) = self.entries.get_mut(&vd).filter(|r| r.placed) {
            rec.residency = StorageResidency::Persisted;
        }
    }

    /// The record of a value, placed or not: one probe for callers
    /// that need several facts about it.
    pub(crate) fn get(&self, vd: VersionedData) -> Option<&ValueRecord> {
        self.entries.get(&vd)
    }

    /// Whether the datum is persisted.
    pub fn is_persisted(&self, vd: VersionedData) -> bool {
        self.get(vd)
            .is_some_and(|r| r.residency == StorageResidency::Persisted)
    }

    /// Size of a datum in bytes (0 if unknown).
    pub fn size_of(&self, vd: VersionedData) -> u64 {
        self.get(vd).map_or(0, ValueRecord::bytes)
    }

    /// Returns `true` if the datum was registered as initial data or
    /// produced.
    pub fn is_known(&self, vd: VersionedData) -> bool {
        self.get(vd).is_some_and(ValueRecord::is_placed)
    }

    /// Returns `true` if a copy exists on the given node (or the datum
    /// is staged everywhere).
    pub fn is_on(&self, vd: VersionedData, node: NodeId) -> bool {
        self.get(vd).is_some_and(|r| r.is_on(node))
    }

    /// Returns `true` if the datum can be read from somewhere: a node
    /// copy, ubiquitous staging, or the persistent store.
    pub fn is_available(&self, vd: VersionedData) -> bool {
        self.get(vd).is_some_and(ValueRecord::is_available)
    }

    /// Live replica locations (empty for ubiquitous or storage-only
    /// data, which are readable anywhere). Allocates; hot paths should
    /// prefer [`DataRegistry::locations_iter`].
    pub fn locations(&self, vd: VersionedData) -> Vec<NodeId> {
        self.locations_slice(vd).to_vec()
    }

    /// Live replica locations as a sorted slice — the allocation-free
    /// view used by the placement hot path.
    pub fn locations_slice(&self, vd: VersionedData) -> &[NodeId] {
        self.get(vd).map_or(&[], ValueRecord::replicas)
    }

    /// Iterates live replica locations in ascending node order without
    /// allocating.
    pub fn locations_iter(&self, vd: VersionedData) -> impl Iterator<Item = NodeId> + '_ {
        self.locations_slice(vd).iter().copied()
    }

    /// Number of live replicas.
    pub fn replica_count(&self, vd: VersionedData) -> usize {
        self.locations_slice(vd).len()
    }

    /// Returns `true` if the datum is staged everywhere.
    pub fn is_ubiquitous(&self, vd: VersionedData) -> bool {
        self.get(vd).is_some_and(ValueRecord::is_ubiquitous)
    }

    /// Removes a failed node from all location sets. Returns the data
    /// that lost their **last** copy and are not persisted (i.e. truly
    /// lost values that need lineage recovery), in ascending order —
    /// the table itself iterates in no particular order, and callers
    /// act on the result.
    pub fn drop_node(&mut self, node: NodeId) -> Vec<VersionedData> {
        let mut lost = Vec::new();
        for (vd, rec) in self.entries.iter_mut() {
            if rec.replicas.remove_sorted(&node) && !rec.is_available() {
                lost.push(*vd);
            }
        }
        // Everything the node held is gone with it.
        if let Some(total) = self.node_bytes.get_mut(node.index()) {
            *total = 0;
        }
        lost.sort_unstable();
        lost
    }

    fn forget(&mut self, rec: &ValueRecord) {
        for &node in rec.replicas.iter() {
            sub_node_bytes(&mut self.node_bytes, node, rec.bytes);
        }
        self.placed -= usize::from(rec.placed);
    }

    /// Retires a datum whose consumers are all finished: drops the
    /// record and de-accounts every replica from the locality index.
    /// Returns `true` if the datum was known. Lazily-materialized
    /// runs retire a value once the graph source closed the datum and
    /// all materialized readers completed, bounding registry memory by
    /// the live frontier.
    pub fn retire(&mut self, vd: VersionedData) -> bool {
        let Some(rec) = self.entries.remove(&vd) else {
            return false;
        };
        self.forget(&rec);
        rec.placed
    }

    /// Records the task producing `vd` (lineage replays and producer
    /// retirement look it up here).
    pub(crate) fn set_producer(&mut self, vd: VersionedData, task: TaskId) {
        self.entries.entry(vd).or_default().producer = Some(task);
    }

    /// Counts one more materialized reader of `vd`.
    pub(crate) fn add_reader(&mut self, vd: VersionedData) {
        self.entries.entry(vd).or_default().pending_readers += 1;
    }

    /// Applies a liveness update to `vd` and retires it — exactly as
    /// [`DataRegistry::retire`] does — if it is now drained: produced,
    /// no materialized reader pending, and `closed` (the graph source
    /// declared that no future task reads the datum). Returns the
    /// retired value's producer (`Some(None)` for initial data), or
    /// `None` while the value lives on or is not tracked.
    pub(crate) fn settle(
        &mut self,
        vd: VersionedData,
        update: Settle,
        closed: bool,
    ) -> Option<Option<TaskId>> {
        let Entry::Occupied(mut entry) = self.entries.entry(vd) else {
            return None;
        };
        let rec = entry.get_mut();
        match update {
            Settle::Produced => rec.produced = true,
            Settle::ReaderDone => rec.pending_readers = rec.pending_readers.saturating_sub(1),
            Settle::Closed => {}
        }
        if !(closed && rec.produced && rec.pending_readers == 0) {
            return None;
        }
        let rec = entry.remove();
        self.forget(&rec);
        Some(rec.producer)
    }

    /// Bytes of data resident on a node: an O(1) read of the locality
    /// index.
    pub fn bytes_on(&self, node: NodeId) -> u64 {
        self.node_bytes.get(node.index()).copied().unwrap_or(0)
    }

    /// Number of placed data.
    pub fn len(&self) -> usize {
        self.placed
    }

    /// Returns `true` if no data are placed.
    pub fn is_empty(&self) -> bool {
        self.placed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_dag::{DataId, DataVersion};

    fn vd(d: u64, v: u32) -> VersionedData {
        VersionedData::new(DataId::from_raw(d), DataVersion::from_raw(v))
    }

    fn n(i: u32) -> NodeId {
        NodeId::from_raw(i)
    }

    #[test]
    fn production_and_replicas() {
        let mut r = DataRegistry::new();
        r.record_production(vd(0, 1), n(0), 100);
        assert!(r.is_on(vd(0, 1), n(0)));
        assert!(!r.is_on(vd(0, 1), n(1)));
        assert_eq!(r.size_of(vd(0, 1)), 100);
        r.add_replica(vd(0, 1), n(1));
        assert!(r.is_on(vd(0, 1), n(1)));
        let mut locs = r.locations(vd(0, 1));
        locs.sort();
        assert_eq!(locs, vec![n(0), n(1)]);
    }

    #[test]
    fn ubiquitous_initial_data() {
        let mut r = DataRegistry::new();
        r.record_initial(vd(0, 0), None, 50);
        assert!(r.is_on(vd(0, 0), n(7)));
        assert!(r.is_available(vd(0, 0)));
        assert!(r.is_ubiquitous(vd(0, 0)));
        assert!(r.locations(vd(0, 0)).is_empty());
    }

    #[test]
    fn pinned_initial_data() {
        let mut r = DataRegistry::new();
        r.record_initial(vd(0, 0), Some(n(2)), 50);
        assert!(r.is_on(vd(0, 0), n(2)));
        assert!(!r.is_on(vd(0, 0), n(0)));
        assert!(!r.is_ubiquitous(vd(0, 0)));
    }

    #[test]
    fn drop_node_reports_truly_lost_data() {
        let mut r = DataRegistry::new();
        // Lost: single copy on n0.
        r.record_production(vd(0, 1), n(0), 10);
        // Safe: replicated on n1.
        r.record_production(vd(1, 1), n(0), 10);
        r.add_replica(vd(1, 1), n(1));
        // Safe: persisted.
        r.record_production(vd(2, 1), n(0), 10);
        r.persist(vd(2, 1));
        // Safe: ubiquitous initial.
        r.record_initial(vd(3, 0), None, 10);
        let lost = r.drop_node(n(0));
        assert_eq!(lost, vec![vd(0, 1)]);
        assert!(!r.is_available(vd(0, 1)));
        assert!(r.is_available(vd(1, 1)));
        assert!(r.is_available(vd(2, 1)));
        assert!(r.is_available(vd(3, 0)));
    }

    #[test]
    fn persisted_flag() {
        let mut r = DataRegistry::new();
        r.record_production(vd(0, 1), n(0), 10);
        assert!(!r.is_persisted(vd(0, 1)));
        r.persist(vd(0, 1));
        assert!(r.is_persisted(vd(0, 1)));
    }

    #[test]
    fn unknown_data_queries() {
        let r = DataRegistry::new();
        assert!(!r.is_known(vd(9, 9)));
        assert!(!r.is_available(vd(9, 9)));
        assert!(!r.is_on(vd(9, 9), n(0)));
        assert_eq!(r.size_of(vd(9, 9)), 0);
        assert!(r.is_empty());
        assert_eq!(r.locations_iter(vd(9, 9)).count(), 0);
    }

    #[test]
    fn bytes_on_node() {
        let mut r = DataRegistry::new();
        r.record_production(vd(0, 1), n(0), 100);
        r.record_production(vd(1, 1), n(0), 50);
        r.record_production(vd(2, 1), n(1), 70);
        assert_eq!(r.bytes_on(n(0)), 150);
        assert_eq!(r.bytes_on(n(1)), 70);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn reproduction_after_loss_restores_availability() {
        let mut r = DataRegistry::new();
        r.record_production(vd(0, 1), n(0), 10);
        let lost = r.drop_node(n(0));
        assert_eq!(lost.len(), 1);
        r.record_production(vd(0, 1), n(1), 10);
        assert!(r.is_available(vd(0, 1)));
        assert!(r.is_on(vd(0, 1), n(1)));
    }

    #[test]
    fn replica_set_spills_inline_to_heap_and_stays_sorted() {
        let mut r = DataRegistry::new();
        r.record_production(vd(0, 1), n(5), 10);
        // Insert out of order, past the inline capacity of 4.
        for i in [3u32, 9, 1, 7, 0, 4] {
            r.add_replica(vd(0, 1), n(i));
        }
        let locs: Vec<usize> = r.locations_iter(vd(0, 1)).map(|x| x.index()).collect();
        assert_eq!(locs, vec![0, 1, 3, 4, 5, 7, 9]);
        assert_eq!(r.replica_count(vd(0, 1)), 7);
        // Duplicate insertion is a no-op on both set and index.
        let before = r.bytes_on(n(5));
        r.add_replica(vd(0, 1), n(5));
        assert_eq!(r.bytes_on(n(5)), before);
    }

    #[test]
    fn retire_removes_entry_and_index_bytes() {
        let mut r = DataRegistry::new();
        r.record_production(vd(0, 1), n(0), 100);
        r.add_replica(vd(0, 1), n(1));
        r.record_production(vd(1, 1), n(0), 30);
        assert!(r.retire(vd(0, 1)));
        assert!(!r.is_known(vd(0, 1)));
        assert_eq!(r.bytes_on(n(0)), 30);
        assert_eq!(r.bytes_on(n(1)), 0);
        assert_eq!(r.len(), 1);
        assert!(!r.retire(vd(0, 1)), "second retire is a no-op");
    }

    /// The incremental locality index must always agree with a naive
    /// recomputation over the entries, across every mutation kind.
    #[test]
    fn locality_index_matches_naive_recomputation() {
        let naive = |r: &DataRegistry, node: NodeId| -> u64 {
            r.entries
                .values()
                .filter(|e| e.replicas.contains(&node))
                .map(|e| e.bytes)
                .sum()
        };
        let check = |r: &DataRegistry| {
            for i in 0..12u32 {
                assert_eq!(r.bytes_on(n(i)), naive(r, n(i)), "node {i}");
            }
        };
        let mut r = DataRegistry::new();
        // A deterministic pseudo-random mutation schedule.
        let mut state = 0x9e3779b9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for step in 0..400 {
            let datum = vd(u64::from(next() % 20), 1);
            let node = n(next() % 10);
            match next() % 6 {
                0 => r.record_production(datum, node, u64::from(next() % 500)),
                1 => r.add_replica(datum, node),
                2 => r.record_initial(datum, Some(node), u64::from(next() % 500)),
                3 => r.record_initial(datum, None, u64::from(next() % 500)),
                4 => {
                    let _ = r.drop_node(node);
                }
                _ => r.persist(datum),
            }
            if step % 7 == 0 {
                check(&r);
            }
        }
        check(&r);
    }
}
