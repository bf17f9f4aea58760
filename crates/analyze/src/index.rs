//! The per-datum index the dataflow passes share.

use continuum_dag::{DataId, TaskId, VersionedData};
use std::ops::Range;

/// One produced version of a datum.
#[derive(Clone, Copy)]
pub(crate) struct Produced {
    pub(crate) version: u32,
    pub(crate) task: TaskId,
    /// Some task consumes this version.
    consumed: bool,
}

/// Per-datum index of the versions the graph produces, in CSR form:
/// one slot per datum, each slot a run of [`Produced`] sorted by
/// `(version, task)`, plus whether the datum's initial value is
/// provided externally. The three dataflow passes read it instead of
/// each hashing every access again.
///
/// Slots are sized by the data the graph mentions, never by the
/// largest id: when the ids are dense (an access-processor graph) a
/// datum's slot is its id, otherwise the mentioned ids are sorted and
/// a datum's slot is its place among them.
pub(crate) struct DatumIndex {
    /// `Some(sorted distinct ids)` when slots are compacted.
    ids: Option<Vec<DataId>>,
    /// Slot `s` owns `entries[start[s]..start[s + 1]]`.
    start: Vec<u32>,
    entries: Vec<Produced>,
    /// Per slot.
    initial: Vec<bool>,
}

/// A direct table may have this many slots per mentioned access before
/// the ids count as sparse.
const DENSE_SLOTS_PER_ACCESS: usize = 4;

impl DatumIndex {
    pub(crate) fn build(
        produced: &[(VersionedData, TaskId)],
        consumed: &[(VersionedData, TaskId)],
    ) -> Self {
        let mentioned = || produced.iter().chain(consumed).map(|(vd, _)| vd.data);
        let accesses = produced.len() + consumed.len();
        let top = mentioned().max().map_or(0, DataId::index);
        let ids = if top / DENSE_SLOTS_PER_ACCESS <= accesses {
            None
        } else {
            let mut ids: Vec<DataId> = mentioned().collect();
            ids.sort_unstable();
            ids.dedup();
            Some(ids)
        };
        let slots = match &ids {
            Some(ids) => ids.len(),
            None if accesses == 0 => 0,
            None => top + 1,
        };
        let mut index = DatumIndex {
            ids,
            start: vec![0; slots + 1],
            entries: Vec::new(),
            initial: vec![false; slots],
        };
        // Counting sort by slot: sizes, offsets, then placement.
        for (vd, _) in produced {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: the slots are sized by, or the compacted ids are, exactly the data `produced` and `consumed` mention"
            )]
            let slot = index
                .slot(vd.data)
                .expect("every mentioned datum has a slot");
            index.start[slot + 1] += 1;
        }
        for s in 0..slots {
            index.start[s + 1] += index.start[s];
        }
        let filler = Produced {
            version: 0,
            task: TaskId::from_raw(0),
            consumed: false,
        };
        index.entries = vec![filler; produced.len()];
        let mut cursor = index.start.clone();
        for &(vd, task) in produced {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: as in the counting pass above"
            )]
            let slot = index
                .slot(vd.data)
                .expect("every mentioned datum has a slot");
            index.entries[cursor[slot] as usize] = Produced {
                version: vd.version.as_u32(),
                task,
                consumed: false,
            };
            cursor[slot] += 1;
        }
        // Access-processor graphs arrive sorted already (versions grow
        // with task ids).
        for s in 0..slots {
            let run = index.run(s);
            index.entries[run].sort_unstable_by_key(|p| (p.version, p.task));
        }
        index
    }

    /// Where slot `s` keeps its versions in `entries`.
    fn run(&self, s: usize) -> Range<usize> {
        self.start[s] as usize..self.start[s + 1] as usize
    }

    fn slot(&self, data: DataId) -> Option<usize> {
        match &self.ids {
            Some(ids) => ids.binary_search(&data).ok(),
            None => (data.index() < self.initial.len()).then(|| data.index()),
        }
    }

    /// The produced versions of `data`, sorted by `(version, task)`.
    fn versions(&self, data: DataId) -> &[Produced] {
        match self.slot(data) {
            Some(s) => &self.entries[self.run(s)],
            None => &[],
        }
    }

    pub(crate) fn mark_initial(&mut self, data: DataId) {
        if let Some(s) = self.slot(data) {
            self.initial[s] = true;
        }
    }

    pub(crate) fn is_initial(&self, data: DataId) -> bool {
        self.slot(data).is_some_and(|s| self.initial[s])
    }

    /// Marks every producer of `vd` as read; `false` if there is none.
    pub(crate) fn mark_consumed(&mut self, vd: VersionedData) -> bool {
        let Some(s) = self.slot(vd.data) else {
            return false;
        };
        let run = self.run(s);
        let run = &mut self.entries[run];
        let version = vd.version.as_u32();
        let first = run.partition_point(|p| p.version < version);
        let mut found = false;
        for p in run[first..].iter_mut().take_while(|p| p.version == version) {
            p.consumed = true;
            found = true;
        }
        found
    }

    /// Whether `vd` is produced, read by no task and superseded by a
    /// later version of its datum.
    pub(crate) fn is_dead(&self, vd: VersionedData) -> bool {
        let run = self.versions(vd.data);
        let version = vd.version.as_u32();
        let is_final = run.last().is_none_or(|last| last.version == version);
        !is_final
            && run[run.partition_point(|p| p.version < version)..]
                .first()
                .is_some_and(|p| p.version == version && !p.consumed)
    }

    /// Every datum with at least one produced version, ascending, with
    /// its versions.
    pub(crate) fn written(&self) -> impl Iterator<Item = (DataId, &[Produced])> {
        (0..self.initial.len()).filter_map(move |s| {
            let run = &self.entries[self.run(s)];
            let data = match &self.ids {
                Some(ids) => ids[s],
                None => DataId::from_raw(s as u64),
            };
            (!run.is_empty()).then_some((data, run))
        })
    }
}
