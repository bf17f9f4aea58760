//! The access processor: dependency detection through data versioning.

use crate::error::DagError;
use crate::graph::TaskGraph;
use crate::ids::{DataId, DataVersion, TaskId, VersionedData};
use crate::inline_vec::InlineVec;
use crate::param::{Param, StreamRole};
use crate::seg_vec::{Retired, SegVec, SEGMENT_SLOTS};
use crate::spec::TaskSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// The producer and version currently associated with a datum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VersionInfo {
    /// Current version of the datum.
    pub version: DataVersion,
    /// Task that produced the current version, or `None` if it is the
    /// initial, externally-provided value.
    pub producer: Option<TaskId>,
}

impl VersionInfo {
    fn initial() -> Self {
        VersionInfo {
            version: DataVersion::INITIAL,
            producer: None,
        }
    }
}

/// Which dependency discipline a datum is accessed through. A datum is
/// either a renamed whole value or a channel of elements, never both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Discipline {
    /// No task has accessed the datum yet.
    Untouched,
    /// Accessed through `In`/`Out`/`InOut` at least once.
    Versioned,
    /// Accessed as a stream at least once.
    Stream,
}

/// Everything the catalog knows about one datum.
#[derive(Debug, Clone, Copy)]
struct DataSlot {
    /// Byte range of the name in its segment's arena.
    name: (u32, u32),
    current: VersionInfo,
    discipline: Discipline,
}

/// Registry of logical data known to an [`AccessProcessor`].
///
/// One slot per datum in a [`SegVec`], names appended to one string
/// arena per slot segment — registering a datum allocates nothing
/// beyond the arena's own growth. A segment gives up its slots and
/// its arena once all but a few of its data were
/// [retired](DataCatalog::retire_name); the names of those few move to
/// an arena just their size.
#[derive(Debug, Clone, Default)]
pub struct DataCatalog {
    slots: SegVec<DataSlot>,
    /// Name bytes of each slot segment; of an evacuated segment, the
    /// names of the data that survived it.
    arenas: Vec<String>,
    /// Arenas that dropped or evacuated segments left behind, at most
    /// [`SPARE_ARENAS`], reused by the next segments.
    spare_arenas: Vec<String>,
}

/// Emptied name arenas a [`DataCatalog`] keeps for its next segments.
/// A slot block is allocated once, at its final size; an arena grows
/// by doubling — twelve reallocations to hold 1 024 GWAS names — and
/// segments go in bursts (a GWAS chromosome's six data segments when
/// its merge completes), so with one arena kept most are grown again.
/// Allocations of the benchmark's `gwas_sim` run, 3 178 before
/// segments were evacuated: 3 348 with one kept, 3 108 with two,
/// 2 652 with four, 2 245 with eight, at 13 KB apiece.
const SPARE_ARENAS: usize = 4;

impl DataCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new logical datum and returns its id.
    pub fn new_data(&mut self, name: impl AsRef<str>) -> DataId {
        self.push_named(|arena| arena.push_str(name.as_ref()))
    }

    /// Registers a new logical datum whose name is formatted straight
    /// into the catalog's arena (no temporary `String`).
    pub fn new_data_fmt(&mut self, name: fmt::Arguments<'_>) -> DataId {
        self.push_named(|arena| {
            arena
                .write_fmt(name)
                .expect("formatting into a String cannot fail")
        })
    }

    fn push_named(&mut self, write_name: impl FnOnce(&mut String)) -> DataId {
        let id = self.slots.len();
        let segment = id / SEGMENT_SLOTS;
        if segment == self.arenas.len() {
            self.arenas
                .push(self.spare_arenas.pop().unwrap_or_default());
        }
        let arena = &mut self.arenas[segment];
        let start = arena.len() as u32;
        write_name(arena);
        self.slots.push(DataSlot {
            name: (start, arena.len() as u32),
            current: VersionInfo::initial(),
            discipline: Discipline::Untouched,
        });
        DataId(id as u64)
    }

    /// Number of data ids issued (retired data included).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no data have been registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn slot(&self, data: DataId) -> Result<&DataSlot, DagError> {
        self.slots
            .get(data.index())
            .ok_or(DagError::UnknownData(data))
    }

    fn slot_mut(&mut self, data: DataId) -> Result<&mut DataSlot, DagError> {
        self.slots
            .get_mut(data.index())
            .ok_or(DagError::UnknownData(data))
    }

    /// The human-readable name of a datum (`""` once retired).
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownData`] if the id is not registered,
    /// or was retired and its segment dropped or evacuated since.
    pub fn name(&self, data: DataId) -> Result<&str, DagError> {
        let slot = self.slot(data)?;
        if self.slots.is_retired(data.index()) {
            return Ok("");
        }
        let (start, end) = slot.name;
        Ok(&self.arenas[data.index() / SEGMENT_SLOTS][start as usize..end as usize])
    }

    /// The current version/producer of a datum.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownData`] if the id is not registered
    /// or was retired and its segment dropped or evacuated since.
    pub fn current(&self, data: DataId) -> Result<VersionInfo, DagError> {
        self.slot(data).map(|s| s.current)
    }

    /// Retires a datum: its name reads as `""` from now on and its
    /// slot is marked retired (see [`SegVec::retire`]). The id stays
    /// valid while its segment is resident; a segment down to a few
    /// live data is evacuated — slots and names — and dropped with the
    /// last of them. The result says which happened, so the caller
    /// can make the columns it keeps beside the catalog
    /// [follow](SegVec::follow). Used by lazily-materialized runs once
    /// a datum is closed and all its versions are retired. Retiring
    /// twice is a no-op.
    pub fn retire_name(&mut self, data: DataId) -> Retired {
        let outcome = self.slots.retire(data.index());
        match &outcome {
            Retired::Nothing => {}
            // What is left of the segment's names goes with it.
            Retired::Dropped(segment) => self.arenas[*segment] = String::new(),
            Retired::Evacuated { segment, survivors } => {
                // The survivors' names leave the arena with them, for
                // one just their size.
                let arena = &self.arenas[*segment];
                let bytes = survivors.iter().map(|&index| {
                    let (start, end) = self.slots[index].name;
                    (end - start) as usize
                });
                let mut names = String::with_capacity(bytes.sum());
                for &index in survivors {
                    let slot = &mut self.slots[index];
                    let (start, end) = slot.name;
                    slot.name.0 = names.len() as u32;
                    names.push_str(&arena[start as usize..end as usize]);
                    slot.name.1 = names.len() as u32;
                }
                let mut arena = std::mem::replace(&mut self.arenas[*segment], names);
                if self.spare_arenas.len() < SPARE_ARENAS {
                    arena.clear();
                    self.spare_arenas.push(arena);
                }
            }
        }
        outcome
    }

    fn bump(&mut self, data: DataId, producer: TaskId) -> Result<DataVersion, DagError> {
        let info = &mut self.slot_mut(data)?.current;
        info.version = info.version.next();
        info.producer = Some(producer);
        Ok(info.version)
    }
}

/// Longest parameter list [`AccessProcessor::register`] checks for
/// repeated data by scanning all pairs.
const PAIRWISE_SCAN_MAX: usize = 32;

/// A task declares `param` after `earlier`, both on the same datum:
/// legal only if both merely read it.
fn check_repeated_access(spec: &TaskSpec, earlier: &Param, param: &Param) -> Result<(), DagError> {
    if earlier.direction.is_stream() != param.direction.is_stream() {
        return Err(DagError::MixedAccess {
            task: spec.name().to_string(),
            data: param.data,
        });
    }
    if param.direction.writes() || earlier.direction.writes() || param.direction.is_stream() {
        return Err(DagError::ConflictingAccess {
            task: spec.name().to_string(),
            data: param.data,
        });
    }
    Ok(())
}

/// The parameters of one spec grouped by datum.
struct SameDatum {
    /// Parameter indices sorted by (datum, index).
    order: Vec<u32>,
    /// For each parameter: where its datum's group starts in `order`,
    /// and its own position there.
    span: Vec<(u32, u32)>,
}

impl SameDatum {
    fn group(params: &[Param]) -> Self {
        let mut order: Vec<u32> = (0..params.len() as u32).collect();
        order.sort_unstable_by_key(|&k| (params[k as usize].data, k));
        let mut span = vec![(0, 0); params.len()];
        let mut start = 0;
        for (at, &k) in order.iter().enumerate() {
            if params[k as usize].data != params[order[start] as usize].data {
                start = at;
            }
            span[k as usize] = (start as u32, at as u32);
        }
        SameDatum { order, span }
    }

    /// Indices of the parameters before `i` on the same datum,
    /// ascending.
    fn earlier(&self, i: usize) -> &[u32] {
        let (start, at) = self.span[i];
        &self.order[start as usize..at as usize]
    }
}

/// The registered endpoints of one stream datum.
#[derive(Debug, Clone, Default)]
pub struct StreamEndpoints {
    /// Tasks holding the producing end, in registration order.
    pub producers: Vec<TaskId>,
    /// Tasks holding the consuming end, in registration order.
    pub consumers: Vec<TaskId>,
}

/// Builds the task dependency graph incrementally from a stream of
/// [`TaskSpec`] submissions, mirroring the *Access Processor* component
/// of the COMPSs runtime.
///
/// Dependencies are derived via data versioning: every write access
/// creates a fresh version of the datum (renaming), so only true
/// (read-after-write) dependencies appear in the graph — exactly the
/// semantics a dataflow runtime needs for maximal asynchrony.
///
/// Stream accesses sit outside the versioning discipline: a
/// [`Direction::Stream`](crate::Direction::Stream) parameter wires a
/// first-element edge (see
/// [`GraphRun::stream_release`](crate::GraphRun::stream_release))
/// instead of a completion edge, and its datum is registered as a
/// channel rather than a renamed value.
///
/// # Example
///
/// ```
/// use continuum_dag::{AccessProcessor, TaskSpec};
///
/// let mut ap = AccessProcessor::new();
/// let x = ap.new_data("x");
/// let t0 = ap.register(TaskSpec::new("init").output(x))?;
/// let t1 = ap.register(TaskSpec::new("update").inout(x))?;
/// let t2 = ap.register(TaskSpec::new("read").input(x))?;
/// // t1 depends on t0 (read x@v1), t2 depends on t1 (read x@v2).
/// assert_eq!(ap.graph().predecessors(t1), &[t0]);
/// assert_eq!(ap.graph().predecessors(t2), &[t1]);
/// # Ok::<(), continuum_dag::DagError>(())
/// ```
#[derive(Debug, Default)]
pub struct AccessProcessor {
    catalog: DataCatalog,
    graph: TaskGraph,
    /// Data accessed as streams, with their registered endpoints. A
    /// datum is a stream from its first stream access onward; mixing
    /// with versioned access is rejected.
    streams: BTreeMap<DataId, StreamEndpoints>,
}

impl AccessProcessor {
    /// Creates an empty access processor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new logical datum.
    pub fn new_data(&mut self, name: impl AsRef<str>) -> DataId {
        self.catalog.new_data(name)
    }

    /// Registers a new logical datum, formatting its name straight
    /// into the catalog (see [`DataCatalog::new_data_fmt`]).
    pub fn new_data_fmt(&mut self, name: fmt::Arguments<'_>) -> DataId {
        self.catalog.new_data_fmt(name)
    }

    /// Registers `n` new logical data with a shared name prefix.
    pub fn new_data_batch(&mut self, prefix: &str, n: usize) -> Vec<DataId> {
        (0..n)
            .map(|i| self.catalog.new_data_fmt(format_args!("{prefix}{i}")))
            .collect()
    }

    /// Registers a task submission, derives its dependencies and adds it
    /// to the graph. Returns the new task's id.
    ///
    /// # Errors
    ///
    /// * [`DagError::EmptyTask`] if the spec declares no parameters.
    /// * [`DagError::UnknownData`] if a parameter references an
    ///   unregistered datum.
    /// * [`DagError::ConflictingAccess`] if the same datum is declared
    ///   more than once and at least one of the accesses writes or
    ///   streams it.
    /// * [`DagError::MixedAccess`] if a datum is accessed both as a
    ///   stream and as a versioned value (within this spec or across
    ///   submissions).
    pub fn register(&mut self, spec: TaskSpec) -> Result<TaskId, DagError> {
        if spec.params().is_empty() {
            return Err(DagError::EmptyTask(spec.name().to_string()));
        }
        self.validate_accesses(&spec)?;

        let id = self.graph.next_task_id();
        // Sized for every read up front: a 16-way merge then allocates
        // each list once instead of growing it 1 → 4 → 8 → 16.
        let reads = spec.params().iter().filter(|p| p.direction.reads()).count();
        let mut preds = InlineVec::with_capacity(reads);
        let mut stream_preds = InlineVec::new();
        let mut consumed = InlineVec::with_capacity(reads);
        let mut produced = InlineVec::new();

        for param in spec.params() {
            if param.direction.reads() {
                let info = self.catalog.current(param.data)?;
                consumed.push(VersionedData::new(param.data, info.version));
                if let Some(p) = info.producer {
                    preds.push(p);
                }
            }
            if param.direction.writes() {
                let version = self.catalog.bump(param.data, id)?;
                produced.push(VersionedData::new(param.data, version));
            }
            if param.direction.stream_role() == Some(StreamRole::Consume) {
                // Every registered producer is a structural stream
                // edge; the graph only *gates* on those that have not
                // released yet.
                if let Some(eps) = self.streams.get(&param.data) {
                    stream_preds.extend(eps.producers.iter().copied());
                }
            }
        }
        preds.sort_dedup();
        stream_preds.sort_dedup();

        // Record this task's accesses in the discipline tags and the
        // stream registry — after wiring, so a producer never becomes
        // its own stream predecessor.
        for param in spec.params() {
            let slot = self.catalog.slot_mut(param.data)?;
            match param.direction.stream_role() {
                None => slot.discipline = Discipline::Versioned,
                Some(role) => {
                    slot.discipline = Discipline::Stream;
                    let eps = self.streams.entry(param.data).or_default();
                    match role {
                        StreamRole::Produce => eps.producers.push(id),
                        StreamRole::Consume => eps.consumers.push(id),
                    }
                }
            }
        }

        let assigned = self
            .graph
            .add_task(spec, preds, stream_preds, consumed, produced);
        debug_assert_eq!(assigned, id);
        Ok(id)
    }

    fn validate_accesses(&self, spec: &TaskSpec) -> Result<(), DagError> {
        // Pairwise scan instead of hash sets: parameter lists are short
        // (almost always < 16), so O(p²) comparisons beat two HashSet
        // allocations per submission — this sits on the submit hot path.
        // Long lists (a merge over thousands of chunks) group the
        // parameters by datum first, which visits the same pairs in
        // the same order without the quadratic scan.
        let params = spec.params();
        let grouped = (params.len() > PAIRWISE_SCAN_MAX).then(|| SameDatum::group(params));
        for (i, param) in params.iter().enumerate() {
            // Cross-submission discipline check: a datum is either a
            // channel of elements or a renamed whole-value, never both.
            let mixed = match self.catalog.slot(param.data)?.discipline {
                Discipline::Untouched => false,
                Discipline::Versioned => param.direction.is_stream(),
                Discipline::Stream => !param.direction.is_stream(),
            };
            if mixed {
                return Err(DagError::MixedAccess {
                    task: spec.name().to_string(),
                    data: param.data,
                });
            }
            match &grouped {
                None => {
                    for earlier in params[..i].iter().filter(|e| e.data == param.data) {
                        check_repeated_access(spec, earlier, param)?;
                    }
                }
                Some(grouped) => {
                    for &j in grouped.earlier(i) {
                        check_repeated_access(spec, &params[j as usize], param)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// The registered endpoints of a stream datum, or `None` if the
    /// datum has never been accessed as a stream.
    pub fn stream_endpoints(&self, data: DataId) -> Option<&StreamEndpoints> {
        self.streams.get(&data)
    }

    /// Whether the datum has been accessed as a stream.
    pub fn is_stream_datum(&self, data: DataId) -> bool {
        self.streams.contains_key(&data)
    }

    /// The dependency graph built so far.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Mutable access to the dependency graph (used by lazy runtimes to
    /// retire the payloads of finished tasks).
    pub fn graph_mut(&mut self) -> &mut TaskGraph {
        &mut self.graph
    }

    /// The data catalog.
    pub fn catalog(&self) -> &DataCatalog {
        &self.catalog
    }

    /// Retires a datum (see [`DataCatalog::retire_name`]).
    pub fn retire_data_name(&mut self, data: DataId) -> Retired {
        self.catalog.retire_name(data)
    }

    /// Splits the processor into its catalog and graph, consuming it.
    pub fn into_parts(self) -> (DataCatalog, TaskGraph) {
        (self.catalog, self.graph)
    }

    /// The versioned datum a reader submitted *now* would consume.
    ///
    /// # Errors
    ///
    /// Returns [`DagError::UnknownData`] if the id is not registered.
    pub fn current_version(&self, data: DataId) -> Result<VersionedData, DagError> {
        let info = self.catalog.current(data)?;
        Ok(VersionedData::new(data, info.version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphRun;
    use crate::param::Direction;

    fn ap_with(n: usize) -> (AccessProcessor, Vec<DataId>) {
        let mut ap = AccessProcessor::new();
        let ids = ap.new_data_batch("d", n);
        (ap, ids)
    }

    #[test]
    fn read_after_write_dependency() {
        let (mut ap, d) = ap_with(1);
        let w = ap.register(TaskSpec::new("w").output(d[0])).unwrap();
        let r = ap.register(TaskSpec::new("r").input(d[0])).unwrap();
        assert_eq!(ap.graph().predecessors(r), &[w]);
        assert!(ap.graph().successors(w).contains(&r));
    }

    #[test]
    fn initial_data_has_no_producer() {
        let (mut ap, d) = ap_with(1);
        let r = ap.register(TaskSpec::new("r").input(d[0])).unwrap();
        assert!(ap.graph().predecessors(r).is_empty());
        assert!(GraphRun::new(ap.graph()).ready_tasks().contains(&r));
    }

    #[test]
    fn write_after_read_is_independent_thanks_to_renaming() {
        let (mut ap, d) = ap_with(1);
        let r = ap.register(TaskSpec::new("r").input(d[0])).unwrap();
        // Writer of a *new version*: no dependency on the earlier reader.
        let w = ap.register(TaskSpec::new("w").output(d[0])).unwrap();
        assert!(ap.graph().predecessors(w).is_empty());
        assert!(ap.graph().predecessors(r).is_empty());
    }

    #[test]
    fn inout_chains_serialize() {
        let (mut ap, d) = ap_with(1);
        let t0 = ap.register(TaskSpec::new("a").inout(d[0])).unwrap();
        let t1 = ap.register(TaskSpec::new("b").inout(d[0])).unwrap();
        let t2 = ap.register(TaskSpec::new("c").inout(d[0])).unwrap();
        assert!(ap.graph().predecessors(t0).is_empty());
        assert_eq!(ap.graph().predecessors(t1), &[t0]);
        assert_eq!(ap.graph().predecessors(t2), &[t1]);
    }

    #[test]
    fn readers_of_same_version_are_parallel() {
        let (mut ap, d) = ap_with(1);
        let w = ap.register(TaskSpec::new("w").output(d[0])).unwrap();
        let r1 = ap.register(TaskSpec::new("r1").input(d[0])).unwrap();
        let r2 = ap.register(TaskSpec::new("r2").input(d[0])).unwrap();
        assert_eq!(ap.graph().predecessors(r1), &[w]);
        assert_eq!(ap.graph().predecessors(r2), &[w]);
        // No edge between the two readers.
        assert!(!ap.graph().successors(r1).contains(&r2));
        assert!(!ap.graph().successors(r2).contains(&r1));
    }

    #[test]
    fn duplicate_predecessors_are_deduped() {
        let (mut ap, d) = ap_with(2);
        let w = ap
            .register(TaskSpec::new("w").output(d[0]).output(d[1]))
            .unwrap();
        let r = ap
            .register(TaskSpec::new("r").input(d[0]).input(d[1]))
            .unwrap();
        assert_eq!(ap.graph().predecessors(r), &[w]);
        assert_eq!(ap.graph().successors(w), &[r]);
    }

    #[test]
    fn empty_task_rejected() {
        let mut ap = AccessProcessor::new();
        let err = ap.register(TaskSpec::new("nop")).unwrap_err();
        assert_eq!(err, DagError::EmptyTask("nop".into()));
    }

    #[test]
    fn unknown_data_rejected() {
        let mut ap = AccessProcessor::new();
        let bogus = DataId::from_raw(42);
        let err = ap.register(TaskSpec::new("t").input(bogus)).unwrap_err();
        assert_eq!(err, DagError::UnknownData(bogus));
    }

    #[test]
    fn conflicting_duplicate_access_rejected() {
        let (mut ap, d) = ap_with(1);
        let err = ap
            .register(TaskSpec::new("t").input(d[0]).output(d[0]))
            .unwrap_err();
        assert!(matches!(err, DagError::ConflictingAccess { .. }));
        // Pure duplicate reads are fine.
        ap.register(TaskSpec::new("t2").input(d[0]).input(d[0]))
            .unwrap();
    }

    /// Long parameter lists take the grouped duplicate check; it must
    /// accept and reject exactly what the pairwise scan does, with the
    /// same error.
    #[test]
    fn long_parameter_lists_report_the_same_errors_as_short_ones() {
        let n = PAIRWISE_SCAN_MAX + 40;
        let (mut ap, d) = ap_with(n + 2);
        let wide = || TaskSpec::new("wide").inputs(d[..n].iter().copied());
        // Distinct inputs plus a repeated read: fine.
        let ok = ap.register(wide().input(d[3]).output(d[n])).unwrap();
        assert_eq!(ap.graph().node(ok).unwrap().consumed().len(), n + 1);
        // A write after a read of the same datum, far apart.
        let err = ap.register(wide().output(d[7])).unwrap_err();
        assert_eq!(
            err,
            DagError::ConflictingAccess {
                task: "wide".into(),
                data: d[7]
            }
        );
        // The first offending parameter in declaration order wins,
        // exactly as in the pairwise scan: the stream end on d[5]
        // comes before the repeated write on d[9].
        let err = ap
            .register(wide().stream_in(d[5]).output(d[9]))
            .unwrap_err();
        assert_eq!(
            err,
            DagError::MixedAccess {
                task: "wide".into(),
                data: d[5]
            }
        );
        // Unknown data are still caught at their own position.
        let bogus = DataId::from_raw(10_000);
        let err = ap.register(wide().input(bogus).output(d[1])).unwrap_err();
        assert_eq!(err, DagError::UnknownData(bogus));
        // A rejected spec leaves no trace: the same data still register.
        ap.register(wide().output(d[n + 1])).unwrap();
    }

    #[test]
    fn versions_advance_per_write() {
        let (mut ap, d) = ap_with(1);
        assert_eq!(ap.current_version(d[0]).unwrap().version.as_u32(), 0);
        ap.register(TaskSpec::new("w").output(d[0])).unwrap();
        assert_eq!(ap.current_version(d[0]).unwrap().version.as_u32(), 1);
        ap.register(TaskSpec::new("w2").inout(d[0])).unwrap();
        assert_eq!(ap.current_version(d[0]).unwrap().version.as_u32(), 2);
    }

    #[test]
    fn consumed_and_produced_versions_recorded() {
        let (mut ap, d) = ap_with(1);
        let w = ap.register(TaskSpec::new("w").output(d[0])).unwrap();
        let u = ap.register(TaskSpec::new("u").inout(d[0])).unwrap();
        let g = ap.graph();
        assert_eq!(g.node(w).unwrap().produced()[0].version.as_u32(), 1);
        assert_eq!(g.node(u).unwrap().consumed()[0].version.as_u32(), 1);
        assert_eq!(g.node(u).unwrap().produced()[0].version.as_u32(), 2);
    }

    #[test]
    fn catalog_names() {
        let mut ap = AccessProcessor::new();
        let d = ap.new_data("alpha");
        assert_eq!(ap.catalog().name(d).unwrap(), "alpha");
        assert!(ap.catalog().name(DataId::from_raw(9)).is_err());
        assert_eq!(ap.catalog().len(), 1);
        assert!(!ap.catalog().is_empty());
    }

    #[test]
    fn explicit_direction_param() {
        let (mut ap, d) = ap_with(1);
        let t = ap
            .register(TaskSpec::new("t").param(d[0], Direction::Out))
            .unwrap();
        assert_eq!(ap.graph().node(t).unwrap().produced().len(), 1);
    }

    #[test]
    fn into_parts_preserves_graph() {
        let (mut ap, d) = ap_with(1);
        ap.register(TaskSpec::new("w").output(d[0])).unwrap();
        let (catalog, graph) = ap.into_parts();
        assert_eq!(catalog.len(), 1);
        assert_eq!(graph.len(), 1);
    }

    #[test]
    fn stream_edge_gates_on_release_not_completion() {
        let (mut ap, d) = ap_with(2);
        let p = ap
            .register(TaskSpec::new("p").stream_out(d[0]).output(d[1]))
            .unwrap();
        let c = ap.register(TaskSpec::new("c").stream_in(d[0])).unwrap();
        let g = ap.graph();
        assert_eq!(g.node(c).unwrap().stream_predecessors(), &[p]);
        assert!(g.predecessors(c).is_empty(), "no completion edge");
        let mut run = GraphRun::new(g);
        assert!(!run.ready_tasks().contains(&c));
        // First element: the consumer runs while the producer still is.
        run.mark_running(p).unwrap();
        let mut newly = Vec::new();
        run.stream_release_into(g, p, &mut newly).unwrap();
        assert_eq!(newly, vec![c]);
        assert!(run.ready_tasks().contains(&c));
        // Release is idempotent; completion after release frees nothing
        // twice.
        assert_eq!(run.stream_release(g, p).unwrap(), 0);
        assert_eq!(run.complete(g, p).unwrap(), 0);
    }

    #[test]
    fn producer_completion_releases_empty_stream() {
        let (mut ap, d) = ap_with(2);
        let p = ap
            .register(TaskSpec::new("p").stream_out(d[0]).output(d[1]))
            .unwrap();
        let c = ap.register(TaskSpec::new("c").stream_in(d[0])).unwrap();
        // Producer finishes without ever sending: consumer still runs
        // (and will observe a closed, empty channel).
        let mut run = GraphRun::new(ap.graph());
        let mut newly = Vec::new();
        run.complete_into(ap.graph(), p, &mut newly).unwrap();
        assert_eq!(newly, vec![c]);
    }

    #[test]
    fn late_consumer_after_release_is_immediately_ready() {
        let (mut ap, d) = ap_with(1);
        let p = ap.register(TaskSpec::new("p").stream_out(d[0])).unwrap();
        let mut run = GraphRun::new(ap.graph());
        run.mark_running(p).unwrap();
        run.stream_release(ap.graph(), p).unwrap();
        let c = ap.register(TaskSpec::new("c").stream_in(d[0])).unwrap();
        run.grow(ap.graph());
        assert!(run.ready_tasks().contains(&c));
        // The structural edge is still recorded.
        assert_eq!(ap.graph().node(c).unwrap().stream_predecessors(), &[p]);
        assert_eq!(ap.graph().stream_edge_count(), 1);
    }

    #[test]
    fn multi_producer_stream_needs_every_first_element() {
        let (mut ap, d) = ap_with(1);
        let p0 = ap.register(TaskSpec::new("p0").stream_out(d[0])).unwrap();
        let p1 = ap.register(TaskSpec::new("p1").stream_out(d[0])).unwrap();
        let c = ap.register(TaskSpec::new("c").stream_in(d[0])).unwrap();
        let mut run = GraphRun::new(ap.graph());
        run.stream_release(ap.graph(), p0).unwrap();
        assert!(!run.ready_tasks().contains(&c));
        let mut newly = Vec::new();
        run.stream_release_into(ap.graph(), p1, &mut newly).unwrap();
        assert_eq!(newly, vec![c]);
        let eps = ap.stream_endpoints(d[0]).unwrap();
        assert_eq!(eps.producers, vec![p0, p1]);
        assert_eq!(eps.consumers, vec![c]);
    }

    #[test]
    fn mixed_stream_and_versioned_access_rejected() {
        // Across submissions, in both orders.
        let (mut ap, d) = ap_with(1);
        ap.register(TaskSpec::new("w").output(d[0])).unwrap();
        let err = ap
            .register(TaskSpec::new("p").stream_out(d[0]))
            .unwrap_err();
        assert!(matches!(err, DagError::MixedAccess { .. }));

        let (mut ap, d) = ap_with(1);
        ap.register(TaskSpec::new("p").stream_out(d[0])).unwrap();
        let err = ap.register(TaskSpec::new("r").input(d[0])).unwrap_err();
        assert!(matches!(err, DagError::MixedAccess { .. }));

        // Within one spec.
        let (mut ap, d) = ap_with(1);
        let err = ap
            .register(TaskSpec::new("t").stream_out(d[0]).input(d[0]))
            .unwrap_err();
        assert!(matches!(err, DagError::MixedAccess { .. }));
    }

    #[test]
    fn duplicate_stream_access_rejected() {
        let (mut ap, d) = ap_with(1);
        let err = ap
            .register(TaskSpec::new("t").stream_out(d[0]).stream_in(d[0]))
            .unwrap_err();
        assert!(matches!(err, DagError::ConflictingAccess { .. }));
        assert!(!ap.is_stream_datum(d[0]), "rejected spec leaves no trace");
    }
}
