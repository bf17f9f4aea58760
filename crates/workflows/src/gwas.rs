//! GUIDANCE-like GWAS campaign generator.
//!
//! The paper (§VI-A) describes GUIDANCE: a COMPSs application
//! orchestrating external binaries over 120 000 files, generating
//! 1–3 million tasks, whose binaries need a *variable amount of
//! memory*; declaring per-task memory constraints instead of sizing
//! every task for the worst case — combined with asynchronous
//! dataflow execution — cut execution time by ~50% on MareNostrum.
//!
//! The generator reproduces that structure: per chromosome, per chunk,
//! a filter → impute → association pipeline; per-chromosome merges and
//! a final campaign merge. Durations are lognormal; memory demand is
//! bimodal (a small fraction of imputations needs most of a node).
//!
//! There is one generator, [`GwasSource`], which emits the campaign a
//! window of chunks at a time; [`GwasWorkload::build`] drains it in
//! full into a [`SimWorkload`]. One campaign and one seed therefore
//! give one workflow, whether it runs eagerly or lazily.

use crate::rng::LogNormal;
use continuum_dag::{DagError, DataId, ExpandSink, GraphSource, TaskId, TaskSpec};
use continuum_platform::Constraints;
use continuum_runtime::{SimWorkload, TaskProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Builder for GWAS campaign workloads.
///
/// # Example
///
/// ```
/// use continuum_workflows::GwasWorkload;
///
/// let w = GwasWorkload::new().chromosomes(4).chunks_per_chromosome(8).build();
/// // 4 × 8 × (filter+impute+assoc) + 4 merges + 1 final merge.
/// assert_eq!(w.stats().tasks, 4 * 8 * 3 + 4 + 1);
/// ```
#[derive(Debug, Clone)]
pub struct GwasWorkload {
    chromosomes: usize,
    chunks: usize,
    seed: u64,
    mean_task_s: f64,
    duration_cv: f64,
    heavy_fraction: f64,
    light_memory_mb: u64,
    heavy_memory_mb: u64,
    worst_case_memory: bool,
    chunk_bytes: u64,
}

impl Default for GwasWorkload {
    fn default() -> Self {
        GwasWorkload {
            chromosomes: 22,
            chunks: 24,
            seed: 0,
            mean_task_s: 120.0,
            duration_cv: 0.6,
            heavy_fraction: 0.15,
            light_memory_mb: 4_000,
            heavy_memory_mb: 56_000,
            worst_case_memory: false,
            chunk_bytes: 40_000_000,
        }
    }
}

impl GwasWorkload {
    /// Creates the default campaign (22 chromosomes × 24 chunks —
    /// about 1 600 tasks; scale `chunks_per_chromosome` up for the
    /// paper's million-task campaigns).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of chromosomes.
    pub fn chromosomes(mut self, n: usize) -> Self {
        self.chromosomes = n.max(1);
        self
    }

    /// Chunks per chromosome.
    pub fn chunks_per_chromosome(mut self, n: usize) -> Self {
        self.chunks = n.max(1);
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Mean task duration in seconds.
    pub fn mean_task_s(mut self, s: f64) -> Self {
        self.mean_task_s = s;
        self
    }

    /// Coefficient of variation of task durations.
    pub fn duration_cv(mut self, cv: f64) -> Self {
        self.duration_cv = cv;
        self
    }

    /// Fraction of imputation tasks needing the heavy memory budget.
    pub fn heavy_fraction(mut self, f: f64) -> Self {
        self.heavy_fraction = f.clamp(0.0, 1.0);
        self
    }

    /// Light/heavy memory budgets in MB.
    pub fn memory_mb(mut self, light: u64, heavy: u64) -> Self {
        self.light_memory_mb = light;
        self.heavy_memory_mb = heavy.max(light);
        self
    }

    /// Sizes **every** task for the worst-case memory (the static
    /// baseline the paper's 50% claim is measured against).
    pub fn worst_case_memory(mut self, on: bool) -> Self {
        self.worst_case_memory = on;
        self
    }

    /// Bytes per chunk file.
    pub fn chunk_bytes(mut self, bytes: u64) -> Self {
        self.chunk_bytes = bytes;
        self
    }

    /// Number of tasks the campaign contains, built or streamed.
    pub fn task_count(&self) -> usize {
        self.chromosomes * self.chunks * 3 + self.chromosomes + 1
    }

    /// Generates the whole campaign up front: the lazy source (see
    /// [`GwasWorkload::into_source`]) drained in full, so an eager
    /// run and a lazy run of one campaign execute the same tasks with
    /// the same costs.
    pub fn build(&self) -> SimWorkload {
        let mut w = SimWorkload::new();
        self.clone()
            .into_source(usize::MAX)
            .prime(&mut w)
            .expect("a GWAS campaign materializes");
        w
    }

    /// The campaign as a [`GraphSource`] that materializes `window`
    /// chunk pipelines ahead of the execution frontier instead of the
    /// whole campaign up front. Cost draws are seeded per chunk from
    /// `(seed, chunk index)`, so the profiles are a pure function of
    /// the campaign parameters — independent of the completion order
    /// that drives expansion.
    pub fn into_source(self, window: usize) -> GwasSource {
        GwasSource::new(self, window)
    }
}

/// Lazily-materialized GWAS campaign (see [`GwasWorkload::into_source`]).
///
/// Expansion protocol: `prime` emits the first `window` chunk
/// pipelines (filter → impute → association); every *association*
/// completion emits the next chunk pipeline. A chromosome's merge task
/// is emitted together with its last chunk, and the campaign merge
/// together with the last chromosome. Data are closed as soon as every
/// consumer is materialized, so the engine retires drained subgraphs
/// behind the frontier: resident state scales with
/// `window + chunks_per_chromosome`, not with the campaign size.
#[derive(Debug)]
pub struct GwasSource {
    cfg: GwasWorkload,
    window: usize,
    /// Next linear chunk index (chromosome-major) to materialize.
    next_chunk: usize,
    /// Association tasks emitted but not yet completed, ascending (ids
    /// are issued in emission order): a ring of at most `window`
    /// entries, since only an association's completion emits the next
    /// chunk. Membership identifies which completions advance the
    /// frontier.
    assoc_pending: VecDeque<TaskId>,
    /// Association outputs of the chromosome currently materializing
    /// (drained into its merge when the last chunk is emitted).
    assoc_data: Vec<DataId>,
    /// Per-chromosome merge outputs (inputs of the campaign merge).
    chrom_merge_data: Vec<DataId>,
    final_out: Option<DataId>,
}

impl GwasSource {
    fn new(cfg: GwasWorkload, window: usize) -> Self {
        GwasSource {
            cfg,
            window: window.max(1),
            next_chunk: 0,
            assoc_pending: VecDeque::new(),
            assoc_data: Vec::new(),
            chrom_merge_data: Vec::new(),
            final_out: None,
        }
    }

    /// The expansion window (chunk pipelines materialized ahead).
    pub fn window(&self) -> usize {
        self.window
    }

    fn total_chunks(&self) -> usize {
        self.cfg.chromosomes * self.cfg.chunks
    }

    /// Deterministic per-stream RNG: draws depend only on the campaign
    /// seed and the stream index, never on expansion order.
    fn stream_rng(&self, stream: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(stream),
        )
    }

    fn memory_of(&self, heavy: bool) -> u64 {
        if self.cfg.worst_case_memory || heavy {
            self.cfg.heavy_memory_mb
        } else {
            self.cfg.light_memory_mb
        }
    }

    /// Emits one chunk pipeline, plus the chromosome merge when this
    /// was the chromosome's last chunk and the campaign merge when it
    /// was the campaign's last chromosome.
    fn emit_chunk(&mut self, sink: &mut dyn ExpandSink<TaskProfile>) -> Result<(), DagError> {
        let linear = self.next_chunk;
        self.next_chunk += 1;
        let (chunks, chunk_bytes, mean_task_s) =
            (self.cfg.chunks, self.cfg.chunk_bytes, self.cfg.mean_task_s);
        let chrom = linear / chunks;
        let chunk = linear % chunks;
        let durations = LogNormal::from_mean_cv(mean_task_s, self.cfg.duration_cv);
        let mut rng = self.stream_rng(linear as u64);
        let draw = |rng: &mut StdRng| durations.sample(rng).clamp(1.0, mean_task_s * 20.0);

        let raw = sink.initial_data_fmt(format_args!("raw_c{chrom}_{chunk}"), chunk_bytes);
        let filtered = sink.data_fmt(format_args!("filt_c{chrom}_{chunk}"));
        let imputed = sink.data_fmt(format_args!("imp_c{chrom}_{chunk}"));
        let assoc = sink.data_fmt(format_args!("assoc_c{chrom}_{chunk}"));

        sink.submit(
            TaskSpec::new("filter")
                .group("qc")
                .input(raw)
                .output(filtered),
            TaskProfile::new(draw(&mut rng) * 0.3)
                .constraints(Constraints::new().memory_mb(self.memory_of(false)))
                .outputs_bytes(chunk_bytes / 2),
        )?;
        let heavy = rng.gen::<f64>() < self.cfg.heavy_fraction;
        sink.submit(
            TaskSpec::new("impute")
                .group("imputation")
                .input(filtered)
                .output(imputed),
            TaskProfile::new(draw(&mut rng) * if heavy { 2.0 } else { 1.0 })
                .constraints(Constraints::new().memory_mb(self.memory_of(heavy)))
                .outputs_bytes(chunk_bytes),
        )?;
        let assoc_task = sink.submit(
            TaskSpec::new("association")
                .group("analysis")
                .input(imputed)
                .output(assoc),
            TaskProfile::new(draw(&mut rng) * 0.5)
                .constraints(Constraints::new().memory_mb(self.memory_of(false)))
                .outputs_bytes(chunk_bytes / 10),
        )?;
        let at = self.assoc_pending.partition_point(|t| *t < assoc_task);
        self.assoc_pending.insert(at, assoc_task);
        self.assoc_data.push(assoc);
        // Every consumer of the intra-chunk data now exists.
        sink.close_data(raw);
        sink.close_data(filtered);
        sink.close_data(imputed);

        if chunk + 1 == chunks {
            // Last chunk of the chromosome: its merge (and the
            // closure of every association output it consumes).
            let merged = sink.data_fmt(format_args!("chrom_merge_{chrom}"));
            let mut merge_rng = self.stream_rng(self.total_chunks() as u64 + chrom as u64);
            sink.submit(
                TaskSpec::new("merge_chromosome")
                    .group("merge")
                    .inputs(self.assoc_data.iter().copied())
                    .output(merged),
                TaskProfile::new(draw(&mut merge_rng) * 0.4)
                    .constraints(Constraints::new().memory_mb(self.memory_of(false)))
                    .outputs_bytes(chunk_bytes / 5),
            )?;
            for d in self.assoc_data.drain(..) {
                sink.close_data(d);
            }
            self.chrom_merge_data.push(merged);
        }
        if linear + 1 == self.total_chunks() {
            // Last chunk of the campaign: the final merge.
            let final_out = sink.data("campaign_summary");
            sink.submit(
                TaskSpec::new("merge_campaign")
                    .group("merge")
                    .inputs(self.chrom_merge_data.iter().copied())
                    .output(final_out),
                TaskProfile::new(mean_task_s)
                    .constraints(Constraints::new().memory_mb(self.memory_of(false)))
                    .outputs_bytes(chunk_bytes),
            )?;
            for d in self.chrom_merge_data.drain(..) {
                sink.close_data(d);
            }
            self.final_out = Some(final_out);
        }
        Ok(())
    }
}

impl GraphSource<TaskProfile> for GwasSource {
    fn prime(&mut self, sink: &mut dyn ExpandSink<TaskProfile>) -> Result<(), DagError> {
        let initial = self.window.min(self.total_chunks());
        for _ in 0..initial {
            self.emit_chunk(sink)?;
        }
        Ok(())
    }

    fn on_task_complete(
        &mut self,
        task: TaskId,
        sink: &mut dyn ExpandSink<TaskProfile>,
    ) -> Result<(), DagError> {
        if let Ok(at) = self.assoc_pending.binary_search(&task) {
            self.assoc_pending.remove(at);
            if self.next_chunk < self.total_chunks() {
                self.emit_chunk(sink)?;
            }
        }
        Ok(())
    }

    fn total_tasks(&self) -> Option<u64> {
        Some(self.cfg.task_count() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_matches_formula() {
        let g = GwasWorkload::new().chromosomes(3).chunks_per_chromosome(5);
        let w = g.build();
        let stats = w.stats();
        assert_eq!(stats.tasks, g.task_count());
        assert_eq!(stats.tasks, 3 * 5 * 3 + 3 + 1);
        // Each chunk pipeline contributes 2 edges; merges add the rest.
        assert_eq!(stats.edges, 3 * 5 * 2 + 3 * 5 + 3);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = GwasWorkload::new()
            .chromosomes(2)
            .chunks_per_chromosome(3)
            .seed(5)
            .build();
        let b = GwasWorkload::new()
            .chromosomes(2)
            .chunks_per_chromosome(3)
            .seed(5)
            .build();
        assert_eq!(a.stats(), b.stats());
        for t in 0..a.stats().tasks {
            let id = continuum_dag::TaskId::from_raw(t as u64);
            assert_eq!(a.profile(id), b.profile(id));
        }
    }

    #[test]
    fn memory_is_bimodal_by_default() {
        let w = GwasWorkload::new()
            .chromosomes(4)
            .chunks_per_chromosome(16)
            .heavy_fraction(0.25)
            .seed(1)
            .build();
        let mut heavy = 0;
        let mut light = 0;
        for t in 0..w.stats().tasks {
            let p = w.profile(continuum_dag::TaskId::from_raw(t as u64));
            match p.constraints_ref().required_memory_mb() {
                56_000 => heavy += 1,
                4_000 => light += 1,
                other => panic!("unexpected memory {other}"),
            }
        }
        assert!(heavy > 0, "some heavy imputations must exist");
        assert!(light > 4 * heavy, "most tasks are light");
    }

    #[test]
    fn worst_case_memory_is_uniform() {
        let w = GwasWorkload::new()
            .chromosomes(2)
            .chunks_per_chromosome(4)
            .worst_case_memory(true)
            .build();
        for t in 0..w.stats().tasks {
            let p = w.profile(continuum_dag::TaskId::from_raw(t as u64));
            assert_eq!(p.constraints_ref().required_memory_mb(), 56_000);
        }
    }

    #[test]
    fn campaign_has_high_inherent_parallelism() {
        let w = GwasWorkload::new()
            .chromosomes(8)
            .chunks_per_chromosome(16)
            .build();
        let stats = w.stats();
        assert!(
            stats.average_parallelism > 10.0,
            "chunk pipelines are independent, got {}",
            stats.average_parallelism
        );
    }

    #[test]
    fn lazy_source_completes_with_bounded_residency() {
        use continuum_platform::{NodeSpec, PlatformBuilder};
        use continuum_runtime::{LocalityScheduler, SimOptions, SimRuntime};
        use continuum_sim::FaultPlan;

        let cfg = GwasWorkload::new()
            .chromosomes(3)
            .chunks_per_chromosome(8)
            .seed(7);
        let total = cfg.task_count();
        let platform = PlatformBuilder::new()
            .cluster("mn", 4, NodeSpec::hpc(8, 96_000))
            .build();
        let rt = SimRuntime::new(platform, SimOptions::default());
        let mut source = cfg.into_source(2);
        let out = rt
            .run_lazy(
                &mut source,
                &mut LocalityScheduler::new(),
                &FaultPlan::new(),
            )
            .unwrap();
        assert_eq!(out.total_tasks, total);
        assert_eq!(out.report.tasks_completed, total);
        // The frontier stays bounded by window + one chromosome of
        // association outputs, well under the whole campaign.
        assert!(
            out.peak_materialized_tasks < total / 2,
            "peak {} vs total {total}",
            out.peak_materialized_tasks
        );
        assert!(out.retired_tasks > total / 2);
        assert!(out.retired_values > 0);
    }

    #[test]
    fn durations_are_positive_and_varied() {
        let w = GwasWorkload::new()
            .chromosomes(2)
            .chunks_per_chromosome(8)
            .build();
        let durations: Vec<f64> = (0..w.stats().tasks)
            .map(|t| {
                w.profile(continuum_dag::TaskId::from_raw(t as u64))
                    .duration_s()
            })
            .collect();
        assert!(durations.iter().all(|d| *d >= 1.0));
        let min = durations.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = durations.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.5, "lognormal spread expected");
    }
}
