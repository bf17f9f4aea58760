//! Guards of the simulated engine's core that the equivalence proptests
//! do not give: resident memory of a lazy run follows the window, not
//! the campaign, and the schedule of two fixed runs is pinned to the
//! bit.

use continuum_dag::{DagError, DataId, ExpandSink, GraphSource, TaskId, TaskSpec, SEGMENT_SLOTS};
use continuum_platform::{presets, NodeSpec, PlatformBuilder};
use continuum_runtime::{
    FifoScheduler, LazyRunOutcome, ListScheduler, LocalityScheduler, SimOptions, SimRuntime,
    TaskProfile,
};
use continuum_sim::FaultPlan;
use continuum_workflows::{patterns, GwasWorkload};

/// `window` independent relays of `total` stages in all: every
/// completion hands its output to one new stage and closes it, so
/// everything behind the frontier can retire.
struct Relays {
    window: usize,
    total: usize,
    emitted: usize,
    /// Stages whose output no stage reads yet, ascending.
    open: Vec<(TaskId, DataId)>,
}

impl Relays {
    fn emit(
        &mut self,
        input: Option<DataId>,
        sink: &mut dyn ExpandSink<TaskProfile>,
    ) -> Result<(), DagError> {
        let out = sink.data_fmt(format_args!("d{}", self.emitted));
        let mut spec = TaskSpec::new("stage").output(out);
        if let Some(input) = input {
            spec = spec.input(input);
            sink.close_data(input);
        }
        let task = sink.submit(spec, TaskProfile::new(1.0).outputs_bytes(1_000))?;
        self.open.push((task, out));
        self.emitted += 1;
        Ok(())
    }
}

impl GraphSource<TaskProfile> for Relays {
    fn prime(&mut self, sink: &mut dyn ExpandSink<TaskProfile>) -> Result<(), DagError> {
        for _ in 0..self.window.min(self.total) {
            self.emit(None, sink)?;
        }
        Ok(())
    }

    fn on_task_complete(
        &mut self,
        task: TaskId,
        sink: &mut dyn ExpandSink<TaskProfile>,
    ) -> Result<(), DagError> {
        if self.emitted < self.total {
            let at = self
                .open
                .binary_search_by_key(&task, |(t, _)| *t)
                .expect("every completed stage is open");
            let (_, output) = self.open.remove(at);
            self.emit(Some(output), sink)?;
        }
        Ok(())
    }
}

fn run_relays(total: usize) -> LazyRunOutcome {
    let platform = PlatformBuilder::new()
        .cluster("c", 2, NodeSpec::hpc(4, 96_000))
        .build();
    let mut source = Relays {
        window: 8,
        total,
        emitted: 0,
        open: Vec::new(),
    };
    SimRuntime::new(platform, SimOptions::default())
        .run_lazy(&mut source, &mut FifoScheduler::new(), &FaultPlan::new())
        .expect("relays complete")
}

#[test]
fn resident_segments_follow_the_window_not_the_campaign() {
    let short = run_relays(4 * SEGMENT_SLOTS);
    let long = run_relays(16 * SEGMENT_SLOTS);
    assert_eq!(short.report.tasks_completed, 4 * SEGMENT_SLOTS);
    assert_eq!(long.report.tasks_completed, 16 * SEGMENT_SLOTS);
    assert_eq!(
        short.peak_resident_segments, long.peak_resident_segments,
        "four times the campaign must not keep more segments resident"
    );
    assert!(
        long.peak_resident_segments <= 2,
        "{}",
        long.peak_resident_segments
    );
    assert!(long.peak_materialized_tasks <= 3 * 8);
    // Everything but the last window of stages retired.
    assert_eq!(long.retired_tasks, 16 * SEGMENT_SLOTS - 8);
}

/// A chromosome merge outlives everything materialized around it: its
/// output waits for the campaign merge. Cutting the benchmark's
/// campaign into ten times as many chromosomes strews ten times as
/// many of them among the chunk tasks — two or three per segment
/// instead of one in four — and leaves a tenth of the association
/// outputs waiting for each. Residency has to follow the second
/// number, not the first. (That evacuating the merges moves no
/// placement and no timestamp is `proptest_gwas_lazy.rs`'s to show, on
/// campaigns small enough to run eagerly as well.)
#[test]
fn resident_segments_follow_the_live_set_not_the_stragglers() {
    let runtime = SimRuntime::new(presets::marenostrum(100), SimOptions::default());
    let run = |chromosomes, chunks| {
        let mut source = GwasWorkload::new()
            .chromosomes(chromosomes)
            .chunks_per_chromosome(chunks)
            .seed(42)
            .into_source(256);
        runtime
            .run_lazy(
                &mut source,
                &mut LocalityScheduler::new(),
                &FaultPlan::new(),
            )
            .expect("lazy campaign completes")
    };
    let few = run(22, 1_500);
    let many = run(220, 150);
    assert!(
        many.peak_resident_segments <= few.peak_resident_segments + 2,
        "{} segments resident with 220 stragglers, {} with 22",
        many.peak_resident_segments,
        few.peak_resident_segments
    );
    // The merges were held all the same, outside the segments.
    assert!(few.peak_evacuated_slots >= 22 && many.peak_evacuated_slots >= 220);
}

#[test]
fn task_profiles_stay_within_their_memory_budget() {
    // One per resident task, beside the graph node.
    assert!(
        std::mem::size_of::<TaskProfile>() <= 136,
        "TaskProfile grew to {} bytes",
        std::mem::size_of::<TaskProfile>()
    );
}

/// `sim.makespan_s` of a small lazy GWAS campaign and a small stencil,
/// as `f64::to_bits`: any change to a placement or a timestamp on the
/// paths the benchmark's `gwas_sim` and `wdl_stencil_sim` exercise
/// fails here first. A deliberate scheduling change updates the
/// constants (and says so).
#[test]
fn makespans_of_two_fixed_runs_are_pinned_to_the_bit() {
    let mut source = GwasWorkload::new()
        .chromosomes(3)
        .chunks_per_chromosome(40)
        .seed(42)
        .into_source(16);
    let gwas = SimRuntime::new(presets::marenostrum(4), SimOptions::default())
        .run_lazy(
            &mut source,
            &mut LocalityScheduler::new(),
            &FaultPlan::new(),
        )
        .expect("campaign completes");
    assert_eq!(gwas.report.tasks_completed, 3 * 40 * 3 + 3 + 1);
    assert_eq!(
        gwas.report.makespan_s.to_bits(),
        GWAS_MAKESPAN_BITS,
        "lazy GWAS makespan moved: {} s",
        gwas.report.makespan_s
    );

    let stencil = patterns::stencil(12, 12, 2.0, 40_000_000);
    let mut scheduler = ListScheduler::plan(&stencil, |t| stencil.profile(t).duration_s());
    let hybrid = PlatformBuilder::new()
        .cluster("hpc", 3, NodeSpec::hpc(4, 96_000))
        .cloud("cloud", 2, NodeSpec::cloud_vm(4, 16_000))
        .build();
    let report = SimRuntime::new(hybrid, SimOptions::default())
        .run(&stencil, &mut scheduler, &FaultPlan::new())
        .expect("stencil completes");
    assert_eq!(report.tasks_completed, 12 * 12);
    assert!(report.transfer_count > 0, "the stencil must move data");
    assert_eq!(
        report.makespan_s.to_bits(),
        STENCIL_MAKESPAN_BITS,
        "stencil makespan moved: {} s",
        report.makespan_s
    );
}

const GWAS_MAKESPAN_BITS: u64 = 4657171168031735399;
const STENCIL_MAKESPAN_BITS: u64 = 4627458944064780185;
