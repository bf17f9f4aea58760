//! The §VI-A GWAS campaign at paper scale on `SimRuntime`, with the
//! graph materialized lazily (a `GwasSource` window ahead of the
//! execution frontier) instead of built up front: residency must stay
//! proportional to the frontier, and admission, the event loop and
//! retirement may not allocate per task.

use continuum_platform::presets::marenostrum;
use continuum_runtime::{LazyRunOutcome, LocalityScheduler, SimOptions, SimRuntime};
use continuum_sim::FaultPlan;
use continuum_workflows::GwasWorkload;

/// Chunk pipelines materialized ahead of the frontier.
pub const WINDOW: usize = 256;

/// Chunks per chromosome that land the 22-chromosome campaign on 10⁴
/// tasks (`c·k·3 + c + 1` for `c` chromosomes × `k` chunks) …
pub const CHUNKS_1E4: usize = 151;
/// … and on 10⁶, PR 7's paper-scale headline.
pub const CHUNKS_1E6: usize = 15_151;

/// The 22-chromosome campaign with `chunks` chunks per chromosome.
pub fn campaign(chunks: usize) -> GwasWorkload {
    GwasWorkload::new()
        .chromosomes(22)
        .chunks_per_chromosome(chunks)
}

/// Runs `campaign` lazily, [`WINDOW`] chunks ahead, on 100
/// MareNostrum-class nodes.
pub fn run_lazy(campaign: &GwasWorkload) -> LazyRunOutcome {
    let mut source = campaign.clone().into_source(WINDOW);
    SimRuntime::new(marenostrum(100), SimOptions::default())
        .run_lazy(
            &mut source,
            &mut LocalityScheduler::new(),
            &FaultPlan::new(),
        )
        .expect("campaign completes")
}

/// The allocation tripwire's predicate: at most one allocation per
/// four tasks (the engine needs about one per seven at 10⁴ tasks, for
/// segment blocks and the window's name arenas). Returns the violation
/// as a printable line.
pub fn allocation_violation(tasks: usize, allocations: u64) -> Option<String> {
    (allocations > tasks as u64 / 4).then(|| {
        format!(
            "{allocations} allocations for {tasks} tasks (more than one per four: \
             something on the per-task path allocates again)"
        )
    })
}
