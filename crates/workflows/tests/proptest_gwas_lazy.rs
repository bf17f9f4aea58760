//! The lazily materialized GWAS campaign schedules exactly like the
//! same campaign materialized up front.
//!
//! The eager side is `GwasWorkload::build()` run through
//! `SimRuntime::run_traced`. The lazy side is `run_lazy` with windows
//! from "just above what the platform can run at once" up to the whole
//! campaign: as long as the window keeps unstarted chunks ahead of the
//! ready frontier, admitting tasks just in time, retiring values and
//! tasks behind the frontier and dropping whole segments must not move
//! a single placement or timestamp. A second, larger shape — many
//! chromosomes of few chunks, several task segments — has a merge
//! every hundred-odd ids outlive its neighbours, so its segments are
//! evacuated around their stragglers; that must not move one either.

use continuum_platform::{NodeSpec, PlatformBuilder};
use continuum_runtime::{LocalityScheduler, SimOptions, SimRuntime};
use continuum_sim::FaultPlan;
use continuum_workflows::GwasWorkload;
use proptest::prelude::*;

/// Runs `campaign` eagerly (built in full) and lazily at each of
/// `windows`; every lazy run must report and trace what the eager one
/// does. Returns the most task slots any lazy run held evacuated.
fn lazy_matches_eager(campaign: &GwasWorkload, runtime: &SimRuntime, windows: &[usize]) -> usize {
    let eager = campaign.build();
    prop_assert_eq!(eager.graph().len(), campaign.task_count());
    let (report, trace) = runtime
        .run_traced(&eager, &mut LocalityScheduler::new(), &FaultPlan::new())
        .expect("eager run completes");
    let mut evacuated = 0;
    for &window in windows {
        let mut source = campaign.clone().into_source(window);
        let lazy = runtime
            .run_lazy(
                &mut source,
                &mut LocalityScheduler::new(),
                &FaultPlan::new(),
            )
            .expect("lazy run completes");
        prop_assert_eq!(&lazy.report, &report, "window {}", window);
        prop_assert_eq!(&lazy.trace, &trace, "window {}", window);
        prop_assert_eq!(lazy.total_tasks, campaign.task_count());
        // Only the campaign summary is never closed.
        prop_assert!(
            lazy.retired_tasks + 1 >= lazy.total_tasks,
            "{:?}",
            lazy.retired_tasks
        );
        evacuated = evacuated.max(lazy.peak_evacuated_slots);
    }
    evacuated
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lazy_gwas_matches_the_materialized_campaign(
        seed in 0u64..500,
        chromosomes in 1usize..4,
        chunks in 1usize..17,
        nodes in 1usize..3,
        cores in 1u32..4,
    ) {
        let campaign = GwasWorkload::new()
            .chromosomes(chromosomes)
            .chunks_per_chromosome(chunks)
            .seed(seed);
        let total_chunks = chromosomes * chunks;
        let platform = PlatformBuilder::new()
            .cluster("mn", nodes, NodeSpec::hpc(cores, 96_000))
            .build();
        let runtime = SimRuntime::new(platform, SimOptions::default());
        // A window beyond everything the platform can hold in flight
        // (one task per core, plus imputations waiting for memory).
        let ample = nodes * cores as usize + 12;
        lazy_matches_eager(
            &campaign,
            &runtime,
            &[ample, ample + 7, total_chunks, total_chunks + 5],
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn lazy_gwas_matches_it_around_evacuated_stragglers(
        seed in 0u64..500,
        chromosomes in 12usize..25,
        chunks in 44usize..70,
        cores in 2u32..5,
    ) {
        let campaign = GwasWorkload::new()
            .chromosomes(chromosomes)
            .chunks_per_chromosome(chunks)
            .seed(seed);
        let platform = PlatformBuilder::new()
            .cluster("mn", 2, NodeSpec::hpc(cores, 96_000))
            .build();
        let runtime = SimRuntime::new(platform, SimOptions::default());
        let ample = 2 * cores as usize + 12;
        let evacuated = lazy_matches_eager(&campaign, &runtime, &[ample, 3 * ample]);
        // A merge per 133–208 ids: five to eight per segment, and all
        // but the last segments' worth outlive their neighbours.
        prop_assert!(evacuated >= chromosomes / 2, "{} slots evacuated", evacuated);
    }
}
