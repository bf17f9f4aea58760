//! Lazy residency as a property: for arbitrary GWAS campaign shapes,
//! platforms and windows — down to one chunk, far below what
//! `crates/workflows/tests/proptest_gwas_lazy.rs` compares with the
//! eager schedule — the lazily materialized run completes the whole
//! campaign with bounded residency.

use continuum_platform::{NodeSpec, PlatformBuilder};
use continuum_runtime::{LocalityScheduler, SimOptions, SimRuntime};
use continuum_sim::FaultPlan;
use continuum_workflows::GwasWorkload;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn lazy_gwas_completes_within_residency_bounds(
        chromosomes in 1usize..4,
        chunks in 1usize..8,
        window in 1usize..6,
        nodes in 1usize..4,
        seed in 0u64..200,
    ) {
        let mut source = GwasWorkload::new()
            .chromosomes(chromosomes)
            .chunks_per_chromosome(chunks)
            .seed(seed)
            .into_source(window);
        let platform = PlatformBuilder::new()
            .cluster("mn", nodes, NodeSpec::hpc(4, 96_000))
            .build();
        let out = SimRuntime::new(platform, SimOptions::default())
            .run_lazy(&mut source, &mut LocalityScheduler::new(), &FaultPlan::new())
            .expect("lazy GWAS completes");
        prop_assert_eq!(out.report.tasks_completed, out.total_tasks);
        prop_assert!(out.peak_materialized_tasks <= out.total_tasks);
        prop_assert!(out.retired_tasks <= out.total_tasks);
    }
}
