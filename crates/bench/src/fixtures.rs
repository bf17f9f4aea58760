//! Per-experiment lint fixtures: a small-scale replica of each
//! experiment's workload/platform pair, exported as the
//! [`LintBundle`] the `continuum-lint` CLI consumes.
//!
//! The CI lint gate dumps these with `experiments --dump-lint <dir>`
//! and runs `continuum-lint check` over every file, so a regression in
//! either the verifier or a workload generator (a task that suddenly
//! reads unproduced data, a constraint no preset node can satisfy)
//! fails the build before any simulation runs.

use continuum_analyze::LintBundle;
use continuum_platform::{presets, Platform};
use continuum_runtime::SimWorkload;
use continuum_workflows::patterns::{
    chain, continuous_inference, embarrassingly_parallel, fork_join, map_reduce, random_layered,
    stencil, tree_reduce,
};
use continuum_workflows::{GwasWorkload, NmmbWorkload};

/// The workload/platform pair an experiment lints. Scales are far
/// below the experiment's own (`Scale::Quick`) sizes: the lints are
/// structural, so a few dozen tasks exercise the same passes as a few
/// million.
fn fixture_parts(id: &str) -> Option<(SimWorkload, Platform)> {
    let pair = match id {
        // e1: strong-scaling sweep of an embarrassingly parallel bag.
        "e1" => (embarrassingly_parallel(64, 1.0), presets::marenostrum(4)),
        // e2: GWAS memory sizing (heavy tasks need 56 GB — only the
        // 96 GB MareNostrum nodes can host them). `build` drains the
        // lazy generator, so this lints what a lazy run emits too.
        "e2" => (
            GwasWorkload::new()
                .chromosomes(2)
                .chunks_per_chromosome(3)
                .build(),
            presets::marenostrum(2),
        ),
        // e3: NMMB daily forecast; the rigid MPI step wants 4 nodes.
        "e3" => (
            NmmbWorkload::new().days(2).init_scripts(4).build(),
            presets::marenostrum(6),
        ),
        // e4: locality — a 2D stencil moving neighbour halos.
        "e4" => (stencil(4, 4, 1.0, 1_000_000), presets::marenostrum(2)),
        // e5: active storage — map/reduce over chunked inputs.
        "e5" => (map_reduce(8, 1.0, 2.0, 1_000_000), presets::marenostrum(2)),
        // e6: recovery — a sequential chain (worst case for replay).
        "e6" => (chain(12, 1.0), presets::marenostrum(2)),
        // e7: offloading — a reduction tree spanning HPC and cloud.
        "e7" => (
            tree_reduce(16, 1.0, 0.5, 1_000_000),
            presets::hybrid_hpc_cloud(2, 1, 4),
        ),
        // e8: elasticity — bursty ensembles on an elastic cloud pool.
        "e8" => (fork_join(3, 4, 3, 1.0), presets::hybrid_hpc_cloud(2, 1, 4)),
        // e9: lineage — an irregular layered DAG with shared ancestry.
        "e9" => (
            random_layered(7, 4, 4, 0.4, 0.5, 2.0),
            presets::marenostrum(2),
        ),
        // e10: scheduler comparison — a wider irregular DAG.
        "e10" => (
            random_layered(42, 5, 6, 0.3, 0.5, 3.0),
            presets::marenostrum(2),
        ),
        // e11: energy — uniform bag split across power envelopes.
        "e11" => (
            embarrassingly_parallel(32, 2.0),
            presets::hybrid_hpc_cloud(2, 1, 2),
        ),
        // e12: dislib — tree reduction standing in for the cascades.
        "e12" => (tree_reduce(8, 2.0, 1.0, 4_000_000), presets::marenostrum(2)),
        // e13: streaming — the continuous-inference window with genuine
        // Stream edges, so the stream lints (`unclosed-stream`,
        // `reader-before-writer`) run over a real streamed fixture in
        // every CI lint pass.
        "e13" => (
            continuous_inference(8, 1_000_000, 1.0),
            presets::smart_city(2, 2, 2),
        ),
        _ => return None,
    };
    Some(pair)
}

/// Builds the lint bundle for experiment `id` (`"e1"` … `"e13"`).
///
/// Returns `None` for unknown ids.
pub fn lint_fixture(id: &str) -> Option<LintBundle> {
    let (workload, platform) = fixture_parts(id)?;
    Some(workload.lint_bundle(&platform).to_bundle())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_EXPERIMENTS;
    use continuum_analyze::has_errors;

    #[test]
    fn every_experiment_has_a_fixture() {
        for id in ALL_EXPERIMENTS {
            assert!(lint_fixture(id).is_some(), "missing lint fixture for {id}");
        }
        assert!(lint_fixture("e99").is_none());
    }

    /// The gate the CI step enforces: every shipped fixture verifies
    /// with zero error-severity findings.
    #[test]
    fn fixtures_verify_error_free() {
        for id in ALL_EXPERIMENTS {
            let report = lint_fixture(id).unwrap().verify();
            assert!(
                !has_errors(&report),
                "fixture {id} has error findings: {report:#?}"
            );
        }
    }

    /// Fixtures survive the CLI's JSON round trip with the report
    /// intact (the dump files are only useful if this holds).
    #[test]
    fn fixtures_round_trip_through_json() {
        for id in ["e1", "e3", "e13"] {
            let bundle = lint_fixture(id).unwrap();
            let json = serde::to_string(&bundle);
            let reloaded: LintBundle = serde::from_str(&json)
                .unwrap_or_else(|e| panic!("fixture {id} fails to round-trip: {e:?}"));
            assert_eq!(reloaded.verify(), bundle.verify(), "{id}");
        }
    }
}
