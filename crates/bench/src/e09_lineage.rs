//! E9 — data-computing metrics (§VI-C): "The data-computing metrics
//! will be used to compute the trade-off between the cost of storing
//! data generated or re-computing them. While storing results has been
//! since now the followed approach, the project will propose new
//! unconventional strategies to reduce cost of storage and optimize
//! computing."

use crate::table::{ExperimentError, ExperimentTable, Scale};
use continuum_runtime::{LineageChain, LineagePolicy, Stage};

fn chain(storage_price: f64) -> LineageChain {
    LineageChain::new(
        vec![
            // A curation stage: cheap to store, hot.
            Stage {
                compute_s: 300.0,
                size_mb: 50.0,
                accesses: 20,
            },
            // A huge intermediate: rarely touched.
            Stage {
                compute_s: 60.0,
                size_mb: 20_000.0,
                accesses: 1,
            },
            // An expensive simulation output.
            Stage {
                compute_s: 3_600.0,
                size_mb: 2_000.0,
                accesses: 4,
            },
            // A small analysis product, very hot.
            Stage {
                compute_s: 120.0,
                size_mb: 10.0,
                accesses: 50,
            },
        ],
        storage_price,
        1.0, // one currency unit per compute-second
    )
}

/// Sweeps the storage price and evaluates the three policies.
pub fn run(scale: Scale) -> Result<ExperimentTable, ExperimentError> {
    let prices = scale.pick(
        vec![0.01, 1.0, 100.0],
        vec![0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0],
    );
    let mut table = ExperimentTable::new(
        "e9",
        "store-vs-recompute trade-off: hybrid policy dominates both extremes (§VI-C)",
        &[
            "storage_price",
            "store_all",
            "recompute_all",
            "cost_based",
            "stored_stages",
        ],
    );
    for &p in &prices {
        let c = chain(p);
        let store = c.evaluate(LineagePolicy::StoreAll);
        let recompute = c.evaluate(LineagePolicy::RecomputeAll);
        let hybrid = c.evaluate(LineagePolicy::CostBased);
        table.row([
            format!("{p}"),
            format!("{:.0}", store.total_cost()),
            format!("{:.0}", recompute.total_cost()),
            format!("{:.0}", hybrid.total_cost()),
            hybrid.stored.iter().filter(|s| **s).count().to_string(),
        ]);
    }
    table.finding(
        "cheap storage → keep everything; expensive storage → recompute; the cost-based \
         policy crosses over gradually and never loses to either extreme"
            .to_string(),
    );
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_never_loses_and_crossover_exists() {
        let t = run(Scale::Quick).unwrap();
        for row in &t.rows {
            let store: f64 = row[1].parse().unwrap();
            let recompute: f64 = row[2].parse().unwrap();
            let hybrid: f64 = row[3].parse().unwrap();
            assert!(hybrid <= store + 1e-9, "{row:?}");
            assert!(hybrid <= recompute + 1e-9, "{row:?}");
        }
        // Extremes flip as storage gets expensive.
        let cheap_store: f64 = t.rows[0][1].parse().unwrap();
        let cheap_recompute: f64 = t.rows[0][2].parse().unwrap();
        let dear_store: f64 = t.rows[t.rows.len() - 1][1].parse().unwrap();
        let dear_recompute: f64 = t.rows[t.rows.len() - 1][2].parse().unwrap();
        assert!(cheap_store < cheap_recompute);
        assert!(dear_recompute < dear_store);
        // The hybrid stores fewer stages as prices rise.
        let stored_cheap: f64 = t.rows[0][4].parse().unwrap();
        let stored_dear: f64 = t.rows[t.rows.len() - 1][4].parse().unwrap();
        assert!(stored_cheap >= stored_dear);
    }
}
