//! A dislib-style machine-learning pipeline on the local runtime:
//! scale → PCA → K-means, plus a regression — the paper's §VI-C
//! "simple and easy to use interface" whose algorithms "run in
//! parallel" as task graphs.
//!
//! This example also illustrates the abstraction levels of paper
//! Figs. 2–3: the estimator API is the high-level abstraction, the
//! task runtime underneath is the general-purpose level, and the
//! access processor below that is the runtime API.
//!
//! ```text
//! cargo run --release --example ml_pipeline
//! ```

use continuum::dislib::{
    kernel_isa, DistMatrix, KMeans, LinearRegression, Matrix, Pca, StandardScaler,
};
use continuum::runtime::{LocalConfig, LocalRuntime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let rt = LocalRuntime::new(LocalConfig::with_workers(4));

    // Three gaussian-ish blobs in 4 dimensions.
    let mut rng = StdRng::seed_from_u64(13);
    let centers = [
        [0.0, 0.0, 5.0, 1.0],
        [8.0, 8.0, 0.0, 2.0],
        [0.0, 9.0, 9.0, 3.0],
    ];
    let rows: Vec<Vec<f64>> = (0..3000)
        .map(|i| {
            let c = &centers[i % 3];
            c.iter().map(|v| v + rng.gen::<f64>() - 0.5).collect()
        })
        .collect();
    let data = DistMatrix::from_matrix(&rt, &Matrix::from_rows(&rows), 256);
    println!(
        "dataset: {} samples × {} features in {} blocks",
        data.rows(),
        data.cols(),
        data.num_blocks()
    );

    // 1. Standardise.
    let scaler = StandardScaler::fit(&rt, &data).expect("scaler fits");
    let scaled = scaler.transform(&rt, &data).expect("transform");
    println!(
        "scaler means: {:?}",
        scaler
            .mean()
            .iter()
            .map(|m| (m * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    // 2. PCA to inspect the dominant structure.
    let pca = Pca::new(2).fit(&rt, &scaled).expect("pca fits");
    println!(
        "pca explained variance: {:?}",
        pca.explained_variance()
            .iter()
            .map(|v| (v * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    // 3. Cluster.
    let model = KMeans::new(3)
        .seed(5)
        .fit(&rt, &scaled)
        .expect("kmeans fits");
    let labels = model.predict(&rt, &scaled).expect("predict");
    let mut counts = [0usize; 3];
    for l in &labels {
        counts[*l] += 1;
    }
    println!(
        "kmeans: {} iterations, inertia {:.1}, cluster sizes {counts:?} ({} assignment kernel)",
        model.iterations,
        model.inertia,
        kernel_isa()
    );

    // 4. A supervised task: recover a linear relationship.
    let x: Vec<Vec<f64>> = (0..2000)
        .map(|_| vec![rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0])
        .collect();
    let y: Vec<Vec<f64>> = x
        .iter()
        .map(|r| vec![3.0 * r[0] - 2.0 * r[1] + 7.0])
        .collect();
    let dx = DistMatrix::from_matrix(&rt, &Matrix::from_rows(&x), 256);
    let dy = DistMatrix::from_matrix(&rt, &Matrix::from_rows(&y), 256);
    let lr = LinearRegression::new()
        .fit(&rt, &dx, &dy)
        .expect("ols fits");
    println!(
        "linear regression: coefficients [{:.3}, {:.3}], intercept {:.3} (truth: 3, -2, 7)",
        lr.coefficients().at(0, 0),
        lr.coefficients().at(1, 0),
        lr.intercept()[0]
    );
    rt.wait_all().expect("all tasks complete");
    println!(
        "total tasks executed by the runtime: {}",
        rt.completed_count()
    );
}
