//! Principal component analysis via blocked covariance and power
//! iteration with deflation.

use crate::array::{sum, DistMatrix};
use crate::error::DislibError;
use crate::matrix::Matrix;
use crate::scaler::StandardScaler;
use continuum_runtime::LocalRuntime;

/// PCA estimator: centers the data (blocked), accumulates the `d × d`
/// covariance from per-block partials (parallel tasks), then extracts
/// the leading components by power iteration with deflation.
///
/// # Example
///
/// ```
/// use continuum_runtime::{LocalRuntime, LocalConfig};
/// use continuum_dislib::{DistMatrix, Pca, Matrix};
///
/// let rt = LocalRuntime::new(LocalConfig::with_workers(2));
/// // Points on the line y = x: one dominant direction.
/// let m = Matrix::from_rows(&[
///     vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0], vec![4.0, 4.1],
/// ]);
/// let dm = DistMatrix::from_matrix(&rt, &m, 2);
/// let model = Pca::new(1).fit(&rt, &dm)?;
/// let c = model.components();
/// assert!((c.at(0, 0).abs() - c.at(0, 1).abs()).abs() < 0.05);
/// # Ok::<(), continuum_dislib::DislibError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Pca {
    n_components: usize,
    max_iter: usize,
    tol: f64,
}

/// A fitted PCA model.
#[derive(Debug, Clone)]
pub struct PcaModel {
    components: Matrix,
    explained_variance: Vec<f64>,
    mean: Vec<f64>,
}

impl Pca {
    /// Creates a PCA estimator extracting `n_components` directions.
    ///
    /// # Panics
    ///
    /// Panics if `n_components` is zero.
    pub fn new(n_components: usize) -> Self {
        assert!(n_components > 0, "need at least one component");
        Pca {
            n_components,
            max_iter: 500,
            tol: 1e-10,
        }
    }

    /// Sets the power-iteration limit.
    pub fn max_iter(mut self, n: usize) -> Self {
        self.max_iter = n.max(1);
        self
    }

    /// Fits the model.
    ///
    /// # Errors
    ///
    /// * [`DislibError::InvalidParam`] if `n_components > d`;
    /// * runtime errors from the task graph.
    pub fn fit(&self, rt: &LocalRuntime, x: &DistMatrix) -> Result<PcaModel, DislibError> {
        let d = x.cols();
        if self.n_components > d {
            return Err(DislibError::InvalidParam(format!(
                "{} components from {d} features",
                self.n_components
            )));
        }
        // Center using the scaler's means (keep original scale).
        let scaler = StandardScaler::fit(rt, x)?;
        let mean = scaler.mean().to_vec();
        let shift = mean.clone();
        let centered = x.map_blocks(rt, "pca_center", move |b| {
            let mut out = Matrix::zeros(b.rows(), b.cols());
            for r in 0..b.rows() {
                for (c, s) in shift.iter().enumerate() {
                    out.set(r, c, b.at(r, c) - s);
                }
            }
            out
        })?;
        // Blocked covariance: sum of per-block XᵀX.
        let gram = centered.reduce_blocks(
            rt,
            None,
            ["pca_partial", "pca_reduce"],
            format_args!("pca"),
            |_, b, _| b.transpose().matmul(b),
            sum,
        )?;
        let denom = (x.rows().max(2) - 1) as f64;
        let mut cov = gram.scale(1.0 / denom);

        // Power iteration with deflation, locally on the small d × d.
        let mut components = Matrix::zeros(self.n_components, d);
        let mut explained = Vec::with_capacity(self.n_components);
        for comp in 0..self.n_components {
            let (v, lambda) = self.power_iteration(&cov, comp as u64);
            for (c, value) in v.iter().enumerate() {
                components.set(comp, c, *value);
            }
            explained.push(lambda.max(0.0));
            // Deflate: cov -= λ v vᵀ.
            for r in 0..d {
                for c in 0..d {
                    cov.set(r, c, cov.at(r, c) - lambda * v[r] * v[c]);
                }
            }
        }
        Ok(PcaModel {
            components,
            explained_variance: explained,
            mean,
        })
    }

    /// Returns `(eigenvector, eigenvalue)` of the dominant direction.
    fn power_iteration(&self, cov: &Matrix, seed: u64) -> (Vec<f64>, f64) {
        let d = cov.rows();
        // Deterministic non-degenerate start vector.
        let mut v: Vec<f64> = (0..d)
            .map(|i| 1.0 + ((i as u64 + seed * 31 + 1) % 7) as f64 * 0.1)
            .collect();
        normalize(&mut v);
        let mut lambda = 0.0;
        for _ in 0..self.max_iter {
            let mut next = vec![0.0; d];
            for (r, item) in next.iter_mut().enumerate() {
                *item = (0..d).map(|c| cov.at(r, c) * v[c]).sum();
            }
            let new_lambda = norm(&next);
            if new_lambda < 1e-15 {
                // Null space reached (rank-deficient covariance).
                return (v, 0.0);
            }
            for item in &mut next {
                *item /= new_lambda;
            }
            let diff: f64 = next
                .iter()
                .zip(&v)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            v = next;
            lambda = new_lambda;
            if diff < self.tol {
                break;
            }
        }
        (v, lambda)
    }
}

impl PcaModel {
    /// The components, one per row (`n_components × d`), unit-norm.
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Variance captured by each component.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Projects a distributed matrix onto the components
    /// (block-parallel); the result has `n_components` columns.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn transform(&self, rt: &LocalRuntime, x: &DistMatrix) -> Result<Matrix, DislibError> {
        let comps_t = self.components.transpose();
        let mean = self.mean.clone();
        let k = self.components.rows();
        let projected = x.map_blocks(rt, "pca_transform", move |b| {
            let mut centered = Matrix::zeros(b.rows(), b.cols());
            for r in 0..b.rows() {
                for (c, m) in mean.iter().enumerate() {
                    centered.set(r, c, b.at(r, c) - m);
                }
            }
            centered.matmul(&comps_t)
        })?;
        projected.with_cols(k).collect(rt)
    }
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|a| a * a).sum::<f64>().sqrt()
}

fn normalize(v: &mut [f64]) {
    let n = norm(v);
    if n > 0.0 {
        for a in v {
            *a /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_runtime::LocalConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rt() -> LocalRuntime {
        LocalRuntime::new(LocalConfig::with_workers(4))
    }

    /// Anisotropic cloud: variance 100 along (1,1)/√2, 1 along (1,-1)/√2.
    fn cloud() -> Matrix {
        let mut rng = StdRng::seed_from_u64(11);
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|_| {
                let main: f64 = rng.gen::<f64>() * 20.0 - 10.0;
                let minor: f64 = rng.gen::<f64>() - 0.5;
                let sx = std::f64::consts::FRAC_1_SQRT_2;
                vec![main * sx + minor * sx, main * sx - minor * sx]
            })
            .collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn first_component_finds_dominant_direction() {
        let rt = rt();
        let dm = DistMatrix::from_matrix(&rt, &cloud(), 32);
        let model = Pca::new(2).fit(&rt, &dm).unwrap();
        let c = model.components();
        // Dominant direction ≈ (±1/√2, ±1/√2).
        let ratio = (c.at(0, 0) / c.at(0, 1)).abs();
        assert!((ratio - 1.0).abs() < 0.05, "ratio {ratio}");
        // Explained variances are sorted and the first dominates.
        let ev = model.explained_variance();
        assert!(ev[0] > 10.0 * ev[1], "{ev:?}");
    }

    #[test]
    fn components_are_orthonormal() {
        let rt = rt();
        let dm = DistMatrix::from_matrix(&rt, &cloud(), 32);
        let model = Pca::new(2).fit(&rt, &dm).unwrap();
        let c = model.components();
        let dot: f64 = (0..2).map(|i| c.at(0, i) * c.at(1, i)).sum();
        assert!(dot.abs() < 1e-6, "components not orthogonal: {dot}");
        for r in 0..2 {
            let n: f64 = (0..2).map(|i| c.at(r, i) * c.at(r, i)).sum::<f64>().sqrt();
            assert!((n - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn transform_decorrelates() {
        let rt = rt();
        let dm = DistMatrix::from_matrix(&rt, &cloud(), 32);
        let model = Pca::new(2).fit(&rt, &dm).unwrap();
        let t = model.transform(&rt, &dm).unwrap();
        assert_eq!(t.cols(), 2);
        assert_eq!(t.rows(), 200);
        // Projected coordinates are uncorrelated.
        let n = t.rows() as f64;
        let mean0: f64 = (0..t.rows()).map(|r| t.at(r, 0)).sum::<f64>() / n;
        let mean1: f64 = (0..t.rows()).map(|r| t.at(r, 1)).sum::<f64>() / n;
        let cov: f64 = (0..t.rows())
            .map(|r| (t.at(r, 0) - mean0) * (t.at(r, 1) - mean1))
            .sum::<f64>()
            / n;
        assert!(cov.abs() < 0.5, "projected covariance {cov}");
    }

    #[test]
    fn too_many_components_rejected() {
        let rt = rt();
        let dm = DistMatrix::from_matrix(
            &rt,
            &Matrix::zeros(4, 2).add(&Matrix::from_rows(&[
                vec![1.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 1.0],
                vec![0.5, 0.5],
            ])),
            2,
        );
        assert!(matches!(
            Pca::new(3).fit(&rt, &dm),
            Err(DislibError::InvalidParam(_))
        ));
    }
}
