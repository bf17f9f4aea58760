//! Ordinary least squares via blocked normal equations.

use crate::array::{sum, DistMatrix};
use crate::error::DislibError;
use crate::matrix::Matrix;
use continuum_runtime::LocalRuntime;

/// Linear regression (with intercept) fitted by solving the normal
/// equations `Xᵃᵀ Xᵃ w = Xᵃᵀ y`, where `Xᵃ` is `X` with an appended
/// ones column. Per-block Gram partials run as parallel tasks.
///
/// # Example
///
/// ```
/// use continuum_runtime::{LocalRuntime, LocalConfig};
/// use continuum_dislib::{DistMatrix, LinearRegression, Matrix};
///
/// let rt = LocalRuntime::new(LocalConfig::with_workers(2));
/// // y = 3x + 1
/// let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
/// let y = Matrix::from_rows(&[vec![1.0], vec![4.0], vec![7.0], vec![10.0]]);
/// let dx = DistMatrix::from_matrix(&rt, &x, 2);
/// let dy = DistMatrix::from_matrix(&rt, &y, 2);
/// let model = LinearRegression::new().fit(&rt, &dx, &dy)?;
/// assert!((model.coefficients().at(0, 0) - 3.0).abs() < 1e-9);
/// assert!((model.intercept()[0] - 1.0).abs() < 1e-9);
/// # Ok::<(), continuum_dislib::DislibError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinearRegression;

/// A fitted linear model.
#[derive(Debug, Clone)]
pub struct LinearModel {
    /// `(d+1) × t` weights; last row is the intercept.
    weights: Matrix,
}

impl LinearRegression {
    /// Creates the estimator.
    pub fn new() -> Self {
        LinearRegression
    }

    /// Fits on distributed features `x` and targets `y` (row-aligned:
    /// both must be partitioned with the same block sizes).
    ///
    /// # Errors
    ///
    /// * [`DislibError::ShapeMismatch`] if `x`/`y` row partitions
    ///   differ;
    /// * [`DislibError::Numerical`] if the normal equations are
    ///   singular (collinear features).
    pub fn fit(
        &self,
        rt: &LocalRuntime,
        x: &DistMatrix,
        y: &DistMatrix,
    ) -> Result<LinearModel, DislibError> {
        if x.rows() != y.rows() || x.rows_per_block() != y.rows_per_block() {
            return Err(DislibError::ShapeMismatch(format!(
                "x has {} rows {:?}, y has {} rows {:?}",
                x.rows(),
                x.rows_per_block(),
                y.rows(),
                y.rows_per_block()
            )));
        }
        let d = x.cols();
        let t = y.cols();
        // Per block: [G | B] where G = Xaᵀ Xa ((d+1)²) and B = Xaᵀ y.
        let packed = x.reduce_blocks(
            rt,
            Some(y),
            ["linreg_partial", "linreg_reduce"],
            format_args!("lr"),
            move |_, bx, by| {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: `fit` passes `y` as the paired matrix, so every block comes with its `y` block"
                )]
                let by = by.expect("paired with y");
                let xa = augment_ones(bx);
                let xat = xa.transpose();
                let g = xat.matmul(&xa);
                let b = xat.matmul(by);
                // Pack [G | B] side by side.
                let mut packed = Matrix::zeros(d + 1, d + 1 + t);
                for r in 0..d + 1 {
                    for c in 0..d + 1 {
                        packed.set(r, c, g.at(r, c));
                    }
                    for c in 0..t {
                        packed.set(r, d + 1 + c, b.at(r, c));
                    }
                }
                packed
            },
            sum,
        )?;
        // Unpack and solve.
        let mut g = Matrix::zeros(d + 1, d + 1);
        let mut b = Matrix::zeros(d + 1, t);
        for r in 0..d + 1 {
            for c in 0..d + 1 {
                g.set(r, c, packed.at(r, c));
            }
            for c in 0..t {
                b.set(r, c, packed.at(r, d + 1 + c));
            }
        }
        let weights = g.solve(&b).ok_or_else(|| {
            DislibError::Numerical("normal equations are singular (collinear features)".into())
        })?;
        Ok(LinearModel { weights })
    }
}

impl LinearModel {
    /// Feature weights (`d × t`, intercept excluded).
    pub fn coefficients(&self) -> Matrix {
        let d = self.weights.rows() - 1;
        let t = self.weights.cols();
        let mut out = Matrix::zeros(d, t);
        for r in 0..d {
            for c in 0..t {
                out.set(r, c, self.weights.at(r, c));
            }
        }
        out
    }

    /// Intercept per target.
    pub fn intercept(&self) -> Vec<f64> {
        let last = self.weights.rows() - 1;
        (0..self.weights.cols())
            .map(|c| self.weights.at(last, c))
            .collect()
    }

    /// Predicts targets for distributed features, block-parallel.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn predict(&self, rt: &LocalRuntime, x: &DistMatrix) -> Result<Matrix, DislibError> {
        let w = self.weights.clone();
        let t = w.cols();
        let projected = x.map_blocks(rt, "linreg_predict", move |b| augment_ones(b).matmul(&w))?;
        projected.with_cols(t).collect(rt)
    }
}

/// Appends a ones column (intercept feature).
fn augment_ones(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), m.cols() + 1);
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            out.set(r, c, m.at(r, c));
        }
        out.set(r, m.cols(), 1.0);
    }
    out
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

    #[test]
    fn exact_fit_on_noiseless_plane() {
        let rt = rt();
        // y = 2a - 3b + 5.
        let mut rng = StdRng::seed_from_u64(1);
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|_| vec![rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0])
            .collect();
        let ys: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| vec![2.0 * r[0] - 3.0 * r[1] + 5.0])
            .collect();
        let dx = DistMatrix::from_matrix(&rt, &Matrix::from_rows(&rows), 8);
        let dy = DistMatrix::from_matrix(&rt, &Matrix::from_rows(&ys), 8);
        let model = LinearRegression::new().fit(&rt, &dx, &dy).unwrap();
        let coef = model.coefficients();
        assert!((coef.at(0, 0) - 2.0).abs() < 1e-8);
        assert!((coef.at(1, 0) + 3.0).abs() < 1e-8);
        assert!((model.intercept()[0] - 5.0).abs() < 1e-7);
        // Predictions reproduce the targets.
        let pred = model.predict(&rt, &dx).unwrap();
        for (i, y) in ys.iter().enumerate() {
            assert!((pred.at(i, 0) - y[0]).abs() < 1e-7);
        }
    }

    #[test]
    fn multi_target_regression() {
        let rt = rt();
        let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        // Targets: [2x, -x + 1].
        let y = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![2.0, 0.0],
            vec![4.0, -1.0],
            vec![6.0, -2.0],
        ]);
        let dx = DistMatrix::from_matrix(&rt, &x, 2);
        let dy = DistMatrix::from_matrix(&rt, &y, 2);
        let model = LinearRegression::new().fit(&rt, &dx, &dy).unwrap();
        let coef = model.coefficients();
        assert!((coef.at(0, 0) - 2.0).abs() < 1e-9);
        assert!((coef.at(0, 1) + 1.0).abs() < 1e-9);
        let icpt = model.intercept();
        assert!(icpt[0].abs() < 1e-9);
        assert!((icpt[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mismatched_partitions_rejected() {
        let rt = rt();
        let x = Matrix::zeros(4, 1).add(&Matrix::from_rows(&[
            vec![1.0],
            vec![2.0],
            vec![3.0],
            vec![4.0],
        ]));
        let y = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]);
        let dx = DistMatrix::from_matrix(&rt, &x, 2);
        let dy = DistMatrix::from_matrix(&rt, &y, 3);
        let err = LinearRegression::new().fit(&rt, &dx, &dy).unwrap_err();
        assert!(matches!(err, DislibError::ShapeMismatch(_)));
    }

    #[test]
    fn collinear_features_are_singular() {
        let rt = rt();
        // Second feature is exactly 2× the first.
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0], vec![3.0, 6.0]]);
        let y = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let dx = DistMatrix::from_matrix(&rt, &x, 2);
        let dy = DistMatrix::from_matrix(&rt, &y, 2);
        let err = LinearRegression::new().fit(&rt, &dx, &dy).unwrap_err();
        assert!(matches!(err, DislibError::Numerical(_)));
    }

    #[test]
    fn matches_single_block_reference() {
        // Blocked and unblocked fits must agree exactly.
        let rt = rt();
        let mut rng = StdRng::seed_from_u64(3);
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|_| vec![rng.gen(), rng.gen(), rng.gen()])
            .collect();
        let ys: Vec<Vec<f64>> = rows
            .iter()
            .map(|r| vec![1.5 * r[0] - 0.5 * r[1] + 2.0 * r[2] + 0.25])
            .collect();
        let x = Matrix::from_rows(&rows);
        let y = Matrix::from_rows(&ys);
        let blocked = LinearRegression::new()
            .fit(
                &rt,
                &DistMatrix::from_matrix(&rt, &x, 4),
                &DistMatrix::from_matrix(&rt, &y, 4),
            )
            .unwrap();
        let single = LinearRegression::new()
            .fit(
                &rt,
                &DistMatrix::from_matrix(&rt, &x, 30),
                &DistMatrix::from_matrix(&rt, &y, 30),
            )
            .unwrap();
        let diff = blocked
            .coefficients()
            .add(&single.coefficients().scale(-1.0))
            .frobenius_norm();
        assert!(diff < 1e-9, "blocked vs single-block diff {diff}");
    }
}
