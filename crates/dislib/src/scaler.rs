//! Per-column standardisation (zero mean, unit variance).

use crate::array::{sum, DistMatrix};
use crate::error::DislibError;
use crate::matrix::Matrix;
use continuum_runtime::LocalRuntime;

/// Standard scaler: `fit` computes per-column mean/std with blocked
/// reductions, `transform` standardises block-parallel.
///
/// # Example
///
/// ```
/// use continuum_runtime::{LocalRuntime, LocalConfig};
/// use continuum_dislib::{DistMatrix, StandardScaler, Matrix};
///
/// let rt = LocalRuntime::new(LocalConfig::with_workers(2));
/// let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
/// let dm = DistMatrix::from_matrix(&rt, &m, 2);
/// let scaler = StandardScaler::fit(&rt, &dm)?;
/// let scaled = scaler.transform(&rt, &dm)?.collect(&rt)?;
/// assert!(scaled.as_slice().iter().sum::<f64>().abs() < 1e-9);
/// # Ok::<(), continuum_dislib::DislibError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Computes per-column statistics.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn fit(rt: &LocalRuntime, x: &DistMatrix) -> Result<StandardScaler, DislibError> {
        let d = x.cols();
        // Partial: 3 × d matrix of [sum; sum of squares; count].
        let acc = x.reduce_blocks(
            rt,
            None,
            ["scaler_partial", "scaler_reduce"],
            format_args!("scaler"),
            move |_, b, _| {
                let mut acc = Matrix::zeros(3, d);
                for r in 0..b.rows() {
                    for c in 0..d {
                        let v = b.at(r, c);
                        acc.set(0, c, acc.at(0, c) + v);
                        acc.set(1, c, acc.at(1, c) + v * v);
                        acc.set(2, c, acc.at(2, c) + 1.0);
                    }
                }
                acc
            },
            sum,
        )?;
        let mut mean = Vec::with_capacity(d);
        let mut std = Vec::with_capacity(d);
        for c in 0..d {
            let n = acc.at(2, c).max(1.0);
            let m = acc.at(0, c) / n;
            let var = (acc.at(1, c) / n - m * m).max(0.0);
            mean.push(m);
            // Constant columns keep scale 1 to avoid division by zero.
            std.push(if var.sqrt() > 1e-12 { var.sqrt() } else { 1.0 });
        }
        Ok(StandardScaler { mean, std })
    }

    /// Per-column means.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Per-column standard deviations (1.0 for constant columns).
    pub fn std(&self) -> &[f64] {
        &self.std
    }

    /// Standardises a distributed matrix block-parallel.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn transform(&self, rt: &LocalRuntime, x: &DistMatrix) -> Result<DistMatrix, DislibError> {
        let mean = self.mean.clone();
        let std = self.std.clone();
        x.map_blocks(rt, "scaler_transform", move |b| {
            let mut out = Matrix::zeros(b.rows(), b.cols());
            for r in 0..b.rows() {
                for c in 0..b.cols() {
                    out.set(r, c, (b.at(r, c) - mean[c]) / std[c]);
                }
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_runtime::LocalConfig;

    fn rt() -> LocalRuntime {
        LocalRuntime::new(LocalConfig::with_workers(4))
    }

    #[test]
    fn statistics_match_reference() {
        let rt = rt();
        let m = Matrix::from_rows(&[
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ]);
        let dm = DistMatrix::from_matrix(&rt, &m, 2);
        let s = StandardScaler::fit(&rt, &dm).unwrap();
        assert!((s.mean()[0] - 2.5).abs() < 1e-12);
        assert!((s.mean()[1] - 25.0).abs() < 1e-12);
        let expected_std = (1.25f64).sqrt();
        assert!((s.std()[0] - expected_std).abs() < 1e-12);
        assert!((s.std()[1] - 10.0 * expected_std).abs() < 1e-12);
    }

    #[test]
    fn transform_standardises() {
        let rt = rt();
        let m = Matrix::from_rows(&[vec![2.0], vec![4.0], vec![6.0], vec![8.0]]);
        let dm = DistMatrix::from_matrix(&rt, &m, 3);
        let s = StandardScaler::fit(&rt, &dm).unwrap();
        let t = s.transform(&rt, &dm).unwrap().collect(&rt).unwrap();
        let mean: f64 = t.as_slice().iter().sum::<f64>() / 4.0;
        let var: f64 = t
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / 4.0;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_column_keeps_unit_scale() {
        let rt = rt();
        let m = Matrix::from_rows(&[vec![5.0], vec![5.0], vec![5.0]]);
        let dm = DistMatrix::from_matrix(&rt, &m, 2);
        let s = StandardScaler::fit(&rt, &dm).unwrap();
        assert_eq!(s.std()[0], 1.0);
        let t = s.transform(&rt, &dm).unwrap().collect(&rt).unwrap();
        assert!(t.as_slice().iter().all(|v| v.abs() < 1e-12));
    }
}
