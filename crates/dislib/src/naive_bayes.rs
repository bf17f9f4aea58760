//! Gaussian naive Bayes with blocked sufficient statistics.

use crate::array::{sum, DistMatrix};
use crate::error::DislibError;
use crate::matrix::Matrix;
use continuum_runtime::LocalRuntime;
use std::sync::Arc;

/// Gaussian naive Bayes classifier.
///
/// `fit` accumulates per-class sufficient statistics (count, per-feature
/// sum and sum of squares) with one task per block plus a reduction;
/// `predict` scores classes by log-likelihood under independent
/// Gaussians.
///
/// # Example
///
/// ```
/// use continuum_runtime::{LocalRuntime, LocalConfig};
/// use continuum_dislib::{DistMatrix, GaussianNb, Matrix};
///
/// let rt = LocalRuntime::new(LocalConfig::with_workers(2));
/// let x = Matrix::from_rows(&[
///     vec![0.0], vec![0.2], vec![0.1], vec![5.0], vec![5.2], vec![5.1],
/// ]);
/// let y = vec![0, 0, 0, 1, 1, 1];
/// let data = DistMatrix::from_matrix(&rt, &x, 2);
/// let model = GaussianNb::new().fit(&rt, &data, &y)?;
/// assert_eq!(model.predict(&rt, &Matrix::from_rows(&[vec![0.05], vec![4.9]]))?, vec![0, 1]);
/// # Ok::<(), continuum_dislib::DislibError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct GaussianNb {
    var_smoothing: f64,
}

/// A fitted Gaussian naive Bayes model.
#[derive(Debug, Clone)]
pub struct GaussianNbModel {
    /// Per class: prior, per-feature mean, per-feature variance.
    classes: Vec<ClassStats>,
    features: usize,
}

#[derive(Debug, Clone)]
struct ClassStats {
    label: usize,
    log_prior: f64,
    mean: Vec<f64>,
    var: Vec<f64>,
}

impl GaussianNb {
    /// Creates the estimator (variance smoothing 1e-9, like sklearn).
    pub fn new() -> Self {
        GaussianNb {
            var_smoothing: 1e-9,
        }
    }

    /// Sets the variance-smoothing floor.
    pub fn var_smoothing(mut self, eps: f64) -> Self {
        self.var_smoothing = eps.max(0.0);
        self
    }

    /// Fits on distributed features and per-row labels.
    ///
    /// # Errors
    ///
    /// [`DislibError::ShapeMismatch`] if `labels.len() != x.rows()`;
    /// runtime errors from the task graph.
    pub fn fit(
        &self,
        rt: &LocalRuntime,
        x: &DistMatrix,
        labels: &[usize],
    ) -> Result<GaussianNbModel, DislibError> {
        if labels.len() != x.rows() {
            return Err(DislibError::ShapeMismatch(format!(
                "{} labels for {} samples",
                labels.len(),
                x.rows()
            )));
        }
        let d = x.cols();
        let n_classes = labels.iter().copied().max().map_or(0, |m| m + 1);
        if n_classes == 0 {
            return Err(DislibError::InvalidParam("no samples".into()));
        }
        // Per block: a (3 * n_classes) × d matrix of stacked
        // [sums; sums of squares; counts-in-col-0] per class.
        let all_labels: Arc<[usize]> = labels.into();
        let acc = x.reduce_blocks(
            rt,
            None,
            ["gnb_partial", "gnb_reduce"],
            format_args!("gnb"),
            move |first_row, b, _| {
                let bl = &all_labels[first_row..first_row + b.rows()];
                let mut acc = Matrix::zeros(3 * n_classes, d.max(1));
                for (r, &c) in bl.iter().enumerate() {
                    for f in 0..d {
                        let v = b.at(r, f);
                        acc.set(c, f, acc.at(c, f) + v);
                        acc.set(n_classes + c, f, acc.at(n_classes + c, f) + v * v);
                    }
                    acc.set(2 * n_classes + c, 0, acc.at(2 * n_classes + c, 0) + 1.0);
                }
                acc
            },
            sum,
        )?;
        let total = labels.len() as f64;
        let mut classes = Vec::new();
        for c in 0..n_classes {
            let count = acc.at(2 * n_classes + c, 0);
            if count == 0.0 {
                continue; // label value never used
            }
            let mut mean = Vec::with_capacity(d);
            let mut var = Vec::with_capacity(d);
            for f in 0..d {
                let m = acc.at(c, f) / count;
                let v = (acc.at(n_classes + c, f) / count - m * m).max(0.0);
                mean.push(m);
                var.push(v + self.var_smoothing.max(1e-12));
            }
            classes.push(ClassStats {
                label: c,
                log_prior: (count / total).ln(),
                mean,
                var,
            });
        }
        Ok(GaussianNbModel {
            classes,
            features: d,
        })
    }
}

impl GaussianNbModel {
    /// Class labels the model knows.
    pub fn labels(&self) -> Vec<usize> {
        self.classes.iter().map(|c| c.label).collect()
    }

    /// Classifies every row of `queries` by maximum posterior.
    ///
    /// # Errors
    ///
    /// [`DislibError::ShapeMismatch`] on feature-width mismatch.
    pub fn predict(&self, _rt: &LocalRuntime, queries: &Matrix) -> Result<Vec<usize>, DislibError> {
        if queries.cols() != self.features {
            return Err(DislibError::ShapeMismatch(format!(
                "queries have {} features, model has {}",
                queries.cols(),
                self.features
            )));
        }
        let mut out = Vec::with_capacity(queries.rows());
        for r in 0..queries.rows() {
            let mut best = (f64::NEG_INFINITY, 0usize);
            for class in &self.classes {
                let mut score = class.log_prior;
                for f in 0..self.features {
                    let x = queries.at(r, f);
                    let var = class.var[f];
                    let diff = x - class.mean[f];
                    score += -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + diff * diff / var);
                }
                if score > best.0 {
                    best = (score, class.label);
                }
            }
            out.push(best.1);
        }
        Ok(out)
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

    #[test]
    fn classifies_gaussian_blobs() {
        let rt = rt();
        let mut rng = StdRng::seed_from_u64(6);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let centers = [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)];
        for _ in 0..120 {
            let c = rng.gen_range(0..3usize);
            rows.push(vec![
                centers[c].0 + rng.gen::<f64>() - 0.5,
                centers[c].1 + rng.gen::<f64>() - 0.5,
            ]);
            labels.push(c);
        }
        let data = DistMatrix::from_matrix(&rt, &Matrix::from_rows(&rows), 25);
        let model = GaussianNb::new().fit(&rt, &data, &labels).unwrap();
        assert_eq!(model.labels(), vec![0, 1, 2]);
        let pred = model
            .predict(
                &rt,
                &Matrix::from_rows(&[vec![0.1, 0.1], vec![6.1, 0.2], vec![0.2, 5.8]]),
            )
            .unwrap();
        assert_eq!(pred, vec![0, 1, 2]);
        // Training accuracy should be essentially perfect here.
        let train_pred = model.predict(&rt, &Matrix::from_rows(&rows)).unwrap();
        let acc = crate::metrics::accuracy(&labels, &train_pred);
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn priors_matter_for_imbalanced_classes() {
        let rt = rt();
        // 90% class 0, identical overlapping distributions: the prior
        // should dominate on ambiguous points.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..100 {
            rows.push(vec![(i % 10) as f64 * 0.01]);
            labels.push(if i < 90 { 0 } else { 1 });
        }
        let data = DistMatrix::from_matrix(&rt, &Matrix::from_rows(&rows), 20);
        let model = GaussianNb::new().fit(&rt, &data, &labels).unwrap();
        let pred = model
            .predict(&rt, &Matrix::from_rows(&[vec![0.05]]))
            .unwrap();
        assert_eq!(pred, vec![0]);
    }

    #[test]
    fn blocked_matches_single_block() {
        let rt = rt();
        let mut rng = StdRng::seed_from_u64(12);
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|_| vec![rng.gen(), rng.gen(), rng.gen()])
            .collect();
        let labels: Vec<usize> = (0..60).map(|i| i % 2).collect();
        let queries = Matrix::from_rows(
            &(0..15)
                .map(|_| vec![rng.gen(), rng.gen(), rng.gen()])
                .collect::<Vec<_>>(),
        );
        let x = Matrix::from_rows(&rows);
        let blocked = GaussianNb::new()
            .fit(&rt, &DistMatrix::from_matrix(&rt, &x, 7), &labels)
            .unwrap()
            .predict(&rt, &queries)
            .unwrap();
        let single = GaussianNb::new()
            .fit(&rt, &DistMatrix::from_matrix(&rt, &x, 60), &labels)
            .unwrap()
            .predict(&rt, &queries)
            .unwrap();
        assert_eq!(blocked, single);
    }

    #[test]
    fn validation_errors() {
        let rt = rt();
        let data = DistMatrix::from_matrix(&rt, &Matrix::from_rows(&[vec![1.0], vec![2.0]]), 1);
        assert!(matches!(
            GaussianNb::new().fit(&rt, &data, &[0]),
            Err(DislibError::ShapeMismatch(_))
        ));
        let model = GaussianNb::new().fit(&rt, &data, &[0, 1]).unwrap();
        assert!(matches!(
            model.predict(&rt, &Matrix::from_rows(&[vec![1.0, 2.0]])),
            Err(DislibError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn constant_feature_is_smoothed_not_divided_by_zero() {
        let rt = rt();
        let x = Matrix::from_rows(&[vec![5.0], vec![5.0], vec![7.0], vec![7.0]]);
        let data = DistMatrix::from_matrix(&rt, &x, 2);
        let model = GaussianNb::new().fit(&rt, &data, &[0, 0, 1, 1]).unwrap();
        let pred = model
            .predict(&rt, &Matrix::from_rows(&[vec![5.1], vec![6.9]]))
            .unwrap();
        assert_eq!(pred, vec![0, 1]);
    }
}
