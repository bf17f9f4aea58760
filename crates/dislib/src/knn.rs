//! k-nearest-neighbour classification with per-block candidate search.

use crate::array::DistMatrix;
use crate::error::DislibError;
use crate::matrix::Matrix;
use continuum_runtime::LocalRuntime;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-query candidate list: `(squared distance, label)` pairs.
type Candidates = Vec<Vec<(f64, usize)>>;

/// k-NN classifier: each training block searches its own rows for the
/// `k` nearest candidates of every query (parallel tasks); a reduction
/// merges the per-block candidates and majority-votes.
///
/// # Example
///
/// ```
/// use continuum_runtime::{LocalRuntime, LocalConfig};
/// use continuum_dislib::{DistMatrix, KnnClassifier, Matrix};
///
/// let rt = LocalRuntime::new(LocalConfig::with_workers(2));
/// let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![10.0], vec![10.1]]);
/// let y = vec![0, 0, 1, 1];
/// let data = DistMatrix::from_matrix(&rt, &x, 2);
/// let model = KnnClassifier::new(3).fit(&rt, &data, &y)?;
/// let labels = model.predict(&rt, &Matrix::from_rows(&[vec![0.05], vec![9.9]]))?;
/// assert_eq!(labels, vec![0, 1]);
/// # Ok::<(), continuum_dislib::DislibError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    k: usize,
}

/// A fitted k-NN model: references to the training blocks plus their
/// labels in row order.
#[derive(Debug, Clone)]
pub struct KnnModel {
    k: usize,
    train: DistMatrix,
    labels: Arc<[usize]>,
}

impl KnnClassifier {
    /// Creates a classifier with `k` neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KnnClassifier { k }
    }

    /// "Fits" the model (k-NN is lazy: this validates shapes and keeps
    /// the labels).
    ///
    /// # Errors
    ///
    /// * [`DislibError::ShapeMismatch`] if `labels.len() != x.rows()`;
    /// * [`DislibError::InvalidParam`] if `k` exceeds the sample count.
    pub fn fit(
        &self,
        _rt: &LocalRuntime,
        x: &DistMatrix,
        labels: &[usize],
    ) -> Result<KnnModel, DislibError> {
        if labels.len() != x.rows() {
            return Err(DislibError::ShapeMismatch(format!(
                "{} labels for {} samples",
                labels.len(),
                x.rows()
            )));
        }
        if self.k > x.rows() {
            return Err(DislibError::InvalidParam(format!(
                "k = {} exceeds {} samples",
                self.k,
                x.rows()
            )));
        }
        Ok(KnnModel {
            k: self.k,
            train: x.clone(),
            labels: labels.into(),
        })
    }
}

impl KnnModel {
    /// Classifies every row of `queries`.
    ///
    /// # Errors
    ///
    /// * [`DislibError::ShapeMismatch`] if the query width differs
    ///   from the training width;
    /// * runtime errors from the task graph.
    pub fn predict(&self, rt: &LocalRuntime, queries: &Matrix) -> Result<Vec<usize>, DislibError> {
        if queries.cols() != self.train.cols() {
            return Err(DislibError::ShapeMismatch(format!(
                "queries have {} features, training data {}",
                queries.cols(),
                self.train.cols()
            )));
        }
        let shared_q = Arc::new(queries.clone());
        let labels = Arc::clone(&self.labels);
        let k = self.k;
        let n_queries = queries.rows();
        // Per-block candidate search, then merge + vote.
        let voted = self.train.reduce_blocks(
            rt,
            None,
            ["knn_partial", "knn_merge"],
            format_args!("knn"),
            move |first_row, b, _| {
                let mut all: Candidates = Vec::with_capacity(shared_q.rows());
                for qi in 0..shared_q.rows() {
                    let mut cands: Vec<(f64, usize)> = (0..b.rows())
                        .map(|r| (shared_q.row_distance_sq(qi, b, r), r))
                        .collect();
                    keep_k_nearest(&mut cands, k);
                    for cand in &mut cands {
                        cand.1 = labels[first_row + cand.1];
                    }
                    all.push(cands);
                }
                all
            },
            move |parts| {
                let parts: Vec<&Candidates> = parts.collect();
                let mut labels = Vec::with_capacity(n_queries);
                for qi in 0..n_queries {
                    let mut cands: Vec<(f64, usize)> = Vec::new();
                    for part in &parts {
                        cands.extend(part[qi].iter().copied());
                    }
                    // Stable: equal distances stay in block, then row, order.
                    cands.sort_by(|a, b| a.0.total_cmp(&b.0));
                    cands.truncate(k);
                    let mut votes: HashMap<usize, usize> = HashMap::new();
                    for (_, l) in &cands {
                        *votes.entry(*l).or_insert(0) += 1;
                    }
                    let best = votes
                        .into_iter()
                        .max_by_key(|(label, count)| (*count, std::cmp::Reverse(*label)))
                        .map(|(label, _)| label)
                        .unwrap_or(0);
                    labels.push(best);
                }
                labels
            },
        )?;
        Ok(voted.as_ref().clone())
    }
}

/// Keeps the `k` nearest of `cands` — `(squared distance, row)` pairs
/// with distinct rows — nearest first, equal distances by row: what a
/// stable sort by distance of the row-ordered list would keep, without
/// ordering the rest. The key is total (`f64::total_cmp`), so a NaN
/// distance has a place in the order (a positive NaN past every
/// number) where `partial_cmp` had a panic.
fn keep_k_nearest(cands: &mut Vec<(f64, usize)>, k: usize) {
    let by_distance_then_row =
        |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    if k < cands.len() {
        cands.select_nth_unstable_by(k, by_distance_then_row);
        cands.truncate(k);
    }
    cands.sort_unstable_by(by_distance_then_row);
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
    fn classifies_separated_classes() {
        let rt = rt();
        let mut rng = StdRng::seed_from_u64(4);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..60 {
            let class = rng.gen_range(0..3usize);
            let base = class as f64 * 10.0;
            rows.push(vec![base + rng.gen::<f64>(), base - rng.gen::<f64>()]);
            labels.push(class);
        }
        let data = DistMatrix::from_matrix(&rt, &Matrix::from_rows(&rows), 13);
        let model = KnnClassifier::new(5).fit(&rt, &data, &labels).unwrap();
        let queries = Matrix::from_rows(&[vec![0.5, 0.5], vec![10.5, 9.5], vec![20.5, 19.5]]);
        assert_eq!(model.predict(&rt, &queries).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn agrees_with_single_block_reference() {
        let rt = rt();
        let mut rng = StdRng::seed_from_u64(8);
        let rows: Vec<Vec<f64>> = (0..40).map(|_| vec![rng.gen(), rng.gen()]).collect();
        let labels: Vec<usize> = (0..40).map(|i| i % 4).collect();
        let queries = Matrix::from_rows(
            &(0..10)
                .map(|_| vec![rng.gen(), rng.gen()])
                .collect::<Vec<_>>(),
        );
        let blocked = KnnClassifier::new(3)
            .fit(
                &rt,
                &DistMatrix::from_matrix(&rt, &Matrix::from_rows(&rows), 7),
                &labels,
            )
            .unwrap()
            .predict(&rt, &queries)
            .unwrap();
        let single = KnnClassifier::new(3)
            .fit(
                &rt,
                &DistMatrix::from_matrix(&rt, &Matrix::from_rows(&rows), 40),
                &labels,
            )
            .unwrap()
            .predict(&rt, &queries)
            .unwrap();
        assert_eq!(blocked, single);
    }

    #[test]
    fn shape_and_param_validation() {
        let rt = rt();
        let data = DistMatrix::from_matrix(&rt, &Matrix::from_rows(&[vec![1.0], vec![2.0]]), 1);
        assert!(matches!(
            KnnClassifier::new(1).fit(&rt, &data, &[0]),
            Err(DislibError::ShapeMismatch(_))
        ));
        assert!(matches!(
            KnnClassifier::new(5).fit(&rt, &data, &[0, 1]),
            Err(DislibError::InvalidParam(_))
        ));
        let model = KnnClassifier::new(1).fit(&rt, &data, &[0, 1]).unwrap();
        assert!(matches!(
            model.predict(&rt, &Matrix::from_rows(&[vec![1.0, 2.0]])),
            Err(DislibError::ShapeMismatch(_))
        ));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let _ = KnnClassifier::new(0);
    }

    #[test]
    fn selection_keeps_what_the_full_stable_sort_kept() {
        let mut rng = StdRng::seed_from_u64(21);
        for case in 0..200 {
            let n = rng.gen_range(1..60usize);
            let k = rng.gen_range(1..12usize);
            // A 6-value grid plants many equal distances; odd cases mix
            // in distinct ones.
            let cands: Vec<(f64, usize)> = (0..n)
                .map(|r| {
                    let tied = f64::from(rng.gen_range(0u32..6)) * 0.5;
                    let d = if case % 2 == 1 && rng.gen() {
                        rng.gen::<f64>()
                    } else {
                        tied
                    };
                    (d, r)
                })
                .collect();
            let mut want = cands.clone();
            want.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
            want.truncate(k);
            let mut got = cands;
            keep_k_nearest(&mut got, k);
            assert_eq!(got, want, "n = {n}, k = {k}");
        }
    }

    #[test]
    fn nan_feature_is_ordered_instead_of_panicking() {
        let rt = rt();
        // Row 1 is NaN; block 0 has only two rows, so with k = 2 its NaN
        // candidate reaches the merge as well.
        let x = Matrix::from_rows(&[vec![0.0], vec![f64::NAN], vec![0.2], vec![10.0]]);
        let data = DistMatrix::from_matrix(&rt, &x, 2);
        let model = KnnClassifier::new(2)
            .fit(&rt, &data, &[0, 1, 0, 1])
            .unwrap();
        let labels = model
            .predict(&rt, &Matrix::from_rows(&[vec![0.1]]))
            .unwrap();
        assert_eq!(labels, vec![0]);
    }
}
