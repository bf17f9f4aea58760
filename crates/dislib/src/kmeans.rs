//! K-means clustering with per-block partial reductions.

use crate::array::{sum, DistMatrix};
use crate::error::DislibError;
use crate::kernels;
use crate::matrix::Matrix;
use continuum_dag::TaskSpec;
use continuum_platform::Constraints;
use continuum_runtime::LocalRuntime;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

/// K-means estimator (Lloyd's algorithm).
///
/// Each iteration is one block reduction: a *partial* task per block
/// (assign points to the nearest centroid, accumulate per-cluster
/// sums/counts and the block inertia) and one task summing the partials
/// in block order; the runtime executes the partials in parallel.
///
/// # Example
///
/// ```
/// use continuum_runtime::{LocalRuntime, LocalConfig};
/// use continuum_dislib::{DistMatrix, KMeans, Matrix};
///
/// let rt = LocalRuntime::new(LocalConfig::with_workers(2));
/// let pts = Matrix::from_rows(&[
///     vec![0.0, 0.0], vec![0.1, 0.0], vec![10.0, 10.0], vec![10.1, 10.0],
/// ]);
/// let data = DistMatrix::from_matrix(&rt, &pts, 2);
/// let model = KMeans::new(2).seed(1).fit(&rt, &data)?;
/// let labels = model.predict(&rt, &data)?;
/// assert_eq!(labels[0], labels[1]);
/// assert_ne!(labels[0], labels[2]);
/// # Ok::<(), continuum_dislib::DislibError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KMeans {
    k: usize,
    max_iter: usize,
    tol: f64,
    seed: u64,
}

/// A fitted K-means model.
#[derive(Debug, Clone)]
pub struct KMeansModel {
    /// Cluster centroids, one per row.
    pub centroids: Matrix,
    /// Iterations executed.
    pub iterations: usize,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
}

impl KMeans {
    /// Creates an estimator with `k` clusters (50 iterations max,
    /// tolerance 1e-6, seed 0).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KMeans {
            k,
            max_iter: 50,
            tol: 1e-6,
            seed: 0,
        }
    }

    /// Sets the iteration limit.
    pub fn max_iter(mut self, n: usize) -> Self {
        self.max_iter = n.max(1);
        self
    }

    /// Sets the centroid-shift convergence tolerance.
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the initialisation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fits the model on a distributed dataset.
    ///
    /// # Errors
    ///
    /// * [`DislibError::InvalidParam`] if `k` exceeds the number of
    ///   samples;
    /// * runtime errors from the task graph.
    pub fn fit(&self, rt: &LocalRuntime, x: &DistMatrix) -> Result<KMeansModel, DislibError> {
        if self.k > x.rows() {
            return Err(DislibError::InvalidParam(format!(
                "k = {} exceeds {} samples",
                self.k,
                x.rows()
            )));
        }
        let mut centroids = self.init_centroids(rt, x)?;
        let mut iterations = 0;
        let mut inertia = f64::INFINITY;
        for it in 0..self.max_iter {
            iterations = it + 1;
            let (new_centroids, new_inertia) = self.step(rt, x, &centroids, it)?;
            let shift = new_centroids.frobenius_distance(&centroids);
            centroids = new_centroids;
            inertia = new_inertia;
            if shift < self.tol {
                break;
            }
        }
        Ok(KMeansModel {
            centroids,
            iterations,
            inertia,
        })
    }

    /// One Lloyd iteration: parallel partials + one reduction.
    fn step(
        &self,
        rt: &LocalRuntime,
        x: &DistMatrix,
        centroids: &Matrix,
        iter: usize,
    ) -> Result<(Matrix, f64), DislibError> {
        let k = self.k;
        let d = x.cols();
        let panel = Arc::new(centroids.transpose());
        // Partial layout: k rows of [sum_0..sum_d-1, count] plus one
        // extra row [inertia, 0, ...].
        let acc = x.reduce_blocks(
            rt,
            None,
            ["kmeans_partial", "kmeans_reduce"],
            format_args!("km_{iter}"),
            move |_, b, _| {
                let mut acc = Matrix::zeros(k + 1, d + 1);
                let mut inertia = 0.0;
                kernels::nearest(&panel, b, |x, best, dist| {
                    let sums = acc.row_mut(best);
                    for (s, v) in sums.iter_mut().zip(x) {
                        *s += v;
                    }
                    sums[d] += 1.0;
                    inertia += dist;
                });
                acc.set(k, 0, inertia);
                acc
            },
            sum,
        )?;
        // Fold the accumulator into new centroids; empty clusters keep
        // their previous position.
        let mut new_centroids = centroids.clone();
        for c in 0..k {
            let count = acc.at(c, d);
            if count > 0.0 {
                for j in 0..d {
                    new_centroids.set(c, j, acc.at(c, j) / count);
                }
            }
        }
        Ok((new_centroids, acc.at(k, 0)))
    }

    fn init_centroids(&self, rt: &LocalRuntime, x: &DistMatrix) -> Result<Matrix, DislibError> {
        // Sample k distinct rows from the first block(s): shuffle row
        // indices (the permutation depends on their count and the seed
        // alone) and copy only the chosen rows.
        let mut blocks = Vec::new();
        let mut candidates = 0;
        for block in x.blocks() {
            let b = rt.get(block)?;
            candidates += b.rows();
            blocks.push(b);
            if candidates >= self.k.max(32) {
                break;
            }
        }
        let mut order: Vec<usize> = (0..candidates).collect();
        order.shuffle(&mut StdRng::seed_from_u64(self.seed));
        let mut data = Vec::with_capacity(self.k * x.cols());
        for &chosen in &order[..self.k] {
            let (mut b, mut r) = (0, chosen);
            while r >= blocks[b].rows() {
                r -= blocks[b].rows();
                b += 1;
            }
            data.extend_from_slice(blocks[b].row(r));
        }
        Ok(Matrix::from_vec(self.k, x.cols(), data))
    }
}

impl KMeansModel {
    /// Assigns every sample to its nearest centroid; labels are in row
    /// order.
    ///
    /// # Errors
    ///
    /// * [`DislibError::ShapeMismatch`] if `x` is not as wide as the
    ///   centroids;
    /// * runtime errors from the task graph.
    pub fn predict(&self, rt: &LocalRuntime, x: &DistMatrix) -> Result<Vec<usize>, DislibError> {
        if x.cols() != self.centroids.cols() {
            return Err(DislibError::ShapeMismatch(format!(
                "samples have {} features, centroids {}",
                x.cols(),
                self.centroids.cols()
            )));
        }
        let panel = Arc::new(self.centroids.transpose());
        let mut outs = Vec::with_capacity(x.num_blocks());
        for (i, block) in x.blocks().iter().enumerate() {
            let out = rt.data::<Vec<usize>>(format!("km_pred_{i}"));
            let panel = Arc::clone(&panel);
            rt.submit(
                TaskSpec::new("kmeans_predict")
                    .input(block.id())
                    .output(out.id()),
                Constraints::new(),
                move |ctx| {
                    let b: &Matrix = ctx.input(0);
                    let mut labels = Vec::with_capacity(b.rows());
                    kernels::nearest(&panel, b, |_, best, _| labels.push(best));
                    ctx.set_output(0, labels);
                },
            )?;
            outs.push(out);
        }
        let mut labels = Vec::with_capacity(x.rows());
        for out in &outs {
            labels.extend(rt.get(out)?.iter().copied());
        }
        Ok(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::closest_by_row_distance;
    use continuum_runtime::LocalConfig;
    use rand::Rng;

    fn rt() -> LocalRuntime {
        LocalRuntime::new(LocalConfig::with_workers(4))
    }

    /// Three well-separated gaussian-ish blobs.
    fn blobs() -> Matrix {
        let mut rows = Vec::new();
        let centers = [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..60 {
            let (cx, cy) = centers[rng.gen_range(0..3)];
            rows.push(vec![cx + rng.gen::<f64>(), cy + rng.gen::<f64>()]);
        }
        Matrix::from_rows(&rows)
    }

    #[test]
    fn recovers_separated_blobs() {
        let rt = rt();
        let data = DistMatrix::from_matrix(&rt, &blobs(), 10);
        let model = KMeans::new(3).seed(3).fit(&rt, &data).unwrap();
        assert_eq!(model.centroids.rows(), 3);
        // Every centroid is near one of the true centers.
        let truth = Matrix::from_rows(&[vec![0.5, 0.5], vec![20.5, 0.5], vec![0.5, 20.5]]);
        for c in 0..3 {
            let min_d = (0..3)
                .map(|t| model.centroids.row_distance_sq(c, &truth, t))
                .fold(f64::INFINITY, f64::min);
            assert!(min_d < 2.0, "centroid {c} off by {min_d}");
        }
        assert!(
            model.inertia < 60.0,
            "tight clusters, inertia {}",
            model.inertia
        );
    }

    #[test]
    fn labels_are_consistent_with_distances() {
        let rt = rt();
        let data = DistMatrix::from_matrix(&rt, &blobs(), 7);
        let model = KMeans::new(3).seed(1).fit(&rt, &data).unwrap();
        let labels = model.predict(&rt, &data).unwrap();
        assert_eq!(labels.len(), 60);
        let m = data.collect(&rt).unwrap();
        for (r, label) in labels.iter().enumerate() {
            let (best, _) = closest_by_row_distance(&model.centroids, &m, r);
            assert_eq!(*label, best);
        }
    }

    #[test]
    fn converges_quickly_on_trivial_data() {
        let rt = rt();
        let m = Matrix::from_rows(&[vec![0.0], vec![0.0], vec![100.0], vec![100.0]]);
        let data = DistMatrix::from_matrix(&rt, &m, 2);
        let model = KMeans::new(2).seed(0).fit(&rt, &data).unwrap();
        assert!(model.iterations <= 3);
        assert!(model.inertia < 1e-9);
    }

    #[test]
    fn k_larger_than_samples_rejected() {
        let rt = rt();
        let m = Matrix::from_rows(&[vec![1.0]]);
        let data = DistMatrix::from_matrix(&rt, &m, 1);
        let err = KMeans::new(5).fit(&rt, &data).unwrap_err();
        assert!(matches!(err, DislibError::InvalidParam(_)));
    }

    /// `fit` draws its centroids from the matrix it is given, so only
    /// `predict` can meet a model of another width.
    #[test]
    fn predict_rejects_a_matrix_of_another_width() {
        let rt = rt();
        let data = DistMatrix::from_matrix(&rt, &blobs(), 10);
        let model = KMeans::new(3).seed(3).fit(&rt, &data).unwrap();
        let wider = DistMatrix::random(&rt, 20, 3, 10, 1).unwrap();
        let err = model.predict(&rt, &wider).unwrap_err();
        assert!(matches!(err, DislibError::ShapeMismatch(_)), "{err}");
        // Refused at the door: no task ran, the runtime is still usable.
        assert_eq!(model.predict(&rt, &data).unwrap().len(), 60);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let rt1 = rt();
        let data1 = DistMatrix::from_matrix(&rt1, &blobs(), 10);
        let a = KMeans::new(3).seed(9).fit(&rt1, &data1).unwrap();
        let rt2 = rt();
        let data2 = DistMatrix::from_matrix(&rt2, &blobs(), 10);
        let b = KMeans::new(3).seed(9).fit(&rt2, &data2).unwrap();
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let _ = KMeans::new(0);
    }

    fn fnv1a(hash: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Constants read on the commit before the panel kernel (PR 17):
    /// the model is the same to the last bit at every worker count.
    #[test]
    fn pinned_model_bits_at_one_two_and_four_workers() {
        for workers in [1, 2, 4] {
            let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
            let x = DistMatrix::random(&rt, 5_000, 7, 625, 7919).unwrap();
            let model = KMeans::new(13)
                .max_iter(12)
                .tol(0.0)
                .seed(7919)
                .fit(&rt, &x)
                .unwrap();
            let labels = model.predict(&rt, &x).unwrap();
            assert_eq!(model.inertia.to_bits(), 0x4099_403b_78a6_68db);
            let mut hash = 0xcbf2_9ce4_8422_2325;
            for v in model.centroids.as_slice() {
                fnv1a(&mut hash, v.to_bits());
            }
            for &label in &labels {
                fnv1a(&mut hash, label as u64);
            }
            assert_eq!(hash, 0x8bac_9eab_4b44_acc7, "{workers} workers");
        }
    }

    #[test]
    fn init_centroids_picks_the_rows_the_row_copying_form_picked() {
        // (rows, block_rows, k, seed): one block enough; k beyond the
        // first block; fewer than 32 rows in a block.
        for (rows, block_rows, k, seed) in [(100, 40, 5, 1), (90, 20, 50, 7919), (64, 8, 13, 42)] {
            let rt = rt();
            let x = DistMatrix::random(&rt, rows, 3, block_rows, seed).unwrap();
            let mut copied: Vec<Vec<f64>> = Vec::new();
            for block in x.blocks() {
                let b = rt.get(block).unwrap();
                copied.extend((0..b.rows()).map(|r| b.row(r).to_vec()));
                if copied.len() >= k.max(32) {
                    break;
                }
            }
            copied.shuffle(&mut StdRng::seed_from_u64(seed));
            copied.truncate(k);
            let picked = KMeans::new(k).seed(seed).init_centroids(&rt, &x).unwrap();
            assert_eq!(picked, Matrix::from_rows(&copied));
        }
    }
}
