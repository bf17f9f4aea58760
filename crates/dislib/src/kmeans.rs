//! K-means clustering with per-block partial reductions.

use crate::array::DistMatrix;
use crate::error::DislibError;
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
/// Each iteration submits one *partial* task per block (assign points
/// to the nearest centroid, accumulate per-cluster sums/counts and the
/// block inertia) plus one reduction task; the runtime executes the
/// partials in parallel.
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
        let mut partials = Vec::with_capacity(x.num_blocks());
        for (i, block) in x.blocks().iter().enumerate() {
            let out = rt.data::<Matrix>(format!("km_part_{iter}_{i}"));
            let panel = Arc::clone(&panel);
            rt.submit(
                TaskSpec::new("kmeans_partial")
                    .input(block.id())
                    .output(out.id()),
                Constraints::new(),
                move |ctx| {
                    let b: &Matrix = ctx.input(0);
                    let mut acc = Matrix::zeros(k + 1, d + 1);
                    let mut inertia = 0.0;
                    for r in 0..b.rows() {
                        let x = b.row(r);
                        let (best, dist) = closest_in_panel(&panel, x);
                        let sums = acc.row_mut(best);
                        for (s, v) in sums.iter_mut().zip(x) {
                            *s += v;
                        }
                        sums[d] += 1.0;
                        inertia += dist;
                    }
                    acc.set(k, 0, inertia);
                    ctx.set_output(0, acc);
                },
            )?;
            partials.push(out);
        }
        let reduced = rt.data::<Matrix>(format!("km_red_{iter}"));
        let spec = TaskSpec::new("kmeans_reduce")
            .inputs(partials.iter().map(|p| p.id()))
            .output(reduced.id());
        let n_parts = partials.len();
        rt.submit(spec, Constraints::new(), move |ctx| {
            let mut acc: Matrix = ctx.input::<Matrix>(0).clone();
            for i in 1..n_parts {
                acc.add_assign(ctx.input::<Matrix>(i));
            }
            ctx.set_output(0, acc);
        })?;
        let acc = rt.get(&reduced)?;
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
    /// Propagates runtime errors.
    pub fn predict(&self, rt: &LocalRuntime, x: &DistMatrix) -> Result<Vec<usize>, DislibError> {
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
                    let labels: Vec<usize> = (0..b.rows())
                        .map(|r| closest_in_panel(&panel, b.row(r)).0)
                        .collect();
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

/// Centroids one assignment block wide: the kernel keeps this many
/// running sums in registers per sample.
const PANEL_BLOCK: usize = 8;

/// Nearest centroid of sample `x`: `(index, squared distance)`, ties to
/// the lowest index. `panel` is the centroid matrix transposed, i.e.
/// feature-major (`d` rows of `k`): feature `j` of every centroid is
/// contiguous, so one sample feature meets a whole block of centroids
/// in one pass.
///
/// Each distance is summed over features in index order, exactly as
/// [`Matrix::row_distance_sq`] sums it, so it has the same bits; only
/// the `PANEL_BLOCK` sums of a block advance together, which makes the
/// add chains independent of one another.
fn closest_in_panel(panel: &Matrix, x: &[f64]) -> (usize, f64) {
    assert_eq!(panel.rows(), x.len(), "column mismatch");
    let k = panel.cols();
    let features = || x.iter().zip(panel.as_slice().chunks_exact(k));
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    let blocked = k - k % PANEL_BLOCK;
    for c0 in (0..blocked).step_by(PANEL_BLOCK) {
        let mut acc = [0.0; PANEL_BLOCK];
        for (&xj, feature) in features() {
            for (a, c) in acc.iter_mut().zip(&feature[c0..c0 + PANEL_BLOCK]) {
                let t = xj - c;
                *a += t * t;
            }
        }
        for (i, &dist) in acc.iter().enumerate() {
            if dist < best_d {
                best_d = dist;
                best = c0 + i;
            }
        }
    }
    for c in blocked..k {
        let mut dist = 0.0;
        for (&xj, feature) in features() {
            let t = xj - feature[c];
            dist += t * t;
        }
        if dist < best_d {
            best_d = dist;
            best = c;
        }
    }
    (best, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_runtime::LocalConfig;
    use proptest::prelude::*;
    use rand::Rng;

    fn rt() -> LocalRuntime {
        LocalRuntime::new(LocalConfig::with_workers(4))
    }

    /// The pair-at-a-time assignment the panel kernel replaced, kept as
    /// its reference: `row_distance_sq` over centroids in index order,
    /// strict `<`.
    fn closest_by_row_distance(centroids: &Matrix, b: &Matrix, r: usize) -> (usize, f64) {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for c in 0..centroids.rows() {
            let d = b.row_distance_sq(r, centroids, c);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        (best, best_d)
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

    proptest! {
        /// `(argmin, min)` is bit-for-bit the reference's, for every
        /// `k mod PANEL_BLOCK`, with ties planted.
        #[test]
        fn panel_kernel_matches_row_distance_bit_for_bit(
            rows in 1usize..65,
            d in 1usize..21,
            k in 1usize..41,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Half the cases draw from a 4-value grid, so distinct
            // centroids tie too and many distances are exactly equal.
            let coarse = seed % 2 == 0;
            let mut draw = |n: usize| -> Vec<f64> {
                (0..n)
                    .map(|_| {
                        if coarse {
                            f64::from(rng.gen_range(0u32..4)) * 0.25
                        } else {
                            rng.gen::<f64>()
                        }
                    })
                    .collect()
            };
            let mut cents = draw(k * d);
            let samples = Matrix::from_vec(rows, d, draw(rows * d));
            // Planted duplicates: every third centroid repeats an
            // earlier one, across block boundaries as well.
            for c in (2..k).step_by(3) {
                let from = c / 2;
                cents.copy_within(from * d..(from + 1) * d, c * d);
            }
            let cents = Matrix::from_vec(k, d, cents);
            let panel = cents.transpose();
            for r in 0..rows {
                let (want, want_d) = closest_by_row_distance(&cents, &samples, r);
                let (got, got_d) = closest_in_panel(&panel, samples.row(r));
                prop_assert_eq!(got, want);
                prop_assert_eq!(got_d.to_bits(), want_d.to_bits());
            }
        }
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
