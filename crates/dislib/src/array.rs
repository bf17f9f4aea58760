//! Row-block distributed matrices over the local dataflow runtime.

use crate::error::DislibError;
use crate::matrix::Matrix;
use continuum_dag::{Label, TaskSpec};
use continuum_platform::Constraints;
use continuum_runtime::{DataHandle, LocalRuntime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// A dense matrix partitioned into row blocks, each block a value in
/// the runtime's dataflow (the ds-array of dislib).
///
/// # Example
///
/// ```
/// use continuum_runtime::{LocalRuntime, LocalConfig};
/// use continuum_dislib::{DistMatrix, Matrix};
///
/// let rt = LocalRuntime::new(LocalConfig::with_workers(2));
/// let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
/// let dm = DistMatrix::from_matrix(&rt, &m, 2);
/// assert_eq!(dm.num_blocks(), 2);
/// let doubled = dm.map_blocks(&rt, "double", |b| b.scale(2.0))?;
/// assert_eq!(doubled.collect(&rt)?.at(2, 0), 6.0);
/// # Ok::<(), continuum_dislib::DislibError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DistMatrix {
    blocks: Vec<DataHandle<Matrix>>,
    rows_per_block: Vec<usize>,
    rows: usize,
    cols: usize,
}

impl DistMatrix {
    /// Partitions an in-memory matrix into blocks of at most
    /// `block_rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `block_rows` is zero or the matrix is empty.
    pub fn from_matrix(rt: &LocalRuntime, m: &Matrix, block_rows: usize) -> Self {
        assert!(block_rows > 0, "block_rows must be positive");
        assert!(m.rows() > 0, "cannot distribute an empty matrix");
        let mut blocks = Vec::new();
        let mut rows_per_block = Vec::new();
        let mut start = 0;
        while start < m.rows() {
            let end = (start + block_rows).min(m.rows());
            let rows: Vec<Vec<f64>> = (start..end).map(|r| m.row(r).to_vec()).collect();
            let block = Matrix::from_rows(&rows);
            let handle = rt.data::<Matrix>(format!("block{}", blocks.len()));
            rt.set_initial(&handle, block);
            blocks.push(handle);
            rows_per_block.push(end - start);
            start = end;
        }
        DistMatrix {
            blocks,
            rows_per_block,
            rows: m.rows(),
            cols: m.cols(),
        }
    }

    /// Generates a random matrix (uniform in `[0, 1)`), one generation
    /// task per block. Deterministic for a given seed.
    ///
    /// # Errors
    ///
    /// Propagates task-submission errors.
    ///
    /// # Panics
    ///
    /// Panics if `rows`, `cols` or `block_rows` is zero.
    pub fn random(
        rt: &LocalRuntime,
        rows: usize,
        cols: usize,
        block_rows: usize,
        seed: u64,
    ) -> Result<Self, DislibError> {
        assert!(rows > 0 && cols > 0 && block_rows > 0, "empty shape");
        let mut blocks = Vec::new();
        let mut rows_per_block = Vec::new();
        let mut start = 0;
        while start < rows {
            let end = (start + block_rows).min(rows);
            let n = end - start;
            let handle = rt.data::<Matrix>(format!("rand{}", blocks.len()));
            let block_seed = seed.wrapping_add(blocks.len() as u64);
            rt.submit(
                TaskSpec::new("random_block").output(handle.id()),
                Constraints::new(),
                move |ctx| {
                    let mut rng = StdRng::seed_from_u64(block_seed);
                    let data: Vec<f64> = (0..n * cols).map(|_| rng.gen::<f64>()).collect();
                    ctx.set_output(0, Matrix::from_vec(n, cols, data));
                },
            )?;
            blocks.push(handle);
            rows_per_block.push(n);
            start = end;
        }
        Ok(DistMatrix {
            blocks,
            rows_per_block,
            rows,
            cols,
        })
    }

    /// Total rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of row blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Rows in each block.
    pub fn rows_per_block(&self) -> &[usize] {
        &self.rows_per_block
    }

    /// The block handles (for estimators building custom task graphs).
    pub fn blocks(&self) -> &[DataHandle<Matrix>] {
        &self.blocks
    }

    /// Applies a pure function to every block as parallel tasks,
    /// producing a new distributed matrix. The function must preserve
    /// the row count of each block.
    ///
    /// # Errors
    ///
    /// Propagates task-submission errors.
    pub fn map_blocks<F>(
        &self,
        rt: &LocalRuntime,
        name: &str,
        f: F,
    ) -> Result<DistMatrix, DislibError>
    where
        F: Fn(&Matrix) -> Matrix + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        // One copy of the name for every block's task.
        let label = Label::shared(name);
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, src) in self.blocks.iter().enumerate() {
            let out = rt.data::<Matrix>(format!("{name}{i}"));
            let f = Arc::clone(&f);
            rt.submit(
                TaskSpec::new(label.clone())
                    .input(src.id())
                    .output(out.id()),
                Constraints::new(),
                move |ctx| {
                    let block: &Matrix = ctx.input(0);
                    ctx.set_output(0, f(block));
                },
            )?;
            blocks.push(out);
        }
        Ok(DistMatrix {
            blocks,
            rows_per_block: self.rows_per_block.clone(),
            rows: self.rows,
            cols: self.cols,
        })
    }

    /// Overrides the recorded column count (for block maps that change
    /// the width, e.g. projection).
    pub fn with_cols(mut self, cols: usize) -> Self {
        self.cols = cols;
        self
    }

    /// Gathers all blocks into one in-memory matrix, copying each block
    /// once into a buffer of the final size.
    ///
    /// # Errors
    ///
    /// * [`DislibError::ShapeMismatch`] if a block is not
    ///   [`DistMatrix::cols`] wide (a width-changing
    ///   [`DistMatrix::map_blocks`] without [`DistMatrix::with_cols`]);
    /// * failures of producing tasks.
    pub fn collect(&self, rt: &LocalRuntime) -> Result<Matrix, DislibError> {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for h in &self.blocks {
            let block = rt.get(h)?;
            if block.cols() != self.cols {
                return Err(DislibError::ShapeMismatch(format!(
                    "a block is {} wide, the matrix {} (see `with_cols`)",
                    block.cols(),
                    self.cols
                )));
            }
            data.extend_from_slice(block.as_slice());
        }
        Ok(Matrix::from_vec(self.rows, self.cols, data))
    }

    /// The block reduction the estimators are built on: one `map` task
    /// per block, then one `fold` task over the partials in block
    /// order, whose value is returned. `map` is given the block's first
    /// row, the block, and the block of the same index of `paired` if
    /// there is one (the caller checks that the two are row-aligned).
    /// It is cloned once per block, so what it captures should be cheap
    /// to clone (`Copy` values, `Arc`s).
    ///
    /// `tasks` names the map and the fold tasks. The fold's value is
    /// named `tag` and block `i`'s partial `part_{i}_of_{tag}`.
    pub(crate) fn reduce_blocks<P, T, F, R>(
        &self,
        rt: &LocalRuntime,
        paired: Option<&DistMatrix>,
        tasks: [&'static str; 2],
        tag: fmt::Arguments<'_>,
        map: F,
        fold: R,
    ) -> Result<Arc<T>, DislibError>
    where
        P: Send + Sync + 'static,
        T: Send + Sync + 'static,
        F: Fn(usize, &Matrix, Option<&Matrix>) -> P + Clone + Send + 'static,
        R: FnOnce(&mut dyn Iterator<Item = &P>) -> T + Send + 'static,
    {
        let [map_task, fold_task] = tasks;
        let with_paired = paired.is_some();
        let mut parts = Vec::with_capacity(self.blocks.len());
        let mut first_row = 0;
        for (i, block) in self.blocks.iter().enumerate() {
            // The leading literal sizes the string for the whole name,
            // so each name is one allocation.
            let part = rt.data::<P>(format!("part_{i}_of_{tag}"));
            let mut spec = TaskSpec::new(map_task).input(block.id());
            if let Some(paired) = paired {
                spec = spec.input(paired.blocks[i].id());
            }
            let map = map.clone();
            let row = first_row;
            rt.submit(spec.output(part.id()), Constraints::new(), move |ctx| {
                let y = with_paired.then(|| ctx.input::<Matrix>(1));
                let partial = map(row, ctx.input(0), y);
                ctx.set_output(0, partial);
            })?;
            parts.push(part);
            first_row += self.rows_per_block[i];
        }
        let out = rt.data::<T>(fmt::format(tag));
        let n = parts.len();
        rt.submit(
            TaskSpec::new(fold_task)
                .inputs(parts.iter().map(|p| p.id()))
                .output(out.id()),
            Constraints::new(),
            move |ctx| {
                let value = fold(&mut (0..n).map(|i| ctx.input::<P>(i)));
                ctx.set_output(0, value);
            },
        )?;
        Ok(rt.get(&out)?)
    }
}

/// Sums block partials in block order: the first is cloned and each
/// of the rest is added to it in place. The order is part of the
/// result, because floating-point addition does not reassociate; the
/// pinned K-means model bits are those of block order.
pub(crate) fn sum(parts: &mut dyn Iterator<Item = &Matrix>) -> Matrix {
    let mut acc = parts
        .next()
        .expect("a distributed matrix has a block")
        .clone();
    for part in parts {
        acc.add_assign(part);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_runtime::LocalConfig;

    fn rt() -> LocalRuntime {
        LocalRuntime::new(LocalConfig::with_workers(4))
    }

    #[test]
    fn partition_and_collect_roundtrip() {
        let rt = rt();
        let m = Matrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
            vec![9.0, 10.0],
        ]);
        let dm = DistMatrix::from_matrix(&rt, &m, 2);
        assert_eq!(dm.num_blocks(), 3);
        assert_eq!(dm.rows_per_block(), &[2, 2, 1]);
        assert_eq!(dm.rows(), 5);
        assert_eq!(dm.cols(), 2);
        assert_eq!(dm.collect(&rt).unwrap(), m);
        // One-row blocks: every block lands in the one buffer.
        let dm = DistMatrix::from_matrix(&rt, &m, 1);
        assert_eq!(dm.rows_per_block(), &[1; 5]);
        assert_eq!(dm.collect(&rt).unwrap(), m);
        // A width-changing map collects once its width is recorded.
        let narrow = dm
            .map_blocks(&rt, "first_col", |b| {
                Matrix::from_vec(b.rows(), 1, (0..b.rows()).map(|r| b.at(r, 0)).collect())
            })
            .unwrap();
        assert!(matches!(
            narrow.collect(&rt),
            Err(DislibError::ShapeMismatch(_))
        ));
        let firsts = narrow.with_cols(1).collect(&rt).unwrap();
        assert_eq!(firsts.as_slice(), &[1.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let rt = rt();
        let a = DistMatrix::random(&rt, 10, 3, 4, 42).unwrap();
        let b = DistMatrix::random(&rt, 10, 3, 4, 42).unwrap();
        let ma = a.collect(&rt).unwrap();
        let mb = b.collect(&rt).unwrap();
        assert_eq!(ma, mb);
        assert!(ma.as_slice().iter().all(|v| (0.0..1.0).contains(v)));
        let c = DistMatrix::random(&rt, 10, 3, 4, 43).unwrap();
        assert_ne!(c.collect(&rt).unwrap(), ma);
    }

    #[test]
    fn map_blocks_applies_in_parallel() {
        let rt = rt();
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]);
        let dm = DistMatrix::from_matrix(&rt, &m, 1);
        let sq = dm
            .map_blocks(&rt, "square", |b| {
                Matrix::from_vec(
                    b.rows(),
                    b.cols(),
                    b.as_slice().iter().map(|v| v * v).collect(),
                )
            })
            .unwrap();
        let out = sq.collect(&rt).unwrap();
        assert_eq!(out.as_slice(), &[1.0, 4.0, 9.0, 16.0]);
    }

    #[test]
    fn map_blocks_chains_build_dataflow() {
        let rt = rt();
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        let dm = DistMatrix::from_matrix(&rt, &m, 1);
        let out = dm
            .map_blocks(&rt, "x2", |b| b.scale(2.0))
            .unwrap()
            .map_blocks(&rt, "x3", |b| b.scale(3.0))
            .unwrap();
        assert_eq!(out.collect(&rt).unwrap().as_slice(), &[6.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "block_rows must be positive")]
    fn zero_block_rows_rejected() {
        let rt = rt();
        let m = Matrix::zeros(2, 2);
        let _ = DistMatrix::from_matrix(&rt, &m, 0);
    }
}
