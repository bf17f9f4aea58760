//! Dense row-major matrices: the block type of [`crate::DistMatrix`]
//! and the host of the small linear-algebra kernels estimators need.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from rows of equal length.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let m = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n * m);
        for r in rows {
            assert_eq!(r.len(), m, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: n,
            cols: m,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn at(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.data[k * other.cols + j];
                }
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Adds `other` into `self` element-wise, in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * s).collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Frobenius norm of `self - other`, without forming the difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn frobenius_distance(&self, other: &Matrix) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Solves `self * x = b` for square `self` via Gaussian
    /// elimination with partial pivoting. Returns `None` if the system
    /// is singular.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square or `b` has a different row
    /// count.
    pub fn solve(&self, b: &Matrix) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "solve needs a square matrix");
        assert_eq!(self.rows, b.rows, "rhs row mismatch");
        let n = self.rows;
        let m = b.cols;
        // Augmented system.
        let mut a = self.data.clone();
        let mut rhs = b.data.clone();
        for col in 0..n {
            // Partial pivot.
            let pivot = (col..n)
                .max_by(|x, y| {
                    a[x * n + col]
                        .abs()
                        .partial_cmp(&a[y * n + col].abs())
                        .expect("finite")
                })
                .expect("non-empty");
            if a[pivot * n + col].abs() < 1e-12 {
                return None;
            }
            if pivot != col {
                for j in 0..n {
                    a.swap(col * n + j, pivot * n + j);
                }
                for j in 0..m {
                    rhs.swap(col * m + j, pivot * m + j);
                }
            }
            let diag = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[row * n + j] -= factor * a[col * n + j];
                }
                for j in 0..m {
                    rhs[row * m + j] -= factor * rhs[col * m + j];
                }
            }
        }
        // Back substitution.
        let mut x = vec![0.0; n * m];
        for col in (0..n).rev() {
            for j in 0..m {
                let mut v = rhs[col * m + j];
                for k in (col + 1)..n {
                    v -= a[col * n + k] * x[k * m + j];
                }
                x[col * m + j] = v / a[col * n + col];
            }
        }
        Some(Matrix {
            rows: n,
            cols: m,
            data: x,
        })
    }

    /// Squared Euclidean distance between a row of `self` and a row of
    /// `other`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range rows or differing column counts.
    pub fn row_distance_sq(&self, r: usize, other: &Matrix, o: usize) -> f64 {
        assert_eq!(self.cols, other.cols, "column mismatch");
        self.row(r)
            .iter()
            .zip(other.row(o))
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let row: Vec<String> = self.row(r).iter().map(|v| format!("{v:.4}")).collect();
            writeln!(f, "  [{}]", row.join(", "))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.at(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        let mut z = Matrix::zeros(2, 2);
        z.set(0, 1, 5.0);
        assert_eq!(z.at(0, 1), 5.0);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn bad_from_vec_rejected() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.at(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn add_scale_norm() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert_eq!(a.frobenius_norm(), 5.0);
        let b = a.add(&a);
        assert_eq!(b.as_slice(), &[6.0, 8.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[6.0, 8.0]);
    }

    #[test]
    fn in_place_forms_have_the_bits_of_the_allocating_ones() {
        let a = Matrix::from_rows(&[vec![0.1, -7.3, 1e-9], vec![2.5e8, 0.3, -0.7]]);
        let b = Matrix::from_rows(&[vec![0.2, 3.1, -1e-7], vec![-1.0, 0.1, 0.9]]);
        let mut sum = a.clone();
        sum.add_assign(&b);
        assert_eq!(sum, a.add(&b));
        assert_eq!(
            a.frobenius_distance(&b).to_bits(),
            a.add(&b.scale(-1.0)).frobenius_norm().to_bits()
        );
        let mut z = Matrix::zeros(2, 2);
        z.row_mut(1)[0] = 4.0;
        assert_eq!(z.as_slice(), &[0.0, 0.0, 4.0, 0.0]);
    }

    #[test]
    fn vstack_stacks() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let s = a.vstack(&b);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn solve_identity_and_known_system() {
        let i = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let b = Matrix::from_rows(&[vec![7.0], vec![9.0]]);
        assert_eq!(i.solve(&b).unwrap(), b);
        // 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let rhs = Matrix::from_rows(&[vec![5.0], vec![10.0]]);
        let x = a.solve(&rhs).unwrap();
        assert!((x.at(0, 0) - 1.0).abs() < 1e-12);
        assert!((x.at(1, 0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![1.0], vec![2.0]]);
        assert!(a.solve(&b).is_none());
    }

    #[test]
    fn solve_needs_pivoting() {
        // Zero leading pivot forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![2.0], vec![3.0]]);
        let x = a.solve(&b).unwrap();
        assert!((x.at(0, 0) - 3.0).abs() < 1e-12);
        assert!((x.at(1, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn row_distance() {
        let a = Matrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0]]);
        assert_eq!(a.row_distance_sq(0, &a, 1), 25.0);
    }

    #[test]
    fn display_truncates() {
        let m = Matrix::zeros(20, 2);
        let s = m.to_string();
        assert!(s.contains("[20x2]"));
        assert!(s.contains("..."));
    }
}
