//! Dense row-major matrices sized for the 30-feature regression problem.
//!
//! Only the operations the ridge solver needs are provided: transpose
//! products, symmetric-positive-definite solves via Cholesky, and a few
//! constructors. Dimension mismatches are programmer errors and panic;
//! numerical failure (a non-SPD system) is an expected condition and
//! returns an error.

use std::error::Error;
use std::fmt;

/// Error returned by [`Matrix::cholesky`] when the matrix is not
/// (numerically) symmetric positive definite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotPositiveDefiniteError {
    /// Pivot index at which decomposition failed.
    pub pivot: usize,
}

impl fmt::Display for NotPositiveDefiniteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is not positive definite (failed at pivot {})", self.pivot)
    }
}

impl Error for NotPositiveDefiniteError {}

/// A dense row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use pearl_ml::Matrix;
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let at = a.transpose();
/// assert_eq!(at.get(0, 1), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut m = Matrix::zeros(rows.len(), cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row {i} has length {} expected {cols}", row.len());
            m.data[i * cols..(i + 1) * cols].copy_from_slice(row);
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index ({row},{col}) out of range");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index ({row},{col}) out of range");
        self.data[row * self.cols + col] = value;
    }

    /// A view of one row.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row {row} out of range");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The transpose `Aᵀ`.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "inner dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += aik * other.get(k, j);
                }
            }
        }
        out
    }

    /// Gram matrix `AᵀA` (symmetric, `cols × cols`), accumulated one
    /// row of `A` at a time into the upper triangle, then mirrored.
    ///
    /// Entry `(i, j)` starts at zero and adds `a[r][i]·a[r][j]` for
    /// `r = 0, 1, …` — the same additions in the same order as a dot
    /// product of columns `i` and `j`, so the bits do not depend on the
    /// traversal; walking rows only keeps the reads sequential.
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for (i, &a) in row.iter().enumerate() {
                let upper = &mut g.data[i * n + i..(i + 1) * n];
                for (sum, &b) in upper.iter_mut().zip(&row[i..]) {
                    *sum += a * b;
                }
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                g.data[j * n + i] = g.data[i * n + j];
            }
        }
        g
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "vector length {} expected {}", x.len(), self.cols);
        (0..self.rows).map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum()).collect()
    }

    /// `Aᵀ·y` without forming the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows`.
    #[allow(clippy::needless_range_loop)] // indexing both x and the matrix row
    pub fn transpose_matvec(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "vector length {} expected {}", y.len(), self.rows);
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            let yi = y[i];
            for j in 0..self.cols {
                out[j] += self.get(i, j) * yi;
            }
        }
        out
    }

    /// Adds `lambda` to every diagonal entry (ridge shift `A + λI`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_ridge(&mut self, lambda: f64) {
        assert_eq!(self.rows, self.cols, "ridge shift requires a square matrix");
        for i in 0..self.rows {
            self.data[i * self.cols + i] += lambda;
        }
    }

    /// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
    /// matrix, returning the lower-triangular factor.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefiniteError`] when a pivot is non-positive.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn cholesky(&self) -> Result<Matrix, NotPositiveDefiniteError> {
        assert_eq!(self.rows, self.cols, "Cholesky requires a square matrix");
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(NotPositiveDefiniteError { pivot: i });
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(l)
    }

    /// Solves `A·x = b` for SPD `A` via Cholesky.
    ///
    /// # Errors
    ///
    /// Returns [`NotPositiveDefiniteError`] when `A` is not SPD.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    #[allow(clippy::needless_range_loop)] // triangular solves index several vectors
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, NotPositiveDefiniteError> {
        assert_eq!(b.len(), self.rows, "rhs length {} expected {}", b.len(), self.rows);
        let l = self.cholesky()?;
        let n = self.rows;
        // Forward substitution: L·y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for k in 0..i {
                sum -= l.get(i, k) * y[k];
            }
            y[i] = sum / l.get(i, i);
        }
        // Back substitution: Lᵀ·x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= l.get(k, i) * x[k];
            }
            x[i] = sum / l.get(i, i);
        }
        Ok(x)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}x{} matrix", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, " [")?;
            for j in 0..self.cols.min(8) {
                write!(f, " {:+.3e}", self.get(i, j))?;
            }
            writeln!(f, " ]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    /// The column-order Gram loop `gram` replaced, kept as its oracle:
    /// each entry is one dot product of two columns, summed in row order.
    fn gram_by_columns(a: &Matrix) -> Matrix {
        let mut g = Matrix::zeros(a.cols, a.cols);
        for i in 0..a.cols {
            for j in i..a.cols {
                let mut sum = 0.0;
                for r in 0..a.rows {
                    sum += a.get(r, i) * a.get(r, j);
                }
                g.set(i, j, sum);
                g.set(j, i, sum);
            }
        }
        g
    }

    #[test]
    fn gram_matches_the_column_order_loop_bit_for_bit() {
        // Signed values spread over twelve decades, so rounding depends
        // on the order of every addition.
        let mut rng = SmallRng::seed_from_u64(25);
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|_| {
                (0..40)
                    .map(|_| {
                        let mantissa: f64 = rng.gen_range(-1.0..1.0);
                        mantissa * 10f64.powi(rng.gen_range(-6..6))
                    })
                    .collect()
            })
            .collect();
        let a = Matrix::from_rows(&rows);
        let (g, oracle) = (a.gram(), gram_by_columns(&a));
        for i in 0..a.cols {
            for j in 0..a.cols {
                assert_eq!(g.get(i, j).to_bits(), oracle.get(i, j).to_bits(), "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn gram_equals_explicit_transpose_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a);
        for i in 0..2 {
            for j in 0..2 {
                assert!(close(g.get(i, j), explicit.get(i, j)));
            }
        }
    }

    #[test]
    fn matvec_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(a.transpose_matvec(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0, 0.6], vec![2.0, 5.0, 1.5], vec![0.6, 1.5, 3.8]]);
        let l = a.cholesky().unwrap();
        let back = l.matmul(&l.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!(close(back.get(i, j), a.get(i, j)));
            }
        }
    }

    #[test]
    fn solve_spd_recovers_solution() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let x_true = [2.0, -1.0];
        let b = a.matvec(&x_true);
        let x = a.solve_spd(&b).unwrap();
        assert!(close(x[0], 2.0) && close(x[1], -1.0));
    }

    #[test]
    fn non_spd_matrix_reports_error() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let err = a.cholesky().unwrap_err();
        assert_eq!(err.pivot, 0);
        assert!(err.to_string().contains("not positive definite"));
    }

    #[test]
    fn ridge_shift_adds_to_diagonal_only() {
        let mut a = Matrix::zeros(2, 2);
        a.add_ridge(0.5);
        assert_eq!(a.get(0, 0), 0.5);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn ridge_shift_makes_singular_solvable() {
        // Rank-deficient Gram matrix becomes SPD after a ridge shift.
        let phi = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let mut g = phi.gram();
        assert!(g.cholesky().is_err());
        g.add_ridge(1e-3);
        assert!(g.cholesky().is_ok());
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(Matrix::identity(2).to_string().contains("2x2"));
    }
}
