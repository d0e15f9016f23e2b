//! A column-major dense matrix of `f64`, the substrate for the HPL and
//! eigensolver kernels.
//!
//! Column-major layout matches LAPACK/HPL conventions, which keeps the
//! blocked LU factorisation readable next to its Fortran ancestors.

use std::fmt;
use std::ops::{Index, IndexMut};

use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// A dense column-major matrix.
///
/// # Examples
///
/// ```
/// use cimone_kernels::matrix::Matrix;
///
/// let a = Matrix::identity(3);
/// assert_eq!(a[(0, 0)], 1.0);
/// assert_eq!(a[(0, 1)], 0.0);
/// assert_eq!(a.norm_inf(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Column-major storage: element (i, j) lives at `j * rows + i`.
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a matrix with entries drawn uniformly from `[-0.5, 0.5)`,
    /// the distribution HPL uses for its test matrices.
    pub fn random<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let dist = Uniform::new(-0.5, 0.5);
        let data = (0..rows * cols).map(|_| dist.sample(rng)).collect();
        Matrix { rows, cols, data }
    }

    /// Builds a random symmetric matrix (for the eigensolver tests).
    pub fn random_symmetric<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut m = Matrix::random(n, n, rng);
        for j in 0..n {
            for i in 0..j {
                let avg = 0.5 * (m[(i, j)] + m[(j, i)]);
                m[(i, j)] = avg;
                m[(j, i)] = avg;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The backing column-major slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The backing column-major slice, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One column as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(j < self.cols, "column {j} out of range ({})", self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// One column as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.cols, "column {j} out of range ({})", self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Two distinct columns, the first immutably and the second mutably —
    /// the borrow split the LU rank-1 panel update needs (`col b ← col b −
    /// col a · mult`).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn col_pair_mut(&mut self, a: usize, b: usize) -> (&[f64], &mut [f64]) {
        assert!(a != b, "col_pair_mut needs distinct columns");
        assert!(
            a < self.cols && b < self.cols,
            "column pair ({a}, {b}) out of range ({})",
            self.cols
        );
        let rows = self.rows;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * rows);
            (&lo[a * rows..a * rows + rows], &mut hi[..rows])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * rows);
            (&hi[..rows], &mut lo[b * rows..b * rows + rows])
        }
    }

    /// Matrix–vector product `A · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in matvec");
        let mut y = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            let column = self.col(j);
            for (yi, &aij) in y.iter_mut().zip(column) {
                *yi += aij * xj;
            }
        }
        y
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Infinity norm (maximum absolute row sum); NaN if any entry is NaN.
    pub fn norm_inf(&self) -> f64 {
        let mut row_sums = vec![0.0; self.rows];
        for j in 0..self.cols {
            for (i, &v) in self.col(j).iter().enumerate() {
                row_sums[i] += v.abs();
            }
        }
        row_sums.into_iter().fold(0.0, max_or_nan)
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Swaps rows `a` and `b` across all columns.
    ///
    /// # Panics
    ///
    /// Panics if either row is out of range.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row swap out of range");
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(j * self.rows + a, j * self.rows + b);
        }
    }

    /// Maximum absolute element-wise difference to another matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows, "shape mismatch");
        assert_eq!(self.cols, other.cols, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &self.data[j * self.rows + i]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        &mut self.data[j * self.rows + i]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        let show_cols = self.cols.min(6);
        for i in 0..show_rows {
            for j in 0..show_cols {
                write!(f, "{:>12.4e} ", self[(i, j)])?;
            }
            if show_cols < self.cols {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.rows {
            writeln!(f, "…")?;
        }
        Ok(())
    }
}

/// Infinity norm of a vector; NaN if any entry is NaN.
pub fn vec_norm_inf(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).fold(0.0, max_or_nan)
}

/// The larger of `a` and `b`, or NaN if either is. `f64::max` returns
/// the other operand, so a norm folded with it would drop NaN entries and
/// let a NaN solution pass the HPL residual.
fn max_or_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || a >= b {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn storage_is_column_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        // Column 0 is rows (0,0) and (1,0).
        assert_eq!(m.col(0), &[0.0, 10.0]);
        assert_eq!(m.col(2), &[2.0, 12.0]);
    }

    #[test]
    fn matvec_matches_manual_computation() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + 2 * j + 1) as f64);
        // a = [1 3; 2 4] (column-major cols: [1,2], [3,4])
        let y = a.matvec(&[1.0, 1.0]);
        assert_eq!(y, vec![4.0, 6.0]);
    }

    #[test]
    fn identity_norms() {
        let i = Matrix::identity(5);
        assert_eq!(i.norm_inf(), 1.0);
        assert!((i.norm_frobenius() - 5f64.sqrt()).abs() < 1e-15);
    }

    /// A NaN or an infinite entry reaches both norms.
    #[test]
    fn non_finite_entries_reach_the_norms() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut x = vec![1.0, -2.0, 0.5];
            x[1] = bad;
            let a = Matrix::from_fn(3, 3, |i, j| x[(i + j) % 3]);
            for norm in [vec_norm_inf(&x), a.norm_inf()] {
                if bad.is_nan() {
                    assert!(norm.is_nan(), "{norm}");
                } else {
                    assert_eq!(norm, f64::INFINITY);
                }
            }
        }
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random(4, 7, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn random_symmetric_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::random_symmetric(16, &mut rng);
        assert_eq!(a, a.transpose());
    }

    #[test]
    fn swap_rows_exchanges_whole_rows() {
        let mut m = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        m.swap_rows(0, 2);
        assert_eq!(m[(0, 0)], 20.0);
        assert_eq!(m[(2, 1)], 1.0);
    }

    #[test]
    fn random_entries_are_centred() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::random(100, 100, &mut rng);
        let mean: f64 = m.as_slice().iter().sum::<f64>() / 10_000.0;
        assert!(mean.abs() < 0.01);
        assert!(m.as_slice().iter().all(|v| (-0.5..0.5).contains(v)));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_checks_dimensions() {
        let a = Matrix::zeros(2, 3);
        let _ = a.matvec(&[1.0, 2.0]);
    }
}
