//! # hetero-linalg — dense linear algebra, from scratch
//!
//! The general worksharing protocols of `hetero-protocol` (arbitrary
//! startup order Σ and finishing order Φ) define their work allocations
//! through an `n × n` linear timing system rather than the FIFO closed
//! form. This crate provides the solver: a dense [`Matrix`] type and
//! [`lu_solve`] — LU decomposition with partial pivoting — plus
//! [`Lu::determinant`] and [`Lu::solve`] for reuse across right-hand
//! sides.
//!
//! Protocol systems are tiny (n = cluster size), so the implementation
//! favours clarity and numerical robustness (partial pivoting, explicit
//! singularity detection) over blocking or SIMD.
//!
//! ```
//! use hetero_linalg::{lu_solve, Matrix};
//!
//! // 2x + y = 5, x − y = 1  →  x = 2, y = 1.
//! let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, -1.0]]);
//! let x = lu_solve(&a, &[5.0, 1.0]).unwrap();
//! assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Why a system could not be solved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is singular (or numerically so) at the given pivot.
    Singular {
        /// Elimination step where the pivot vanished.
        pivot: usize,
    },
    /// Dimension mismatch between operands.
    Shape,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at elimination step {pivot}")
            }
            LinalgError::Shape => write!(f, "operand dimensions do not match"),
        }
    }
}

impl std::error::Error for LinalgError {}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        // The diagonal is every (n + 1)-th entry of the row-major data.
        m.data.iter_mut().step_by(n + 1).for_each(|d| *d = 1.0);
        m
    }

    /// Builds from row slices.
    ///
    /// # Panics
    /// Panics when rows have unequal lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows.first().map_or(0, |r| r.len());
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The rows as slices, top to bottom.
    fn row_slices(&self) -> impl DoubleEndedIterator<Item = &[f64]> + ExactSizeIterator {
        (0..self.rows).map(move |i| {
            self.data
                .get(i * self.cols..(i + 1) * self.cols)
                .unwrap_or_default()
        })
    }

    /// The row-major offset of `(r, c)`, if it is inside the matrix.
    fn offset(&self, r: usize, c: usize) -> Option<usize> {
        (r < self.rows && c < self.cols).then(|| r * self.cols + c)
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    /// Panics when `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        // hetero-check: allow(float-accum) — row-major dot product in pinned index order; LU goldens fix these bits
        self.row_slices()
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Matrix–matrix product `A·B`.
    pub fn mul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::Shape);
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        // An empty product has no chunks to fill (`max(1)` only keeps
        // `chunks_mut` from rejecting a zero width).
        let out_rows = out.data.chunks_mut(other.cols.max(1));
        for (out_row, a_row) in out_rows.zip(self.row_slices()) {
            for (&aik, b_row) in a_row.iter().zip(other.row_slices()) {
                // hetero-check: allow(float-eq) — exact-zero sparsity skip; any nonzero (however tiny) must multiply
                if aik == 0.0 {
                    continue;
                }
                for (o, b) in out_row.iter_mut().zip(b_row) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Maximum absolute entry (the max norm).
    pub fn max_norm(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        self.offset(r, c)
            .and_then(|i| self.data.get(i))
            // hetero-check: allow(expect) — `Index` panics out of bounds by contract; the solver itself walks rows
            .expect("index out of bounds")
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        self.offset(r, c)
            .and_then(|i| self.data.get_mut(i))
            // hetero-check: allow(expect) — `IndexMut` panics out of bounds by contract; the solver itself walks rows
            .expect("index out of bounds")
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.row_slices() {
            write!(f, "  ")?;
            for v in row {
                write!(f, "{v:>12.6} ")?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

/// An LU factorization `P·A = L·U` with partial pivoting.
pub struct Lu {
    /// Combined L (strict lower, unit diagonal implied) and U storage.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now at position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1 / −1), for the determinant.
    sign: f64,
}

/// Relative pivot threshold below which the matrix is declared singular.
const PIVOT_EPS: f64 = 1e-13;

impl Lu {
    /// Factorizes `a` (which must be square).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if a.rows != a.cols {
            return Err(LinalgError::Shape);
        }
        let n = a.rows;
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let scale = lu.max_norm().max(f64::MIN_POSITIVE);

        for k in 0..n {
            // Partial pivoting: largest |entry| in column k at/below row k
            // (the rows k..n are never empty, as k < n).
            let pivot = lu
                .row_slices()
                .enumerate()
                .skip(k)
                .filter_map(|(r, row)| row.get(k).map(|&v| (r, v)))
                .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()));
            let Some((pivot_row, pivot_val)) = pivot else {
                return Err(LinalgError::Singular { pivot: k });
            };
            if pivot_val.abs() <= PIVOT_EPS * scale {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                let mut rows = lu.data.chunks_exact_mut(n);
                if let (Some(row_k), Some(row_p)) = (rows.nth(k), rows.nth(pivot_row - k - 1)) {
                    row_k.swap_with_slice(row_p);
                }
                perm.swap(k, pivot_row);
                sign = -sign;
            }
            // Row k from column k on: the pivot, then the U entries that
            // every row below loses `factor` times of.
            let mut rows = lu.data.chunks_exact_mut(n).skip(k);
            let Some((&mut pivot, pivot_tail)) = rows
                .next()
                .and_then(|row| row.get_mut(k..))
                .and_then(<[f64]>::split_first_mut)
            else {
                continue;
            };
            for row in rows {
                if let Some((rk, tail)) = row.get_mut(k..).and_then(<[f64]>::split_first_mut) {
                    let factor = *rk / pivot;
                    *rk = factor; // store L below the diagonal
                    for (x, u) in tail.iter_mut().zip(pivot_tail.iter()) {
                        // hetero-check: allow(float-accum) — one elimination update per entry and step, in the pinned k order; not a running sum
                        *x -= factor * u;
                    }
                }
            }
        }
        Ok(Lu { lu, perm, sign })
    }

    /// Solves `A·x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.lu.rows;
        if b.len() != n {
            return Err(LinalgError::Shape);
        }
        // Forward substitution on the permuted RHS (L has unit diagonal):
        // y_i loses L_ij·y_j for j < i.
        let mut y: Vec<f64> = self
            .perm
            .iter()
            .filter_map(|&p| b.get(p).copied())
            .collect();
        for (i, row) in self.lu.row_slices().enumerate() {
            if let Some((yi, solved)) = y.get_mut(..=i).and_then(<[f64]>::split_last_mut) {
                for (l, yj) in row.iter().zip(solved.iter()) {
                    // hetero-check: allow(float-accum) — forward substitution updates in the fixed j order the factorization defines
                    *yi -= l * yj;
                }
            }
        }
        // Back substitution with U: x_i loses U_ij·x_j for j > i, then
        // is divided by U_ii.
        let mut x = y;
        for (i, row) in self.lu.row_slices().enumerate().rev() {
            let (Some((xi, solved)), Some(&diag)) = (
                x.get_mut(i..).and_then(<[f64]>::split_first_mut),
                row.get(i),
            ) else {
                continue;
            };
            for (u, xj) in row.iter().skip(i + 1).zip(solved.iter()) {
                // hetero-check: allow(float-accum) — back substitution, same pinned elimination order as above
                *xi -= u * xj;
            }
            *xi /= diag;
        }
        Ok(x)
    }

    /// The determinant of the factorized matrix.
    pub fn determinant(&self) -> f64 {
        // The diagonal of U: every (n + 1)-th entry of the row-major data.
        let diagonal = self.lu.data.iter().step_by(self.lu.rows + 1);
        diagonal.fold(self.sign, |acc, d| acc * d)
    }
}

/// One-shot `A·x = b`.
pub fn lu_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    Lu::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solves_to_rhs() {
        let a = Matrix::identity(4);
        let b = [1.0, -2.0, 3.0, 0.5];
        assert_eq!(lu_solve(&a, &b).unwrap(), b.to_vec());
    }

    #[test]
    fn known_3x3_system() {
        // From any linear-algebra text: unique solution (1, 2, 3).
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let b = a.mul_vec(&[1.0, 2.0, 3.0]);
        let x = lu_solve(&a, &b).unwrap();
        for (xi, expect) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((xi - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = lu_solve(&a, &[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            lu_solve(&a, &[1.0, 2.0]),
            Err(LinalgError::Singular { .. })
        ));
        let z = Matrix::zeros(3, 3);
        assert!(Lu::new(&z).is_err());
    }

    #[test]
    fn shape_errors() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Lu::new(&a), Err(LinalgError::Shape)));
        let sq = Matrix::identity(3);
        assert!(matches!(
            lu_solve(&sq, &[1.0, 2.0]),
            Err(LinalgError::Shape)
        ));
        assert!(matches!(a.mul(&a), Err(LinalgError::Shape)));
    }

    #[test]
    fn determinant_values() {
        assert!((Lu::new(&Matrix::identity(5)).unwrap().determinant() - 1.0).abs() < 1e-12);
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
        assert!((Lu::new(&a).unwrap().determinant() - 6.0).abs() < 1e-12);
        // Swapping rows flips the sign.
        let b = Matrix::from_rows(&[&[0.0, 3.0], &[2.0, 0.0]]);
        assert!((Lu::new(&b).unwrap().determinant() + 6.0).abs() < 1e-12);
    }

    #[test]
    fn factorization_reused_across_rhs() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let lu = Lu::new(&a).unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [5.0, -2.0]] {
            let x = lu.solve(&b).unwrap();
            let back = a.mul_vec(&x);
            for (r, e) in back.iter().zip(b) {
                assert!((r - e).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn mul_and_mul_vec_agree() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = [1.0, 0.5, -1.0];
        let as_mat = Matrix::from_rows(&[&[1.0], &[0.5], &[-1.0]]);
        let v = a.mul_vec(&x);
        let m = a.mul(&as_mat).unwrap();
        assert_eq!(v, vec![m[(0, 0)], m[(1, 0)]]);
    }

    #[test]
    fn identity_times_anything_is_identity_action() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[2.0, 7.0]]);
        let i = Matrix::identity(2);
        assert_eq!(i.mul(&a).unwrap(), a);
        assert_eq!(a.mul(&i).unwrap(), a);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_bounds_checked() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }
}
