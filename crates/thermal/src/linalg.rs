//! Minimal dense linear algebra for thermal-network solving.
//!
//! Thermal compact models are small (tens of nodes), so a straightforward
//! row-major dense matrix with LU decomposition (partial pivoting) is both
//! simple and fast enough — the whole Table I reproduction performs a few
//! hundred thousand 15×15 solves in well under a second.

use core::fmt;

/// Error produced by linear solvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix dimensions did not match the operation.
    DimensionMismatch,
    /// The matrix is singular to working precision.
    Singular,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DimensionMismatch => write!(f, "matrix dimension mismatch"),
            Self::Singular => write!(f, "matrix is singular to working precision"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// A dense row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use leakctl_thermal::linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
/// let x = a.solve(&[6.0, 8.0]).unwrap();
/// assert_eq!(x, vec![3.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when rows have unequal
    /// lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let r = rows.len();
        if r == 0 {
            return Err(LinalgError::DimensionMismatch);
        }
        let c = rows[0].len();
        if c == 0 || rows.iter().any(|row| row.len() != c) {
            return Err(LinalgError::DimensionMismatch);
        }
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        self.data[r * self.cols + c]
    }

    /// Writes entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        self.data[r * self.cols + c] = value;
    }

    /// Adds `value` to entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when the indices are out of range.
    #[inline]
    pub fn add_to(&mut self, r: usize, c: usize, value: f64) {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        self.data[r * self.cols + c] += value;
    }

    /// Overwrites every entry with `value` (used to reset cached
    /// assembly workspaces without reallocating).
    #[inline]
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Factors the matrix as `P·A = L·U` with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for non-square input
    /// and [`LinalgError::Singular`] when a pivot vanishes.
    pub fn lu(&self) -> Result<LuFactors, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch);
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        factorize(n, &mut lu, &mut perm)?;
        Ok(LuFactors { n, lu, perm })
    }

    /// Re-factors the matrix into an existing [`LuFactors`], reusing its
    /// buffers — the allocation-free variant for solvers that factor the
    /// same-sized system repeatedly.
    ///
    /// On error the factors are left in an unspecified state and must
    /// not be used for solves until a subsequent successful
    /// factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for non-square input
    /// and [`LinalgError::Singular`] when a pivot vanishes.
    pub fn lu_into(&self, factors: &mut LuFactors) -> Result<(), LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch);
        }
        let n = self.rows;
        factors.n = n;
        factors.lu.clear();
        factors.lu.extend_from_slice(&self.data);
        factors.perm.clear();
        factors.perm.extend(0..n);
        factorize(n, &mut factors.lu, &mut factors.perm)
    }

    /// Solves `A·x = b` through LU decomposition.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError`] from factoring, and returns
    /// [`LinalgError::DimensionMismatch`] when `b.len() != rows`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let factors = self.lu()?;
        let mut x = vec![0.0; self.rows];
        factors.solve_into(b, &mut x)?;
        Ok(x)
    }
}

/// In-place LU elimination with partial pivoting over a row-major
/// `n × n` buffer; shared by [`Matrix::lu`] and [`Matrix::lu_into`].
fn factorize(n: usize, lu: &mut [f64], perm: &mut [usize]) -> Result<(), LinalgError> {
    for k in 0..n {
        // Find pivot.
        let mut pivot_row = k;
        let mut pivot_val = lu[k * n + k].abs();
        for r in (k + 1)..n {
            let v = lu[r * n + k].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-300 {
            return Err(LinalgError::Singular);
        }
        if pivot_row != k {
            for c in 0..n {
                lu.swap(k * n + c, pivot_row * n + c);
            }
            perm.swap(k, pivot_row);
        }
        // Eliminate below the pivot.
        let pivot = lu[k * n + k];
        for r in (k + 1)..n {
            let factor = lu[r * n + k] / pivot;
            lu[r * n + k] = factor;
            for c in (k + 1)..n {
                lu[r * n + c] -= factor * lu[k * n + c];
            }
        }
    }
    Ok(())
}

/// The result of LU-factoring a square matrix; reusable across multiple
/// right-hand sides.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl LuFactors {
    /// The dimension of the factored system.
    #[inline]
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len()` differs
    /// from the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a caller-provided buffer — the
    /// allocation-free variant: a cached factorization plus this call is
    /// a single O(n²) back-substitution per step.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len()` or
    /// `x.len()` differs from the factored dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), LinalgError> {
        if b.len() != self.n || x.len() != self.n {
            return Err(LinalgError::DimensionMismatch);
        }
        let n = self.n;
        // Apply permutation: y = P·b.
        for (xr, &p) in x.iter_mut().zip(&self.perm) {
            *xr = b[p];
        }
        // Forward substitution with unit-diagonal L. Row dot products
        // over slices let the compiler elide bounds checks and
        // vectorize.
        for r in 1..n {
            let row = &self.lu[r * n..r * n + r];
            let (solved, rest) = x.split_at_mut(r);
            let dot: f64 = row.iter().zip(solved.iter()).map(|(l, v)| l * v).sum();
            rest[0] -= dot;
        }
        // Back substitution with U.
        for r in (0..n).rev() {
            let row = &self.lu[r * n + r + 1..(r + 1) * n];
            let (head, solved) = x.split_at_mut(r + 1);
            let dot: f64 = row.iter().zip(solved.iter()).map(|(u, v)| u * v).sum();
            head[r] = (head[r] - dot) / self.lu[r * n + r];
        }
        Ok(())
    }

    /// Solves `A·X = B` for a slot-major block of `batch` right-hand
    /// sides (`rhs[slot * batch + lane]`, likewise `x`), using `acc`
    /// (length ≥ `batch`) as the accumulation workspace.
    ///
    /// Per lane the accumulation order is exactly that of
    /// [`Self::solve_into`] — each lane carries its own accumulator
    /// through the same ascending-`k` dot products — so a lane pulled
    /// out of a block solve is bit-identical to solving it alone. Across
    /// lanes the inner loops run over contiguous memory and vectorize,
    /// which is what makes one shared factorization across a rack of
    /// servers an order of magnitude cheaper than per-server solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `rhs` or `x` is
    /// not `dimension · batch` long, or `acc` is shorter than `batch`.
    pub fn solve_block_into(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        batch: usize,
        acc: &mut [f64],
    ) -> Result<(), LinalgError> {
        let n = self.n;
        if rhs.len() != n * batch || x.len() != n * batch || acc.len() < batch {
            return Err(LinalgError::DimensionMismatch);
        }
        let acc = &mut acc[..batch];
        // Apply permutation: X = P·B, whole lanes at a time.
        for (r, &p) in self.perm.iter().enumerate() {
            x[r * batch..(r + 1) * batch].copy_from_slice(&rhs[p * batch..(p + 1) * batch]);
        }
        // Forward substitution with unit-diagonal L. Exactly-zero
        // factor entries (structural zeros of the thermal topology that
        // survived elimination) are skipped: adding `0.0 · x` to the
        // accumulator is an exact no-op for the finite values a
        // non-diverged solve carries, so per-lane bit-identity with
        // `solve_into` is preserved while the common sparse-in-dense
        // case drops about half the row passes.
        for r in 1..n {
            let row = &self.lu[r * n..r * n + r];
            acc.fill(0.0);
            for (k, &l) in row.iter().enumerate() {
                if l == 0.0 {
                    continue;
                }
                let src = k * batch;
                for (a, &xv) in acc.iter_mut().zip(&x[src..src + batch]) {
                    *a += l * xv;
                }
            }
            let dst = r * batch;
            for (xv, &a) in x[dst..dst + batch].iter_mut().zip(acc.iter()) {
                *xv -= a;
            }
        }
        // Back substitution with U.
        for r in (0..n).rev() {
            let row = &self.lu[r * n + r + 1..(r + 1) * n];
            acc.fill(0.0);
            for (off, &u) in row.iter().enumerate() {
                if u == 0.0 {
                    continue;
                }
                let src = (r + 1 + off) * batch;
                for (a, &xv) in acc.iter_mut().zip(&x[src..src + batch]) {
                    *a += u * xv;
                }
            }
            let diag = self.lu[r * n + r];
            let dst = r * batch;
            for (xv, &a) in x[dst..dst + batch].iter_mut().zip(acc.iter()) {
                *xv = (*xv - a) / diag;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `A·x`, for right-hand sides with a known solution.
    fn mul(a: &Matrix, x: &[f64]) -> Vec<f64> {
        (0..a.rows)
            .map(|r| (0..a.cols).map(|c| a.get(r, c) * x[c]).sum())
            .collect()
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let a = Matrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        assert_eq!(a.solve(&b).unwrap(), b.to_vec());
    }

    #[test]
    fn known_3x3_system() {
        // x = [1, 2, 3]
        let a = Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[1.0, 3.0, 2.0], &[1.0, 0.0, 0.0]]).unwrap();
        let b = [7.0, 13.0, 1.0];
        let x = a.solve(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(a.solve(&[1.0, 2.0]), Err(LinalgError::Singular));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(a.lu().unwrap_err(), LinalgError::DimensionMismatch);
        let sq = Matrix::identity(3);
        assert_eq!(
            sq.solve(&[1.0, 2.0]).unwrap_err(),
            LinalgError::DimensionMismatch
        );
    }

    #[test]
    fn from_rows_validates_shape() {
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        let empty_row: &[f64] = &[];
        assert!(Matrix::from_rows(&[empty_row]).is_err());
    }

    #[test]
    fn mul_vec_matches_solve_round_trip() {
        let a =
            Matrix::from_rows(&[&[4.0, -1.0, 0.5], &[-1.0, 5.0, -2.0], &[0.5, -2.0, 6.0]]).unwrap();
        let x_true = [0.3, -1.2, 2.5];
        let b = mul(&a, &x_true);
        let x = a.solve(&b).unwrap();
        for (xs, xt) in x.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-10);
        }
    }

    #[test]
    fn lu_factors_reusable() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let lu = a.lu().unwrap();
        let x1 = lu.solve(&[5.0, 5.0]).unwrap();
        let x2 = lu.solve(&[4.0, 3.0]).unwrap();
        assert!((x1[0] - 1.0).abs() < 1e-12 && (x1[1] - 2.0).abs() < 1e-12);
        assert!((x2[0] - 1.0).abs() < 1e-12 && (x2[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = Matrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    fn block_solve_lanes_bit_identical_to_single_solves() {
        // A matrix that forces pivoting, so the permutation path of the
        // block solve is exercised too.
        let a = Matrix::from_rows(&[
            &[0.1, 4.0, -1.0, 0.5],
            &[3.0, 0.2, 1.0, -0.7],
            &[-1.0, 1.5, 5.0, 0.3],
            &[0.4, -0.6, 0.8, 2.5],
        ])
        .unwrap();
        let lu = a.lu().unwrap();
        let n = 4;
        let batch = 3;
        let mut rhs = vec![0.0; n * batch];
        let mut singles = Vec::new();
        for lane in 0..batch {
            let b: Vec<f64> = (0..n).map(|i| ((i * 7 + lane * 3) as f64).sin()).collect();
            for i in 0..n {
                rhs[i * batch + lane] = b[i];
            }
            singles.push(lu.solve(&b).unwrap());
        }
        let mut x = vec![0.0; n * batch];
        let mut acc = vec![0.0; batch];
        lu.solve_block_into(&rhs, &mut x, batch, &mut acc).unwrap();
        for (lane, single) in singles.iter().enumerate() {
            for i in 0..n {
                assert_eq!(
                    x[i * batch + lane].to_bits(),
                    single[i].to_bits(),
                    "lane {lane} slot {i}"
                );
            }
        }
        // Mis-sized operands are rejected.
        assert_eq!(
            lu.solve_block_into(&rhs[1..], &mut x, batch, &mut acc),
            Err(LinalgError::DimensionMismatch)
        );
    }

    #[test]
    fn random_spd_systems_solve_accurately() {
        // Deterministic pseudo-random SPD matrices: A = Mᵀ·M + n·I.
        let mut seed = 0x1234_5678_u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [2usize, 5, 9, 14] {
            let mut m = Matrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    m.set(r, c, next());
                }
            }
            let mut a = Matrix::zeros(n, n);
            for r in 0..n {
                for c in 0..n {
                    let mut dot = 0.0;
                    for k in 0..n {
                        dot += m.get(k, r) * m.get(k, c);
                    }
                    a.set(r, c, dot + if r == c { n as f64 } else { 0.0 });
                }
            }
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
            let b = mul(&a, &x_true);
            let x = a.solve(&b).unwrap();
            for (xs, xt) in x.iter().zip(&x_true) {
                assert!((xs - xt).abs() < 1e-8, "n={n}: {xs} vs {xt}");
            }
        }
    }
}
