//! Compressed-sparse-row storage and a no-pivoting sparse LU for
//! rack-scale thermal networks.
//!
//! The dense [`Matrix`](crate::linalg::Matrix) path is the right tool at
//! the 9–15 nodes of one server, but a rack or room model couples
//! hundreds of nodes whose conductance matrix is overwhelmingly zero:
//! each node exchanges heat with a handful of structural neighbours. At
//! that scale dense LU is O(n³) on mostly-zero arithmetic. This module
//! provides:
//!
//! - [`CsrMatrix`] — row-major compressed storage over a *fixed*
//!   sparsity pattern (thermal topology never changes after build), with
//!   in-pattern accumulation for assembly and an allocation-free
//!   mat-vec.
//! - [`CsrLu`] — an LU factorization without pivoting whose *symbolic*
//!   analysis (fill pattern, computed once per topology) is cached and
//!   whose *numeric* refactorization reuses the pattern, exactly
//!   mirroring how the dense stepper caches its `(dt, flow)`-keyed
//!   factorization.
//!
//! Elimination follows node order: there is no pivoting and no
//! fill-reducing reordering. The order in which a network builder adds
//! its capacitive nodes is the elimination order, so a builder must add
//! hub nodes (one node coupled to many, like a room's plenum and
//! return) *last*. Eliminated first, a hub couples all its neighbours
//! to each other and the factor fills densely; eliminated last, it
//! adds only its own row and column. The room air network
//! ([`RoomAirModel`](crate::RoomAirModel)) is built that way.
//!
//! No pivoting is safe here because the systems the solver factors are
//! (weakly) diagonally dominant: `C + h·G` has the positive capacitance
//! added to a diagonal that already bounds the off-diagonal row sum, and
//! `G` itself is an irreducibly dominant graph Laplacian plus boundary
//! couplings. A vanishing pivot (an isolated node in a steady-state
//! solve) is reported as [`LinalgError::Singular`], matching the dense
//! path's semantics.

use crate::linalg::LinalgError;

/// A square sparse matrix in CSR form over a fixed sparsity pattern.
///
/// Column indices are sorted within each row and the diagonal entry is
/// always structurally present (thermal assembly touches every
/// diagonal). Values can be reset and re-accumulated freely; the
/// pattern cannot change after construction.
///
/// # Example
///
/// ```
/// use leakctl_thermal::sparse::CsrMatrix;
///
/// // Pattern: 0-1 coupled chain, diagonal always present.
/// let mut m = CsrMatrix::from_adjacency(2, &[vec![1], vec![0]]);
/// m.add_to(0, 0, 2.0);
/// m.add_to(0, 1, -1.0);
/// assert_eq!(m.row_cols(0), [0, 1]);
/// assert_eq!(m.nnz(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds an `n × n` matrix whose pattern is the full diagonal plus
    /// the given per-row off-diagonal neighbour lists (as produced by
    /// the network's structural adjacency). Neighbour lists must be
    /// sorted and deduplicated; self-entries are ignored (the diagonal
    /// is inserted unconditionally).
    ///
    /// # Panics
    ///
    /// Panics when `adjacency.len() != n` or a column index is out of
    /// range.
    #[must_use]
    pub fn from_adjacency(n: usize, adjacency: &[Vec<usize>]) -> Self {
        assert_eq!(adjacency.len(), n, "adjacency rows must match dimension");
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0);
        for (r, nbrs) in adjacency.iter().enumerate() {
            let mut placed_diag = false;
            for &c in nbrs {
                assert!(c < n, "column index out of range");
                if c == r {
                    continue;
                }
                if c > r && !placed_diag {
                    col_idx.push(r);
                    placed_diag = true;
                }
                col_idx.push(c);
            }
            if !placed_diag {
                col_idx.push(r);
                // Keep columns sorted: the diagonal belongs before any
                // neighbour greater than r, which is already handled
                // above; reaching here means every neighbour was < r.
            }
            let row = &mut col_idx[row_ptr[r]..];
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "row must be sorted");
            let _ = row;
            row_ptr.push(col_idx.len());
        }
        let vals = vec![0.0; col_idx.len()];
        Self {
            n,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// The dimension of the (square) matrix.
    #[inline]
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Number of structurally non-zero entries.
    #[inline]
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Resets every stored value to zero, keeping the pattern.
    #[inline]
    pub fn fill_zero(&mut self) {
        self.vals.fill(0.0);
    }

    /// The sorted column indices of row `r`.
    #[inline]
    #[must_use]
    pub fn row_cols(&self, r: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    fn pos(&self, r: usize, c: usize) -> Option<usize> {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .binary_search(&c)
            .ok()
            .map(|off| lo + off)
    }

    /// Adds `v` to entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when `(r, c)` is outside the fixed sparsity pattern.
    #[inline]
    pub fn add_to(&mut self, r: usize, c: usize, v: f64) {
        let Some(p) = self.pos(r, c) else {
            panic!("entry ({r}, {c}) lies outside the fixed CSR pattern");
        };
        self.vals[p] += v;
    }

    /// Overwrites this matrix with the backward-Euler operator
    /// `h·src + diag(c)`. Both matrices must share one pattern (clone
    /// the assembly matrix to create the operator storage), so the
    /// values align positionally and the rebuild is a single pass.
    ///
    /// # Panics
    ///
    /// Panics when the patterns differ or `c` has the wrong length.
    pub(crate) fn assign_be_operator(&mut self, src: &CsrMatrix, h: f64, c: &[f64]) {
        assert!(
            self.n == src.n && self.col_idx == src.col_idx && c.len() == self.n,
            "BE operator must share the assembly pattern"
        );
        for (r, &cr) in c.iter().enumerate() {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            for p in lo..hi {
                let mut v = h * src.vals[p];
                if self.col_idx[p] == r {
                    v += cr;
                }
                self.vals[p] = v;
            }
        }
    }
}

/// The cached symbolic analysis of a [`CsrLu`]: the fill pattern of the
/// `L\U` factor, computed once per sparsity pattern and shared by every
/// numeric refactorization (and by the backward-Euler and steady-state
/// factors, whose matrices share the pattern of `G`).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrLuSymbolic {
    n: usize,
    /// Row pointers into the combined `L\U` pattern.
    row_ptr: Vec<usize>,
    /// Sorted column indices; entries `< r` belong to L (unit diagonal
    /// implied), entries `>= r` to U.
    cols: Vec<usize>,
    /// Offset of the diagonal entry within each row.
    diag: Vec<usize>,
}

impl CsrLuSymbolic {
    /// Runs the symbolic factorization for the given matrix pattern.
    ///
    /// Rows are eliminated in index order, with no reordering, so the
    /// fill depends on the node order the network was built in: a hub
    /// node eliminated early fills the rows of all its neighbours. Add
    /// hub nodes last (see the module documentation).
    ///
    /// The pattern is symmetrized internally (fill is computed on
    /// `pattern(A) ∪ pattern(Aᵀ)`), which upper-bounds the true
    /// unsymmetric fill — thermal networks are structurally symmetric
    /// except for directed advection edges, so the overshoot is a few
    /// explicitly-stored zeros, not meaningful work.
    #[must_use]
    pub fn analyze(a: &CsrMatrix) -> Self {
        let n = a.n;
        // Symmetrized input pattern, per row, sorted.
        let mut sym: Vec<Vec<usize>> = vec![Vec::new(); n];
        for r in 0..n {
            for &c in a.row_cols(r) {
                sym[r].push(c);
                if r != c {
                    sym[c].push(r);
                }
            }
        }
        for row in &mut sym {
            row.sort_unstable();
            row.dedup();
        }
        // Symbolic elimination: the pattern of row i of L\U is the input
        // pattern plus, for every k < i in the (growing) pattern taken
        // in ascending order, the columns > k of U's row k. Insertions
        // always land above the scan cursor (merged columns exceed k),
        // so a single ascending pass with in-place sorted insertion
        // terminates with the full fill.
        let mut u_rows: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut diag = Vec::with_capacity(n);
        row_ptr.push(0);
        let mut pattern: Vec<usize> = Vec::new();
        let mut in_pattern = vec![false; n];
        for (i, sym_row) in sym.iter().enumerate() {
            pattern.clear();
            for &c in sym_row {
                pattern.push(c);
                in_pattern[c] = true;
            }
            if !in_pattern[i] {
                let at = pattern.partition_point(|&c| c < i);
                pattern.insert(at, i);
                in_pattern[i] = true;
            }
            let mut cursor = 0;
            while cursor < pattern.len() {
                let k = pattern[cursor];
                if k >= i {
                    break;
                }
                for &j in &u_rows[k] {
                    if j > k && !in_pattern[j] {
                        let at = pattern.partition_point(|&c| c < j);
                        pattern.insert(at, j);
                        in_pattern[j] = true;
                    }
                }
                cursor += 1;
            }
            for &c in &pattern {
                in_pattern[c] = false;
            }
            let d = pattern.partition_point(|&c| c < i);
            debug_assert!(pattern[d] == i, "diagonal must be present");
            diag.push(cols.len() + d);
            u_rows.push(pattern[d..].to_vec());
            cols.extend_from_slice(&pattern);
            row_ptr.push(cols.len());
        }
        Self {
            n,
            row_ptr,
            cols,
            diag,
        }
    }

    /// Structural non-zeros of the combined `L\U` factor.
    #[must_use]
    pub fn factor_nnz(&self) -> usize {
        self.cols.len()
    }
}

/// A numeric LU factorization over a cached [`CsrLuSymbolic`] pattern.
///
/// Created empty with [`CsrLu::new`], populated by
/// [`CsrLu::refactor`] whenever the matrix values change (the caller
/// keys refactorization on `(dt, flow)` exactly as the dense path
/// does), and then applied through [`CsrLu::solve_into`] — an
/// O(nnz(L\U)) substitution.
#[derive(Debug, Clone)]
pub struct CsrLu {
    symbolic: CsrLuSymbolic,
    vals: Vec<f64>,
    /// Scatter workspace for one factor/solve row.
    work: Vec<f64>,
    valid: bool,
}

impl CsrLu {
    /// Prepares numeric storage over a symbolic analysis.
    #[must_use]
    pub fn new(symbolic: CsrLuSymbolic) -> Self {
        let nnz = symbolic.factor_nnz();
        let n = symbolic.n;
        Self {
            symbolic,
            vals: vec![0.0; nnz],
            work: vec![0.0; n],
            valid: false,
        }
    }

    /// The dimension of the factored system.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.symbolic.n
    }

    /// `true` after a successful [`Self::refactor`].
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Numerically refactors `a` (which must share the pattern the
    /// symbolic analysis was computed from) without pivoting, reusing
    /// all storage.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when a pivot vanishes (e.g. a
    /// floating node in a steady-state solve) and
    /// [`LinalgError::DimensionMismatch`] when `a` has a different
    /// dimension. On error the factors are invalid until a subsequent
    /// successful refactorization.
    pub fn refactor(&mut self, a: &CsrMatrix) -> Result<(), LinalgError> {
        let n = self.symbolic.n;
        if a.n != n {
            self.valid = false;
            return Err(LinalgError::DimensionMismatch);
        }
        let sym = &self.symbolic;
        // Up-looking row LU: for each row, scatter A's row into the
        // dense workspace, eliminate with every finished U row indexed
        // by the L part of this row's pattern, then gather back.
        for i in 0..n {
            let lo = sym.row_ptr[i];
            let hi = sym.row_ptr[i + 1];
            for &c in &sym.cols[lo..hi] {
                self.work[c] = 0.0;
            }
            {
                let a_lo = a.row_ptr[i];
                let a_hi = a.row_ptr[i + 1];
                for (&c, &v) in a.col_idx[a_lo..a_hi].iter().zip(&a.vals[a_lo..a_hi]) {
                    self.work[c] = v;
                }
            }
            for p in lo..hi {
                let k = sym.cols[p];
                if k >= i {
                    break;
                }
                let ukk = self.vals[sym.diag[k]];
                let lik = self.work[k] / ukk;
                self.work[k] = lik;
                if lik != 0.0 {
                    let k_lo = sym.diag[k] + 1;
                    let k_hi = sym.row_ptr[k + 1];
                    for p2 in k_lo..k_hi {
                        self.work[sym.cols[p2]] -= lik * self.vals[p2];
                    }
                }
            }
            for p in lo..hi {
                self.vals[p] = self.work[sym.cols[p]];
            }
            if self.vals[sym.diag[i]].abs() < 1e-300 {
                self.valid = false;
                return Err(LinalgError::Singular);
            }
        }
        self.valid = true;
        Ok(())
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when no valid factorization is
    /// held and [`LinalgError::DimensionMismatch`] for wrong-sized
    /// operands.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.symbolic.n;
        if !self.valid {
            return Err(LinalgError::Singular);
        }
        if b.len() != n || x.len() != n {
            return Err(LinalgError::DimensionMismatch);
        }
        x.copy_from_slice(b);
        let sym = &self.symbolic;
        // Forward substitution with unit-diagonal L.
        for i in 0..n {
            let lo = sym.row_ptr[i];
            let d = sym.diag[i];
            let mut dot = 0.0;
            for p in lo..d {
                dot += self.vals[p] * x[sym.cols[p]];
            }
            x[i] -= dot;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let d = sym.diag[i];
            let hi = sym.row_ptr[i + 1];
            let mut dot = 0.0;
            for p in (d + 1)..hi {
                dot += self.vals[p] * x[sym.cols[p]];
            }
            x[i] = (x[i] - dot) / self.vals[d];
        }
        Ok(())
    }

    /// Solves `A·X = B` for a slot-major block of `batch` right-hand
    /// sides, copying `rhs` into `x` first — see
    /// [`Self::solve_block_in_place`] for layout and bit-identity
    /// guarantees.
    ///
    /// # Errors
    ///
    /// As [`Self::solve_block_in_place`], plus
    /// [`LinalgError::DimensionMismatch`] when `rhs` and `x` differ in
    /// length.
    pub fn solve_block_into(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        batch: usize,
        acc: &mut [f64],
    ) -> Result<(), LinalgError> {
        if rhs.len() != x.len() {
            return Err(LinalgError::DimensionMismatch);
        }
        x.copy_from_slice(rhs);
        self.solve_block_in_place(x, batch, acc)
    }

    /// Solves `A·X = B` for a slot-major block of `batch` right-hand
    /// sides (`block[slot * batch + lane]`), in place.
    ///
    /// Each lane's arithmetic follows the exact accumulation order of
    /// [`Self::solve_into`], so a lane extracted from a block solve is
    /// bit-identical to solving it alone; across lanes the inner loops
    /// are contiguous and vectorize.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] when no valid factorization is
    /// held and [`LinalgError::DimensionMismatch`] when `block` is not
    /// `dimension · batch` long (or `acc` is shorter than `batch`).
    pub fn solve_block_in_place(
        &self,
        block: &mut [f64],
        batch: usize,
        acc: &mut [f64],
    ) -> Result<(), LinalgError> {
        let n = self.symbolic.n;
        if !self.valid {
            return Err(LinalgError::Singular);
        }
        if block.len() != n * batch || acc.len() < batch {
            return Err(LinalgError::DimensionMismatch);
        }
        let acc = &mut acc[..batch];
        let sym = &self.symbolic;
        for i in 0..n {
            let lo = sym.row_ptr[i];
            let d = sym.diag[i];
            acc.fill(0.0);
            for p in lo..d {
                let l = self.vals[p];
                let src = sym.cols[p] * batch;
                for (abuf, &xv) in acc.iter_mut().zip(&block[src..src + batch]) {
                    *abuf += l * xv;
                }
            }
            let dst = i * batch;
            for (xv, &abuf) in block[dst..dst + batch].iter_mut().zip(acc.iter()) {
                *xv -= abuf;
            }
        }
        for i in (0..n).rev() {
            let d = sym.diag[i];
            let hi = sym.row_ptr[i + 1];
            acc.fill(0.0);
            for p in (d + 1)..hi {
                let u = self.vals[p];
                let src = sym.cols[p] * batch;
                for (abuf, &xv) in acc.iter_mut().zip(&block[src..src + batch]) {
                    *abuf += u * xv;
                }
            }
            let inv_diag = self.vals[d];
            let dst = i * batch;
            for (xv, &abuf) in block[dst..dst + batch].iter_mut().zip(acc.iter()) {
                *xv = (*xv - abuf) / inv_diag;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;

    /// A diagonally dominant chain matrix in both CSR and dense form.
    fn chain(n: usize) -> (CsrMatrix, Matrix) {
        let adjacency: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut nbrs = Vec::new();
                if i > 0 {
                    nbrs.push(i - 1);
                }
                if i + 1 < n {
                    nbrs.push(i + 1);
                }
                nbrs
            })
            .collect();
        let mut csr = CsrMatrix::from_adjacency(n, &adjacency);
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            let d = 3.0 + i as f64 * 0.1;
            csr.add_to(i, i, d);
            dense.add_to(i, i, d);
            if i + 1 < n {
                let g = -(1.0 + 0.01 * i as f64);
                csr.add_to(i, i + 1, g);
                dense.add_to(i, i + 1, g);
                csr.add_to(i + 1, i, g * 0.9);
                dense.add_to(i + 1, i, g * 0.9);
            }
        }
        (csr, dense)
    }

    #[test]
    fn pattern_has_sorted_rows_and_diagonal() {
        let m = CsrMatrix::from_adjacency(4, &[vec![2, 3], vec![], vec![0], vec![0]]);
        for r in 0..4 {
            let cols = m.row_cols(r);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {r} sorted");
            assert!(cols.contains(&r), "row {r} has diagonal");
        }
        assert_eq!(m.nnz(), 4 + 4);
    }

    #[test]
    fn mul_vec_matches_dense() {
        let (csr, dense) = chain(12);
        let x: Vec<f64> = (0..12).map(|i| (i as f64) - 4.5).collect();
        // `A·x` over the stored pattern and over every dense entry: equal
        // when the pattern holds every assembled entry.
        let y_sparse: Vec<f64> = (0..12)
            .map(|r| {
                let span = csr.row_ptr[r]..csr.row_ptr[r + 1];
                let cols = &csr.col_idx[span.clone()];
                cols.iter()
                    .zip(&csr.vals[span])
                    .map(|(&c, v)| v * x[c])
                    .sum()
            })
            .collect();
        let y_dense = (0..12).map(|r| (0..12).map(|c| dense.get(r, c) * x[c]).sum::<f64>());
        for (a, b) in y_sparse.iter().zip(y_dense) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn lu_solve_matches_dense() {
        let (csr, dense) = chain(20);
        let symbolic = CsrLuSymbolic::analyze(&csr);
        let mut lu = CsrLu::new(symbolic);
        lu.refactor(&csr).unwrap();
        let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.7).sin() * 10.0).collect();
        let mut x = vec![0.0; 20];
        lu.solve_into(&b, &mut x).unwrap();
        let x_dense = dense.solve(&b).unwrap();
        for (a, b) in x.iter().zip(&x_dense) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn refactor_tracks_value_changes() {
        let (mut csr, _) = chain(8);
        let symbolic = CsrLuSymbolic::analyze(&csr);
        let mut lu = CsrLu::new(symbolic);
        lu.refactor(&csr).unwrap();
        let b = vec![1.0; 8];
        let mut x1 = vec![0.0; 8];
        lu.solve_into(&b, &mut x1).unwrap();
        // Stiffen the diagonal and refactor: solution must shrink.
        for i in 0..8 {
            csr.add_to(i, i, 5.0);
        }
        lu.refactor(&csr).unwrap();
        let mut x2 = vec![0.0; 8];
        lu.solve_into(&b, &mut x2).unwrap();
        assert!(x2.iter().zip(&x1).all(|(a, b)| a.abs() < b.abs()));
    }

    #[test]
    fn block_solve_lane_bit_identical_to_single() {
        let (csr, _) = chain(16);
        let symbolic = CsrLuSymbolic::analyze(&csr);
        let mut lu = CsrLu::new(symbolic);
        lu.refactor(&csr).unwrap();
        let batch = 5;
        let n = 16;
        let mut block = vec![0.0; n * batch];
        let mut singles = Vec::new();
        for lane in 0..batch {
            let b: Vec<f64> = (0..n).map(|i| ((i + lane) as f64 * 0.3).cos()).collect();
            for i in 0..n {
                block[i * batch + lane] = b[i];
            }
            let mut x = vec![0.0; n];
            lu.solve_into(&b, &mut x).unwrap();
            singles.push(x);
        }
        let mut acc = vec![0.0; batch];
        lu.solve_block_in_place(&mut block, batch, &mut acc)
            .unwrap();
        for (lane, single) in singles.iter().enumerate() {
            for i in 0..n {
                assert_eq!(
                    block[i * batch + lane].to_bits(),
                    single[i].to_bits(),
                    "lane {lane} slot {i} must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn singular_reported_and_recoverable() {
        let mut csr = CsrMatrix::from_adjacency(2, &[vec![], vec![]]);
        // Row 1 stays all-zero: singular.
        csr.add_to(0, 0, 1.0);
        let symbolic = CsrLuSymbolic::analyze(&csr);
        let mut lu = CsrLu::new(symbolic);
        assert_eq!(lu.refactor(&csr), Err(LinalgError::Singular));
        assert!(!lu.is_valid());
        assert_eq!(
            lu.solve_into(&[1.0, 1.0], &mut [0.0, 0.0]),
            Err(LinalgError::Singular)
        );
        csr.add_to(1, 1, 4.0);
        lu.refactor(&csr).unwrap();
        let mut x = [0.0, 0.0];
        lu.solve_into(&[2.0, 2.0], &mut x).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fill_in_handled_on_arrow_pattern() {
        // Arrow matrix: first row/column full — elimination fills the
        // trailing block completely; symbolic analysis must predict it.
        let n = 6;
        let adjacency: Vec<Vec<usize>> = (0..n)
            .map(|i| if i == 0 { (1..n).collect() } else { vec![0] })
            .collect();
        let mut csr = CsrMatrix::from_adjacency(n, &adjacency);
        let mut dense = Matrix::zeros(n, n);
        for i in 0..n {
            let d = 10.0 + i as f64;
            csr.add_to(i, i, d);
            dense.add_to(i, i, d);
            if i > 0 {
                csr.add_to(0, i, -1.0);
                dense.add_to(0, i, -1.0);
                csr.add_to(i, 0, -1.5);
                dense.add_to(i, 0, -1.5);
            }
        }
        let symbolic = CsrLuSymbolic::analyze(&csr);
        assert!(symbolic.factor_nnz() >= csr.nnz());
        let mut lu = CsrLu::new(symbolic);
        lu.refactor(&csr).unwrap();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut x = vec![0.0; n];
        lu.solve_into(&b, &mut x).unwrap();
        let expect = dense.solve(&b).unwrap();
        for (a, b) in x.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-10);
        }
    }
}
