//! Pluggable linear-algebra backends for the transient stepping engine.
//!
//! [`TransientSolver`](crate::TransientSolver) is generic over a
//! [`SolverBackend`] that owns the conductance-matrix storage and the
//! factorizations of `(C + h·G)` (backward Euler) and `G` (steady
//! state). Two concrete backends cover the scale range:
//!
//! - [`DenseBackend`] — the original dense-`Matrix` + partial-pivoting
//!   LU path, bit-for-bit identical to the pre-backend solver. Right
//!   for single-server networks (tens of nodes).
//! - [`CsrBackend`] — CSR storage with a no-pivot sparse LU whose
//!   symbolic analysis is computed once per topology and cached; numeric
//!   refactorization is keyed on `(dt, flow)` by the solver exactly like
//!   the dense cache. Right for rack- and room-scale networks (hundreds
//!   of nodes), where dense factorization and even dense
//!   back-substitution are dominated by structural zeros.
//! - [`AutoBackend`] — picks between them at construction from the
//!   network's node count ([`CSR_NODE_THRESHOLD`]).
//!
//! The backend only owns *matrix-shaped* state. Assembly inputs, cache
//! keys and source vectors stay in the solver, so every backend sees
//! the identical invalidation protocol.

use crate::error::ThermalError;
use crate::linalg::{LuFactors, Matrix};
use crate::network::ThermalNetwork;
use crate::sparse::{CsrLu, CsrLuSymbolic, CsrMatrix};

/// Node count at and above which [`AutoBackend`] switches from dense to
/// CSR storage. Single-server networks (9–15 nodes) stay dense — and
/// therefore bit-identical to the historical solver — while rack-scale
/// coupled networks go sparse.
pub const CSR_NODE_THRESHOLD: usize = 64;

/// Matrix storage + factorization engine behind a
/// [`TransientSolver`](crate::TransientSolver).
///
/// Implementations hold the flow-dependent conductance matrix `G`, the
/// backward-Euler operator `(C + h·G)` with its factorization, and the
/// steady-state factorization of `G`. The solver drives assembly and
/// decides *when* to (re)factor; backends only compute.
pub trait SolverBackend {
    /// Builds backend storage sized and patterned for `net`.
    fn build(net: &ThermalNetwork) -> Self;

    /// Reassembles `G` and the boundary source from the network's
    /// current flows and boundary temperatures.
    fn assemble_conductance(&mut self, net: &ThermalNetwork, s_bound: &mut [f64]);

    /// Factors the backward-Euler operator `(C + h·G)` from the current
    /// `G` assembly.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when the factorization
    /// fails; the backend then holds no valid BE factors.
    fn factor_be(&mut self, c: &[f64], h: f64) -> Result<(), ThermalError>;

    /// Solves `(C + h·G)·x = rhs` with the cached BE factors.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when no valid factors
    /// are held.
    fn solve_be_into(&self, rhs: &[f64], x: &mut [f64]) -> Result<(), ThermalError>;

    /// Solves `(C + h·G)·X = B` for a slot-major block of `batch`
    /// right-hand sides (`rhs[slot * batch + lane]`, likewise `x`),
    /// using `acc` (length ≥ `batch`) as the accumulation workspace.
    /// Each lane's arithmetic order matches [`Self::solve_be_into`]
    /// exactly, so a one-lane block is bit-identical to the scalar
    /// solve.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when no valid factors
    /// are held.
    fn solve_be_block_into(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        batch: usize,
        acc: &mut [f64],
    ) -> Result<(), ThermalError>;

    /// Factors `G` itself for direct steady-state solves.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when `G` is singular
    /// (some capacitive node has no path to a boundary).
    fn factor_steady(&mut self) -> Result<(), ThermalError>;

    /// Solves `G·x = s` with the cached steady-state factors.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when no valid factors
    /// are held.
    fn solve_steady_into(&self, s: &[f64], x: &mut [f64]) -> Result<(), ThermalError>;

    /// `true` when the backend uses sparse storage (diagnostics only).
    fn is_sparse(&self) -> bool;
}

/// The dense path: row-major [`Matrix`] storage with partial-pivoting
/// LU — bit-identical to the solver before backends existed.
#[derive(Debug, Clone)]
pub struct DenseBackend {
    g: Matrix,
    /// Backward-Euler operator build workspace.
    be_m: Matrix,
    be_lu: Option<LuFactors>,
    ss_lu: Option<LuFactors>,
}

impl SolverBackend for DenseBackend {
    fn build(net: &ThermalNetwork) -> Self {
        let n = net.state_count();
        Self {
            g: Matrix::zeros(n, n),
            be_m: Matrix::zeros(n, n),
            be_lu: None,
            ss_lu: None,
        }
    }

    fn assemble_conductance(&mut self, net: &ThermalNetwork, s_bound: &mut [f64]) {
        net.assemble_conductance_into(&mut self.g, s_bound);
    }

    fn factor_be(&mut self, c: &[f64], h: f64) -> Result<(), ThermalError> {
        let n = c.len();
        for (r, &cr) in c.iter().enumerate() {
            for col in 0..n {
                let mut v = h * self.g.get(r, col);
                if r == col {
                    v += cr;
                }
                self.be_m.set(r, col, v);
            }
        }
        let factored = if let Some(factors) = self.be_lu.as_mut() {
            self.be_m.lu_into(factors)
        } else {
            self.be_m.lu().map(|factors| {
                self.be_lu = Some(factors);
            })
        };
        if factored.is_err() {
            self.be_lu = None;
            return Err(ThermalError::SingularSystem);
        }
        Ok(())
    }

    fn solve_be_into(&self, rhs: &[f64], x: &mut [f64]) -> Result<(), ThermalError> {
        self.be_lu
            .as_ref()
            .ok_or(ThermalError::SingularSystem)?
            .solve_into(rhs, x)
            .map_err(|_| ThermalError::SingularSystem)
    }

    fn solve_be_block_into(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        batch: usize,
        acc: &mut [f64],
    ) -> Result<(), ThermalError> {
        self.be_lu
            .as_ref()
            .ok_or(ThermalError::SingularSystem)?
            .solve_block_into(rhs, x, batch, acc)
            .map_err(|_| ThermalError::SingularSystem)
    }

    fn factor_steady(&mut self) -> Result<(), ThermalError> {
        let factored = if let Some(factors) = self.ss_lu.as_mut() {
            self.g.lu_into(factors)
        } else {
            self.g.lu().map(|factors| {
                self.ss_lu = Some(factors);
            })
        };
        if factored.is_err() {
            self.ss_lu = None;
            return Err(ThermalError::SingularSystem);
        }
        Ok(())
    }

    fn solve_steady_into(&self, s: &[f64], x: &mut [f64]) -> Result<(), ThermalError> {
        self.ss_lu
            .as_ref()
            .ok_or(ThermalError::SingularSystem)?
            .solve_into(s, x)
            .map_err(|_| ThermalError::SingularSystem)
    }

    fn is_sparse(&self) -> bool {
        false
    }
}

/// The sparse path: [`CsrMatrix`] storage for `G` and `(C + h·G)` with a
/// shared cached symbolic analysis and no-pivot numeric LU
/// refactorizations.
#[derive(Debug, Clone)]
pub struct CsrBackend {
    g: CsrMatrix,
    be_m: CsrMatrix,
    be_lu: CsrLu,
    ss_lu: CsrLu,
}

impl SolverBackend for CsrBackend {
    fn build(net: &ThermalNetwork) -> Self {
        let n = net.state_count();
        let g = CsrMatrix::from_adjacency(n, &net.slot_adjacency());
        // `(C + h·G)` shares G's pattern (the diagonal is structural in
        // both), so one symbolic analysis serves both factorizations.
        let symbolic = CsrLuSymbolic::analyze(&g);
        let be_m = g.clone();
        Self {
            g,
            be_m,
            be_lu: CsrLu::new(symbolic.clone()),
            ss_lu: CsrLu::new(symbolic),
        }
    }

    fn assemble_conductance(&mut self, net: &ThermalNetwork, s_bound: &mut [f64]) {
        self.g.fill_zero();
        let g = &mut self.g;
        net.assemble_conductance_with(&mut |r, c, v| g.add_to(r, c, v), s_bound);
    }

    fn factor_be(&mut self, c: &[f64], h: f64) -> Result<(), ThermalError> {
        self.be_m.assign_be_operator(&self.g, h, c);
        self.be_lu
            .refactor(&self.be_m)
            .map_err(|_| ThermalError::SingularSystem)
    }

    fn solve_be_into(&self, rhs: &[f64], x: &mut [f64]) -> Result<(), ThermalError> {
        self.be_lu
            .solve_into(rhs, x)
            .map_err(|_| ThermalError::SingularSystem)
    }

    fn solve_be_block_into(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        batch: usize,
        acc: &mut [f64],
    ) -> Result<(), ThermalError> {
        self.be_lu
            .solve_block_into(rhs, x, batch, acc)
            .map_err(|_| ThermalError::SingularSystem)
    }

    fn factor_steady(&mut self) -> Result<(), ThermalError> {
        self.ss_lu
            .refactor(&self.g)
            .map_err(|_| ThermalError::SingularSystem)
    }

    fn solve_steady_into(&self, s: &[f64], x: &mut [f64]) -> Result<(), ThermalError> {
        self.ss_lu
            .solve_into(s, x)
            .map_err(|_| ThermalError::SingularSystem)
    }

    fn is_sparse(&self) -> bool {
        true
    }
}

/// Size-dispatching backend: dense below [`CSR_NODE_THRESHOLD`] state
/// nodes, CSR at or above it. The default backend of
/// [`TransientSolver`](crate::TransientSolver) — single-server networks
/// keep the historical bit-exact dense path while rack-scale networks
/// transparently go sparse.
#[derive(Debug, Clone)]
pub enum AutoBackend {
    /// Dense storage (small networks).
    Dense(DenseBackend),
    /// CSR storage (rack/room-scale networks), boxed so the common
    /// dense variant does not pay for the larger CSR record.
    Csr(Box<CsrBackend>),
}

macro_rules! auto_dispatch {
    ($self:ident, $b:ident => $body:expr) => {
        match $self {
            AutoBackend::Dense($b) => $body,
            AutoBackend::Csr($b) => $body,
        }
    };
}

impl SolverBackend for AutoBackend {
    fn build(net: &ThermalNetwork) -> Self {
        if net.state_count() >= CSR_NODE_THRESHOLD {
            Self::Csr(Box::new(CsrBackend::build(net)))
        } else {
            Self::Dense(DenseBackend::build(net))
        }
    }

    fn assemble_conductance(&mut self, net: &ThermalNetwork, s_bound: &mut [f64]) {
        auto_dispatch!(self, b => b.assemble_conductance(net, s_bound));
    }

    fn factor_be(&mut self, c: &[f64], h: f64) -> Result<(), ThermalError> {
        auto_dispatch!(self, b => b.factor_be(c, h))
    }

    fn solve_be_into(&self, rhs: &[f64], x: &mut [f64]) -> Result<(), ThermalError> {
        auto_dispatch!(self, b => b.solve_be_into(rhs, x))
    }

    fn solve_be_block_into(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        batch: usize,
        acc: &mut [f64],
    ) -> Result<(), ThermalError> {
        auto_dispatch!(self, b => b.solve_be_block_into(rhs, x, batch, acc))
    }

    fn factor_steady(&mut self) -> Result<(), ThermalError> {
        auto_dispatch!(self, b => b.factor_steady())
    }

    fn solve_steady_into(&self, s: &[f64], x: &mut [f64]) -> Result<(), ThermalError> {
        auto_dispatch!(self, b => b.solve_steady_into(s, x))
    }

    fn is_sparse(&self) -> bool {
        auto_dispatch!(self, b => b.is_sparse())
    }
}
