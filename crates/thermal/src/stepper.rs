//! Zero-allocation transient stepping engine, generic over a solver
//! backend.
//!
//! The server model mixes slow solid nodes (minutes) with fast air nodes
//! (sub-second), so the thermal ODE `C·dT/dt = −G·T + s` is stiff. Every
//! transient steps it with backward Euler, `(C + h·G)·T' = C·T + h·s`:
//! unconditionally stable, first-order accurate at the 0.1–1 s steps the
//! platform uses, and — unlike an explicit method — able to share one
//! factorization across every step with the same `(h, flows)`.
//!
//! Long transient integrations — the paper's 80-minute runs at
//! 1-second steps, and the dense characterization sweeps behind the
//! LUT — spend almost all of their time in stretches where *nothing*
//! about the system changes: fans hold a constant flow, powers update
//! but only move the source vector, and the step size is fixed.
//!
//! [`TransientSolver`] exploits that structure. It owns preallocated
//! workspace buffers and three caches keyed on the network's
//! cache-invalidation generations (bumped by
//! [`ThermalNetwork::set_flow`] / [`ThermalNetwork::set_power`] /
//! [`ThermalNetwork::set_boundary`] only when a value actually
//! changes):
//!
//! 1. the flow-dependent conductance matrix `G`, invalidated by flow
//!    changes, and the boundary-coupling source, invalidated by flow or
//!    boundary changes (a boundary-only change replays the network's
//!    boundary stencil instead of reassembling `G`);
//! 2. the power-injection source vector, invalidated by power changes;
//! 3. the factorization of `(C + h·G)`, keyed on `(h, flow)` — the
//!    common constant-fan/constant-dt stretches pay only a
//!    back-substitution per step, with zero heap allocation.
//!
//! The matrix storage and factorization live behind a pluggable
//! [`SolverBackend`]: dense LU for single-server networks and CSR
//! sparse LU (with a cached symbolic analysis) for rack-scale ones. The
//! default [`AutoBackend`] picks by node count, so existing call sites
//! transparently go sparse at scale while small networks keep the
//! historical bit-exact dense path.

use leakctl_units::SimDuration;

use crate::backend::{AutoBackend, SolverBackend};
use crate::error::ThermalError;
use crate::network::{ThermalNetwork, ThermalState};

/// Reusable stepping engine bound to one [`ThermalNetwork`]'s topology.
///
/// Create it once per network with [`TransientSolver::new`] (automatic
/// dense/CSR backend selection) or [`TransientSolver::with_backend`]
/// (explicit backend), and drive every step of a transient through it.
/// The solver may be used with the network it was built from *or any
/// clone of it* — caches key on globally unique generation numbers, so
/// switching between clones is always correct (at worst it costs a
/// re-assembly).
///
/// # Example
///
/// ```
/// use leakctl_thermal::{Coupling, ThermalNetworkBuilder, TransientSolver};
/// use leakctl_units::{
///     Celsius, SimDuration, ThermalCapacitance, ThermalConductance, Watts,
/// };
///
/// # fn main() -> Result<(), leakctl_thermal::ThermalError> {
/// let mut b = ThermalNetworkBuilder::new();
/// let die = b.add_node("die", ThermalCapacitance::new(120.0));
/// let ambient = b.add_boundary("ambient", Celsius::new(24.0));
/// b.connect(die, ambient, Coupling::Conductance(ThermalConductance::new(2.0)));
/// let mut net = b.build()?;
/// net.set_power(die, Watts::new(100.0))?;
///
/// let mut solver = TransientSolver::new(&net);
/// let mut state = net.uniform_state(Celsius::new(24.0));
/// for _ in 0..600 {
///     // After the first step this is allocation-free: cached assembly
///     // plus one back-substitution.
///     solver.step(&net, &mut state, SimDuration::from_secs(1))?;
/// }
/// assert!((net.temperature(&state, die).degrees() - 74.0).abs() < 0.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransientSolver<B: SolverBackend = AutoBackend> {
    n: usize,
    /// Structural identity of the network this solver was built for
    /// (shared by clones); guards the fixed sparsity/capacitance data.
    topology_id: u64,
    /// Matrix storage + factorization engine (dense or CSR).
    backend: B,
    // ---- cached assembly -------------------------------------------
    s_bound: Vec<f64>,
    s_power: Vec<f64>,
    /// Combined source `s = s_power + s_bound`, refreshed when either
    /// part goes stale.
    s: Vec<f64>,
    c: Vec<f64>,
    /// `G` assembly key: flow generation.
    g_key: Option<u64>,
    /// Boundary-source key: `(flow, boundary)` generations.
    bound_key: Option<(u64, u64)>,
    power_key: Option<u64>,
    // ---- factorization keys ----------------------------------------
    /// Backward-Euler `(C + h·G)` factorization key: `(h, flow)`.
    be_key: Option<(u64, u64)>,
    /// Steady-state `G` factorization key: flow generation.
    ss_key: Option<u64>,
    // ---- step workspaces -------------------------------------------
    rhs: Vec<f64>,
    x: Vec<f64>,
}

impl TransientSolver<AutoBackend> {
    /// Builds a solver sized for `net` with all caches cold, selecting
    /// the backend automatically: dense below
    /// [`CSR_NODE_THRESHOLD`](crate::backend::CSR_NODE_THRESHOLD) state
    /// nodes, CSR sparse at or above it.
    #[must_use]
    pub fn new(net: &ThermalNetwork) -> Self {
        Self::with_backend(net)
    }
}

impl<B: SolverBackend> TransientSolver<B> {
    /// Builds a solver for `net` over an explicitly chosen backend —
    /// see [`DenseTransientSolver`](crate::DenseTransientSolver) and
    /// [`CsrTransientSolver`](crate::CsrTransientSolver).
    #[must_use]
    pub fn with_backend(net: &ThermalNetwork) -> Self {
        let n = net.state_count();
        let mut c = vec![0.0; n];
        net.capacitances_into(&mut c);
        Self {
            n,
            topology_id: net.topology_id(),
            backend: B::build(net),
            s_bound: vec![0.0; n],
            s_power: vec![0.0; n],
            s: vec![0.0; n],
            c,
            g_key: None,
            bound_key: None,
            power_key: None,
            be_key: None,
            ss_key: None,
            rhs: vec![0.0; n],
            x: vec![0.0; n],
        }
    }

    /// `true` when the selected backend stores the system sparsely.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        self.backend.is_sparse()
    }

    /// Panics unless `net` is the network this solver was built for (or
    /// a clone of it). The fixed per-solver data — capacitances and the
    /// backend's structural sparsity — is only valid for that topology,
    /// so a structurally different network of the same dimension must
    /// be rejected rather than silently mis-stepped.
    fn check_topology(&self, net: &ThermalNetwork) {
        assert_eq!(
            net.topology_id(),
            self.topology_id,
            "network is not the one this solver was built for"
        );
    }

    /// Brings the assembled `(G, s, c)` caches up to date with `net`'s
    /// current generations.
    fn refresh(&mut self, net: &ThermalNetwork) {
        let flow_key = net.flow_generation();
        let bound_key = (flow_key, net.boundary_generation());
        let mut source_stale = false;
        if self.g_key != Some(flow_key) {
            self.backend.assemble_conductance(net, &mut self.s_bound);
            self.g_key = Some(flow_key);
            self.bound_key = Some(bound_key);
            source_stale = true;
        } else if self.bound_key != Some(bound_key) {
            // Boundary-only change: `G` stands, and the stencil replays
            // the same boundary products a full assembly would.
            net.assemble_boundary_source_into(&mut self.s_bound);
            self.bound_key = Some(bound_key);
            source_stale = true;
        }
        let power_key = net.power_generation();
        if self.power_key != Some(power_key) {
            net.assemble_power_into(&mut self.s_power);
            self.power_key = Some(power_key);
            source_stale = true;
        }
        if source_stale {
            for i in 0..self.n {
                self.s[i] = self.s_power[i] + self.s_bound[i];
            }
        }
    }

    /// Advances `state` by `dt` with one backward-Euler step, holding
    /// powers, boundary temperatures and flows constant over the step.
    ///
    /// After warm-up the call is allocation-free, and with unchanged
    /// `(dt, flows)` it reuses the cached factorization of `(C + h·G)`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when the implicit solve
    /// fails and [`ThermalError::Diverged`] when the step produced a
    /// non-finite temperature.
    ///
    /// # Panics
    ///
    /// Panics when `net` is not the network this solver was built for
    /// (or a clone of it), or when `state` does not match its
    /// dimension.
    pub fn step(
        &mut self,
        net: &ThermalNetwork,
        state: &mut ThermalState,
        dt: SimDuration,
    ) -> Result<(), ThermalError> {
        if dt.is_zero() {
            return Ok(());
        }
        self.check_topology(net);
        assert_eq!(
            state.temps.len(),
            self.n,
            "state does not match the solver's dimension"
        );
        self.refresh(net);
        let h = dt.as_secs_f64();
        // (C + h·G)·T' = C·T + h·s
        let key = (h.to_bits(), net.flow_generation());
        if self.be_key != Some(key) {
            if let Err(err) = self.backend.factor_be(&self.c, h) {
                self.be_key = None;
                return Err(err);
            }
            self.be_key = Some(key);
        }
        for (((rhs, &ci), &ti), &si) in self
            .rhs
            .iter_mut()
            .zip(&self.c)
            .zip(&state.temps)
            .zip(&self.s)
        {
            *rhs = ci * ti + h * si;
        }
        self.backend.solve_be_into(&self.rhs, &mut self.x)?;
        std::mem::swap(&mut state.temps, &mut self.x);
        if let Some(bad) = state.temps.iter().position(|t| !t.is_finite()) {
            return Err(ThermalError::Diverged {
                name: net.slot_name(bad).to_owned(),
            });
        }
        Ok(())
    }

    /// Advances `state` by `total`, internally substepping at `max_dt`.
    /// Every substep after the first reuses the cached factorization
    /// while inputs hold.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`TransientSolver::step`].
    ///
    /// # Panics
    ///
    /// Panics when `max_dt` is zero.
    pub fn run(
        &mut self,
        net: &ThermalNetwork,
        state: &mut ThermalState,
        total: SimDuration,
        max_dt: SimDuration,
    ) -> Result<(), ThermalError> {
        assert!(!max_dt.is_zero(), "max_dt must be non-zero");
        let mut remaining = total;
        while !remaining.is_zero() {
            let dt = remaining.min(max_dt);
            self.step(net, state, dt)?;
            remaining = remaining.saturating_sub(dt);
        }
        Ok(())
    }

    /// Directly solves for the steady-state temperatures under `net`'s
    /// current inputs, writing into `state` — the cached counterpart of
    /// [`ThermalNetwork::steady_state`]. `G`'s factorization is reused
    /// while flows stay constant, so fixed-point iterations that only
    /// move powers (e.g. the leakage–temperature loop) pay one
    /// back-substitution per iteration.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::SingularSystem`] when some capacitive
    /// node has no path to a boundary.
    ///
    /// # Panics
    ///
    /// Panics when `net` is not the network this solver was built for
    /// (or a clone of it), or when `state` does not match its
    /// dimension.
    pub fn steady_state_into(
        &mut self,
        net: &ThermalNetwork,
        state: &mut ThermalState,
    ) -> Result<(), ThermalError> {
        self.check_topology(net);
        assert_eq!(
            state.temps.len(),
            self.n,
            "state does not match the solver's dimension"
        );
        self.refresh(net);
        let key = net.flow_generation();
        if self.ss_key != Some(key) {
            if let Err(err) = self.backend.factor_steady() {
                self.ss_key = None;
                return Err(err);
            }
            self.ss_key = Some(key);
        }
        self.backend.solve_steady_into(&self.s, &mut state.temps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CsrBackend, DenseBackend};
    use crate::network::{Coupling, ThermalNetworkBuilder};
    use leakctl_units::{AirFlow, Celsius, ThermalCapacitance, ThermalConductance, Watts};

    fn two_node() -> (
        ThermalNetwork,
        crate::NodeId,
        crate::NodeId,
        crate::FlowChannelId,
    ) {
        let mut b = ThermalNetworkBuilder::new();
        let die = b.add_node("die", ThermalCapacitance::new(100.0));
        let sink = b.add_node("sink", ThermalCapacitance::new(500.0));
        let amb = b.add_boundary("amb", Celsius::new(24.0));
        b.connect(
            die,
            sink,
            Coupling::Conductance(ThermalConductance::new(4.0)),
        )
        .unwrap();
        let ch = b.add_flow_channel("duct");
        let model = crate::ConvectionModel::turbulent(
            ThermalConductance::new(3.0),
            AirFlow::from_cfm(300.0),
        );
        b.connect(sink, amb, Coupling::Convective { channel: ch, model })
            .unwrap();
        let mut net = b.build().unwrap();
        net.set_flow(ch, AirFlow::from_cfm(200.0)).unwrap();
        net.set_power(die, Watts::new(60.0)).unwrap();
        (net, die, amb, ch)
    }

    #[test]
    fn cached_trajectory_matches_stateless_wrapper() {
        let (mut net, die, amb, ch) = two_node();
        let mut solver = TransientSolver::new(&net);
        let mut cached = net.uniform_state(Celsius::new(24.0));
        let mut stateless = net.uniform_state(Celsius::new(24.0));
        let dt = SimDuration::from_millis(500);
        for step in 0..400 {
            // Exercise every invalidation path mid-run: a flow, a
            // power, then a boundary moving every step (the stencil
            // replay, `G` kept) with one more flow change on top.
            if step == 100 || step == 320 {
                net.set_flow(ch, AirFlow::from_cfm(200.0 + step as f64))
                    .unwrap();
            }
            if step == 200 {
                net.set_power(die, Watts::new(120.0)).unwrap();
            }
            if step >= 250 {
                let inlet = Celsius::new(24.0 + 0.01 * f64::from(step - 250));
                net.set_boundary(amb, inlet).unwrap();
            }
            solver.step(&net, &mut cached, dt).unwrap();
            // Reference: a throwaway solver that assembles and factors
            // from scratch.
            TransientSolver::new(&net)
                .step(&net, &mut stateless, dt)
                .unwrap();
        }
        for (a, b) in cached.temps.iter().zip(&stateless.temps) {
            assert_eq!(a.to_bits(), b.to_bits(), "cached {a} vs stateless {b}");
        }
    }

    #[test]
    fn csr_backend_matches_dense_backend() {
        let (mut net, die, _, ch) = two_node();
        let mut dense = TransientSolver::<DenseBackend>::with_backend(&net);
        let mut csr = TransientSolver::<CsrBackend>::with_backend(&net);
        assert!(!dense.is_sparse() && csr.is_sparse());
        let mut sd = net.uniform_state(Celsius::new(24.0));
        let mut sc = net.uniform_state(Celsius::new(24.0));
        let dt = SimDuration::from_millis(500);
        for step in 0..300 {
            if step == 80 {
                net.set_flow(ch, AirFlow::from_cfm(440.0)).unwrap();
            }
            if step == 160 {
                net.set_power(die, Watts::new(95.0)).unwrap();
            }
            dense.step(&net, &mut sd, dt).unwrap();
            csr.step(&net, &mut sc, dt).unwrap();
        }
        for (a, b) in sd.temps.iter().zip(&sc.temps) {
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(1.0),
                "dense {a} vs csr {b}"
            );
        }
    }

    #[test]
    fn csr_steady_state_matches_dense() {
        let (net, die, _, _) = two_node();
        let mut dense = TransientSolver::<DenseBackend>::with_backend(&net);
        let mut csr = TransientSolver::<CsrBackend>::with_backend(&net);
        let mut sd = net.uniform_state(Celsius::new(0.0));
        let mut sc = net.uniform_state(Celsius::new(0.0));
        dense.steady_state_into(&net, &mut sd).unwrap();
        csr.steady_state_into(&net, &mut sc).unwrap();
        let a = net.temperature(&sd, die).degrees();
        let b = net.temperature(&sc, die).degrees();
        assert!((a - b).abs() < 1e-10, "dense {a} vs csr {b}");
    }

    #[test]
    fn auto_backend_selects_by_node_count() {
        let (net, _, _, _) = two_node();
        assert!(!TransientSolver::new(&net).is_sparse());
        // A long chain above the threshold must auto-select CSR.
        let mut b = ThermalNetworkBuilder::new();
        let amb = b.add_boundary("amb", Celsius::new(24.0));
        let mut prev = b.add_node("n0", ThermalCapacitance::new(10.0));
        b.connect(
            prev,
            amb,
            Coupling::Conductance(ThermalConductance::new(1.0)),
        )
        .unwrap();
        for i in 1..crate::backend::CSR_NODE_THRESHOLD {
            let node = b.add_node(&format!("n{i}"), ThermalCapacitance::new(10.0));
            b.connect(
                node,
                prev,
                Coupling::Conductance(ThermalConductance::new(2.0)),
            )
            .unwrap();
            prev = node;
        }
        let big = b.build().unwrap();
        let mut solver = TransientSolver::new(&big);
        assert!(solver.is_sparse());
        // And it steps/solves sanely.
        let mut state = big.uniform_state(Celsius::new(24.0));
        solver
            .step(&big, &mut state, SimDuration::from_secs(1))
            .unwrap();
        assert!(state.is_finite());
    }

    #[test]
    fn steady_state_into_matches_direct_solve() {
        let (net, die, _, _) = two_node();
        let mut solver = TransientSolver::new(&net);
        let mut state = net.uniform_state(Celsius::new(0.0));
        solver.steady_state_into(&net, &mut state).unwrap();
        let direct = net.steady_state().unwrap();
        assert!(
            (net.temperature(&state, die).degrees() - net.temperature(&direct, die).degrees())
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn steady_state_reuses_factorization_across_power_changes() {
        let (mut net, die, _, _) = two_node();
        let mut solver = TransientSolver::new(&net);
        let mut state = net.uniform_state(Celsius::new(0.0));
        solver.steady_state_into(&net, &mut state).unwrap();
        let t1 = net.temperature(&state, die).degrees();
        net.set_power(die, Watts::new(120.0)).unwrap();
        solver.steady_state_into(&net, &mut state).unwrap();
        let t2 = net.temperature(&state, die).degrees();
        // Linear network: doubling power doubles the rise.
        assert!(((t2 - 24.0) - 2.0 * (t1 - 24.0)).abs() < 1e-9);
    }

    #[test]
    fn singular_network_reported_and_recoverable() {
        let mut b = ThermalNetworkBuilder::new();
        b.add_node("floating", ThermalCapacitance::new(1.0));
        let net = b.build().unwrap();
        let mut solver = TransientSolver::new(&net);
        let mut state = net.uniform_state(Celsius::new(24.0));
        assert!(matches!(
            solver.steady_state_into(&net, &mut state),
            Err(ThermalError::SingularSystem)
        ));
        // Backward Euler stays solvable: (C + h·G) = C is regular.
        solver
            .step(&net, &mut state, SimDuration::from_secs(1))
            .unwrap();
    }

    #[test]
    fn works_against_a_clone_with_diverged_inputs() {
        let (net, die, _, _) = two_node();
        let mut clone = net.clone();
        clone.set_power(die, Watts::new(200.0)).unwrap();
        let mut solver = TransientSolver::new(&net);
        let dt = SimDuration::from_secs(1);
        let mut a = net.uniform_state(Celsius::new(24.0));
        let mut b = clone.uniform_state(Celsius::new(24.0));
        // Alternate between the original and the mutated clone; caches
        // must track whichever network each call sees.
        for _ in 0..50 {
            solver.step(&net, &mut a, dt).unwrap();
            solver.step(&clone, &mut b, dt).unwrap();
        }
        let mut fresh = net.uniform_state(Celsius::new(24.0));
        for _ in 0..50 {
            TransientSolver::new(&net)
                .step(&net, &mut fresh, dt)
                .unwrap();
        }
        for (x, y) in a.temps.iter().zip(&fresh.temps) {
            assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0));
        }
        assert!(
            b.temps[0] > a.temps[0] + 1.0,
            "clone at higher power must run hotter"
        );
    }
}
